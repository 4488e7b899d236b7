"""The selftest battery shares one solve of the full Hamiltonian.

``propagator_unitarity`` and ``eigen_reconstruction`` both start from
the eigenpairs of the complex full Hamiltonian at the configured
dimension, and ``truncation_convergence`` takes its eigenvalues as the
lower rung; the battery solves it once.  The closed-form 2x2 check takes
its ``math.*`` references per point and combines them as one stack, with
the bits of the per-point matrices it replaced.
"""

import math

import numpy as np

from fluxsqueeze import operators, selftest
from fluxsqueeze.config import RunConfig

# warm eigh calls of a default run_selftest before the full Hamiltonian's
# three identical solves were shared
SOLVES_BEFORE_SHARING = 8


def _count_eigh(monkeypatch, fn):
    eigh = np.linalg.eigh
    shapes = []

    def counting(mat, *args, **kwargs):
        shapes.append(mat.shape[0])
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    fn()
    return shapes


def test_default_selftest_solves_the_full_hamiltonian_once(monkeypatch):
    cfg = RunConfig()
    selftest.run_selftest(cfg)  # fills the term and generator caches
    shapes = _count_eigh(monkeypatch, lambda: selftest.run_selftest(cfg))
    assert len(shapes) == SOLVES_BEFORE_SHARING - 2
    # the truncation check solves only its upper rung
    assert shapes.count(2 * cfg.dim) == 1


def test_shared_propagator_keeps_the_unitarity_guard(monkeypatch):
    # the shared guard runs inside propagator, apart from the selftest's
    # own printed residual
    inside, checked = [], []
    guard, propagate = operators.unitarity_residual, operators.propagator

    def counting_guard(u):
        checked.append((u.shape, bool(inside)))
        return guard(u)

    def tracked_propagator(*args):
        inside.append(True)
        try:
            return propagate(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(operators, "unitarity_residual", counting_guard)
    monkeypatch.setattr(operators, "propagator", tracked_propagator)
    checks, passed = selftest.run_selftest(RunConfig(dim=30))
    assert passed and ((30, 30), True) in checked


def _closed_forms_per_point():
    g = operators.su11_generators_2x2()
    eye = np.eye(2)
    gts = np.linspace(-5.0, 5.0, 41)
    worst = 0.0
    for gen, even, odd in (
        (g.gamma1, math.cosh, math.sinh),
        (g.gamma2, math.cosh, math.sinh),
        (g.gamma3, math.cos, math.sin),
    ):
        got = operators.exp_2x2(-1j * gts[:, None, None] * gen)
        want = np.array([even(gt) * eye - 1j * gen * odd(gt) for gt in gts])
        worst = max(worst, np.abs(got - want).max())
    return worst


def test_closed_form_references_keep_the_per_point_bits():
    assert repr(selftest._closed_forms_2x2().value) == repr(float(_closed_forms_per_point()))
