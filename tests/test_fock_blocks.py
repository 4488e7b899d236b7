"""The Fock gates on their parity blocks against the dense path they replace.

``gates.Fock`` carries every parity-keeping gate as its (even, odd) pair
of sector blocks and joins them into one matrix only at the public edge.
The ``dense_*`` functions below are the path it replaces, kept as the
reference: each exponential joined into a zeroed dim x dim matrix at
once, U0 applied as a row and column scaling of that matrix, the power
taken on strided sector views and joined again, the leak measured and
the residual taken on the full matrices.  Every public result must have
the reference's bytes.  ``SqueezeResult.s`` must have them on both
sector blocks and equal the reference entry for entry: off the sectors
the reference's phase scaling leaves zeros of either sign, the join
leaves +0.  At dims 2 and 3, where a sector block is one entry, the
composed squeeze may differ from the reference in the last bit.
"""

import warnings

import numpy as np
import pytest

from fluxsqueeze import gates, operators
from fluxsqueeze.errors import SimulationError, TruncationLeakWarning
from fluxsqueeze.gates import analytic_us, gate_u1, squeeze_operator, trotter_squeeze
from fluxsqueeze.operators import (
    _exp_i_eig,
    _finite_phases,
    _generator_eig,
    exp_generator,
    hermitian_eig,
    join_sectors,
    make_fock_space,
    parity_sectors,
    sector_tridiagonal,
    warn_on_truncation_leak,
)
from fluxsqueeze.physics import CircuitParams, reduced_params

P09 = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
P07 = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.7)
DIMS = [2, 3, 8, 21, 61, 120, 240]
EPS = np.finfo(float).eps


def dense_exp_sectors(dim, eigs, theta):
    return join_sectors(dim, (_exp_i_eig(_finite_phases(theta, w), v) for w, v in eigs))


def dense_exp_generator(dim, name, theta):
    return dense_exp_sectors(dim, _generator_eig(dim, name), theta)


def dense_phases(p, t, dim):
    return np.exp(_finite_phases(float(t), -1j * p.omega0 * np.arange(dim)))


def dense_u1(p, t, dim):
    r = reduced_params(p)
    eigs = [hermitian_eig(sector_tridiagonal(0.0 - r.eta1 * band, diag=r.omega1 * n))
            for n, band in parity_sectors(dim)]
    return dense_exp_sectors(dim, eigs, -float(t))


def dense_power(mat, m):
    even, odd = mat[0::2, 0::2], mat[1::2, 1::2]
    return join_sectors(len(mat), (np.linalg.matrix_power(b, m) for b in (even, odd)))


def dense_core(p, t, space, sched=None):
    dim = space.dim
    if sched is None:
        u, what = dense_exp_generator(dim, "gamma1", 2.0 * reduced_params(p).eta1 * t), \
            "analytic squeezing propagator"
    else:
        step = dense_phases(p, -(sched.t_prime / sched.m), dim)[:, None] * dense_u1(p, t / sched.m, dim)
        u, what = dense_power(step, sched.m), "interleaved squeezing product"
    warn_on_truncation_leak(u, space, what)
    return u


def dense_squeeze(p, t, space, backend):
    """(eta2, s, target, residual) as the dense path formed them."""
    r = reduced_params(p)
    sched = gates._schedule(r, t, 100, 0, "matched")
    core = dense_core(p, t, space, sched if backend == "trotter" else None)
    ph = dense_phases(p, sched.t_dprime, space.dim)
    composed = ph[:, None] * core * ph.conj()[None, :]
    eta2 = -r.eta1 * t
    target = dense_exp_generator(space.dim, "gamma2", -2.0 * eta2)
    warn_on_truncation_leak(composed, space, "composed squeezing operator")
    return eta2, composed, target, gates.gate_distance(composed, target)


def recorded(call):
    """The call's result and the text of each truncation-leak warning it gave."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        out = call()
    assert all(issubclass(w.category, TruncationLeakWarning) for w in log)
    return out, [str(w.message) for w in log]


def same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("t", [1.0, -1.0, 0.37])
@pytest.mark.parametrize("dim", DIMS)
def test_public_fock_gates_keep_the_dense_bytes(dim, t):
    space = make_fock_space(dim)
    for got, want in [
        (lambda: gate_u1(P09, t, "fock", space), lambda: dense_u1(P09, t, dim)),
        (lambda: analytic_us(P09, t, "fock", space), lambda: dense_core(P09, t, space)),
        (lambda: trotter_squeeze(P09, t, 100, "fock", space),
         lambda: dense_core(P09, t, space, gates.make_schedule(P09, t, 100))),
        (lambda: exp_generator(space, "gamma1", 2.0 * t), lambda: dense_exp_generator(dim, "gamma1", 2.0 * t)),
        (lambda: exp_generator(space, "gamma2", t), lambda: dense_exp_generator(dim, "gamma2", t)),
    ]:
        (out, messages), (ref, ref_messages) = recorded(got), recorded(want)
        same_bytes(out, ref)
        assert messages == ref_messages


@pytest.mark.parametrize("backend", ["analytic", "trotter"])
@pytest.mark.parametrize("p, t", [(P09, 1.0), (P09, -1.0), (P07, 0.61)])
@pytest.mark.parametrize("dim", DIMS)
def test_fock_squeeze_keeps_the_dense_bytes(dim, p, t, backend):
    space = make_fock_space(dim)
    res, messages = recorded(lambda: squeeze_operator(p, t, rep="fock", space=space, backend=backend))
    (eta2, s, target, residual), ref_messages = recorded(lambda: dense_squeeze(p, t, space, backend))
    assert messages == ref_messages and res.eta2 == eta2
    same_bytes(res.target, target)
    if dim < 4:
        # a sector block of one entry is multiplied in numpy's scalar loop, a dense row in
        # its fused multiply-add vector loop, so the U0 conjugation may move the last bit
        assert abs(res.residual - residual) <= EPS and np.abs(res.s - s).max() <= EPS
        return
    assert repr(res.residual) == repr(residual)
    assert np.array_equal(res.s, s)
    for k in (0, 1):
        same_bytes(res.s[k::2, k::2], s[k::2, k::2])


def test_squeeze_result_joins_each_matrix_once_when_read():
    res = squeeze_operator(P09, 1.0, rep="fock", space=make_fock_space(12))
    assert "s" not in vars(res) and "target" not in vars(res)
    assert res.s is res.s and res.target is res.target
    assert res.s.flags.writeable and res.target.flags.writeable


def test_target_blocks_are_one_read_only_cache_entry():
    space = make_fock_space(16)
    form = gates.representation("fock", space)
    blocks = form.target(0.25)
    assert form.target(0.25) is blocks
    assert [b.shape for b in blocks] == [(8, 8), (8, 8)]
    for block in blocks:
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    form.target(0.26)
    assert gates._target_blocks.cache_info().currsize == 1


@pytest.mark.parametrize("backend", ["analytic", "trotter"])
def test_round_trip_runs_on_every_block(monkeypatch, backend):
    # the core's two blocks, and the target's two on a fill; a cache hit runs none
    space = make_fock_space(20)
    calls = []
    residual = operators.unitarity_residual

    def counted(u):
        calls.append(u.shape)
        return residual(u)

    monkeypatch.setattr(operators, "unitarity_residual", counted)
    gates._target_blocks.cache_clear()
    squeeze_operator(P09, 0.8, rep="fock", space=space, backend=backend)
    assert calls == [(10, 10)] * 4
    calls.clear()
    squeeze_operator(P09, 0.8, rep="fock", space=space, backend=backend)
    assert calls == [(10, 10)] * 2


def test_core_round_trip_fires_on_blocks(monkeypatch):
    space = make_fock_space(10)
    monkeypatch.setattr(operators, "EXP_ROUNDTRIP_ATOL", -1.0)
    for call in (lambda: analytic_us(P09, 1.0, "fock", space),
                 lambda: squeeze_operator(P09, 1.0, rep="fock", space=space),
                 lambda: squeeze_operator(P09, 1.0, rep="fock", space=space, backend="trotter")):
        with pytest.raises(SimulationError, match=r"exp\(K\)exp\(-K\) residual"):
            call()


def test_target_cache_fill_keeps_the_round_trip(monkeypatch):
    form = gates.representation("fock", make_fock_space(10))
    gates._target_blocks.cache_clear()
    monkeypatch.setattr(operators, "EXP_ROUNDTRIP_ATOL", -1.0)
    with pytest.raises(SimulationError, match=r"exp\(K\)exp\(-K\) residual"):
        form.target(0.3)
    assert gates._target_blocks.cache_info().currsize == 0
    monkeypatch.undo()
    assert len(form.target(0.3)) == 2


def test_u1_sector_solves_keep_their_guards(monkeypatch):
    form = gates.representation("fock", make_fock_space(10))
    r = reduced_params(P09)
    monkeypatch.setattr(operators, "RECONSTRUCTION_RTOL", -1.0)
    with pytest.raises(SimulationError, match="eigen-reconstruction"):
        form.u1(r, 1.0)
    monkeypatch.undo()
    monkeypatch.setattr(operators, "EXP_ROUNDTRIP_ATOL", -1.0)
    with pytest.raises(SimulationError, match=r"exp\(K\)exp\(-K\) residual"):
        form.u1(r, 1.0)


@pytest.mark.parametrize("backend", ["analytic", "trotter"])
def test_leaky_squeeze_warns_as_the_dense_path(backend):
    space = make_fock_space(20)
    _, messages = recorded(lambda: squeeze_operator(P09, 3.0, rep="fock", space=space, backend=backend))
    _, ref_messages = recorded(lambda: dense_squeeze(P09, 3.0, space, backend))
    assert len(messages) == 2 and messages == ref_messages
    assert messages[1].startswith("composed squeezing operator: low-lying states put ")
    assert "of their weight in the top 10% of 20 levels (threshold 1e-06)" in messages[1]


@pytest.mark.parametrize("dim", [2, 3, 8, 19, 20, 61, 240])
def test_truncation_leak_of_blocks_is_the_joined_matrix_leak(dim):
    space = make_fock_space(dim)
    blocks = gates.representation("fock", space).target(0.9)
    assert operators.truncation_leak(blocks, space) == operators.truncation_leak(
        join_sectors(dim, blocks), space)
