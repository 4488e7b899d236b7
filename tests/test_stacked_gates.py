"""The compact 2x2 gates on whole time grids.

``exp_2x2`` takes a ``(..., 2, 2)`` stack, the 2x2 gates take an array of
times, and ``cli.cmd_trotter`` builds its whole grid in one
``analytic_us`` and one ``trotter_squeeze`` call.  ``loop_trotter_rows``
below is the per-time loop that grid replaces, kept as the reference: the
rows must be equal as text.  The Fock gates take one time per call.
"""

import re
import warnings

import numpy as np
import pytest

from fluxsqueeze.cli import cmd_trotter, fmt
from fluxsqueeze.config import build_config
from fluxsqueeze.errors import ParameterError, WrongRegimeError
from fluxsqueeze.gates import (
    analytic_us,
    gate_distance,
    gate_u0,
    gate_u1,
    squeeze_operator,
    trotter_squeeze,
)
from fluxsqueeze.operators import FockSpace, exp_2x2, su11_generators_2x2
from fluxsqueeze.physics import CircuitParams

P09 = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
G = su11_generators_2x2()


def loop_trotter_rows(cfg):
    p = cfg.circuit()
    t_max = cfg.t if cfg.t is not None else 15.0
    rows = []
    for t in np.linspace(0.0, t_max, cfg.t_steps):
        us = analytic_us(p, float(t), "2x2")
        up = trotter_squeeze(p, float(t), cfg.m_steps, "2x2", convention=cfg.convention)
        dev = gate_distance(up, us)
        cells = [fmt(float(t))]
        for mat in (us, up):
            for i in (0, 1):
                for j in (0, 1):
                    cells += [fmt(mat[i, j].real), fmt(mat[i, j].imag)]
        cells += [fmt(dev), "ok" if dev <= cfg.trotter_threshold else "exceeds"]
        rows.append(",".join(cells))
    return rows


def _stack(rng, n=64):
    """Random complex 2x2 matrices with zero, pure-trig and
    pure-hyperbolic members mixed in."""
    stack = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    stack[0] = 0.0
    stack[1] = -1j * 2.5 * G.gamma3
    stack[2] = -1j * -3.0 * G.gamma1
    stack[3] = -1j * 4.0 * G.gamma2
    stack[4] = 0.7j * np.eye(2)
    return stack


def test_exp_2x2_stack_equals_the_per_matrix_loop():
    stack = _stack(np.random.default_rng(11))
    got = exp_2x2(stack)
    assert got.shape == (64, 2, 2)
    assert np.array_equal(got, np.array([exp_2x2(k) for k in stack]))
    # a leading batch shape of more than one axis works the same way
    assert np.array_equal(exp_2x2(stack.reshape(8, 8, 2, 2)), got.reshape(8, 8, 2, 2))


def test_exp_2x2_cap_names_the_first_over_cap_member():
    stack = np.array([-1j * t * G.gamma1 for t in (1.0, 2.0, 12.0, 3.0, 11.0)])
    with pytest.raises(WrongRegimeError, match=re.escape("|12.00| exceeds cap")):
        exp_2x2(stack)
    with pytest.raises(WrongRegimeError, match=re.escape("|11.00| exceeds cap")):
        exp_2x2(np.delete(stack, 2, axis=0))


@pytest.mark.parametrize("t", [1e200, 1e300])
def test_over_cap_member_whose_determinant_overflowed_is_a_regime_error_without_warnings(t):
    # det B overflows for both members; the pure phase is formed again and passes, the
    # hyperbolic member is named with its true argument, not inf
    stack = np.array([-1j * t * G.gamma3, -1j * t * G.gamma1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WrongRegimeError, match=re.escape(f"|{t:#.4g}| exceeds cap")):
            exp_2x2(stack)
        assert np.allclose(np.abs(exp_2x2(stack[:1])), np.eye(2), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 2, 3)])
def test_exp_2x2_rejects_non_2x2_shapes(shape):
    with pytest.raises(ParameterError, match="exp_2x2 needs"):
        exp_2x2(np.zeros(shape))


def test_gate_distance_float_for_matrices_array_for_stacks():
    a = np.eye(2)
    b = np.array([[1.0, 0.5], [0.0, 1.0]])
    dev = gate_distance(a, b)
    assert type(dev) is float and dev == 0.5
    stack_a = np.array([a, a, 2 * a])
    stack_b = np.array([a, b, a])
    devs = gate_distance(stack_a, stack_b)
    assert isinstance(devs, np.ndarray)
    assert devs.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ParameterError, match="shape mismatch"):
        gate_distance(stack_a, a)


@pytest.mark.parametrize("convention", ["matched", "swapped"])
def test_stacked_gates_equal_one_call_per_time(convention):
    ts = np.linspace(0.0, 6.0, 13)
    for gate in (gate_u0, gate_u1, analytic_us):
        stack = gate(P09, ts, "2x2")
        assert stack.shape == (13, 2, 2)
        assert np.array_equal(stack, np.array([gate(P09, float(t), "2x2") for t in ts]))
    stack = trotter_squeeze(P09, ts, 7, "2x2", convention=convention)
    loop = [trotter_squeeze(P09, float(t), 7, "2x2", convention=convention) for t in ts]
    assert np.array_equal(stack, np.array(loop))


@pytest.mark.parametrize("convention", ["matched", "swapped"])
@pytest.mark.parametrize(
    "flags",
    [
        {"m_steps": 1},
        {"m_steps": 7},
        {"m_steps": 100},
        {"m_steps": 100, "two_pi": True},
        {"t_steps": 2},
        {"t": 5.0, "m_steps": 7},
        {"f_s": 0.7},
    ],
)
def test_cmd_trotter_equals_the_per_time_loop(convention, flags):
    cfg = build_config({}, {"convention": convention, **flags})
    lines = cmd_trotter(cfg).splitlines()
    assert lines[2:] == loop_trotter_rows(cfg)
    assert len(lines) == 2 + cfg.t_steps


def test_cmd_trotter_over_cap_reports_the_first_time_in_grid_order():
    cfg = build_config({}, {"t": 100.0})
    with pytest.raises(WrongRegimeError) as grid:
        cmd_trotter(cfg)
    with pytest.raises(WrongRegimeError) as loop:
        loop_trotter_rows(cfg)
    assert str(grid.value) == str(loop.value)


@pytest.mark.parametrize("n_times", [3, 4])
@pytest.mark.parametrize("gate", [gate_u0, gate_u1, analytic_us])
def test_fock_gates_reject_a_time_array(gate, n_times):
    # FockSpace(8) has four levels per parity sector: four times once
    # broadcast against them silently, three failed inside numpy
    ts = np.linspace(0.1, 0.4, n_times)
    with pytest.raises(ParameterError, match="one time per call"):
        gate(P09, ts, "fock", FockSpace(8))


def test_fock_trotter_rejects_a_time_array():
    with pytest.raises(ParameterError, match="one time per call"):
        trotter_squeeze(P09, np.array([0.1, 0.2, 0.3, 0.4]), 10, "fock", FockSpace(8))


@pytest.mark.parametrize("rep", ["2x2", "fock"])
def test_squeeze_operator_rejects_a_time_array(rep):
    # its target is a closed form of one eta2
    with pytest.raises(ParameterError, match="squeeze_operator takes one time per call"):
        squeeze_operator(P09, np.array([0.5, 1.0]), rep=rep, space=FockSpace(8))
