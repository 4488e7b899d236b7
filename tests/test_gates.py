import math

import numpy as np
import pytest

from fluxsqueeze.circuit import CircuitParams, reduced_params
from fluxsqueeze.errors import (
    ParameterError,
    SimulationError,
    TruncationLeakWarning,
    WrongRegimeError,
)
from fluxsqueeze.gates import (
    analytic_us,
    gate_distance,
    gate_u0,
    gate_u1,
    make_schedule,
    squeeze_operator,
    squeeze_target,
    trotter_squeeze,
)
from fluxsqueeze.operators import make_fock_space, su11_generators_2x2

P09 = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
P05 = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.5)

# frozen regression values for the interleaved product at M=100, f_s=0.9
# (matched step convention, 2x2 representation)
TROTTER_DEV_T1_M100 = 7.627064060611e-03
TROTTER_DEV_T15_M100 = 1.565542995878e02


def test_schedule_swapped_convention_times():
    r = reduced_params(P09)
    for k in (0, 1, 2):
        sched = make_schedule(P09, t=2.0, m=50, k=k, convention="swapped")
        assert sched.t_prime == pytest.approx(r.omega0 * 2.0 / r.omega1, rel=1e-14)
        assert r.omega1 * sched.t_dprime == pytest.approx((4 * k + 1) * math.pi / 4, rel=1e-14)


def test_schedule_matched_convention_cancels_frame_phase():
    r = reduced_params(P09)
    sched = make_schedule(P09, t=2.0, m=50, k=1, convention="matched")
    assert r.omega0 * sched.t_prime == pytest.approx(r.omega1 * 2.0, rel=1e-14)
    assert r.omega0 * sched.t_dprime == pytest.approx(5 * math.pi / 4, rel=1e-14)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        make_schedule(P09, 1.0, m=0)
    with pytest.raises(ParameterError):
        make_schedule(P09, 1.0, m=10, k=-1)
    with pytest.raises(ParameterError):
        make_schedule(P09, 1.0, m=10, convention="sideways")


def test_u0_zero_time_both_reps():
    space = make_fock_space(20)
    assert np.abs(gate_u0(P09, 0.0, "2x2") - np.eye(2)).max() < 1e-15
    assert np.abs(gate_u0(P09, 0.0, "fock", space) - np.eye(20)).max() < 1e-15


def test_u0_2x2_quarter_period():
    t = math.pi / (2.0 * P09.omega0)
    u = gate_u0(P09, t, "2x2")
    expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    assert np.abs(u - expected).max() < 1e-13


def test_u0_fock_full_period_is_identity():
    space = make_fock_space(40)
    u = gate_u0(P09, 2.0 * math.pi / P09.omega0, "fock", space)
    assert np.abs(u - np.eye(40)).max() < 1e-12


def test_u1_equals_u0_at_sweet_spot():
    space = make_fock_space(24)
    for t in (0.3, 1.7):
        assert gate_distance(gate_u1(P05, t, "2x2"), gate_u0(P05, t, "2x2")) < 1e-12
        assert (
            gate_distance(gate_u1(P05, t, "fock", space), gate_u0(P05, t, "fock", space))
            < 1e-12
        )


def test_u1_zero_time():
    assert np.abs(gate_u1(P09, 0.0, "2x2") - np.eye(2)).max() < 1e-15


def test_u1_fock_unitarity():
    space = make_fock_space(60)
    u = gate_u1(P09, 1.0, "fock", space)
    assert np.abs(u @ u.conj().T - np.eye(60)).max() <= 1e-9


def test_analytic_us_zero_time():
    assert np.abs(analytic_us(P09, 0.0, "2x2") - np.eye(2)).max() < 1e-15


def test_analytic_us_2x2_closed_form_structure():
    # pick t so that 2 eta1 t = -0.48 and compare with the hyperbolic form
    r = reduced_params(P09)
    t = -0.24 / r.eta1
    u = analytic_us(P09, t, "2x2")
    g = su11_generators_2x2()
    expected = math.cosh(0.48) * np.eye(2) - 1j * g.gamma1 * math.sinh(0.48)
    assert np.abs(u - expected).max() < 1e-12
    assert abs(abs(u[0, 1]) - math.sinh(0.48)) < 1e-12
    assert math.sinh(0.48) == pytest.approx(0.4986, abs=1e-4)


def _between_sectors(mat):
    # entries linking an even level to an odd one
    i, j = np.indices(mat.shape)
    return mat[(i + j) % 2 == 1]


@pytest.mark.parametrize("t", [1.0, -0.4])
@pytest.mark.parametrize("dim", [2, 3, 8, 60, 121])
def test_gate_u1_fock_matches_dense_exponential(dim, t):
    from fluxsqueeze.operators import annihilation, exp_normal

    space = make_fock_space(dim)
    r = reduced_params(P09)
    a = annihilation(space).matrix
    ad = a.conj().T
    h1 = r.omega1 * (ad @ a) - r.eta1 * (a @ a + ad @ ad)
    assert np.abs(gate_u1(P09, t, "fock", space) - exp_normal(-1j * h1 * t)).max() < 1e-12


@pytest.mark.filterwarnings("ignore::fluxsqueeze.errors.TruncationLeakWarning")
@pytest.mark.parametrize("dim", [9, 60])
def test_fock_gates_are_exactly_zero_between_parity_sectors(dim):
    space = make_fock_space(dim)
    for mat in (
        gate_u1(P09, 1.0, "fock", space),
        analytic_us(P09, 1.0, "fock", space),
        squeeze_target(0.3, "fock", space),
        trotter_squeeze(P09, 1.0, 100, "fock", space),
    ):
        assert np.all(_between_sectors(mat) == 0.0)


def test_gate_u1_fock_keeps_guards(monkeypatch):
    from fluxsqueeze import operators

    space = make_fock_space(10)
    monkeypatch.setattr(operators, "EXP_ROUNDTRIP_ATOL", -1.0)
    with pytest.raises(SimulationError, match="exp\\(K\\)exp\\(-K\\) residual"):
        gate_u1(P09, 1.0, "fock", space)
    monkeypatch.undo()
    monkeypatch.setattr(operators, "RECONSTRUCTION_RTOL", -1.0)
    with pytest.raises(SimulationError, match="eigen-reconstruction"):
        gate_u1(P09, 1.0, "fock", space)


@pytest.mark.filterwarnings("ignore::fluxsqueeze.errors.TruncationLeakWarning")
@pytest.mark.parametrize("t", [1.0, -1.0])
@pytest.mark.parametrize("dim", [2, 3, 8, 60, 121])
def test_analytic_us_fock_matches_generator_exponential(dim, t):
    from fluxsqueeze.operators import annihilation, exp_normal

    space = make_fock_space(dim)
    r = reduced_params(P09)
    a = annihilation(space).matrix
    ad = a.conj().T
    gen = 2j * r.eta1 * t * 0.5 * (a @ a + ad @ ad)
    assert np.abs(analytic_us(P09, t, "fock", space) - exp_normal(gen)).max() < 1e-12


@pytest.mark.parametrize("eta2", [0.3, -0.3])
@pytest.mark.parametrize("dim", [2, 3, 8, 60, 121])
def test_squeeze_target_fock_matches_generator_exponential(dim, eta2):
    from fluxsqueeze.operators import annihilation, exp_normal

    space = make_fock_space(dim)
    a = annihilation(space).matrix
    ad = a.conj().T
    want = exp_normal(eta2 * (a @ a - ad @ ad))
    assert np.abs(squeeze_target(eta2, "fock", space) - want).max() < 1e-12


@pytest.mark.parametrize("backend, solves", [("analytic", 0), ("trotter", 1)])
def test_fock_squeeze_reuses_cached_generator_eigenbasis(monkeypatch, backend, solves):
    space = make_fock_space(48)
    squeeze_operator(P09, 1.0, rep="fock", space=space, backend=backend)  # fill the cache
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for t in (0.7, 1.3):
        squeeze_operator(P09, t, rep="fock", space=space, backend=backend)
    # gate_u1 solves its even and odd sectors of 24 levels each
    assert calls == [24, 24] * (2 * solves)


def test_trotter_sweet_spot_collapses_to_identity():
    space = make_fock_space(30)
    assert np.abs(trotter_squeeze(P05, 3.0, 40, "2x2") - np.eye(2)).max() < 1e-12
    assert np.abs(trotter_squeeze(P05, 3.0, 40, "fock", space) - np.eye(30)).max() < 1e-12


def test_trotter_matched_deviation_regression():
    us = analytic_us(P09, 1.0, "2x2")
    up = trotter_squeeze(P09, 1.0, 100, "2x2", convention="matched")
    assert gate_distance(up, us) == pytest.approx(TROTTER_DEV_T1_M100, rel=1e-8)


def test_trotter_large_time_deviation_regression():
    us = analytic_us(P09, 15.0, "2x2")
    up = trotter_squeeze(P09, 15.0, 100, "2x2", convention="matched")
    assert gate_distance(up, us) == pytest.approx(TROTTER_DEV_T15_M100, rel=1e-8)


def test_trotter_matched_converges_with_more_steps():
    us = analytic_us(P09, 5.0, "2x2")
    devs = [
        gate_distance(trotter_squeeze(P09, 5.0, m, "2x2", convention="matched"), us)
        for m in (10, 50, 100, 500)
    ]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_trotter_swapped_convention_does_not_converge():
    # the frame phases do not cancel when t' uses the swapped frequency
    # ratio, so the product misses the direct propagator by order one no
    # matter how many steps are taken
    us = analytic_us(P09, 1.0, "2x2")
    dev_100 = gate_distance(trotter_squeeze(P09, 1.0, 100, "2x2", convention="swapped"), us)
    dev_800 = gate_distance(trotter_squeeze(P09, 1.0, 800, "2x2", convention="swapped"), us)
    assert dev_100 > 0.5
    assert dev_800 > 0.5


def test_trotter_representation_consistency():
    # interior fock-block deviation and 2x2 deviation agree in order of
    # magnitude for moderate squeeze parameters
    space = make_fock_space(60)
    for t in (0.5, 1.0):
        us2 = analytic_us(P09, t, "2x2")
        up2 = trotter_squeeze(P09, t, 100, "2x2")
        dev2 = gate_distance(up2, us2)
        usf = analytic_us(P09, t, "fock", space)
        upf = trotter_squeeze(P09, t, 100, "fock", space)
        devf = gate_distance(upf[:30, :30], usf[:30, :30])
        assert dev2 / 30.0 < devf < dev2 * 30.0


def test_gate_distance_basics():
    eye = np.eye(2, dtype=complex)
    assert gate_distance(eye, eye) == 0.0
    flipped = np.diag([1.0, np.exp(1j * math.pi)])
    assert gate_distance(eye, flipped) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ParameterError):
        gate_distance(np.eye(2), np.eye(3))


def test_squeeze_zero_time_is_identity():
    res = squeeze_operator(P09, 0.0, rep="2x2")
    assert res.eta2 == 0.0
    assert np.abs(res.s - np.eye(2)).max() < 1e-13


def test_squeeze_eta2_value():
    r = reduced_params(P09)
    res = squeeze_operator(P09, 1.0, rep="2x2")
    assert res.eta2 == pytest.approx(-r.eta1, rel=1e-15)
    assert res.eta2 == pytest.approx(0.2406, abs=3e-4)


def test_squeeze_2x2_closure_machine_precision():
    for eta2 in (0.1, 0.24, 1.0):
        r = reduced_params(P09)
        t = eta2 / (-r.eta1)
        for k in (0, 1, 2):
            res = squeeze_operator(P09, t, k=k, rep="2x2")
            assert res.residual < 1e-12


def test_squeeze_branch_independence():
    mats = [squeeze_operator(P09, 1.0, k=k, rep="2x2").s for k in (0, 1, 2)]
    assert np.abs(mats[0] - mats[1]).max() < 1e-10
    assert np.abs(mats[0] - mats[2]).max() < 1e-10


def test_squeeze_fock_closure():
    space = make_fock_space(60)
    res = squeeze_operator(P09, 1.0, rep="fock", space=space)
    assert res.residual < 1e-12
    assert np.abs(res.s @ res.s.conj().T - np.eye(60)).max() < 1e-8


def test_squeeze_conjugation_rotates_pair_generator():
    # the quarter-period frame rotation maps G1 onto +G2, which is what
    # closes the composition onto the direct squeezing operator
    g = su11_generators_2x2()
    sched = make_schedule(P09, 1.0, 100, k=0, convention="matched")
    u0 = gate_u0(P09, sched.t_dprime, "2x2")
    rotated = u0 @ g.gamma1 @ u0.conj().T
    assert np.abs(rotated - g.gamma2).max() < 1e-12


def test_squeeze_swapped_convention_documented_mismatch():
    # with the conjugation duration set by the swapped frequency the
    # composition misses the direct squeezing operator by order one
    res = squeeze_operator(P09, 1.0, k=0, rep="2x2", convention="swapped")
    assert res.residual > 0.1


def test_squeeze_trotter_backend_residual_tracks_product_error():
    res = squeeze_operator(P09, 1.0, m=100, rep="2x2", backend="trotter")
    product_dev = gate_distance(
        trotter_squeeze(P09, 1.0, 100, "2x2"), analytic_us(P09, 1.0, "2x2")
    )
    assert res.residual == pytest.approx(product_dev, rel=0.5)


def test_squeeze_requires_negative_eta1():
    with pytest.raises(WrongRegimeError):
        squeeze_operator(P05, 1.0, rep="2x2")


def test_squeeze_target_fock_matches_2x2_structure():
    target = squeeze_target(0.3, "2x2")
    assert target[0, 0] == pytest.approx(math.cosh(0.6), rel=1e-14)


def test_fock_squeeze_warns_when_leaking():
    space = make_fock_space(60)
    r = reduced_params(P09)
    t_big = 1.0 / (-r.eta1)  # eta2 = 1, far past what dim=60 can hold
    with pytest.warns(TruncationLeakWarning):
        analytic_us(P09, t_big, "fock", space)


def test_rep_validation():
    with pytest.raises(ParameterError):
        gate_u0(P09, 1.0, "fock")  # missing space
    with pytest.raises(ParameterError):
        gate_u0(P09, 1.0, "3x3")
    with pytest.raises(ParameterError):
        squeeze_operator(P09, 1.0, backend="magic")
