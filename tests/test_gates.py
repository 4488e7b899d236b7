import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxsqueeze import gates
from fluxsqueeze.coupling import squeeze_on_product, total_hamiltonian
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
    representation,
    squeeze_operator,
    trotter_squeeze,
)
from fluxsqueeze.operators import (
    exp_generator,
    hermitian_eig,
    make_fock_space,
    phase_charge_operators,
    propagator,
    su11_generators,
    su11_generators_2x2,
)
from fluxsqueeze.physics import (
    ZERO_FIELD_SPLITTING_GHZ,
    CircuitParams,
    NVParams,
    effective_josephson,
    effective_params,
    reduced_params,
)

P09 = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
NV = NVParams(zeeman=ZERO_FIELD_SPLITTING_GHZ - P09.omega0)
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
    a = annihilation(space)
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
        gates._dense(representation("fock", space).target(0.3)),
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
    a = annihilation(space)
    ad = a.conj().T
    gen = 2j * r.eta1 * t * 0.5 * (a @ a + ad @ ad)
    assert np.abs(analytic_us(P09, t, "fock", space) - exp_normal(gen)).max() < 1e-12


@pytest.mark.parametrize("eta2", [0.3, -0.3])
@pytest.mark.parametrize("dim", [2, 3, 8, 60, 121])
def test_fock_target_matches_generator_exponential(dim, eta2):
    from fluxsqueeze.operators import annihilation, exp_normal

    space = make_fock_space(dim)
    a = annihilation(space)
    ad = a.conj().T
    want = exp_normal(eta2 * (a @ a - ad @ ad))
    form = representation("fock", space)
    assert np.abs(gates._dense(form.target(eta2)) - want).max() < 1e-12


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


def test_compact_target_matches_2x2_structure():
    target = representation("2x2").target(0.3)
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


@pytest.mark.parametrize("rep", ["2x2", "fock"])
@pytest.mark.parametrize("backend", ["analytic", "trotter"])
def test_squeeze_operator_resolves_its_inputs_once(monkeypatch, rep, backend):
    # the schedule is derived once, from the resolved reduced parameters, by _schedule
    once = {"_require_stable": 1, "reduced_params": 1, "representation": 1, "_schedule": 1}
    calls = dict.fromkeys([*once, "make_schedule"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(gates, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(gates, name, counted)
    space = make_fock_space(12) if rep == "fock" else None
    squeeze_operator(P09, 0.5, m=4, rep=rep, space=space, backend=backend)
    assert calls == {**once, "make_schedule": 0}


@pytest.mark.parametrize("call, message", [
    (lambda: effective_params(P09, 1.0, 1e3), "circuit.e_c, circuit.e_l and eta2: omega_eff = inf"),
    (lambda: effective_params(P09, math.nan, 0.1), "g and eta2: g_eff = nan"),
    (lambda: gate_u0(P09, math.inf), "gate time t must be finite, got inf"),
    (lambda: gate_u0(P09, math.nan, "fock", make_fock_space(4)), "gate time t must be finite"),
    # finite times whose phase overflows, and inputs that once gave NaN
    (lambda: gate_u0(P09, 1e308), "phase theta x E must be finite, got max|theta| = 1e+308"),
    (lambda: gate_u0(P09, 1e308, "fock", make_fock_space(4)), "phase theta x E must be finite"),
    (lambda: gate_u1(P09, 1.7e308), "phase theta x E must be finite, got max|theta| = 1.7e+308"),
    (lambda: gate_u1(P09, 1e308, "fock", make_fock_space(4)), "phase theta x E must be finite"),
    (lambda: analytic_us(P09, 1e308, "fock", make_fock_space(12)), "phase theta x E must be finite"),
    (lambda: analytic_us(P09, math.inf, "fock", make_fock_space(2)), "gate time t must be finite"),
    (lambda: exp_generator(make_fock_space(2), "gamma1", math.inf), "phase theta x E must be finite"),
    (lambda: exp_generator(make_fock_space(6), "gamma1", 1e308), "phase theta x E must be finite"),
    (lambda: propagator(np.array([0.0, 2.0]), np.eye(2), 1e308), "phase theta x E must be finite"),
    (lambda: phase_charge_operators(make_fock_space(4), math.inf, 1.0),
     "m and omega: sqrt(1/(2 m omega)) = 0 is not finite and positive"),
    (lambda: phase_charge_operators(make_fock_space(4), 1e-320, 1e-10),
     "m and omega: sqrt(1/(2 m omega)) = inf is not finite and positive"),
    (lambda: gate_distance(np.eye(2), np.full((2, 2), math.nan)), "gate_distance max|A - B| residual nan"),
    (lambda: gate_distance(np.eye(2)[None], np.full((1, 2, 2), math.nan)), "gate_distance max|A - B| residual nan"),
    (lambda: effective_josephson(1.0, math.nan), "circuit.e_j: E_J(f_s) = nan is not finite"),
    (lambda: squeeze_on_product(make_fock_space(8), 1e308), "eta2: eta2 x max pair band = inf"),
    (lambda: squeeze_on_product(make_fock_space(8), math.inf), "eta2: eta2 x max pair band = inf"),
    (lambda: total_hamiltonian(P09, NV, 1e308, make_fock_space(8)), "g: g x sqrt(dim - 1) = inf"),
    (lambda: total_hamiltonian(P09, NV, math.nan, make_fock_space(8)), "g: g x sqrt(dim - 1) = nan"),
    (lambda: squeeze_operator(P09, 1477.0, m=3, backend="trotter"), "t: cosh(-2 eta1 t) = inf"),
], ids=["effective-params-overflow", "effective-params-nan-g", "u0-inf", "u0-fock-nan", "u0-phase",
        "u0-fock-phase", "u1-phase", "u1-fock-phase", "us-fock-phase", "us-fock-dim2-inf",
        "generator-dim2-inf", "generator-phase", "propagator-phase", "phase-charge-inf-mass",
        "phase-charge-tiny-mass", "distance-nan", "distance-stack-nan", "josephson-nan-flux",
        "squeeze-product-overflow", "squeeze-product-inf", "hamiltonian-g-overflow",
        "hamiltonian-g-nan", "squeeze-target-overflow"])
def test_library_input_out_of_range_is_one_classified_error_naming_it(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as caught:
            call()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("t", [1e154, 1e300, np.array([0.5, 1e154, 1e300])],
                         ids=["1e154", "1e300", "stack"])
def test_library_pure_phase_gate_at_a_huge_finite_time_is_unit_modulus(t):
    # exp(-i omega0 t G3) once raised as a hyperbolic argument |inf|: det B squared the phase
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = gate_u0(P09, t)
    assert np.array_equal(np.abs(u) > 0.5, np.broadcast_to(np.eye(2, dtype=bool), u.shape))
    np.testing.assert_allclose(np.abs(u[..., [0, 1], [0, 1]]), 1.0, rtol=0.0, atol=1e-15)


# one library call per name, of a time or strength x at a Fock dim; the 2x2 calls ignore the dim
LIBRARY = {
    "gate_u0 2x2": lambda x, dim: gate_u0(P09, x),
    "gate_u0 fock": lambda x, dim: gate_u0(P09, x, "fock", make_fock_space(dim)),
    "gate_u1 2x2": lambda x, dim: gate_u1(P09, x),
    "gate_u1 fock": lambda x, dim: gate_u1(P09, x, "fock", make_fock_space(dim)),
    "analytic_us 2x2": lambda x, dim: analytic_us(P09, x),
    "analytic_us fock": lambda x, dim: analytic_us(P09, x, "fock", make_fock_space(dim)),
    "trotter_squeeze 2x2": lambda x, dim: trotter_squeeze(P09, x, 3),
    "trotter_squeeze fock": lambda x, dim: trotter_squeeze(P09, x, 3, "fock", make_fock_space(dim)),
    "squeeze_operator 2x2": lambda x, dim: squeeze_operator(P09, x, 3, backend="trotter"),
    "squeeze_operator fock": lambda x, dim: squeeze_operator(
        P09, x, 3, rep="fock", space=make_fock_space(dim), backend="trotter"),
    "exp_generator gamma1": lambda x, dim: exp_generator(make_fock_space(dim), "gamma1", x),
    "exp_generator gamma2": lambda x, dim: exp_generator(make_fock_space(dim), "gamma2", x),
    "propagator": lambda x, dim: propagator(
        *hermitian_eig(su11_generators(make_fock_space(dim)).gamma1), x),
    "squeeze_on_product": lambda x, dim: squeeze_on_product(make_fock_space(dim), x),
    "total_hamiltonian": lambda x, dim: total_hamiltonian(P09, NV, x, make_fock_space(dim)),
}
# times and strengths from all floats, and the edges of the float range
VALUE = st.one_of(st.sampled_from([1.7e308, -1.7e308, 1e300, 5e-324, 0.0, -0.0]), st.floats())


@settings(max_examples=600, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(LIBRARY)), x=VALUE, dim=st.integers(2, 8))
# numpy warned overflow in the 2x2 U1 phase, the squeeze generator and the coupling band
@example(name="gate_u1 2x2", x=1.7e308, dim=2)
@example(name="squeeze_on_product", x=1e308, dim=8)
@example(name="total_hamiltonian", x=1e308, dim=8)
# the trotter backend admits a t whose 2x2 target cosh(2 eta2) overflowed math.cosh
@example(name="squeeze_operator 2x2", x=1477.0, dim=2)
def test_library_call_returns_finite_values_or_one_classified_error(name, x, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = LIBRARY[name](x, dim)
        except SimulationError:
            return
    if isinstance(result, gates.SqueezeResult):
        result = [result.s, result.target, result.eta2, result.residual]
    assert all(np.isfinite(value).all() for value in result), (name, x, dim)
