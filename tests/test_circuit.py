import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsqueeze import circuit, cli, physics
from fluxsqueeze.circuit import (
    MAX_DOUBLINGS,
    Spectrum,
    anharmonicity,
    converged_spectra,
    converged_spectrum,
    full_hamiltonian,
    harmonic_hamiltonian,
    quartic_hamiltonian,
    spectrum,
)
from fluxsqueeze.errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    ParameterError,
    SimulationError,
    StabilityError,
)
from fluxsqueeze.config import CONVERGENCE_TOL, RunConfig
from fluxsqueeze.selftest import run_selftest
from fluxsqueeze.operators import (
    hermitian_eig,
    hermitian_matrix_function,
    make_fock_space,
    phase_charge_operators,
)
from fluxsqueeze.physics import (
    CircuitParams,
    cos_pi,
    effective_josephson,
    reduced_params,
    stability,
)

FIG2 = dict(e_c=0.12, e_j=58.0, e_l=58.6)

# frozen oracle values: lowest gaps of both Hamiltonians at f_s = 0.9,
# converged in the truncation (dim 120 and 240 agree to 9 digits) and
# cross-checked against a finite-difference grid diagonalization
E01_FULL_09 = 1.600362264114
E01_QUARTIC_09 = 1.604117213666
ALPHA_FULL_09 = 0.142888126036
ALPHA_QUARTIC_09 = 0.145604352013


def params(f_s):
    return CircuitParams(f_s=f_s, **FIG2)


def test_effective_josephson_sweet_spot_is_exactly_zero():
    assert effective_josephson(58.0, 0.5) == 0.0


def test_effective_josephson_zero_flux():
    assert effective_josephson(58.0, 0.0) == 116.0


def test_effective_josephson_scalar_oracle():
    expected = 116.0 * math.cos(0.9 * math.pi)
    assert effective_josephson(58.0, 0.9) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(-110.33, abs=0.01)


@given(k=st.integers(-6, 6))
def test_cos_pi_exact_at_half_integers(k):
    value = cos_pi(k / 2.0)
    assert value in (-1.0, 0.0, 1.0)
    assert value == pytest.approx(math.cos(math.pi * k / 2.0), abs=1e-15)


@given(x=st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=50)
def test_cos_pi_matches_cos_elsewhere(x):
    assert cos_pi(x) == pytest.approx(math.cos(math.pi * x), abs=5e-15)


@pytest.mark.parametrize("field", ["e_c", "e_j", "e_l"])
def test_params_reject_nonpositive_energies(field):
    values = dict(FIG2, f_s=0.5)
    values[field] = 0.0
    with pytest.raises(ParameterError):
        CircuitParams(**values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["e_c", "e_j", "e_l", "f_s"])
def test_params_reject_non_finite_values(field, bad):
    values = dict(FIG2, f_s=0.5)
    values[field] = bad
    with pytest.raises(ParameterError, match=f"^circuit.{field} must be finite, got "):
        CircuitParams(**values)


def test_stability_sweet_spot_margin():
    stable, margin = stability(params(0.5))
    assert stable and margin == FIG2["e_l"]


def test_stability_boundary_flagged_stable():
    stable, margin = stability(CircuitParams(e_c=0.12, e_j=58.6, e_l=58.6, f_s=1.0))
    assert stable and margin == 0.0


def test_stability_inverted_potential():
    stable, margin = stability(CircuitParams(e_c=0.12, e_j=58.6, e_l=0.9 * 58.6, f_s=1.0))
    assert not stable and margin < 0.0


def test_full_hamiltonian_rejects_unstable():
    with pytest.raises(StabilityError):
        full_hamiltonian(
            CircuitParams(e_c=0.12, e_j=58.6, e_l=0.5 * 58.6, f_s=1.0),
            make_fock_space(20),
        )


def test_sweet_spot_collapse_is_bitwise():
    space = make_fock_space(60)
    p = params(0.5)
    h_full = full_hamiltonian(p, space)
    h_quartic = quartic_hamiltonian(p, space)
    h_harm = harmonic_hamiltonian(p, space)
    assert np.array_equal(h_full, h_harm)
    assert np.array_equal(h_quartic, h_harm)


def test_harmonic_spectrum_uniform():
    p = params(0.5)
    s = spectrum(full_hamiltonian(p, make_fock_space(60)))
    assert s.e01 == pytest.approx(p.omega0, abs=1e-12)
    assert s.e12 == pytest.approx(p.omega0, abs=1e-12)
    assert abs(anharmonicity(s)) < 1e-9
    assert p.omega0 == pytest.approx(5.304, abs=5e-4)


def test_full_gap_golden_value():
    s = spectrum(full_hamiltonian(params(0.9), make_fock_space(60)))
    assert s.e01 == pytest.approx(E01_FULL_09, abs=1e-6)


def test_quartic_gap_golden_value():
    s = spectrum(quartic_hamiltonian(params(0.9), make_fock_space(60)))
    assert s.e01 == pytest.approx(E01_QUARTIC_09, abs=1e-6)


def test_anharmonicity_golden_values():
    # the quartic coefficient -E_J(f_s)/24 is positive at f_s = 0.9 (the
    # effective junction energy is negative), so the ladder stiffens and
    # both anharmonicities come out positive
    space = make_fock_space(60)
    a_full = anharmonicity(spectrum(full_hamiltonian(params(0.9), space)))
    a_quartic = anharmonicity(spectrum(quartic_hamiltonian(params(0.9), space)))
    assert a_full == pytest.approx(ALPHA_FULL_09, abs=1e-6)
    assert a_quartic == pytest.approx(ALPHA_QUARTIC_09, abs=1e-6)
    assert a_quartic == pytest.approx(a_full, rel=0.05)


def test_full_vs_quartic_gap_close_across_sweep():
    space = make_fock_space(60)
    for f_s in (0.55, 0.65, 0.75, 0.85, 0.95):
        e_full = spectrum(full_hamiltonian(params(f_s), space)).e01
        e_quartic = spectrum(quartic_hamiltonian(params(f_s), space)).e01
        assert abs(e_quartic - e_full) / e_full < 0.05


def test_gap_decreases_monotonically_with_flux():
    space = make_fock_space(60)
    gaps = [
        spectrum(full_hamiltonian(params(f), space)).e01
        for f in np.linspace(0.5, 1.0, 26)
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_reduced_params_sweet_spot():
    r = reduced_params(params(0.5))
    assert r.eta1 == 0.0
    assert r.omega1 == r.omega0
    assert r.omega0 == pytest.approx(2.0 * math.sqrt(0.12 * 58.6), rel=1e-15)


def test_reduced_params_scalar_oracle_09():
    # hand evaluation of the closed forms at f_s = 0.9
    ej = 116.0 * math.cos(0.9 * math.pi)
    stiffness = 2.0 * 58.6 + ej
    beta = 0.12 / (2.0 * stiffness)
    eta1 = 0.25 * beta * ej
    omega1 = math.sqrt(2.0 * 0.12 * stiffness) - eta1
    r = reduced_params(params(0.9))
    assert stiffness == pytest.approx(6.87, abs=0.01)
    assert r.beta == pytest.approx(beta, rel=1e-14)
    assert r.beta == pytest.approx(0.00873, abs=1e-5)
    assert r.eta1 == pytest.approx(eta1, rel=1e-14)
    assert r.eta1 == pytest.approx(-0.2408, abs=3e-4)
    assert r.omega1 == pytest.approx(omega1, rel=1e-14)
    assert r.omega1 == pytest.approx(1.525, abs=1e-3)


def test_reduced_params_near_critical_ratio():
    e_l = 58.6
    p = CircuitParams(e_c=0.12, e_j=e_l / 1.005, e_l=e_l, f_s=1.0)
    r = reduced_params(p)
    assert r.eta1 == pytest.approx(-3.0, rel=1e-12)


@given(f_s=st.floats(0.5, 0.97, allow_nan=False))
@settings(max_examples=40)
def test_reduced_params_sum_rule(f_s):
    p = params(f_s)
    r = reduced_params(p)
    stiffness = 2.0 * p.e_l + p.ej_flux
    assert r.omega1 + r.eta1 == pytest.approx(math.sqrt(2.0 * p.e_c * stiffness), rel=1e-12)


def test_reduced_params_requires_positive_stiffness():
    with pytest.raises(StabilityError):
        reduced_params(CircuitParams(e_c=0.12, e_j=60.0, e_l=55.0, f_s=1.0))


def test_spectrum_k_bounds():
    h = full_hamiltonian(params(0.9), make_fock_space(10))
    with pytest.raises(ParameterError):
        spectrum(h, k=11)
    with pytest.raises(ParameterError):
        spectrum(h, k=2)


def test_anharmonicity_degenerate_gap():
    fake = Spectrum(levels=((0, 1.0), (1, 1.0), (2, 1.0)), e01=0.0, e12=0.0)
    with pytest.raises(DegenerateSpectrumError):
        anharmonicity(fake)


def test_mean_field_matches_quartic_gap_within_five_percent():
    # the quadratic-reduction accuracy degrades toward the flux where the
    # stiffness collapses; the five-percent band holds through f_s = 0.9
    space = make_fock_space(60)
    for f_s in np.linspace(0.5, 0.9, 21):
        p = params(float(f_s))
        e01 = spectrum(quartic_hamiltonian(p, space)).e01
        assert abs(e01 - reduced_params(p).omega1) / e01 < 0.05


@pytest.mark.parametrize("dim", [60, 4])
def test_selftest_truncation_convergence_is_the_complex_doubling_movement(dim):
    # the check reports max|w_dim[:3] - w_2dim[:3]| of two complex solves,
    # bit for bit; the movement of a tiny basis is reported, not raised
    checks, passed = run_selftest(RunConfig(dim=dim))
    check = {c.name: c for c in checks}["truncation_convergence"]
    lower, upper = (
        hermitian_eig(full_hamiltonian(params(0.9), make_fock_space(d)).astype(complex))[0]
        for d in (dim, 2 * dim)
    )
    assert check.value == float(np.abs(lower[:3] - upper[:3]).max())
    assert check.threshold == CONVERGENCE_TOL
    if dim == 60:
        assert check.passed and check.value < 1e-6
    else:
        assert not check.passed and check.value >= CONVERGENCE_TOL
        assert not passed


def test_converged_spectrum_accepts_default():
    s, dim_used = converged_spectrum(params(0.9), 60)
    assert dim_used == 60
    assert s.e01 == pytest.approx(E01_FULL_09, abs=1e-6)


def test_converged_spectrum_grows_small_basis():
    s, dim_used = converged_spectrum(params(0.9), 4)
    assert dim_used > 4
    assert s.e01 == pytest.approx(E01_FULL_09, abs=1e-5)


def test_converged_spectrum_gives_up():
    with pytest.raises(ConvergenceError, match="no converged truncation found up to dim=128"):
        converged_spectrum(params(0.9), 2, tol=1e-30)


@pytest.mark.parametrize("k", [0, 2, -1])
def test_converged_spectrum_rejects_fewer_than_three_levels_before_any_build(k):
    built = []

    def builder(p, space):
        built.append(space.dim)
        return full_hamiltonian(p, space)

    with pytest.raises(ParameterError, match=f"need at least the lowest three levels, got k={k}"):
        converged_spectrum(params(0.9), 8, builder=builder, k=k)
    assert built == []


# Reference per-point path: every flux point builds its operators and
# cos(phi) afresh and solves both rungs of each doubling test, and the
# accepted rung once more, in complex arithmetic.
def _reference_full(p, space):
    phi, n = phase_charge_operators(space, p.mass, p.omega0)
    cos_phi = hermitian_matrix_function(phi, np.cos)
    mat = (
        p.e_c * (n @ n)
        - p.ej_flux * cos_phi
        + p.e_l * (phi @ phi)
    )
    return 0.5 * (mat + mat.conj().T)


def _reference_quartic(p, space):
    phi, n = phase_charge_operators(space, p.mass, p.omega0)
    phi2 = phi @ phi
    mat = (
        p.e_c * (n @ n)
        + 0.5 * (2.0 * p.e_l + p.ej_flux) * phi2
        - (p.ej_flux / 24.0) * (phi2 @ phi2)
    )
    return 0.5 * (mat + mat.conj().T)


def _reference_converged(p, dim, builder, tol=CONVERGENCE_TOL):
    current = dim
    for _ in range(MAX_DOUBLINGS):
        lo = hermitian_eig(builder(p, make_fock_space(current)))[0][:3]
        hi = hermitian_eig(builder(p, make_fock_space(2 * current)))[0][:3]
        if np.abs(lo - hi).max() < tol:
            return spectrum(builder(p, make_fock_space(current))), current
        current *= 2
    raise ConvergenceError(f"reference ladder did not converge from dim={dim}")


def _reference_spectra(ps, dim, builder, tol=CONVERGENCE_TOL):
    return [_reference_converged(p, dim, builder, tol) for p in ps]


@pytest.mark.parametrize("start_dim", [60, 8])
@pytest.mark.parametrize("f_s", [0.5, 0.505, 0.75, 0.9, 1.0])
@pytest.mark.parametrize(
    "builder, reference",
    [(full_hamiltonian, _reference_full), (quartic_hamiltonian, _reference_quartic)],
)
def test_converged_spectrum_matches_reference_bitwise(builder, reference, f_s, start_dim):
    p = params(f_s)
    want, want_dim = _reference_converged(p, start_dim, reference)
    got, got_dim = converged_spectrum(p, start_dim, builder)
    assert got_dim == want_dim
    assert got.levels == want.levels
    assert got.e01 == want.e01
    assert got.e12 == want.e12
    space = make_fock_space(got_dim)
    assert np.array_equal(builder(p, space), reference(p, space))


@pytest.mark.parametrize("dim", [60, 8])
def test_cmd_spectrum_matches_reference_bitwise(monkeypatch, dim):
    cfg = RunConfig(fs_steps=6, dim=dim)
    got = cli.cmd_spectrum(cfg)
    monkeypatch.setattr(circuit, "converged_spectra", _reference_spectra)
    monkeypatch.setattr(circuit, "full_hamiltonian", _reference_full)
    monkeypatch.setattr(circuit, "quartic_hamiltonian", _reference_quartic)
    assert got == cli.cmd_spectrum(cfg)


def test_converged_spectrum_solves_each_rung_once(monkeypatch):
    # one complex solve of the start rung and one real solve of both
    # sectors of the upper rung, each a stacked call
    p = params(0.9)
    converged_spectrum(p, 60)  # warm the flux-free terms of both rungs
    solves = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        solves.append((a.dtype, a.shape))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    _, dim_used = converged_spectrum(p, 60)
    assert dim_used == 60
    assert solves == [(np.dtype(complex), (1, 60, 60)), (np.dtype(np.float64), (2, 60, 60))]


STACK_FLUXES = (0.5, 0.505, 0.75, 0.9, 1.0)


@pytest.mark.parametrize("start_dim", [8, 24])
@pytest.mark.parametrize(
    "builder, reference",
    [(full_hamiltonian, _reference_full), (quartic_hamiltonian, _reference_quartic)],
)
def test_stacked_ladder_matches_reference_bitwise(builder, reference, start_dim):
    ps = [params(f_s) for f_s in STACK_FLUXES]
    got = converged_spectra(ps, start_dim, builder)
    want = _reference_spectra(ps, start_dim, reference)
    assert len({dim for _, dim in want}) > 1  # the points accept at different rungs
    assert [(s.levels, s.e01, s.e12, dim) for s, dim in got] == [
        (s.levels, s.e01, s.e12, dim) for s, dim in want
    ]


def test_stacked_ladder_takes_custom_builders():
    ps = [params(f_s) for f_s in STACK_FLUXES]
    assert converged_spectra(ps, 24, _reference_full) == converged_spectra(ps, 24)
    assert converged_spectra([], 24) == []


def test_spectrum_sweep_keeps_every_solve_and_stacks_them(monkeypatch):
    # the work that perfbench counts, prod(shape[:-2]) n^3 per eigh call,
    # is that of 606 solves at dim 60, in fewer calls
    cfg = RunConfig()
    cli.cmd_spectrum(cfg)  # warm the flux-free terms
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(math.prod(a.shape[:-2]) * a.shape[-1] ** 3)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    cli.cmd_spectrum(cfg)
    assert sum(calls) == 130_896_000 == 606 * 60**3
    assert len(calls) < 606


def test_parity_mixing_in_a_stack_raises_as_alone():
    H = np.stack([full_hamiltonian(params(f_s), make_fock_space(8)) for f_s in (0.75, 0.9)])
    H[1, 0, 1] = H[1, 1, 0] = 1e-3
    with pytest.raises(SimulationError) as alone:
        circuit._sector_eigenvalues(H[1])
    with pytest.raises(type(alone.value), match=f"^{re.escape(str(alone.value))}$"):
        circuit._sector_eigenvalues(H)
    assert isinstance(alone.value, ConvergenceError)


def test_stacked_sector_eigenvalues_match_each_matrix():
    H = np.stack([quartic_hamiltonian(params(f_s), make_fock_space(24)) for f_s in STACK_FLUXES])
    got = circuit._sector_eigenvalues(H)
    for mat, w in zip(H, got):
        assert np.array_equal(w, circuit._sector_eigenvalues(mat))


def test_flux_free_terms_are_read_only():
    p = params(0.9)
    terms = circuit._cached_terms(p.mass, p.omega0, 12)
    for mat in terms:
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_flux_free_terms_must_be_exactly_real(monkeypatch):
    def leaky_cos(op, fn):
        mat = hermitian_matrix_function(op, fn)
        return mat + 1e-300j * np.eye(len(mat))

    circuit._cached_terms.cache_clear()  # a failed build caches nothing
    monkeypatch.setattr(circuit, "hermitian_matrix_function", leaky_cos)
    with pytest.raises(SimulationError, match="cos_phi at dim=60 is not exactly real"):
        converged_spectrum(params(0.9), 60)


def test_upper_rung_rejects_parity_mixing(monkeypatch):
    terms = circuit._cached_terms

    def mixing(mass, omega0, dim):
        t = terms(mass, omega0, dim)
        nn = t.nn.copy()
        nn[0, 1] = nn[1, 0] = 1e-3
        return t._replace(nn=nn)

    # the lower rung takes the mixing entries in its complex solve; the
    # upper rung's sector solve must refuse them
    monkeypatch.setattr(circuit, "_cached_terms", mixing)
    with pytest.raises(SimulationError, match="dim=120 mixes photon parity"):
        converged_spectrum(params(0.9), 60)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sector_solve_rejects_non_finite_parity_mixing(bad):
    # entries between the sectors are dropped after the check; a NaN there
    # failed the old ``mixing > bound`` comparison and was dropped unseen
    H = full_hamiltonian(params(0.9), make_fock_space(8))
    H[0, 1] = H[1, 0] = bad
    with pytest.raises(ParameterError, match="finite"):
        circuit._sector_eigenvalues(H)


@pytest.mark.parametrize("dim", [8, 60, 120])
@pytest.mark.parametrize("f_s", [0.5, 0.505, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("builder", [full_hamiltonian, quartic_hamiltonian])
def test_sector_eigenvalues_match_full_real_solve(builder, f_s, dim):
    H = builder(params(f_s), make_fock_space(dim))
    assert H.dtype == np.float64
    want = hermitian_eig(H)[0]
    got = circuit._sector_eigenvalues(H)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_ej_flux_is_computed_once(monkeypatch):
    p = params(0.9)
    calls = []
    monkeypatch.setattr(
        physics, "effective_josephson", lambda e_j, f_s: calls.append(f_s) or 2.0 * e_j
    )
    for _ in range(3):
        p.ej_flux
    assert calls == [0.9]


def test_instability_messages_stay_short():
    p = CircuitParams(e_c=0.12, e_j=1e300, e_l=58.6, f_s=0.9)
    for call in (lambda: full_hamiltonian(p, make_fock_space(4)), lambda: reduced_params(p)):
        with pytest.raises(StabilityError) as info:
            call()
        assert len(str(info.value)) < 120
