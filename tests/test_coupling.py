import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsqueeze.coupling import (
    b0_profile,
    conjugate_hamiltonian,
    project_coupling_coefficients,
    squeeze_on_product,
    total_hamiltonian,
)
from fluxsqueeze.errors import GeometryError, ParameterError, TruncationLeakError
from fluxsqueeze.operators import make_fock_space
from fluxsqueeze.physics import (
    MU_0,
    CircuitParams,
    CouplingGeometry,
    NVParams,
    amplification_sweep,
    bare_coupling,
    bare_coupling_si,
    biot_savart_b0,
    default_geometry,
    effective_params,
    inductance_from_inductive_energy,
    inductance_mismatch,
    inductive_energy_from_inductance,
    reduced_params,
)

P = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.5)
GEOM = CouplingGeometry(edge_length=10e-6, z_nv=0.01e-6, inductance=1.4e-9)


def test_nv_transition_frequency_working_points():
    assert NVParams(zeeman=2.87).omega_nv == 0.0
    assert NVParams(zeeman=0.0).omega_nv == 2.87
    assert NVParams(zeeman=1.37).omega_nv == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize(
    "values, key", [({"zeeman": math.nan}, "zeeman"), ({"zeeman": 1.37, "d": math.inf}, "d")]
)
def test_nv_params_reject_non_finite_values(values, key):
    # bad input is a ParameterError (exit 2), not a NaN Hamiltonian that the
    # conjugation's hermiticity guard later reports as a truncation failure
    with pytest.raises(ParameterError, match=f"^{key} must be finite, got "):
        NVParams(**values)


@pytest.mark.parametrize(
    "z_nv,inductance",
    [(0.0, 1.4e-9), (10e-6, 1.4e-9), (-1e-9, 1.4e-9), (1e-8, 0.0), (1e-8, -2e-9)],
)
def test_geometry_validation(z_nv, inductance):
    with pytest.raises(GeometryError, match="^geometry.(z_nv|inductance|edge_length)"):
        CouplingGeometry(edge_length=10e-6, z_nv=z_nv, inductance=inductance)


@pytest.mark.parametrize(
    "edge_length,z_nv,inductance",
    [(math.inf, 1e-8, 1.4e-9), (10e-6, math.nan, 1.4e-9), (10e-6, 1e-8, math.inf)],
)
def test_geometry_rejects_non_finite(edge_length, z_nv, inductance):
    with pytest.raises(GeometryError, match=r"^geometry\.\w+ must be finite"):
        CouplingGeometry(edge_length=edge_length, z_nv=z_nv, inductance=inductance)


def test_inductance_energy_round_trip():
    inductance = inductance_from_inductive_energy(58.6)
    assert inductive_energy_from_inductance(inductance) == pytest.approx(58.6, rel=1e-12)
    # the round trip is far inside the 0.1% consistency band
    assert inductance_mismatch(58.6, inductance) < 1e-3


def test_quoted_inductance_pair_mismatch_documented():
    # the conventional rounded pairing (58.6 GHz, 1.4 nH) disagrees by ~0.38%
    assert inductance_mismatch(58.6, 1.4e-9) == pytest.approx(0.00377, abs=2e-4)


def test_b0_midpoint_closed_form():
    geom = CouplingGeometry(edge_length=10e-6, z_nv=5e-6, inductance=1.4e-9)
    expected = MU_0 / (4.0 * math.pi) * 6.0 * math.sqrt(2.0) / geom.edge_length
    assert biot_savart_b0(geom) == pytest.approx(expected, rel=1e-12)


def test_b0_near_edge_asymptote():
    asymptote = MU_0 / (2.0 * math.pi * GEOM.z_nv)
    assert biot_savart_b0(GEOM) == pytest.approx(asymptote, rel=0.02)
    assert asymptote == pytest.approx(20.0, rel=1e-6)


@given(frac=st.floats(1e-4, 1.0 - 1e-4, allow_nan=False))
@settings(max_examples=60)
def test_b0_reflection_symmetry(frac):
    l = 10e-6
    geom = CouplingGeometry(edge_length=l, z_nv=1e-8, inductance=1.4e-9)
    z = np.array([frac * l])
    left = b0_profile(geom, z)[0]
    right = b0_profile(geom, l - z)[0]
    assert abs(left - right) <= 1e-12 * abs(left)


def test_b0_profile_domain():
    with pytest.raises(GeometryError):
        b0_profile(GEOM, np.array([0.0]))
    # an empty grid passes the domain check and gives an empty profile
    assert b0_profile(GEOM, np.array([])).shape == (0,)


def test_bare_coupling_order_of_magnitude():
    g = bare_coupling(P, GEOM)
    g_khz = g * 1e6
    assert 10.0 / 3.0 < g_khz < 30.0
    assert g_khz == pytest.approx(14.033, abs=2e-3)


def test_bare_coupling_beta_quarter_factor():
    beta = reduced_params(P).beta
    assert beta == pytest.approx(0.12 / (4.0 * 58.6), rel=1e-14)
    assert beta**0.25 == pytest.approx(0.1504, abs=2e-4)


def test_bare_coupling_uses_interaction_working_point():
    detuned = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
    assert bare_coupling(detuned, GEOM) == bare_coupling(P, GEOM)


def test_bare_coupling_inverse_inductance_scaling():
    doubled = CouplingGeometry(
        edge_length=GEOM.edge_length, z_nv=GEOM.z_nv, inductance=2.0 * GEOM.inductance
    )
    assert bare_coupling(P, GEOM) == pytest.approx(2.0 * bare_coupling(P, doubled), rel=1e-12)


def test_bare_coupling_si_route_cross_check():
    g_int = bare_coupling(P, GEOM)
    g_si = bare_coupling_si(P, GEOM)
    assert abs(g_si - g_int) / g_int < 1e-10


def test_default_geometry_derives_inductance():
    geom = default_geometry(P)
    assert inductive_energy_from_inductance(geom.inductance) == pytest.approx(58.6, rel=1e-12)


def test_total_hamiltonian_block_structure_at_zero_coupling():
    space = make_fock_space(12)
    nv = NVParams(zeeman=2.87 - 1.5)  # omega_nv = 1.5
    h = total_hamiltonian(P, nv, 0.0, space)
    w = np.linalg.eigvalsh(h)
    ladder = np.arange(12) * P.omega0
    expected = np.sort(np.concatenate([ladder - 0.75, ladder + 0.75]))
    assert np.abs(w - expected).max() < 1e-12


def test_total_hamiltonian_hermitian():
    space = make_fock_space(12)
    h = total_hamiltonian(P, NVParams(zeeman=1.37), 1e-5, space)
    assert np.abs(h - h.conj().T).max() <= 1e-12


def test_vacuum_rabi_splitting():
    space = make_fock_space(40)
    nv = NVParams(zeeman=2.87 - P.omega0)  # resonant with the oscillator
    g = 1e-3 * P.omega0
    h = total_hamiltonian(P, nv, g, space)
    w = np.linalg.eigvalsh(h)
    split = w[2] - w[1]
    assert split == pytest.approx(2.0 * g, rel=0.01)


def test_effective_params_identity_point():
    eff = effective_params(P, g=1e-5, eta2=0.0)
    assert eff.omega_eff == P.omega0
    assert eff.chi == 0.0
    assert eff.g_eff == 1e-5


def test_effective_params_two_orders_amplification():
    g = bare_coupling(P, GEOM)
    eff = effective_params(P, g, eta2=3.0)
    assert eff.g_eff / g == pytest.approx(math.exp(6.0), rel=1e-12)
    assert eff.g_eff / g > 400
    # a ~10 kHz bare coupling lands in the few-MHz range
    assert 2e-3 < eff.g_eff < 8e-3


def test_effective_params_unit_gain_value():
    g = 1.0
    eff = effective_params(P, g, eta2=0.2408)
    assert eff.g_eff == pytest.approx(math.exp(0.4816), rel=1e-12)
    assert eff.g_eff == pytest.approx(1.619, abs=1e-3)


@given(eta2=st.floats(-3.0, 3.0, allow_nan=False))
@settings(max_examples=80)
def test_hyperbolic_identity(eta2):
    eff = effective_params(P, g=1.0, eta2=eta2)
    err = abs(eff.omega_eff**2 - 4.0 * eff.chi**2 - P.omega0**2)
    # strict normalization holds for moderate squeezing; at large |eta2|
    # the difference of cosh^2 and sinh^2 cancels catastrophically in
    # doubles, so the bound is stated relative to the largest term
    assert err <= 1e-10 * max(P.omega0**2, eff.omega_eff**2)
    if abs(eta2) <= 1.5:
        assert err <= 1e-10 * P.omega0**2


def test_conjugate_identity_transform_is_noop():
    space = make_fock_space(16)
    h = total_hamiltonian(P, NVParams(zeeman=1.37), 1e-5, space)
    out = conjugate_hamiltonian(np.eye(32, dtype=complex), h)
    assert np.abs(out - h).max() < 1e-15


def test_conjugate_rejects_non_unitary():
    space = make_fock_space(8)
    h = total_hamiltonian(P, NVParams(zeeman=1.37), 1e-5, space)
    with pytest.raises(TruncationLeakError):
        conjugate_hamiltonian(2.0 * np.eye(16, dtype=complex), h)
    with pytest.raises(ParameterError):
        conjugate_hamiltonian(np.eye(4, dtype=complex), h)


def test_conjugation_preserves_interior_spectrum():
    space = make_fock_space(64)
    nv = NVParams(zeeman=2.87 - P.omega0)
    h = total_hamiltonian(P, nv, 1.4e-5, space)
    s = squeeze_on_product(space, 0.2)
    h_eff = conjugate_hamiltonian(s, h)
    w0 = np.linalg.eigvalsh(h)
    w1 = np.linalg.eigvalsh(h_eff)
    lowest = slice(0, 64)
    rel = np.abs(w0[lowest] - w1[lowest]) / np.maximum(np.abs(w0[lowest]), 1.0)
    assert rel.max() < 1e-8


def test_projected_coefficients_match_closed_forms():
    space = make_fock_space(96)
    eta2 = 0.2
    g = 1.4e-5
    nv = NVParams(zeeman=2.87 - P.omega0)
    h = total_hamiltonian(P, nv, g, space)
    h_eff = conjugate_hamiltonian(squeeze_on_product(space, eta2), h)
    coeffs = project_coupling_coefficients(h_eff, space, n_interior=32)
    eff = effective_params(P, g, eta2)
    assert coeffs["number"] == pytest.approx(eff.omega_eff, rel=1e-6)
    assert coeffs["pair"] == pytest.approx(eff.chi, rel=1e-6)
    assert coeffs["coupling"] == pytest.approx(eff.g_eff, rel=1e-6)
    assert coeffs["spin_z"] == pytest.approx(nv.omega_nv, rel=1e-10)


def test_projection_interior_bounds():
    space = make_fock_space(16)
    h = total_hamiltonian(P, NVParams(zeeman=1.37), 1e-5, space)
    with pytest.raises(ParameterError):
        project_coupling_coefficients(h, space, n_interior=17)


def test_amplification_sweet_spot_rows_are_exactly_unity():
    rows = amplification_sweep(
        e_c=0.12,
        ratios=(1.005, 1.01, 1.05, 1.1),
        t=1.0,
        fs_grid=np.linspace(0.5, 1.0, 11),
    )
    for row in rows:
        if row.f_s == 0.5:
            assert row.eta1 == 0.0
            assert row.gain == 1.0


def test_amplification_gain_monotone_in_flux():
    rows = amplification_sweep(
        e_c=0.12, ratios=(1.005,), t=1.0, fs_grid=np.linspace(0.5, 1.0, 51)
    )
    gains = [r.gain for r in rows if r.status == "ok"]
    assert len(gains) == 51
    assert all(b >= a for a, b in zip(gains, gains[1:]))


def test_amplification_two_orders_endpoint():
    rows = amplification_sweep(
        e_c=0.12, ratios=(1.005,), t=1.0, fs_grid=np.linspace(0.5, 1.0, 101)
    )
    big = [r for r in rows if r.status == "ok" and r.f_s < 1.0 and r.gain >= 100.0]
    assert big, "expected a two-orders-of-magnitude point below full flux"


def test_amplification_unstable_rows_flagged():
    rows = amplification_sweep(
        e_c=0.12, ratios=(0.98,), t=1.0, fs_grid=np.linspace(0.5, 1.0, 26)
    )
    gaps = [r for r in rows if r.status == "unstable"]
    assert gaps
    assert all(math.isnan(r.gain) for r in gaps)
    # the stable side of the same curve still carries numbers
    assert any(r.status == "ok" and r.gain > 1.0 for r in rows)


def test_amplification_two_pi_convention_switch():
    grid = np.array([0.9])
    plain = amplification_sweep(e_c=0.12, ratios=(1.005,), t=1.0, fs_grid=grid)[0]
    angular = amplification_sweep(
        e_c=0.12, ratios=(1.005,), t=1.0, fs_grid=grid, two_pi=True
    )[0]
    assert angular.eta2 == pytest.approx(2.0 * math.pi * plain.eta2, rel=1e-12)
    assert angular.gain == pytest.approx(plain.gain ** (2.0 * math.pi), rel=1e-9)


def test_amplification_rejects_bad_ratio():
    with pytest.raises(ParameterError):
        amplification_sweep(e_c=0.12, ratios=(0.0,), t=1.0, fs_grid=np.array([0.5]))
