import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsqueeze import operators
from fluxsqueeze.errors import (
    InvalidDimensionError,
    ParameterError,
    SimulationError,
    TruncationLeakWarning,
)
from fluxsqueeze.operators import (
    Operator,
    TAU_X,
    TAU_Z,
    annihilation,
    commutator,
    creation,
    evolve,
    exp_2x2,
    exp_generator,
    exp_normal,
    hermitian_eig,
    interior,
    make_fock_space,
    number,
    phase_charge_operators,
    su11_generators,
    su11_generators_2x2,
    truncation_leak,
    warn_on_truncation_leak,
)

E_C, E_L = 0.12, 58.6
OMEGA0 = 2.0 * math.sqrt(E_C * E_L)


def test_fock_space_minimal():
    assert make_fock_space(2).dim == 2


@pytest.mark.parametrize("bad", [0, 1, -3])
def test_fock_space_rejects_small_dims(bad):
    with pytest.raises(InvalidDimensionError):
        make_fock_space(bad)


def test_fock_space_rejects_non_integer():
    with pytest.raises(InvalidDimensionError):
        make_fock_space(2.5)


def test_annihilation_dim2():
    a = annihilation(make_fock_space(2)).matrix
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_ladder_entry():
    a = annihilation(make_fock_space(3)).matrix
    assert a[1, 2] == pytest.approx(math.sqrt(2), abs=0)


def test_creation_is_conjugate_transpose():
    space = make_fock_space(12)
    assert np.array_equal(creation(space).matrix, annihilation(space).matrix.conj().T)


def test_number_equals_ad_a():
    space = make_fock_space(9)
    a = annihilation(space).matrix
    assert np.abs(number(space).matrix - a.conj().T @ a).max() < 1e-14


@given(dim=st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_ladder_commutator_interior(dim):
    space = make_fock_space(dim)
    a = annihilation(space).matrix
    comm = commutator(a, a.conj().T)
    # identity below the edge to machine precision ((sqrt n)^2 rounds);
    # the order-dim deviation is confined to the single corner entry
    assert np.abs(interior(comm, dim - 1) - np.eye(dim - 1)).max() < 1e-12
    assert comm[dim - 1, dim - 1] == pytest.approx(1.0 - dim, rel=1e-12)
    off_corner = comm.copy()
    off_corner[dim - 1, dim - 1] = 1.0
    assert np.abs(off_corner - np.eye(dim)).max() < 1e-12


def test_phase_charge_unit_mass_frequency():
    space = make_fock_space(8)
    phi, n = phase_charge_operators(space, m=0.5, omega=2.0)
    a = annihilation(space).matrix
    ad = a.conj().T
    assert np.abs(phi.matrix - (a + ad) / math.sqrt(2)).max() < 1e-15
    assert np.abs(n.matrix - 1j * (ad - a) / math.sqrt(2)).max() < 1e-15


def test_phase_zero_point_width_scalar_check():
    # independent scalar evaluation of the prefactor for the working basis
    space = make_fock_space(6)
    m = 1.0 / (2.0 * E_C)
    phi, _ = phase_charge_operators(space, m, OMEGA0)
    width = math.sqrt(E_C / OMEGA0)
    assert phi.matrix[0, 1] == pytest.approx(width, rel=1e-14)
    assert width == pytest.approx(0.150420, abs=5e-7)


def test_phase_charge_canonical_commutator():
    space = make_fock_space(40)
    phi, n = phase_charge_operators(space, 1.0 / (2.0 * E_C), OMEGA0)
    comm = commutator(phi.matrix, n.matrix)
    res = np.abs(interior(comm, 38) - 1j * np.eye(38)).max()
    assert res < 1e-12


@pytest.mark.parametrize("m,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_phase_charge_rejects_bad_parameters(m, omega):
    with pytest.raises(ParameterError):
        phase_charge_operators(make_fock_space(4), m, omega)


def test_su11_gamma3_dim2():
    g = su11_generators(make_fock_space(2))
    assert g.gamma3.hermitian
    assert np.array_equal(g.gamma3.matrix, np.diag([0.5, 1.5]).astype(complex))


def test_su11_gamma1_pair_entry():
    g = su11_generators(make_fock_space(3))
    assert g.gamma1.matrix[0, 2] == pytest.approx(math.sqrt(2) / 2, abs=0)


@given(dim=st.integers(4, 48))
@settings(max_examples=20, deadline=None)
def test_su11_commutators_interior(dim):
    g = su11_generators(make_fock_space(dim))
    g1, g2, g3 = g.gamma1.matrix, g.gamma2.matrix, g.gamma3.matrix
    n_int = dim - 2
    for lhs, rhs in (
        (commutator(g1, g2), -2j * g3),
        (commutator(g2, g3), 2j * g1),
        (commutator(g3, g1), 2j * g2),
    ):
        assert np.abs(interior(lhs - rhs, n_int)).max() < 1e-12


def test_su11_2x2_exact():
    g = su11_generators_2x2()
    assert np.array_equal(g.gamma3, np.array([[1, 0], [0, -1]], dtype=complex))
    assert np.array_equal(g.gamma1, 1j * np.array([[0, -1j], [1j, 0]]))
    assert np.abs(commutator(g.gamma1, g.gamma2) + 2j * g.gamma3).max() == 0.0
    assert np.abs(commutator(g.gamma2, g.gamma3) - 2j * g.gamma1).max() == 0.0
    assert np.abs(commutator(g.gamma3, g.gamma1) - 2j * g.gamma2).max() == 0.0


@given(gt=st.floats(-5.0, 5.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_2x2_closed_forms(gt):
    g = su11_generators_2x2()
    eye = np.eye(2)
    hyp1 = math.cosh(gt) * eye - 1j * g.gamma1 * math.sinh(gt)
    hyp2 = math.cosh(gt) * eye - 1j * g.gamma2 * math.sinh(gt)
    circ = math.cos(gt) * eye - 1j * g.gamma3 * math.sin(gt)
    assert np.abs(exp_2x2(-1j * gt * g.gamma1) - hyp1).max() < 1e-12
    assert np.abs(exp_2x2(-1j * gt * g.gamma2) - hyp2).max() < 1e-12
    assert np.abs(exp_2x2(-1j * gt * g.gamma3) - circ).max() < 1e-12


def test_hermitian_eig_sorts_ascending():
    w, v = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)
    assert np.abs(v @ v.conj().T - np.eye(3)).max() < 1e-14


def test_hermitian_eig_pauli_x():
    w, _ = hermitian_eig(TAU_X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-15)


def test_hermitian_eig_harmonic_uniform_spacing():
    # E_c n^2 + E_L phi^2 in its own basis: spacing omega0 = 2 sqrt(E_c E_L)
    space = make_fock_space(30)
    phi, n = phase_charge_operators(space, 1.0 / (2.0 * E_C), OMEGA0)
    h = E_C * (n.matrix @ n.matrix) + E_L * (phi.matrix @ phi.matrix)
    w, _ = hermitian_eig(h)
    gaps = np.diff(w[:10])
    assert np.abs(gaps - OMEGA0).max() < 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 24))
@settings(max_examples=20, deadline=None)
def test_hermitian_eig_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = raw + raw.conj().T
    w, v = hermitian_eig(h)
    scale = max(1.0, np.abs(h).max())
    assert np.abs((v * w) @ v.conj().T - h).max() <= 1e-9 * scale


def test_evolve_zero_hamiltonian():
    u = evolve(np.zeros((5, 5), dtype=complex), 3.7)
    assert np.abs(u - np.eye(5)).max() < 1e-15


def test_evolve_number_operator_period():
    space = make_fock_space(40)
    h = OMEGA0 * number(space).matrix
    u = evolve(Operator(h, space, hermitian=True), 2.0 * math.pi / OMEGA0)
    assert np.abs(u - np.eye(40)).max() < 1e-12


def test_evolve_pauli_z_quarter_period():
    u = evolve(TAU_Z, math.pi / 2.0)
    expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    assert np.abs(u - expected).max() < 1e-14


def test_exp_normal_zero():
    assert np.abs(exp_normal(np.zeros((7, 7))) - np.eye(7)).max() == 0.0


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
def test_exp_normal_squeeze_generator_is_unitary(eta):
    space = make_fock_space(60)
    a = annihilation(space).matrix
    ad = a.conj().T
    u = exp_normal(eta * (a @ a - ad @ ad))
    assert np.abs(u @ u.conj().T - np.eye(60)).max() < 1e-9


@pytest.mark.parametrize(
    "normal",
    [
        np.diag([1.0 + 1.0j, -0.5 + 2.0j, 0.25]),
        np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 0.5]]),
    ],
    ids=["complex_diagonal", "real_symmetric"],
)
def test_exp_normal_rejects_normal_non_anti_hermitian(normal):
    with pytest.raises(ParameterError, match="anti-Hermitian"):
        exp_normal(normal)


def test_exp_normal_rejects_non_normal():
    shift = np.diag(np.ones(9), 1)  # pure ladder: a a^dag != a^dag a
    with pytest.raises(ParameterError):
        exp_normal(shift)


@pytest.mark.parametrize("dim", [2, 3, 9, 10])
def test_parity_sectors_hold_the_pair_band(dim):
    a = annihilation(make_fock_space(dim)).matrix
    a2 = a @ a
    for s, (levels, band) in enumerate(operators.parity_sectors(dim)):
        assert np.array_equal(levels, np.arange(s, dim, 2))
        assert np.array_equal(a2[s::2, s::2], np.diag(band, 1))
    i, j = np.indices(a2.shape)
    assert np.all(a2[(i + j) % 2 == 1] == 0.0)


@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_cached_generator_eigenbasis_is_read_only(name):
    space = make_fock_space(10)
    exp_generator(space, name, 0.1)
    sectors = operators._generator_eig(space.dim, name)
    assert [v.shape for _, v in sectors] == [(5, 5), (5, 5)]
    for w, v in sectors:
        for arr in (w, v):
            with pytest.raises(ValueError):
                arr[0] = 1.0


@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_exp_generator_keeps_roundtrip_guard(monkeypatch, name):
    space = make_fock_space(10)
    exp_generator(space, name, 0.1)  # cached before the bound is tightened
    monkeypatch.setattr(operators, "EXP_ROUNDTRIP_ATOL", -1.0)
    with pytest.raises(SimulationError, match="residual"):
        exp_generator(space, name, 0.1)


def test_exp_2x2_hyperbolic_cap():
    g = su11_generators_2x2()
    with pytest.raises(ParameterError):
        exp_2x2(-1j * 11.0 * g.gamma1)


def test_operator_hermitian_flag_verified():
    space = make_fock_space(2)
    with pytest.raises(ParameterError):
        Operator(np.array([[0, 1], [0, 0]]), space, hermitian=True)


def test_operator_space_mismatch():
    a2 = annihilation(make_fock_space(2))
    a3 = annihilation(make_fock_space(3))
    with pytest.raises(ParameterError):
        _ = a2 + a3


def test_operator_matrix_frozen():
    a = annihilation(make_fock_space(3))
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


def test_truncation_leak_identity_is_zero():
    space = make_fock_space(50)
    assert truncation_leak(np.eye(50), space) == 0.0


def test_truncation_leak_warns_for_strong_squeeze():
    space = make_fock_space(60)
    a = annihilation(space).matrix
    ad = a.conj().T
    u = exp_normal(1.0 * (a @ a - ad @ ad))
    assert truncation_leak(u, space) > 1e-6
    with pytest.warns(TruncationLeakWarning):
        warn_on_truncation_leak(u, space, "test")
