import math
import warnings

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
    WrongRegimeError,
)
from fluxsqueeze.operators import (
    TAU_X,
    TAU_Z,
    annihilation,
    commutator,
    exp_2x2,
    exp_generator,
    exp_normal,
    hermitian_eig,
    interior,
    make_fock_space,
    phase_charge_operators,
    propagator,
    reconstruction_residual,
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
    a = annihilation(make_fock_space(2))
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_ladder_entry():
    a = annihilation(make_fock_space(3))
    assert a[1, 2] == pytest.approx(math.sqrt(2), abs=0)


@given(dim=st.integers(2, 40))
@settings(max_examples=25, deadline=None)
def test_ladder_commutator_interior(dim):
    space = make_fock_space(dim)
    a = annihilation(space)
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
    a = annihilation(space)
    ad = a.conj().T
    assert np.abs(phi - (a + ad) / math.sqrt(2)).max() < 1e-15
    assert np.abs(n - 1j * (ad - a) / math.sqrt(2)).max() < 1e-15


@pytest.mark.parametrize("m, omega", [(math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (1.0, -2.0)])
def test_phase_charge_rejects_a_mass_or_frequency_that_is_not_positive(m, omega):
    # a NaN fails every comparison, so it must fail the test too
    with pytest.raises(ParameterError, match="need m > 0 and omega > 0"):
        phase_charge_operators(make_fock_space(4), m, omega)


def test_phase_zero_point_width_scalar_check():
    # independent scalar evaluation of the prefactor for the working basis
    space = make_fock_space(6)
    m = 1.0 / (2.0 * E_C)
    phi, _ = phase_charge_operators(space, m, OMEGA0)
    width = math.sqrt(E_C / OMEGA0)
    assert phi[0, 1] == pytest.approx(width, rel=1e-14)
    assert width == pytest.approx(0.150420, abs=5e-7)


def test_phase_charge_canonical_commutator():
    space = make_fock_space(40)
    phi, n = phase_charge_operators(space, 1.0 / (2.0 * E_C), OMEGA0)
    comm = commutator(phi, n)
    res = np.abs(interior(comm, 38) - 1j * np.eye(38)).max()
    assert res < 1e-12


@pytest.mark.parametrize("m,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_phase_charge_rejects_bad_parameters(m, omega):
    with pytest.raises(ParameterError):
        phase_charge_operators(make_fock_space(4), m, omega)


def test_su11_gamma3_dim2():
    g = su11_generators(make_fock_space(2))
    assert np.array_equal(g.gamma3, np.diag([0.5, 1.5]).astype(complex))


def test_su11_gamma1_pair_entry():
    g = su11_generators(make_fock_space(3))
    assert g.gamma1[0, 2] == pytest.approx(math.sqrt(2) / 2, abs=0)


@given(dim=st.integers(4, 48))
@settings(max_examples=20, deadline=None)
def test_su11_commutators_interior(dim):
    g = su11_generators(make_fock_space(dim))
    g1, g2, g3 = g.gamma1, g.gamma2, g.gamma3
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
    h = E_C * (n @ n) + E_L * (phi @ phi)
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


@pytest.mark.parametrize("dtype", [complex, np.float64])
def test_hermitian_eig_keeps_reconstruction_guard(monkeypatch, dtype):
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    h = raw + raw.conj().T
    if dtype is np.float64:
        h = h.real.copy()
    hermitian_eig(h)
    monkeypatch.setattr(operators, "RECONSTRUCTION_RTOL", -1.0)
    with pytest.raises(SimulationError, match="eigen-reconstruction residual"):
        hermitian_eig(h)


def test_guard_helper_fails_closed_on_nan():
    # every guard compares as `not residual <= bound`: a NaN residual fails
    with pytest.raises(SimulationError, match=r"^probe residual nan exceeds bound 1\.000e-09$"):
        operators.require_below(math.nan, 1e-9, SimulationError, "probe")
    with pytest.raises(ParameterError, match="probe residual"):
        operators.require_below(1.0, math.nan, ParameterError, "probe")
    operators.require_below(1e-9, 1e-9, SimulationError, "probe")


def test_propagator_zero_hamiltonian():
    u = propagator(*hermitian_eig(np.zeros((5, 5), dtype=complex)), 3.7)
    assert np.abs(u - np.eye(5)).max() < 1e-15


def test_propagator_number_operator_period():
    space = make_fock_space(40)
    h = OMEGA0 * np.diag(np.arange(40, dtype=float))
    u = propagator(*hermitian_eig(h), 2.0 * math.pi / OMEGA0)
    assert np.abs(u - np.eye(40)).max() < 1e-12


def test_propagator_pauli_z_quarter_period():
    u = propagator(*hermitian_eig(TAU_Z), math.pi / 2.0)
    expected = np.diag([np.exp(-1j * math.pi / 2), np.exp(1j * math.pi / 2)])
    assert np.abs(u - expected).max() < 1e-14


def test_exp_normal_zero():
    assert np.abs(exp_normal(np.zeros((7, 7))) - np.eye(7)).max() == 0.0


@pytest.mark.parametrize("eta", [0.25, 0.5, 1.0])
def test_exp_normal_squeeze_generator_is_unitary(eta):
    space = make_fock_space(60)
    a = annihilation(space)
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


def _squeeze_generator(dim):
    a = annihilation(make_fock_space(dim))
    return 0.3 * (a @ a - a.conj().T @ a.conj().T)


def test_exp_normal_roundtrip_catches_a_scaled_eigenbasis(monkeypatch):
    # exp(-K) is read off as exp(K)^dag, so a basis that is not unitary
    # must still fail the round trip
    eigh = np.linalg.eigh
    k = _squeeze_generator(12)
    exp_normal(k)

    def scaled(mat):
        w, v = eigh(mat)
        return w, 1.001 * v

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    with pytest.raises(SimulationError, match="exp\\(K\\)exp\\(-K\\) residual"):
        exp_normal(k)


def test_exp_normal_keeps_roundtrip_guard(monkeypatch):
    k = _squeeze_generator(12)
    exp_normal(k)
    monkeypatch.setattr(operators, "EXP_ROUNDTRIP_ATOL", -1.0)
    with pytest.raises(SimulationError, match="residual"):
        exp_normal(k)


@pytest.mark.parametrize("dim", [2, 3, 9, 10])
def test_parity_sectors_hold_the_pair_band(dim):
    a = annihilation(make_fock_space(dim))
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


def test_exp_2x2_hyperbolic_cap_is_a_regime_limit():
    g = su11_generators_2x2()
    with pytest.raises(WrongRegimeError, match="run.t"):
        exp_2x2(-1j * 11.0 * g.gamma1)


def test_exp_2x2_overflowing_argument_is_a_regime_limit():
    # both determinant products overflow to inf, so mu is inf - inf = nan,
    # which the cap must reject rather than return a NaN matrix
    g = su11_generators_2x2()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(WrongRegimeError, match=r"\|nan\|"):
            exp_2x2(-1j * 1e200 * (g.gamma3 - g.gamma1))


def test_truncation_leak_identity_is_zero():
    space = make_fock_space(50)
    assert truncation_leak(np.eye(50), space) == 0.0


def test_truncation_leak_warns_for_strong_squeeze():
    space = make_fock_space(60)
    a = annihilation(space)
    ad = a.conj().T
    u = exp_normal(1.0 * (a @ a - ad @ ad))
    assert truncation_leak(u, space) > 1e-6
    with pytest.warns(TruncationLeakWarning):
        warn_on_truncation_leak(u, space, "test")


# A NaN residual fails every comparison, so each guard is written as
# ``not res <= bound``, and the entry points reject non-finite input first.
NON_FINITE = [math.nan, math.inf]


def _hermitian_stack(dtype, k=5, dim=12):
    """``k`` Hermitian matrices whose largest elements differ by powers of ten."""
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((k, dim, dim))
    if dtype is complex:
        raw = raw + 1j * rng.standard_normal((k, dim, dim))
    raw *= 10.0 ** np.arange(k)[:, None, None]
    return raw + raw.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("dtype", [np.float64, complex])
def test_stacked_hermitian_eig_matches_each_matrix_bitwise(dtype):
    stack = _hermitian_stack(dtype)
    w, v = hermitian_eig(stack)
    residuals = reconstruction_residual(stack, w, v)
    for mat, w_i, v_i, res_i in zip(stack, w, v, residuals):
        alone = hermitian_eig(mat)
        assert np.array_equal(w_i, alone[0]) and np.array_equal(v_i, alone[1])
        assert res_i == reconstruction_residual(mat, *alone)


def _spoil_eigenvalues_of(target, monkeypatch):
    """Make ``np.linalg.eigh`` shift the eigenvalues of ``target``, alone or in a stack."""
    eigh = np.linalg.eigh

    def spoiled(a):
        w, v = eigh(a)
        for j in np.ndindex(a.shape[:-2]):
            if np.array_equal(a[j], target):
                w[j] += 1.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", spoiled)


@pytest.mark.parametrize("dtype", [np.float64, complex])
@pytest.mark.parametrize("flaw", ["not hermitian", "not finite", "reconstruction"])
def test_a_failing_matrix_in_a_stack_raises_as_alone(monkeypatch, dtype, flaw):
    stack = _hermitian_stack(dtype)
    bad = 2
    if flaw == "not hermitian":
        stack[bad, 0, 1] += 1.0
    elif flaw == "not finite":
        stack[bad, 1, 1] = np.nan
    else:
        _spoil_eigenvalues_of(stack[bad], monkeypatch)
    with pytest.raises(SimulationError) as alone:
        hermitian_eig(stack[bad])
    with pytest.raises(type(alone.value)) as stacked:
        hermitian_eig(stack)
    assert str(stacked.value) == str(alone.value)
    for i in (0, 1, 3, 4):
        hermitian_eig(stack[i])


def test_hermitian_eig_rejects_a_stack_of_stacks():
    with pytest.raises(ParameterError, match="expected a square matrix"):
        hermitian_eig(np.zeros((2, 2, 3, 3)))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_hermitian_eig_rejects_non_finite_input_before_the_solve(monkeypatch, bad):
    def no_solve(mat):
        raise AssertionError("eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    for dtype in (float, complex):
        with pytest.raises(ParameterError, match="finite"):
            hermitian_eig(np.diag([1.0, bad, 2.0, 3.0]).astype(dtype))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_hermitian_eig_reconstruction_guard_fails_closed(monkeypatch, bad):
    eigh = np.linalg.eigh

    def spoiled(mat):
        w, v = eigh(mat)
        return np.full_like(w, bad), v

    monkeypatch.setattr(np.linalg, "eigh", spoiled)
    for mat in (np.diag([1.0, 2.0, 3.0]), _squeeze_generator(6) * 1j):
        with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match="reconstruction"
        ):
            hermitian_eig(mat)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_exp_normal_rejects_non_finite_input(monkeypatch, bad):
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: pytest.fail("eigh reached"))
    k = _squeeze_generator(8)
    k[3, 5] = bad
    with pytest.raises(ParameterError, match="exp_normal needs finite"):
        exp_normal(k)
    with pytest.raises(ParameterError, match="exp_normal needs finite"):
        exp_normal(np.array([[0.0, bad], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_exp_2x2_rejects_non_finite_members(bad):
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = complex(0.0, bad)
    with pytest.raises(ParameterError, match="exp_2x2 needs finite"):
        exp_2x2(stack)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_exp_round_trip_guard_fails_closed(bad):
    w, v = np.linalg.eigh(-1j * _squeeze_generator(8))
    w[2] = bad
    for vecs in (v, np.eye(8)):
        with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match="exp\\(K\\)exp\\(-K\\) residual"
        ):
            operators._exp_i_eig(w, vecs)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_unitarity_guard_fails_closed(bad):
    u = np.eye(4, dtype=complex)
    u[1, 1] = bad
    with np.errstate(invalid="ignore"):
        assert not operators.unitarity_residual(u) <= operators.EXP_ROUNDTRIP_ATOL
    w, v = hermitian_eig(TAU_Z)
    w[1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
        SimulationError, match="exp\\(K\\)exp\\(-K\\) residual"
    ):
        propagator(w, v, 1.0)


@pytest.mark.parametrize("peak", [0.0, 0.5, 3.0, 1e300])
def test_finite_scale_of_a_matrix_is_its_stack_scale_as_a_float(peak):
    mat = np.array([[peak, -0.25], [-0.25, 0.0]])
    scale = operators._finite_scale(mat, "test")
    assert type(scale) is float
    assert scale == operators._finite_scale(mat[None], "test", stacks=True)[0] == max(1.0, peak)
