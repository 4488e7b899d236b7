"""The product-space coupling chain against its Kronecker-product form.

``total_hamiltonian``, ``squeeze_on_product``, ``conjugate_hamiltonian``
and ``project_coupling_coefficients`` write their 2*dim matrices band by
band, block by block and into reused buffers.  The ``kron_*`` functions
below are the Kronecker-product versions they replace, kept as the
reference: every matrix must be equal entry for entry (``np.array_equal``,
so a zero may differ in sign) and every coefficient, the least-squares
residual included, equal as a float.  The allocation budget keeps the
2*dim Kronecker temporaries from coming back.  ``conjugate_hamiltonian``
checks the unitarity of S = F (x) 1 on F; its rejections must read as the
reference's full check does, for S in that form and for any other S.
"""

import tracemalloc

import numpy as np
import pytest

from fluxsqueeze.coupling import (
    UNITARY_TOL,
    _design,
    _gram_residual,
    conjugate_hamiltonian,
    project_coupling_coefficients,
    squeeze_on_product,
    total_hamiltonian,
)
from fluxsqueeze.errors import ParameterError, TruncationLeakError
from fluxsqueeze.operators import TAU_X, TAU_Z, annihilation, exp_normal, make_fock_space
from fluxsqueeze.physics import (
    ZERO_FIELD_SPLITTING_GHZ,
    CircuitParams,
    NVParams,
    bare_coupling,
    default_geometry,
)

# the selftest's chain: detuned flux, spin on resonance with the oscillator
P = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
G = bare_coupling(P, default_geometry(P))
NV = NVParams(zeeman=ZERO_FIELD_SPLITTING_GHZ - P.omega0)


def as_hermitian(matrix):
    return 0.5 * (matrix + matrix.conj().T)


def kron_total_hamiltonian(p, nv, g, space):
    dim = space.dim
    eye_f = np.eye(dim)
    eye_s = np.eye(2)
    n_diag = np.diag(np.arange(dim, dtype=float))
    a = annihilation(space)
    x_pair = a + a.conj().T
    mat = (
        p.omega0 * np.kron(n_diag, eye_s)
        + 0.5 * nv.omega_nv * np.kron(eye_f, TAU_Z)
        + g * np.kron(x_pair, TAU_X)
    )
    return as_hermitian(mat)


def kron_squeeze_on_product(space, eta2):
    a = annihilation(space)
    gen = eta2 * (a @ a - a.conj().T @ a.conj().T)
    return np.kron(exp_normal(gen), np.eye(2, dtype=complex))


def kron_conjugate_hamiltonian(S, H):
    S = np.asarray(S, dtype=complex)
    if S.shape != H.shape:
        raise ParameterError(f"shape mismatch: S {S.shape} vs H {H.shape}")
    unit_res = float(np.abs(S @ S.conj().T - np.eye(S.shape[0])).max())
    if unit_res > UNITARY_TOL:
        raise TruncationLeakError(
            "transform is not unitary, the squeeze leaked through the truncation edge: "
            f"max|S S^dag - 1| residual {unit_res:.3e} exceeds bound {UNITARY_TOL:.3e}"
        )
    out = S @ H @ S.conj().T
    herm_res = float(np.abs(out - out.conj().T).max())
    herm_bound = UNITARY_TOL * max(1.0, float(np.abs(out).max()))
    if herm_res > herm_bound:
        raise TruncationLeakError(
            "conjugated Hamiltonian lost hermiticity: "
            f"max|H - H^dag| residual {herm_res:.3e} exceeds bound {herm_bound:.3e}"
        )
    return as_hermitian(out)


def kron_project_coupling_coefficients(H, space, n_interior):
    mat = np.asarray(H)
    dim = space.dim
    if not 2 <= n_interior <= dim:
        raise ParameterError(f"n_interior={n_interior} outside 2..{dim}")
    a = annihilation(space)
    ad = a.conj().T
    eye_f = np.eye(dim, dtype=complex)
    eye_s = np.eye(2, dtype=complex)
    basis = {
        "const": np.kron(eye_f, eye_s),
        "number": np.kron(ad @ a, eye_s),
        "pair": np.kron(a @ a + ad @ ad, eye_s),
        "spin_z": np.kron(eye_f, 0.5 * TAU_Z),
        "coupling": np.kron(a + ad, TAU_X),
    }
    keep = np.zeros(dim, dtype=bool)
    keep[:n_interior] = True
    sel = np.repeat(keep, 2)
    target = mat[np.ix_(sel, sel)].ravel()
    design = np.stack([b[np.ix_(sel, sel)].ravel() for b in basis.values()], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    out = {name: float(c.real) for name, c in zip(basis, coeffs)}
    out["residual"] = float(np.abs(design @ coeffs - target).max())
    return out


@pytest.mark.parametrize("eta2", [0.05, 0.2])
@pytest.mark.parametrize("dim", [2, 3, 8, 96, 97, 192])
def test_chain_matches_kronecker_reference(dim, eta2):
    space = make_fock_space(dim)
    h = total_hamiltonian(P, NV, G, space)
    h_ref = kron_total_hamiltonian(P, NV, G, space)
    assert h.dtype == h_ref.dtype and np.array_equal(h, h_ref)

    s = squeeze_on_product(space, eta2)
    s_ref = kron_squeeze_on_product(space, eta2)
    assert s.dtype == s_ref.dtype and np.array_equal(s, s_ref)

    h_eff = conjugate_hamiltonian(s, h)
    h_eff_ref = kron_conjugate_hamiltonian(s_ref, h_ref)
    assert np.array_equal(h_eff, h_eff_ref)
    assert np.array_equal(conjugate_hamiltonian(s_ref, h_ref), h_eff_ref)

    for n_interior in sorted({2, max(2, dim // 3), dim}):
        coeffs = project_coupling_coefficients(h_eff, space, n_interior)
        assert coeffs == kron_project_coupling_coefficients(h_eff_ref, space, n_interior)


def _not_unitary(s):
    return 2.0 * s


def _slightly_not_unitary(s):
    return (1.0 + 1e-7) * s


def _wrong_shape(s):
    return s[:-2, :-2]


def _not_hermitian_h(h):
    h = h.copy()
    h[0, 1] += 1.0
    return h


def _off_spin_entry(s):
    # no longer F (x) 1, so the unitarity check runs on the whole of S
    s = s.copy()
    s[0, 1] = 1e-3
    return s


def _unequal_spin_blocks(s):
    s = s.copy()
    s[1::2, 1::2] *= 1.0 + 1e-7
    return s


@pytest.mark.parametrize(
    "bend_s, bend_h, error",
    [
        (_not_unitary, None, TruncationLeakError),
        (_slightly_not_unitary, None, TruncationLeakError),
        (_off_spin_entry, None, TruncationLeakError),
        (_unequal_spin_blocks, None, TruncationLeakError),
        (_wrong_shape, None, ParameterError),
        (None, _not_hermitian_h, TruncationLeakError),
    ],
    ids=[
        "non_unitary",
        "slightly_non_unitary",
        "off_spin_entry",
        "unequal_spin_blocks",
        "shape_mismatch",
        "non_hermitian_result",
    ],
)
def test_conjugation_rejects_like_kronecker_reference(bend_s, bend_h, error):
    space = make_fock_space(12)
    s = squeeze_on_product(space, 0.2)
    h = total_hamiltonian(P, NV, G, space)
    s = bend_s(s) if bend_s else s
    h = bend_h(h) if bend_h else h
    with pytest.raises(error) as ref:
        kron_conjugate_hamiltonian(s, h)
    with pytest.raises(error) as got:
        conjugate_hamiltonian(s, h)
    assert str(got.value) == str(ref.value)


def _full_gram_residual(s):
    return float(np.abs(s @ s.conj().T - np.eye(s.shape[0])).max())


@pytest.mark.parametrize("eta2", [0.05, 0.2, 1.0])
@pytest.mark.parametrize("dim", [2, 3, 8, 96, 192])
def test_factor_unitarity_residual_matches_the_product_space_one(dim, eta2):
    s = squeeze_on_product(make_fock_space(dim), eta2)
    got = _gram_residual(s)
    # taken on the factor F of S = F (x) 1 ...
    assert got == _full_gram_residual(s[0::2, 0::2])
    # ... which is the 2*dim residual up to the summation order
    assert abs(got - _full_gram_residual(s)) <= 1e-15


def test_spin_mixing_transform_is_checked_and_applied_in_full():
    # a unitary S that is not F (x) 1: F (x) exp(-i 0.3 tau_y)
    space = make_fock_space(12)
    f = squeeze_on_product(space, 0.2)[0::2, 0::2]
    spin = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]], dtype=complex)
    s = np.kron(f, spin)
    h = total_hamiltonian(P, NV, G, space)
    assert _gram_residual(s) == _full_gram_residual(s)
    assert np.array_equal(conjugate_hamiltonian(s, h), kron_conjugate_hamiltonian(s, h))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entries", [slice(None), [2], [2, 3]], ids=["all", "one", "both_spins"])
def test_conjugation_rejects_non_finite_transform(bad, entries):
    # NaN fails every comparison, so a guard written as res > bound let it pass;
    # both spin entries keep S = F (x) 1 and so test the check on F
    space = make_fock_space(12)
    h = total_hamiltonian(P, NV, G, space)
    s = squeeze_on_product(space, 0.2)
    s[entries, entries] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
        TruncationLeakError, match="transform is not unitary"
    ):
        conjugate_hamiltonian(s, h)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_conjugation_rejects_non_finite_result(bad):
    space = make_fock_space(12)
    s = squeeze_on_product(space, 0.2)
    h = total_hamiltonian(P, NV, G, space)
    h[3, 3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
        TruncationLeakError, match="lost hermiticity"
    ):
        conjugate_hamiltonian(s, h)


def _peak_in_product_matrices(fn, *args, **kwargs):
    """tracemalloc peak of one warm call, in 2*dim complex matrices (dim 192)."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / ((2 * 192) ** 2 * np.dtype(complex).itemsize)


def test_chain_allocation_budget():
    # the Kronecker forms peaked at 3.81 (Hamiltonian) and 6.97 (projection)
    space = make_fock_space(192)
    h = total_hamiltonian(P, NV, G, space)
    assert _peak_in_product_matrices(total_hamiltonian, P, NV, G, space) <= 1.1
    assert _peak_in_product_matrices(project_coupling_coefficients, h, space, 64) <= 1.5


def test_projection_design_is_built_once_per_size_and_read_only():
    space = make_fock_space(24)
    h = conjugate_hamiltonian(squeeze_on_product(space, 0.1), total_hamiltonian(P, NV, G, space))
    _design.cache_clear()
    first = project_coupling_coefficients(h, space, 8)
    names, design = _design(8)
    assert project_coupling_coefficients(h, space, 8) == first
    assert _design.cache_info().misses == 1 and _design(8)[1] is design
    assert names == ("const", "number", "pair", "spin_z", "coupling")
    with pytest.raises(ValueError):
        design[0, 0] = 1.0
