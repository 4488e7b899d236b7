"""The plain-array convention shared by operators, circuit and coupling.

The quadrature and generator helpers return complex128, the circuit
builders return float64, and every matrix that is Hermitian by
construction (symmetrized, or built from a +/- a^dag) is exactly so:
max|M - M^dag| is 0.0, not merely small.
"""

import numpy as np
import pytest

from fluxsqueeze import gates
from fluxsqueeze.circuit import full_hamiltonian, harmonic_hamiltonian, quartic_hamiltonian
from fluxsqueeze.coupling import conjugate_hamiltonian, squeeze_on_product, total_hamiltonian
from fluxsqueeze.errors import ParameterError
from fluxsqueeze.operators import (
    annihilation,
    make_fock_space,
    phase_charge_operators,
    su11_generators,
)
from fluxsqueeze.physics import CircuitParams, NVParams, reduced_params

P = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=0.9)
NV = NVParams(zeeman=2.87 - P.omega0)
BUILDERS = (harmonic_hamiltonian, full_hamiltonian, quartic_hamiltonian)


def _hermitian_matrices(dim):
    space = make_fock_space(dim)
    phi, n = phase_charge_operators(space, P.mass, P.omega0)
    h_tot = total_hamiltonian(P, NV, 1.4e-5, space)
    yield from (("phi", phi), ("n", n))
    yield from zip(("G1", "G2", "G3"), su11_generators(space))
    for builder in BUILDERS:
        yield builder.__name__, builder(P, space)
    yield "total_hamiltonian", h_tot
    yield "conjugate_hamiltonian", conjugate_hamiltonian(squeeze_on_product(space, 0.1), h_tot)


@pytest.mark.parametrize("dim", [2, 3, 60, 121])
def test_matrices_are_exactly_hermitian(dim):
    for name, mat in _hermitian_matrices(dim):
        assert float(np.abs(mat - mat.conj().T).max()) == 0.0, name


@pytest.mark.parametrize("dim", [2, 3, 60])
def test_helpers_return_complex128(dim):
    space = make_fock_space(dim)
    helpers = [annihilation(space), *phase_charge_operators(space, 1.0, 2.0), *su11_generators(space)]
    assert [m.dtype for m in helpers] == [np.dtype(np.complex128)] * 6


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("dim", [2, 3, 60])
def test_builders_return_float64(builder, dim):
    assert builder(P, make_fock_space(dim)).dtype == np.float64


def test_representation_resolver():
    space = make_fock_space(8)
    assert isinstance(gates.representation("2x2"), gates.Compact)
    assert isinstance(gates.representation("2x2", space), gates.Compact)
    fock = gates.representation("fock", space)
    assert isinstance(fock, gates.Fock) and fock.space == space
    with pytest.raises(ParameterError, match="needs a FockSpace"):
        gates.representation("fock")
    with pytest.raises(ParameterError, match="unknown representation"):
        gates.representation("3x3", space)


@pytest.mark.parametrize("rep, dim", [("2x2", 2), ("fock", 9)])
def test_representation_actions_match_dense_products(rep, dim):
    space = make_fock_space(dim)
    # the fock form carries its gates as sector blocks; each action is compared joined
    form = gates.representation(rep, space)
    mat = gates.gate_u1(P, 0.3, rep, space)
    gate = form.u1(reduced_params(P), 0.3)
    assert np.array_equal(gates._dense(gate), mat)
    u0 = form.u0(P, 0.4)
    np.testing.assert_allclose(gates._dense(form.u0_dag_left(P, 0.4, gate)), u0.conj().T @ mat, atol=1e-14)
    np.testing.assert_allclose(gates._dense(form.u0_conjugate(P, 0.4, gate)), u0 @ mat @ u0.conj().T,
                               atol=1e-14)
    np.testing.assert_allclose(gates._dense(form.power(gate, 5)), np.linalg.matrix_power(mat, 5), atol=1e-13)
