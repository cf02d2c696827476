"""Exact unitary matrices, their realification, and the standard J0 and Omega0."""

import numpy as np
import pytest

from fd_oracles import J0, OMEGA0, complex_matrix, realify
from orbifold4 import CyclotomicScalar, NotUnitaryError, UMat2


def _hadamard():
    # (1/sqrt2) [[1,1],[1,-1]] with 1/sqrt2 = (zeta_8 - zeta_8^3)/2, exact
    s = (CyclotomicScalar.zeta(8) - CyclotomicScalar.zeta(8, 3)) * CyclotomicScalar.from_rational("1/2")
    return UMat2([[s, s], [s, -1 * s]])


def test_standard_structures():
    assert np.allclose(J0 @ J0, -np.eye(4))
    assert np.allclose(OMEGA0, -OMEGA0.T)
    # omega0(u, J0 u) = |u|^2: the defining compatibility
    assert np.allclose(OMEGA0 @ J0, np.eye(4))


def test_unitarity_is_verified():
    with pytest.raises(NotUnitaryError):
        UMat2([[1, 1], [0, 1]])
    i = CyclotomicScalar.zeta(4)
    UMat2.diagonal(i, i ** 3)  # should not raise


def test_hadamard_is_unitary_and_realifies_correctly():
    h = _hadamard()
    r = realify(complex_matrix(h))
    assert np.max(np.abs(r.T @ r - np.eye(4))) <= 1e-10  # orthogonal
    assert np.max(np.abs(r.T @ OMEGA0 @ r - OMEGA0)) <= 1e-10  # symplectic
    assert np.allclose(r @ r, np.eye(4))  # the Hadamard matrix is an involution


def test_realify_is_a_homomorphism():
    a = UMat2.diagonal(CyclotomicScalar.zeta(4), CyclotomicScalar.from_rational(-1))
    b = _hadamard()
    ra, rb = realify(complex_matrix(a)), realify(complex_matrix(b))
    assert np.allclose(realify(complex_matrix(a @ b)), ra @ rb, atol=1e-12)
    assert np.allclose(ra @ J0, J0 @ ra, atol=1e-12)


def test_group_ops_exact():
    a = UMat2.diagonal(CyclotomicScalar.zeta(6), CyclotomicScalar.zeta(6, 5))
    assert a @ a.inverse() == UMat2.identity()
    assert a.det() == 1
    assert (a.trace() - CyclotomicScalar.zeta(6) - CyclotomicScalar.zeta(6, 5)).is_zero()


def test_json_round_trip():
    a = UMat2.diagonal(CyclotomicScalar.zeta(8, 3), CyclotomicScalar.zeta(8, 5))
    assert UMat2.from_json(a.to_json()) == a
