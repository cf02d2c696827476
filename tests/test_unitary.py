"""Exact unitary matrices, realification, retraction, compatible structures."""

import numpy as np
import pytest

from orbifold4 import CyclotomicScalar, NotUnitaryError, UMat2
from orbifold4.sympverify.linear import (OMEGA0, J0, DegenerateFormError,
                                         NotSymplecticError, compatible_acs,
                                         is_orthogonal, is_symplectic,
                                         matrix_inv_sqrt, realify,
                                         retract_equivariance_check,
                                         unitary_retract)


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
    r = realify(h)
    assert is_orthogonal(r) and is_symplectic(r)
    assert np.allclose(r @ r, np.eye(4))  # the Hadamard matrix is an involution


def test_realify_is_a_homomorphism():
    a = UMat2.diagonal(CyclotomicScalar.zeta(4), CyclotomicScalar.from_rational(-1))
    b = _hadamard()
    assert np.allclose(realify(a @ b), realify(a) @ realify(b), atol=1e-12)
    assert np.allclose(realify(a) @ J0, J0 @ realify(a), atol=1e-12)


def test_realify_of_a_complex_array_matches_each_exact_matrix():
    z8 = CyclotomicScalar.zeta(8)
    mats = [_hadamard(), UMat2.diagonal(z8, z8 ** 7),
            UMat2.diagonal(CyclotomicScalar.zeta(4), CyclotomicScalar.from_rational(-1))]
    stacked = realify(np.array([u.to_complex() for u in mats]))
    assert stacked.shape == (3, 4, 4)
    for r, u in zip(stacked, mats):
        assert np.array_equal(r, realify(u))


def test_group_ops_exact():
    a = UMat2.diagonal(CyclotomicScalar.zeta(6), CyclotomicScalar.zeta(6, 5))
    assert a @ a.inverse() == UMat2.identity()
    assert a.det() == 1
    assert (a.trace() - CyclotomicScalar.zeta(6) - CyclotomicScalar.zeta(6, 5)).is_zero()


def test_json_round_trip():
    a = UMat2.diagonal(CyclotomicScalar.zeta(8, 3), CyclotomicScalar.zeta(8, 5))
    assert UMat2.from_json(a.to_json()) == a


def test_matrix_inv_sqrt_oracle():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(4, 4))
    s = b @ b.T + 4 * np.eye(4)
    r = matrix_inv_sqrt(s)
    assert np.allclose(r @ s @ r, np.eye(4), atol=1e-10)
    with pytest.raises(ValueError):
        matrix_inv_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_unitary_retract_fixes_unitaries_and_repairs_symplectics():
    u = realify(_hadamard())
    assert np.allclose(unitary_retract(u), u, atol=1e-12)
    # a genuinely non-orthogonal symplectic matrix: symplectic shear
    shear = np.eye(4)
    shear[0, 1] = 0.3
    r = unitary_retract(shear)
    assert is_orthogonal(r) and is_symplectic(r)
    with pytest.raises(NotSymplecticError):
        unitary_retract(2.0 * np.eye(4))


def test_compatible_acs_postconditions():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(4, 4)) * 0.2 + np.eye(4)
    g = b @ b.T  # generic metric
    w = OMEGA0 + 0.05 * (lambda m: m - m.T)(rng.normal(size=(4, 4)))
    j = compatible_acs(g, w)
    assert np.allclose(j @ j, -np.eye(4), atol=1e-9)
    sym = w @ j
    assert np.allclose(sym, sym.T, atol=1e-9)
    assert np.all(np.linalg.eigvalsh(0.5 * (sym + sym.T)) > 0)
    assert np.allclose(j.T @ w @ j, w, atol=1e-9)


def test_compatible_acs_standard_pair_recovers_j0():
    assert np.allclose(compatible_acs(np.eye(4), OMEGA0), J0, atol=1e-12)


def test_compatible_acs_degenerate_form():
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = 1.0, -1.0
    with pytest.raises(DegenerateFormError):
        compatible_acs(np.eye(4), w)


def test_retract_equivariance():
    a = UMat2.diagonal(CyclotomicScalar.zeta(4), CyclotomicScalar.zeta(4, 3))
    h = _hadamard()
    c = h @ a @ h.inverse()
    # conjugating matrix: the realified Hadamard perturbed by a symplectic shear
    shear = np.eye(4)
    shear[2, 3] = 1e-12
    b = realify(h) @ shear
    assert retract_equivariance_check(a, c, b)
