"""Resolution topology: chains, exceptional sets, Betti assembly, pi_1."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbifold4 import (AbelianInvariants, CyclotomicScalar, HJChain, Incomplete,
                       UMat2, Unsupported, abelianize, builtin_group,
                       builtin_mapping_torus, builtin_product,
                       euler_characteristic, exceptional_betti, generate_group,
                       hj_resolve, mapping_torus_pi1, resolution_betti,
                       smith_normal_form)


def _continued_fraction(coeffs):
    """Independent oracle: evaluate a1 - 1/(a2 - 1/(...)) as a Fraction."""
    val = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        val = a - 1 / val
    return val


def _cyclic(m, q):
    return generate_group([UMat2.diagonal(CyclotomicScalar.zeta(m),
                                          CyclotomicScalar.zeta(m, q))])


def test_chain_for_minus_identity_type():
    chain = hj_resolve(2, 1)
    assert chain.coeffs == [2]
    assert chain.intersection_matrix() == [[-2]]


@pytest.mark.parametrize("m", range(2, 13))
def test_a_family_chains(m):
    # type (m, m-1) resolves to a string of m-1 curves of self-intersection -2
    chain = hj_resolve(m, m - 1)
    assert chain.coeffs == [2] * (m - 1)
    assert _continued_fraction(chain.coeffs) == Fraction(m, m - 1)


@pytest.mark.parametrize("m,q", [(5, 2), (7, 3), (11, 4), (12, 5), (12, 7), (9, 2)])
def test_chain_against_continued_fraction_oracle(m, q):
    chain = hj_resolve(m, q)
    assert all(a >= 2 for a in chain.coeffs)
    assert _continued_fraction(chain.coeffs) == Fraction(m, q)
    assert chain.is_negative_definite()
    # eigenvalue cross-check of negative definiteness
    assert np.all(np.linalg.eigvalsh(np.array(chain.intersection_matrix(), float)) < 0)


@pytest.mark.parametrize("coeffs", [[1], [2], [1, 1], [1, 2], [2, 1, 2], [3, 1, 3],
                                    [2, 1, 1, 2], [2, 2, 1, 5, 1], [2] * 40])
def test_negative_definite_against_eigenvalues(coeffs):
    chain = HJChain(0, 0, coeffs)
    eig = np.linalg.eigvalsh(np.array(chain.intersection_matrix(), float))
    assert chain.is_negative_definite() == bool(np.all(eig < -1e-9))


@pytest.mark.parametrize("m,q", [(5, 2), (7, 3), (12, 5), (11, 8)])
def test_chain_duality(m, q):
    qp = pow(q, -1, m)
    assert hj_resolve(m, q).coeffs == list(reversed(hj_resolve(m, qp).coeffs))


def test_hj_rejects_invalid_data():
    for m, q in [(1, 1), (4, 2), (5, 0), (5, 5), (6, 3)]:
        with pytest.raises(ValueError):
            hj_resolve(m, q)


def test_exceptional_betti_cyclic():
    assert exceptional_betti(builtin_group("minus_identity")) == (1, 0, 1)
    assert exceptional_betti(_cyclic(4, 3)) == (1, 0, 3)
    # reflection groups induce the trivial action: nothing to resolve
    assert exceptional_betti(builtin_group("klein_four")) == (1, 0, 0)


def test_exceptional_betti_quaternion():
    i = CyclotomicScalar.zeta(4)
    zero = CyclotomicScalar.zero()
    one = CyclotomicScalar.one()
    q8 = generate_group([UMat2.diagonal(i, i ** 3),
                         UMat2([[zero, one], [-1 * one, zero]])])
    # 5 conjugacy classes, hence 4 nontrivial irreducibles and 4 curves
    assert exceptional_betti(q8) == (1, 0, 4)


def test_exceptional_betti_unsupported():
    # non-abelian with a determinant outside {1}
    zero = CyclotomicScalar.zero()
    one = CyclotomicScalar.one()
    swap = UMat2([[zero, one], [one, zero]])
    G = generate_group([UMat2.diagonal(CyclotomicScalar.zeta(4),
                                       CyclotomicScalar.zeta(4, 3)), swap])
    with pytest.raises(Unsupported) as exc:
        exceptional_betti(G)
    assert exc.value.reason == "non-abelian group with determinants outside {1}"
    assert exc.value.info == {"order": 8, "abelian": False}


def test_resolution_betti_mapping_torus():
    profile = resolution_betti(builtin_mapping_torus())
    assert profile.betti == (1, 0, 7, 0, 1)
    assert [eb for _, eb in profile.contributing_points] == [(1, 0, 1)] * 5
    assert profile.provenance[2] == "computed"
    spec = builtin_mapping_torus()
    chi = euler_characteristic(spec, resolution_betti(spec))
    assert isinstance(chi, Incomplete)  # b3 still carries its default


def test_resolution_betti_product():
    spec = builtin_product([3], [4])
    profile = resolution_betti(spec)
    # the corner group is a reflection group: no exceptional contribution
    assert profile.betti == (1, 0, 2, 0, 1)
    assert euler_characteristic(spec, resolution_betti(spec)) == 4


def test_smith_normal_form_properties():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    snf = smith_normal_form(mat)
    diag = [snf[i][i] for i in range(3)]
    assert all(snf[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert all(d >= 0 for d in diag)
    for i in range(2):
        if diag[i] and diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
    # |det| is preserved by unimodular row/column operations
    det = round(abs(np.linalg.det(np.array(mat, float))))
    assert diag[0] * diag[1] * diag[2] == det


def test_smith_normal_form_known_example():
    snf = smith_normal_form([[2, 0], [0, 2]])
    assert [snf[0][0], snf[1][1]] == [2, 2]
    snf = smith_normal_form([[1, 2], [3, 4]])
    assert [snf[0][0], snf[1][1]] == [1, 2]


def test_mapping_torus_pi1_minus_identity():
    pres = mapping_torus_pi1([[-1, 0], [0, -1]])
    assert pres.generators == 3
    inv = abelianize(pres)
    assert inv == AbelianInvariants(1, [2, 2])  # Z + Z_2 + Z_2


def test_mapping_torus_pi1_identity_and_anosov():
    assert abelianize(mapping_torus_pi1([[1, 0], [0, 1]])) == AbelianInvariants(3, [])
    # the cat map 2x2 [[2,1],[1,1]]: coker(A - I) is trivial
    assert abelianize(mapping_torus_pi1([[2, 1], [1, 1]])) == AbelianInvariants(1, [])


def test_mapping_torus_pi1_rejects_non_unimodular():
    with pytest.raises(ValueError):
        mapping_torus_pi1([[2, 0], [0, 2]])
