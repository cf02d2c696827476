"""Invariant rings: Reynolds averaging, Molien series, fundamental invariants."""


import pytest

from fd_oracles import complex_matrix, poly_from_json, poly_to_json
from orbifold4 import (CyclotomicScalar, NotReflectionGroup, Poly2, UMat2,
                       builtin_group, embedding_basis, fundamental_invariants,
                       generate_group, h_map_eval, molien, reynolds)
from orbifold4.invariants import (invariant_dimension_bruteforce, is_invariant,
                                  reynolds_matrix)


def _zeta(n, k=1):
    return CyclotomicScalar.zeta(n, k)


def _one():
    return CyclotomicScalar.one()


def _cyclic_reflection(m):
    """<diag(zeta_m, 1)>: reflections about the w-axis."""
    return generate_group([UMat2.diagonal(_zeta(m), _one())])


def _product_reflection(m, k):
    return generate_group([UMat2.diagonal(_zeta(m), _one()),
                           UMat2.diagonal(_one(), _zeta(k))])


def test_poly2_ring_axioms():
    z = Poly2.monomial(1, 0)
    w = Poly2.monomial(0, 1)
    p = (z + w) * (z - w)
    assert p == Poly2.monomial(2, 0) - Poly2.monomial(0, 2)
    assert (p - p).is_zero()


def test_poly2_compose_linear_against_direct_substitution():
    # p(z, w) = z^2 w under the swap must become w^2 z
    p = Poly2.monomial(2, 1)
    zero = CyclotomicScalar.zero()
    swap = UMat2([[zero, _one()], [_one(), zero]])
    assert p.compose_linear(swap) == Poly2.monomial(1, 2)
    # substitution is multiplicative
    q = Poly2.monomial(1, 1)
    g = UMat2.diagonal(_zeta(4), _zeta(4, 3))
    assert (p * q).compose_linear(g) == p.compose_linear(g) * q.compose_linear(g)


def _quaternion_group():
    """The order-8 group <diag(i, -i), [[0, 1], [-1, 0]]>; not diagonal."""
    zero = CyclotomicScalar.zero()
    return generate_group([UMat2.diagonal(_zeta(4), _zeta(4, 3)),
                           UMat2([[zero, _one()], [-1 * _one(), zero]])])


def test_poly2_compose_linear_is_a_right_action():
    # (p o g) o h = p o (g h), with g and h not diagonal
    g = UMat2([[_zeta(8), 0], [0, _zeta(8, 3)]]) @ UMat2(
        [[CyclotomicScalar(1, [3], 5), CyclotomicScalar(1, [-4], 5)],
         [CyclotomicScalar(1, [4], 5), CyclotomicScalar(1, [3], 5)]])
    h = UMat2([[CyclotomicScalar.zero(), _zeta(3)], [_one(), CyclotomicScalar.zero()]])
    p = Poly2({(3, 1): _zeta(4), (2, 2): CyclotomicScalar(1, [-2], 3), (0, 4): 1, (1, 0): _zeta(3)})
    assert p.compose_linear(g).compose_linear(h) == p.compose_linear(g @ h)
    assert p.compose_linear(h).compose_linear(g) == p.compose_linear(h @ g)


def test_reynolds_matrix_rows_are_invariant_and_fixed():
    G = _quaternion_group()
    for d in range(7):
        rows = reynolds_matrix(G, d)
        assert len(rows) == d + 1
        for row in rows:
            assert is_invariant(G, row) and reynolds(G, row) == row


def test_poly2_derivatives_and_evaluation():
    p = Poly2.monomial(3, 2, CyclotomicScalar(1, [1], 2))
    assert p.dz() == Poly2.monomial(2, 2, CyclotomicScalar(1, [3], 2))
    assert p.dw() == Poly2.monomial(3, 1, 1)
    assert abs(p.eval_complex(2.0, 3.0) - 36.0) < 1e-12


def test_poly2_json_round_trip():
    p = Poly2({(2, 0): _zeta(4), (0, 3): CyclotomicScalar(1, [-1], 7)})
    assert poly_from_json(poly_to_json(p)) == p


def test_molien_refuses_an_average_that_is_not_an_integer():
    # a stand-in group that lists one element but claims order 2: the degree-0
    # average 1/2 is no dimension, a defect of the group, not of the input
    from orbifold4.cyclotomic import SelfCheckFailed

    class Skewed:
        order = 2

        def __iter__(self):
            return iter([UMat2.identity()])

    with pytest.raises(SelfCheckFailed, match="^Molien average is not a nonnegative integer$"):
        molien(Skewed(), 2)


def test_reynolds_projects_onto_invariants():
    G = builtin_group("klein_four")
    p = reynolds(G, Poly2.monomial(2, 0))
    assert is_invariant(G, p) and p == Poly2.monomial(2, 0)
    # odd monomials average to zero
    assert reynolds(G, Poly2.monomial(1, 2)).is_zero()
    # Reynolds is idempotent
    q = reynolds(G, Poly2.monomial(2, 2))
    assert reynolds(G, q) == q


def test_molien_known_series():
    # <diag(-1,-1)>: all monomials of even total degree, dim 2d+1 in degree 2d
    series = molien(builtin_group("minus_identity"), 6)
    assert series.coefficients == [1, 0, 3, 0, 5, 0, 7]
    # Klein four: spanned by z^(2a) w^(2b)
    series = molien(builtin_group("klein_four"), 8)
    assert series.coefficients == [1, 0, 2, 0, 3, 0, 4, 0, 5]


@pytest.mark.parametrize("build", [
    lambda: builtin_group("minus_identity"),
    lambda: builtin_group("klein_four"),
    lambda: _cyclic_reflection(3),
    lambda: generate_group([UMat2.diagonal(_zeta(4), _zeta(4, 3))]),
])
def test_molien_against_reynolds_rank(build):
    G = build()
    series = molien(G, 6)
    for d in range(7):
        assert series.coefficients[d] == invariant_dimension_bruteforce(G, d)


def test_fundamental_invariants_klein():
    basis = fundamental_invariants(builtin_group("klein_four"))
    assert basis.degrees == (2, 2)
    assert {basis.f.lex_first(), basis.g.lex_first()} == {(2, 0), (0, 2)}
    assert basis.degrees[0] * basis.degrees[1] == basis.group_order


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_fundamental_invariants_cyclic_reflection(m):
    basis = fundamental_invariants(_cyclic_reflection(m))
    assert sorted(basis.degrees, reverse=True) == [m, 1]
    assert basis.degrees[0] + basis.degrees[1] == len(_cyclic_reflection(m).reflections) + 2


@pytest.mark.parametrize("m,k", [(2, 3), (3, 4), (2, 4)])
def test_fundamental_invariants_product(m, k):
    G = _product_reflection(m, k)
    basis = fundamental_invariants(G)
    assert basis.degrees[0] * basis.degrees[1] == G.order
    assert {basis.f.lex_first(), basis.g.lex_first()} == {(max(m, k), 0), (0, min(m, k))} or \
           sorted(basis.degrees, reverse=True) == sorted([m, k], reverse=True)


def test_fundamental_invariants_reject_non_reflection_groups():
    with pytest.raises(NotReflectionGroup):
        fundamental_invariants(builtin_group("minus_identity"))


def test_h_map_separates_orbits():
    G = builtin_group("klein_four")
    basis = fundamental_invariants(G)
    pt = (0.3 + 0.1j, -0.7 + 0.2j)
    for g in G:
        image = complex_matrix(g) @ [pt[0], pt[1]]
        a = h_map_eval(basis, pt)
        b = h_map_eval(basis, (image[0], image[1]))
        assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12


def test_embedding_basis_counts_match_molien():
    G = builtin_group("minus_identity")
    basis = embedding_basis(G, D=4)
    series = molien(G, 4)
    assert len(basis) == sum(series.coefficients[1:])
    assert all(is_invariant(G, p) for p in basis)
