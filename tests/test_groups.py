"""Finite subgroups of U(2): closure, element trichotomy, reflection
subgroup, quotients, and induced cyclic action data."""

import pytest

from fd_oracles import matrix_to_json
from orbifold4 import (CyclotomicScalar, NotFiniteWithinBound, UMat2,
                       UnitaryGroup, Unsupported, builtin_group,
                       classify_element, generate_group, group_from_json,
                       induced_cyclic_data, stratum_class)
from orbifold4.groups import DEFAULT_MAX_ORDER


def _zeta(n, k=1):
    return CyclotomicScalar.zeta(n, k)


def _one():
    return CyclotomicScalar.one()


def _cyclic(m, q=1):
    """<diag(zeta_m, zeta_m^q)>."""
    return generate_group([UMat2.diagonal(_zeta(m), _zeta(m, q))])


def _quaternion8():
    i = _zeta(4)
    zero = CyclotomicScalar.zero()
    one = _one()
    gi = UMat2.diagonal(i, i ** 3)
    gj = UMat2([[zero, one], [-1 * one, zero]])
    return generate_group([gi, gj])


def _is_normal(G, sub):
    """g s g^-1 in sub for every element g and s in sub, read off the table."""
    t = G.table
    return all(t[t[g][s]][G.inverse(g)] in sub for g in range(G.order) for s in sub)


def test_closure_orders():
    assert builtin_group("minus_identity").order == 2
    assert builtin_group("klein_four").order == 4
    assert _cyclic(5, 2).order == 5
    assert _quaternion8().order == 8


def test_a_closure_without_a_bound_stops_at_the_one_default():
    # C24 x C24, of order 576: generate_group without max_order and a group
    # file without one both refuse it at DEFAULT_MAX_ORDER
    gens = [UMat2.diagonal(_zeta(24), _one()), UMat2.diagonal(_one(), _zeta(24))]
    for close in (lambda: generate_group(gens),
                  lambda: group_from_json({"generators": [matrix_to_json(g) for g in gens]})):
        with pytest.raises(NotFiniteWithinBound, match="^closure exceeds max_order=512$"):
            close()
    assert DEFAULT_MAX_ORDER == 512


def test_an_unknown_builtin_group_is_a_value_error():
    # refused as every other input is, so a KeyError of a reader always
    # names a missing key
    with pytest.raises(ValueError, match="^unknown built-in group 'nope'$"):
        builtin_group("nope")


def test_closure_respects_bound():
    with pytest.raises(NotFiniteWithinBound):
        generate_group([UMat2.diagonal(_zeta(64), _one())], max_order=16)


def test_element_orders_lagrange():
    G = _quaternion8()
    orders = [G.element_order(i) for i in range(G.order)]
    assert all(G.order % k == 0 for k in orders)
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_classification_trichotomy():
    klein = builtin_group("klein_four")
    kinds = sorted(classify_element(g).kind for g in klein)
    assert kinds == ["free", "identity", "reflection", "reflection"]
    # -I has no eigenvalue 1: free
    minus = builtin_group("minus_identity")
    assert {classify_element(g).kind for g in minus} == {"identity", "free"}
    # distinct axes give distinct normalized fixed lines
    lines = {classify_element(g).fixed_line for g in klein.reflections}
    assert len(lines) == 2


def test_reflection_subgroup_and_quotient():
    klein = builtin_group("klein_four")
    star = klein.gamma_star
    assert len(star) == 4 and _is_normal(klein, star)
    assert klein.gamma_prime.order == 1

    minus = builtin_group("minus_identity")
    star = minus.gamma_star
    assert len(star) == 1 and _is_normal(minus, star)
    assert minus.gamma_prime.order == 2

    # mixed: diag(i, -1) has one reflection axis; quotient of order 2
    G = generate_group([UMat2.diagonal(_zeta(4), _one()),
                        UMat2.diagonal(_one(), -1 * _one())])
    star = G.gamma_star
    assert len(star) == 8 and _is_normal(G, star) and G.gamma_prime.order == 1


def test_stratum_classification():
    trivial = generate_group([UMat2.identity()])
    assert stratum_class(trivial) == "Manifold"
    assert stratum_class(builtin_group("minus_identity")) == "Sigma0"
    one_axis = generate_group([UMat2.diagonal(_zeta(3), _one())])
    assert stratum_class(one_axis) == "SigmaStar"
    assert stratum_class(builtin_group("klein_four")) == "Sigma1"


def test_quotient_group_requires_normality():
    G = _quaternion8()
    center = {i for i in range(G.order) if G.element_order(i) <= 2}
    assert _is_normal(G, center)
    q = G.quotient_by(center)
    assert q.order == 4 and q.is_abelian()
    assert q.abelian_invariants() == [2, 2]  # Q8 / center = Klein four


def test_coset_group_abelian_invariants():
    q = builtin_group("klein_four").gamma_prime
    assert q.order == 1 and q.abelian_invariants() == []
    c6 = _cyclic(6, 5)
    q = c6.quotient_by({0})
    assert q.abelian_invariants() == [6]


@pytest.mark.parametrize("build,expected", [
    (lambda: builtin_group("minus_identity"), (2, 1)),
    (lambda: builtin_group("klein_four"), (1, 0)),
    (lambda: generate_group([UMat2.diagonal(_zeta(4), -1 * _one())]), (2, 1)),
    (lambda: _cyclic(4, 3), (4, 3)),
    (lambda: _cyclic(5, 2), (5, 2)),
])
def test_induced_cyclic_data(build, expected):
    data = induced_cyclic_data(build())
    assert (data.m, data.q) == expected


def _hadamard():
    """The exact Hadamard matrix, over Q(zeta_8)."""
    s = (_zeta(8) - _zeta(8, 3)) * CyclotomicScalar(1, [1], 2)
    return UMat2([[s, s], [s, -1 * s]])


def _su2_over_q_zeta3():
    """[[(1 - w)/2, -1/2], [1/2, (1 - conj w)/2]] in SU(2), w = zeta_3: its
    entries stay in the odd-conductor field Q(zeta_3)."""
    half = CyclotomicScalar(1, [1], 2)
    return UMat2([[(1 - _zeta(3)) * half, -1 * half],
                  [half, (1 - _zeta(3, 2)) * half]])


@pytest.mark.parametrize("basis,diagonal,conductor,expected", [
    (_hadamard, lambda: UMat2.diagonal(_zeta(4), _zeta(4, 3)), 8, (4, 3)),
    # over Q(zeta_3), -1 is no power of w = zeta_3: the eigenvalues -w^k
    # are logged in zeta_6
    (_su2_over_q_zeta3, lambda: UMat2.diagonal(_zeta(3), _zeta(3, 2)), 3, (3, 2)),
    (_su2_over_q_zeta3, lambda: UMat2.diagonal(_zeta(3), _zeta(3)), 3, (3, 1)),
    (_su2_over_q_zeta3, lambda: UMat2.diagonal(-1 * _zeta(3), -1 * _zeta(3, 2)), 3, (6, 5)),
    (_su2_over_q_zeta3, lambda: UMat2.diagonal(-1 * _zeta(3, 2), -1 * _zeta(3, 2)), 3, (6, 1)),
    # q = 2 is not its own inverse mod 5: the eigenvalue met first in
    # `roots_of_unity(15)`, zeta_5 = zeta_15^3, becomes the first axis
    (_su2_over_q_zeta3, lambda: UMat2.diagonal(_zeta(5, 2), _zeta(5)), 15, (5, 2)),
], ids=["hadamard-i-i3", "zeta3-w-w2", "zeta3-w-w", "zeta3-minus-w-w2", "zeta3-minus-w2-w2",
        "zeta15-z5^2-z5"])
def test_induced_cyclic_data_conjugation_invariant(basis, diagonal, conductor, expected):
    # conjugating a diagonal action by a unitary change of basis keeps (m, q)
    h = basis()
    G = generate_group([h @ diagonal() @ h.conj_transpose()])
    assert G.conductor == conductor
    data = induced_cyclic_data(G)
    assert (data.m, data.q) == expected


def test_induced_cyclic_data_unsupported_cases():
    with pytest.raises(Unsupported):
        induced_cyclic_data(_quaternion8())  # non-abelian
    # eigenvalues outside the declared field: rotation by a primitive
    # 5th root written over conductor 5 has off-diagonal entries whose
    # eigenvectors need sqrt extensions -- skip; instead check the
    # non-free case: diag(zeta_4, -1) * diag(-1, zeta_4) generates an
    # action that is not cyclic on the invariant axes
    G = generate_group([UMat2.diagonal(_zeta(4), _one()),
                        UMat2.diagonal(_one(), _zeta(4))])
    # whole group is generated by reflections: quotient is trivial
    assert induced_cyclic_data(G).m == 1


def _c4xc4():
    return generate_group([UMat2.diagonal(_zeta(4), _one()), UMat2.diagonal(_one(), _zeta(4))])


def _binary_dihedral4():
    zero = CyclotomicScalar.zero()
    swap = UMat2([[zero, _one()], [-1 * _one(), zero]])
    return generate_group([UMat2.diagonal(_zeta(8), _zeta(8, 7)), swap])


def _quaternion8_times_zeta3():
    zero = CyclotomicScalar.zero()
    swap = UMat2([[zero, _zeta(12, 6)], [_one(), zero]])
    return generate_group([swap, UMat2.diagonal(_zeta(12, 3), _zeta(12, 9)),
                           UMat2.diagonal(_zeta(12, 4), _zeta(12, 4))])


def _center_quotient(build):
    """build()'s group over its elements of order at most 2: the center {+-1}
    of Q8 and of BD4."""
    def quotient():
        G = build()
        return G.quotient_by({i for i in range(G.order) if G.element_order(i) <= 2})
    return quotient


@pytest.mark.parametrize("build,abelian", [
    (_c4xc4, True),
    (_quaternion8, False),
    (_binary_dihedral4, False),
    (_quaternion8_times_zeta3, False),
    (_center_quotient(_quaternion8), True),  # the Klein four
    (_center_quotient(_binary_dihedral4), False),  # the dihedral group of order 8
])
def test_is_abelian_is_the_all_pairs_definition(build, abelian):
    # a greedy generating set commutes pairwise exactly when every pair does
    G = build()
    t = G.table
    assert all(t[i][j] == t[j][i] for i in range(G.order) for j in range(i)) == abelian
    assert G.is_abelian() == abelian


@pytest.mark.parametrize("build,order,classes", [
    (_c4xc4, 16, 16),
    (_binary_dihedral4, 16, 7),
    (_quaternion8, 8, 5),
    (_quaternion8_times_zeta3, 24, 15),
])
def test_table_agrees_with_matrix_products(build, order, classes):
    G = build()
    mats = list(G)
    assert mats == G.matrices and all(isinstance(m, UMat2) for m in mats)
    key = {m.canonical_key(): i for i, m in enumerate(mats)}

    def idx(m):
        return key[m.canonical_key()]

    ident = UMat2.identity(G.conductor)
    assert G.order == order and idx(ident) == 0
    for i, a in enumerate(mats):
        assert [G.table[i][j] for j in range(order)] == [idx(a @ b) for b in mats]
        k, power = 1, a
        while power != ident:
            power, k = power @ a, k + 1
        assert G.element_order(i) == k
        assert G.inverse(i) == idx(a.conj_transpose())

    conjugacy = {frozenset(idx(h @ a @ h.conj_transpose()) for h in mats) for a in mats}
    assert len(conjugacy) == len(G.conjugacy_classes()) == classes
    assert {frozenset(c) for c in G.conjugacy_classes()} == conjugacy

    star = {0}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for r in G.reflections:
            y = x @ r
            if idx(y) not in star:
                star.add(idx(y))
                frontier.append(y)
    assert G.gamma_star == star
    normal = all(idx(h @ mats[s] @ h.conj_transpose()) in star for h in mats for s in star)
    assert normal  # conjugation permutes the reflections
    assert G.gamma_prime.order == order // len(star)
