"""Topology of resolved quotient singularities and of the resolved orbifold.

Hirzebruch-Jung continued-fraction chains for cyclic singularities, Betti
numbers of exceptional sets (including the non-cyclic determinant-one case
via irreducible-representation counting), Betti assembly for the resolution,
mapping-torus fundamental groups, and abelianization by Smith normal form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cyclotomic import SelfCheckFailed


class HJChain(namedtuple("HJChain", "m q coeffs")):
    __slots__ = ()

    @property
    def curve_count(self) -> int:
        return len(self.coeffs)

    def intersection_matrix(self) -> list[list[int]]:
        k = len(self.coeffs)
        mat = [[0] * k for _ in range(k)]
        for i, a in enumerate(self.coeffs):
            mat[i][i] = -a
            if i + 1 < k:
                mat[i][i + 1] = mat[i + 1][i] = 1
        return mat

    def is_negative_definite(self) -> bool:
        """Sylvester's criterion: the k-th leading minor D_k of the
        tridiagonal intersection matrix has sign (-1)^k for every k.  The
        minors obey the continuant recurrence D_k = -a_k D_{k-1} - D_{k-2}
        with D_0 = 1 and D_{-1} = 0."""
        d_prev, d = 0, 1
        for k, a in enumerate(self.coeffs, 1):
            d_prev, d = d, -a * d - d_prev
            if (-1) ** k * d <= 0:
                return False
        return True


def hj_resolve(m: int, q: int, max_curves: int | None = None) -> HJChain:
    """Continued-fraction chain m/q = a1 - 1/(a2 - 1/(...)), all a_i >= 2.
    Refuses (ValueError) a chain longer than max_curves as it reaches that."""
    if not (m >= 2 and 1 <= q < m and math.gcd(m, q) == 1):
        raise ValueError(f"invalid cyclic data (m, q) = ({m}, {q})")
    coeffs = []
    mm, qq = m, q
    while qq > 0:
        if len(coeffs) == max_curves:
            raise ValueError(f"the resolution of (m, q) = ({m}, {q}) has more than "
                             f"{max_curves} curves; longer chains are refused")
        a = -(-mm // qq)  # ceil
        coeffs.append(a)
        mm, qq = qq, a * qq - mm
    chain = HJChain(m, q, coeffs)
    if _hj_reconstruct(coeffs) != (m, q):
        raise SelfCheckFailed("continued-fraction round trip failed")
    if not chain.is_negative_definite():
        raise SelfCheckFailed("intersection matrix is not negative definite")
    return chain


def _hj_reconstruct(coeffs: list[int]) -> tuple[int, int]:
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        num, den = a * num - den, num
    return num, den


def exceptional_betti(G) -> tuple[int, int, int]:
    """(b0, b1, b2) of the exceptional set resolving C^2/G at the origin, for
    a UnitaryGroup G.

    Cyclic actions resolve to a Hirzebruch-Jung chain of rational curves;
    non-abelian determinant-one groups contribute one rational curve per
    nontrivial irreducible representation.  Anything else is Unsupported.
    """
    # imported here, so `singularity resolve` loads no group code
    from .groups import Unsupported, induced_cyclic_data

    if G.is_abelian():
        data = induced_cyclic_data(G)  # raises Unsupported when not free off 0
        if data.m == 1:
            return (1, 0, 0)
        return (1, 0, hj_resolve(data.m, data.q).curve_count)
    # det is multiplicative, so the generators' determinants decide
    for g in G.generators:
        d = g.det()
        if not (d.is_rational() and d.rational_value() == 1):
            raise Unsupported(
                "non-abelian group with determinants outside {1}",
                order=G.order, abelian=False,
            )
    # class count equals irreducible count; drop the trivial representation
    return (1, 0, len(G.conjugacy_classes()) - 1)


class SpecInvalid(ValueError):
    """A spec that fails validation; the message lists every error found."""


# contributing_points pairs each label with its exceptional Betti numbers;
# delta holds the labels of the Delta set, see isotropy.delta_set
CohomologyProfile = namedtuple("CohomologyProfile", "betti provenance contributing_points delta")


def resolution_betti(spec) -> CohomologyProfile:
    """Betti numbers of the resolution of an OrbifoldSpec: base plus, for
    k > 0, the exceptional contributions of the isolated points and of the
    corner points whose reflection quotient is nontrivial.  Raises
    SpecInvalid unless the spec validates."""
    from .groups import Unsupported
    from .isotropy import delta_set, validate_spec

    report = validate_spec(spec)
    if not report.valid:
        raise SpecInvalid("spec invalid: " + "; ".join(report.structural_errors + report.semantic_errors))
    delta = delta_set(spec).labels
    contributing = [p for p in spec.isolated_points] + [
        c for c in spec.corner_points if c.label in delta
    ]
    table = []
    betti = list(spec.base_betti)
    prov = list(spec.betti_provenance)
    for p in contributing:
        try:
            eb = exceptional_betti(p.group)
        except Unsupported as exc:
            raise Unsupported(f"point {p.label!r}: {exc.reason}", **exc.info) from exc
        table.append((p.label, eb))
        for k in (1, 2):
            if eb[k]:
                betti[k] += eb[k]
                prov[k] = "computed"
    return CohomologyProfile(tuple(betti), tuple(prov), table, delta)


class Incomplete:
    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Incomplete({self.reason!r})"


def euler_characteristic(spec, profile: CohomologyProfile):
    """Euler characteristic of the resolution: the alternating sum of the
    profile's Betti numbers, or Incomplete when a base Betti number of spec
    still carries its unexamined default."""
    if any(p == "user-default" for p in spec.betti_provenance):
        return Incomplete("a base Betti number is a user-default placeholder")
    return sum((-1) ** k * b for k, b in enumerate(profile.betti))


# -- mapping-torus fundamental groups --------------------------------------


# relators are words in signed 1-based generator indices
GroupPresentation = namedtuple("GroupPresentation", "generators relators")
# each torsion coefficient divides the next
AbelianInvariants = namedtuple("AbelianInvariants", "free_rank torsion")


def mapping_torus_pi1(action) -> GroupPresentation:
    """Presentation of Z acting on Z^2 by an integer matrix A:
    <t, a, b | [a,b], t a t^-1 = a^A00 b^A10, t b t^-1 = a^A01 b^A11>."""
    a = [[int(action[i][j]) for j in range(2)] for i in range(2)]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if det not in (1, -1):
        raise ValueError("action matrix must be invertible over the integers")
    T, A, B = 1, 2, 3

    def power(gen: int, e: int) -> list[int]:
        return [gen] * e if e >= 0 else [-gen] * (-e)

    commutator = [A, B, -A, -B]
    rel_a = [T, A, -T] + power(A, -a[0][0]) + power(B, -a[1][0])
    rel_b = [T, B, -T] + power(A, -a[0][1]) + power(B, -a[1][1])
    return GroupPresentation(3, [commutator, rel_a, rel_b])


def smith_normal_form(mat: list[list[int]]) -> list[list[int]]:
    """Smith normal form of an integer matrix (diagonal, d_i | d_{i+1})."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for row in m:
            row[t], row[j] = row[j], row[t]
        done = False
        while not done:
            done = True
            for i in range(t + 1, rows):
                if m[i][t]:
                    f = m[i][t] // m[t][t]
                    m[i] = [x - f * y for x, y in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
            for j in range(t + 1, cols):
                if m[t][j]:
                    f = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= f * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        done = False
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
        t += 1
    # enforce divisibility d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if b % a != 0:
                g = math.gcd(a, b)
                m[i][i], m[i + 1][i + 1] = g, a * b // g
                changed = True
    return m


def abelianize(p: GroupPresentation) -> AbelianInvariants:
    rel = []
    for word in p.relators:
        row = [0] * p.generators
        for s in word:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rel.append(row)
    if not rel:
        return AbelianInvariants(p.generators, [])
    snf = smith_normal_form(rel)
    diag = [snf[i][i] for i in range(min(len(snf), len(snf[0])))]
    rank = sum(1 for d in diag if d != 0)
    torsion = [d for d in diag if d > 1]
    return AbelianInvariants(p.generators - rank, torsion)
