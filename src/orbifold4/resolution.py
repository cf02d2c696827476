"""Topology of resolved quotient singularities and of the resolved orbifold.

Hirzebruch-Jung continued-fraction chains for cyclic singularities, Betti
numbers of exceptional sets (including the non-cyclic determinant-one case
via irreducible-representation counting), and Betti assembly for the
resolution.  The chain code is integer arithmetic: `singularity resolve`
loads this module and no field, group or spec code, which the functions that
read a group import when they run.  Mapping-torus fundamental groups live in
`presentation`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import SelfCheckFailed


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
        if not (d.is_rational() and d.num[0] == d.den):
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
