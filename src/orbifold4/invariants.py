"""Invariant rings of finite unitary groups acting on C^2.

Reynolds averaging as one matrix per degree, R_d = (1/|G|) sum_g Sym^d(g),
Molien series, fundamental invariants of reflection groups, the evaluation
map H = (f, g), and spanning sets of invariants for embedding quotients by
isolated-fixed-point groups.  Ranks, fundamental invariants and spanning sets
are all read off the rank-raising rows of R_d (`reynolds_basis`); the Molien
series checks them independently.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import CyclotomicScalar, SelfCheckFailed
from .groups import UnitaryGroup


class NotReflectionGroup(ValueError):
    pass


class Poly2:
    """Polynomial in z, w with cyclotomic coefficients, stored sparsely."""

    __slots__ = ("terms",)

    def __init__(self, terms=None) -> None:
        t = {}
        for key, c in (terms or {}).items():
            c = c if isinstance(c, CyclotomicScalar) else CyclotomicScalar.from_rational(c)
            if not c.is_zero():
                t[key] = c
        self.terms = t

    @staticmethod
    def monomial(ze: int, we: int, coeff=1) -> "Poly2":
        return Poly2({(ze, we): coeff})

    @staticmethod
    def zero() -> "Poly2":
        return Poly2()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((ze + we for ze, we in self.terms), default=0)

    def __add__(self, other: "Poly2") -> "Poly2":
        t = dict(self.terms)
        for key, c in other.terms.items():
            t[key] = t[key] + c if key in t else c
        return Poly2(t)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly2":
        return Poly2({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other: "Poly2") -> "Poly2":
        t: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                prod = c1 * c2
                t[key] = t[key] + prod if key in t else prod
        return Poly2(t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return (self - other).is_zero()

    def compose_linear(self, m) -> "Poly2":
        """Substitute (z, w) -> (m00 z + m01 w, m10 z + m11 w)."""
        return _apply_by_degree(self, lambda d: sym_power(m, d))

    def dz(self) -> "Poly2":
        return Poly2({(a - 1, b): c * a for (a, b), c in self.terms.items() if a > 0})

    def dw(self) -> "Poly2":
        return Poly2({(a, b - 1): c * b for (a, b), c in self.terms.items() if b > 0})

    def eval_complex(self, z: complex, w: complex) -> complex:
        return sum(c.to_complex() * z ** a * w ** b for (a, b), c in self.terms.items())

    def lex_first(self):
        """The lexicographically first monomial key (z before w)."""
        return max(self.terms)

    def normalized(self) -> "Poly2":
        return self.scale(self.terms[self.lex_first()].inverse())

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly2(0)"
        bits = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            mono = "".join(s for s, e in (("z^%d" % a, a), ("w^%d" % b, b)) if e)
            bits.append(f"({c!r})*{mono or '1'}")
        return " + ".join(bits)

    def to_json(self) -> list:
        return [
            {"ze": a, "we": b, "coeff": c.to_json()}
            for (a, b), c in sorted(self.terms.items(), reverse=True)
        ]

    @staticmethod
    def from_json(obj: list) -> "Poly2":
        return Poly2({(t["ze"], t["we"]): CyclotomicScalar.from_json(t["coeff"]) for t in obj})


def sym_power(m, d: int) -> list[Poly2]:
    """Sym^d(m): row k is the image of z^(d-k) w^k under `compose_linear(m)`,
    the product (m00 z + m01 w)^(d-k) (m10 z + m11 w)^k."""
    e = m.entries if hasattr(m, "entries") else m
    zf = Poly2({(1, 0): e[0][0], (0, 1): e[0][1]})
    wf = Poly2({(1, 0): e[1][0], (0, 1): e[1][1]})
    zp, wp = [Poly2.monomial(0, 0)], [Poly2.monomial(0, 0)]
    for _ in range(d):
        zp.append(zp[-1] * zf)
        wp.append(wp[-1] * wf)
    return [zp[d - k] * wp[k] for k in range(d + 1)]


def _apply_by_degree(p: Poly2, matrix_of_degree) -> Poly2:
    """Send each term c z^a w^b of p to c times row b of matrix_of_degree(a + b)."""
    out, rows = Poly2.zero(), {}
    for (a, b), c in p.terms.items():
        if a + b not in rows:
            rows[a + b] = matrix_of_degree(a + b)
        out = out + rows[a + b][b].scale(c)
    return out


def reynolds_matrix(G: UnitaryGroup, d: int) -> list[Poly2]:
    """R_d = (1/|G|) sum_g Sym^d(g); row k is the group average of z^(d-k) w^k."""
    rows = [Poly2.zero()] * (d + 1)
    for g in G:
        rows = [r + s for r, s in zip(rows, sym_power(g, d))]
    return [r.scale(Fraction(1, G.order)) for r in rows]


def reynolds(G: UnitaryGroup, p: Poly2) -> Poly2:
    """Group average of p over G; the projection onto invariants."""
    return _apply_by_degree(p, lambda d: reynolds_matrix(G, d))


def is_invariant(G: UnitaryGroup, p: Poly2) -> bool:
    return all(p.compose_linear(g) == p for g in G.generators)


MolienSeries = namedtuple("MolienSeries", "coefficients")


def molien(G: UnitaryGroup, D: int) -> MolienSeries:
    """Dimensions of the degree-d invariant subspaces, d = 0..D.

    Per element, 1/det(I - t*g) = sum h_d t^d with the complete homogeneous
    recurrence h_d = tr(g) h_{d-1} - det(g) h_{d-2}; the group average of h_d
    is the invariant dimension and must come out a nonnegative integer.
    """
    totals = [CyclotomicScalar.zero() for _ in range(D + 1)]
    for g in G:
        tr, det = g.trace(), g.det()
        h_prev2 = CyclotomicScalar.one()
        h_prev1 = tr
        totals[0] = totals[0] + h_prev2
        if D >= 1:
            totals[1] = totals[1] + h_prev1
        for d in range(2, D + 1):
            h = tr * h_prev1 - det * h_prev2
            totals[d] = totals[d] + h
            h_prev2, h_prev1 = h_prev1, h
    coeffs = []
    for t in totals:
        v = (t * Fraction(1, G.order)).rational_value()
        if v.denominator != 1 or v < 0:
            raise SelfCheckFailed("Molien average is not a nonnegative integer")
        coeffs.append(int(v))
    return MolienSeries(coeffs)


def reynolds_basis(G: UnitaryGroup, d: int) -> list[Poly2]:
    """The rows of R_d that raise the rank of the rows before them, in
    monomial order (z^d first), each normalized: a basis of the degree-d
    invariants, found by incremental Gaussian elimination."""
    pivots: list[tuple[tuple, dict]] = []  # (pivot key, reduced normalized terms)
    basis = []
    for row in reynolds_matrix(G, d):
        terms = dict(row.terms)
        for key, pivot in pivots:
            f = terms.get(key)
            if f is None:
                continue
            for k2, c2 in pivot.items():
                v = terms[k2] - f * c2 if k2 in terms else -(f * c2)
                if v.is_zero():
                    terms.pop(k2, None)
                else:
                    terms[k2] = v
        if terms:
            red = Poly2(terms)
            pivots.append((red.lex_first(), red.normalized().terms))
            basis.append(row.normalized())
    return basis


def invariant_dimension_bruteforce(G: UnitaryGroup, d: int) -> int:
    """Rank of the Reynolds image on the degree-d monomial basis."""
    return len(reynolds_basis(G, d))


InvariantBasis = namedtuple("InvariantBasis", "f g degrees group_order")


def _reflection_degrees(G_star: UnitaryGroup) -> tuple[int, int]:
    r = len(G_star.reflections)
    s, p = r + 2, G_star.order
    disc = s * s - 4 * p
    root = math.isqrt(disc)
    if disc < 0 or root * root != disc or (s - root) % 2:
        raise NotReflectionGroup("degree identities have no integer solution")
    return ((s + root) // 2, (s - root) // 2)


def _jacobian_det(f: Poly2, g: Poly2) -> Poly2:
    return f.dz() * g.dw() - f.dw() * g.dz()


def _independent(f: Poly2, g: Poly2) -> bool:
    """Two polynomials are algebraically independent exactly when their
    Jacobian determinant is not the zero polynomial."""
    return not _jacobian_det(f, g).is_zero()


def fundamental_invariants(G_star: UnitaryGroup) -> InvariantBasis:
    """Free generators (f, g) of the invariant algebra of a reflection group."""
    if len(G_star.gamma_star) != G_star.order:
        raise NotReflectionGroup("group is not generated by its complex reflections")
    d1, d2 = _reflection_degrees(G_star)

    picks = {d: reynolds_basis(G_star, d) for d in {d1, d2}}
    # pick the lower degree first: its invariant may divide higher-degree ones
    g = picks[d2][0]
    f = next((c for c in picks[d1] if _independent(c, g)), None)
    if f is None:
        raise NotReflectionGroup("no algebraically independent second invariant found")
    if not (is_invariant(G_star, f) and is_invariant(G_star, g)):
        raise SelfCheckFailed("a fundamental invariant is not invariant under the generators")
    return InvariantBasis(f, g, (d1, d2), G_star.order)


def h_map_eval(basis: InvariantBasis, point) -> tuple[complex, complex]:
    """Evaluate the quotient map H = (f, g) at a complex point (z, w)."""
    z, w = complex(point[0]), complex(point[1])
    return (basis.f.eval_complex(z, w), basis.g.eval_complex(z, w))


def embedding_basis(G: UnitaryGroup, D: int | None = None) -> list[Poly2]:
    """Invariants spanning every invariant subspace up to degree D.

    Default degree bound |G| (Noether).  The per-degree counts are checked
    against the Molien series.
    """
    if D is None:
        D = G.order
    series = molien(G, D)
    out: list[Poly2] = []
    for d in range(1, D + 1):
        picked = reynolds_basis(G, d)
        if len(picked) != series.coefficients[d]:
            raise SelfCheckFailed(f"degree {d}: spanning set disagrees with Molien dimension")
        out.extend(picked)
    return out
