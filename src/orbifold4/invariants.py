"""Invariant rings of finite unitary groups acting on C^2.

Reynolds averaging, Molien series, fundamental invariants of reflection
groups, the evaluation map H = (f, g), and spanning sets of invariants for
embedding quotients by isolated-fixed-point groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        e = m.entries if hasattr(m, "entries") else m
        out = Poly2.zero()
        for (a, b), c in self.terms.items():
            term = Poly2({(0, 0): c})
            term = term * _linear_power(e[0][0], e[0][1], a)
            term = term * _linear_power(e[1][0], e[1][1], b)
            out = out + term
        return out

    def dz(self) -> "Poly2":
        return Poly2({(a - 1, b): c * a for (a, b), c in self.terms.items() if a > 0})

    def dw(self) -> "Poly2":
        return Poly2({(a, b - 1): c * b for (a, b), c in self.terms.items() if b > 0})

    def eval_exact(self, z: CyclotomicScalar, w: CyclotomicScalar) -> CyclotomicScalar:
        out = CyclotomicScalar.zero()
        for (a, b), c in self.terms.items():
            out = out + c * z ** a * w ** b
        return out

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


def _linear_power(c0: CyclotomicScalar, c1: CyclotomicScalar, n: int) -> Poly2:
    """(c0 z + c1 w)^n expanded by the binomial theorem."""
    t = {}
    for k in range(n + 1):
        coeff = c0 ** (n - k) * c1 ** k * math.comb(n, k)
        if not coeff.is_zero():
            t[(n - k, k)] = coeff
    return Poly2(t)


def reynolds(G: UnitaryGroup, p: Poly2) -> Poly2:
    """Group average of p over G; the projection onto invariants."""
    out = Poly2.zero()
    for g in G:
        out = out + p.compose_linear(g.matrix)
    return out.scale(Fraction(1, G.order))


def is_invariant(G: UnitaryGroup, p: Poly2) -> bool:
    return all(p.compose_linear(g.matrix) == p for g in G.generators)


@dataclass
class MolienSeries:
    coefficients: list[int]

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1


def molien(G: UnitaryGroup, D: int) -> MolienSeries:
    """Dimensions of the degree-d invariant subspaces, d = 0..D.

    Per element, 1/det(I - t*g) = sum h_d t^d with the complete homogeneous
    recurrence h_d = tr(g) h_{d-1} - det(g) h_{d-2}; the group average of h_d
    is the invariant dimension and must come out a nonnegative integer.
    """
    totals = [CyclotomicScalar.zero() for _ in range(D + 1)]
    for g in G:
        tr, det = g.matrix.trace(), g.matrix.det()
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


def _monomials(d: int):
    """Degree-d monomials in lexicographic order, z before w."""
    return [Poly2.monomial(d - k, k) for k in range(d + 1)]


class _ExactRowReducer:
    """Incremental Gaussian elimination over a cyclotomic field."""

    def __init__(self):
        self.pivot_rows: list[tuple[tuple, dict]] = []  # (pivot key, reduced terms)

    def reduce(self, p: Poly2) -> Poly2:
        terms = dict(p.terms)
        for key, row in self.pivot_rows:
            if key in terms:
                f = terms[key]
                for k2, c2 in row.items():
                    v = terms.get(k2, CyclotomicScalar.zero()) - f * c2
                    if v.is_zero():
                        terms.pop(k2, None)
                    else:
                        terms[k2] = v
        return Poly2(terms)

    def add(self, p: Poly2) -> bool:
        """Reduce p and absorb it; True if it increased the rank."""
        red = self.reduce(p)
        if red.is_zero():
            return False
        key = red.lex_first()
        row = red.normalized().terms
        self.pivot_rows.append((key, row))
        return True

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def invariant_dimension_bruteforce(G: UnitaryGroup, d: int) -> int:
    """Rank of the Reynolds image on the degree-d monomial basis."""
    reducer = _ExactRowReducer()
    for mono in _monomials(d):
        reducer.add(reynolds(G, mono))
    return reducer.rank


@dataclass
class InvariantBasis:
    f: Poly2
    g: Poly2
    degrees: tuple[int, int]
    group_order: int


def _reflection_degrees(G_star: UnitaryGroup) -> tuple[int, int]:
    r = len(G_star.reflections)
    s, p = r + 2, G_star.order
    disc = s * s - 4 * p
    root = math.isqrt(disc)
    if disc < 0 or root * root != disc or (s - root) % 2:
        raise NotReflectionGroup("degree identities have no integer solution")
    return ((s + root) // 2, (s - root) // 2)


_JACOBIAN_POINTS = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(2, 3), Fraction(3, 5)),
    (Fraction(-1, 2), Fraction(2, 7)),
    (Fraction(3, 4), Fraction(-2, 3)),
    (Fraction(5, 7), Fraction(4, 9)),
]


def _jacobian_det(f: Poly2, g: Poly2) -> Poly2:
    return f.dz() * g.dw() - f.dw() * g.dz()


def _independent(f: Poly2, g: Poly2) -> bool:
    for zq, wq in _JACOBIAN_POINTS:
        z = CyclotomicScalar.from_rational(zq)
        w = CyclotomicScalar.from_rational(wq)
        jz = _jacobian_det(f, g).eval_exact(z, w)
        if not jz.is_zero():
            return True
    return not _jacobian_det(f, g).is_zero()


def fundamental_invariants(G_star: UnitaryGroup) -> InvariantBasis:
    """Free generators (f, g) of the invariant algebra of a reflection group."""
    if len(G_star.gamma_star) != G_star.order:
        raise NotReflectionGroup("group is not generated by its complex reflections")
    d1, d2 = _reflection_degrees(G_star)

    def candidates(d: int):
        seen = _ExactRowReducer()
        for mono in _monomials(d):
            img = reynolds(G_star, mono)
            if not img.is_zero() and seen.add(img):
                yield img.normalized()

    # pick the lower degree first: its invariant may divide higher-degree ones
    g = next(candidates(d2))
    f = next((c for c in candidates(d1) if _independent(c, g)), None)
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
        reducer = _ExactRowReducer()
        picked = []
        for mono in _monomials(d):
            img = reynolds(G, mono)
            if not img.is_zero() and reducer.add(img):
                picked.append(img.normalized())
        if len(picked) != series.coefficients[d]:
            raise SelfCheckFailed(f"degree {d}: spanning set disagrees with Molien dimension")
        out.extend(picked)
    return out
