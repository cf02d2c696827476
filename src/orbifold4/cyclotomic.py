"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a conductor N, an integer numerator vector `num` in the power
basis 1, zeta, ..., zeta^(d-1) with d = deg Phi_N, and one positive integer
denominator `den` with gcd(den, *num) = 1.  Phi_N is monic with integer
coefficients, so reducing modulo it needs no division, and every element has
exactly one (num, den) in its field.  The Galois automorphisms
zeta -> zeta^k, gcd(k, N) = 1, permute the powers of zeta: complex
conjugation is k = -1, and the inverse is the product of the other conjugates
over the rational norm.  No float appears: the complex embedding is the
tests' reference.  A rational is the integer pair (num[0], den) too, and an
`int` is the one other operand the operators and `==` take.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from . import SelfCheckFailed, is_int


def _divmod_monic(poly, monic) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending degree) by a
    monic divisor; the remainder has exactly deg(monic) coefficients."""
    rem = list(poly)
    d = len(monic) - 1
    q = [0] * max(1, len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            q[i - d] = c
            for j in range(d):
                if monic[j]:
                    rem[i - d + j] -= c * monic[j]
    return q, rem[:d] + [0] * (d - len(rem))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree."""
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_polynomial(d))
            if any(rem):
                raise SelfCheckFailed(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(num)


class CyclotomicScalar:
    """An element num/den of Q(zeta_N), num reduced modulo Phi_N."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num, den: int = 1) -> None:
        if conductor < 1:
            raise ValueError("conductor must be positive")
        phi = cyclotomic_polynomial(conductor)
        if len(num) != len(phi) - 1:
            _, num = _divmod_monic(num, phi)
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        self.conductor = conductor
        self.num = tuple(num) if g == 1 else tuple(c // g for c in num)
        self.den = den // g

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(n, [0] * (k % n) + [1])

    @staticmethod
    def zero(conductor: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(conductor, [])

    @staticmethod
    def one(conductor: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(conductor, [1])

    # -- conductor handling -------------------------------------------

    def to_conductor(self, m: int) -> "CyclotomicScalar":
        """Re-express in Q(zeta_m); m must be a multiple of the conductor."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"{m} is not a multiple of conductor {n}")
        step = m // n
        out = [0] * ((len(self.num) - 1) * step + 1)
        out[::step] = self.num
        return CyclotomicScalar(m, out, self.den)

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, CyclotomicScalar):
            return self, CyclotomicScalar(self.conductor, [other])
        n, m = self.conductor, other.conductor
        if n == m:
            return self, other
        lcm = math.lcm(n, m)
        return self.to_conductor(lcm), other.to_conductor(lcm)

    def __add__(self, other):
        a, b = self._pair(other)
        return CyclotomicScalar(a.conductor, [x * b.den + y * a.den for x, y in zip(a.num, b.num)],
                                a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.conductor, [-x for x in self.num], self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        return CyclotomicScalar(a.conductor, [x * b.den - y * a.den for x, y in zip(a.num, b.num)],
                                a.den * b.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        prod = [0] * (len(a.num) + len(b.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    prod[i + j] += x * y
        return CyclotomicScalar(a.conductor, prod, a.den * b.den)

    __rmul__ = __mul__

    def galois(self, k: int) -> "CyclotomicScalar":
        """The automorphism zeta -> zeta^k of Q(zeta_N), for k prime to N."""
        n = self.conductor
        if math.gcd(k, n) != 1:
            raise ValueError(f"{k} is not prime to the conductor {n}")
        out = [0] * n
        for j, c in enumerate(self.num):
            out[j * k % n] = c
        return CyclotomicScalar(n, out, self.den)

    def conjugate(self) -> "CyclotomicScalar":
        """Complex conjugation: zeta -> zeta^(-1)."""
        return self.galois(-1)

    def inverse(self) -> "CyclotomicScalar":
        """1/x = rest / N(x), where rest is the product of the conjugates
        sigma_k(x), k != 1, and the norm N(x) = x * rest is rational."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.conductor
        rest = CyclotomicScalar.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = rest * self.galois(k)
        norm = self * rest
        if not norm.is_rational():
            raise SelfCheckFailed("the norm of a cyclotomic element is not rational")
        return CyclotomicScalar(n, [c * norm.den for c in rest.num], rest.den * norm.num[0])

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicScalar):
            other = CyclotomicScalar(1, [other])
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CyclotomicScalar.one(self.conductor)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates & conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicScalar):
            if not isinstance(other, int):
                return NotImplemented
            other = CyclotomicScalar(self.conductor, [other])
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    # unhashable: == compares across fields, where equal elements differ in
    # (conductor, num, den)
    __hash__ = None

    def __repr__(self) -> str:
        return f"CyclotomicScalar({self.conductor}, {list(self.num)}, {self.den})"

    # -- serialization ---------------------------------------------------

    @staticmethod
    def from_json(obj: dict) -> "CyclotomicScalar":
        """The scalar {"conductor": N, "coeffs": [[num, den], ...]}: each
        coefficient a pair of JSON integers, den nonzero, else a ValueError
        naming it."""
        coeffs = obj["coeffs"]
        for pair in coeffs:
            if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_int, pair))):
                raise ValueError(f"coefficient {json.dumps(pair)} is not a pair of integers")
            if pair[1] == 0:
                raise ValueError("a coefficient [num, den] needs den != 0")
        # the constructor divides out gcd(den, *num), so den need not be least
        den = math.lcm(*(d for _, d in coeffs))
        return CyclotomicScalar(obj["conductor"], [n * (den // d) for n, d in coeffs], den)


@lru_cache(maxsize=None)
def roots_of_unity(n: int) -> tuple[tuple[int, int, CyclotomicScalar], ...]:
    """The roots of unity of Q(zeta_n) as (M, e, zeta_M^e), M = lcm(2, n):
    zeta_n^k for k < n, then, for odd n, where -1 is no power of zeta_n,
    -zeta_n^k.  `groups._eigen_split` keeps the first two eigenvalues met in
    this order, which fixes its change of basis."""
    m = math.lcm(2, n)
    zetas = [CyclotomicScalar.zeta(n, k) for k in range(n)]
    # zeta_m^(m/n k + n) = -zeta_n^k, reached only when m = 2n
    return tuple((m, (m // n * k + h) % m, -z if h else z)
                 for h in range(0, m, n) for k, z in enumerate(zetas))


def root_of_unity_log(u: CyclotomicScalar) -> tuple[int, int]:
    """Express a root of unity u in Q(zeta_N) as zeta_M^e, M = lcm(2, N) the
    full torsion of the field, by lookup in `roots_of_unity(N)`.
    Raises ValueError if u is not a root of unity of the field.
    """
    if u.den == 1:
        for m, e, z in roots_of_unity(u.conductor):
            if z.num == u.num:
                return m, e
    raise ValueError("not a root of unity in this cyclotomic field")
