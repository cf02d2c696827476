"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented by rational coefficient vectors in the power basis
1, zeta, ..., zeta^(d-1) with d = deg Phi_N, reduced modulo the N-th
cyclotomic polynomial.  All ring operations are exact; floats appear only in
the complex embedding `to_complex`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


class SelfCheckFailed(RuntimeError):
    """An exact internal consistency check failed: a defect of the library,
    never a property of the input."""


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / dlead
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    rem = num[: len(den) - 1]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return q, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, ascending degree."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    # x^n - 1 divided by the product of Phi_d over proper divisors d of n
    num = [Fraction(0)] * (n + 1)
    num[0] = Fraction(-1)
    num[n] = Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise SelfCheckFailed(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = list(cyclotomic_polynomial(n))
    d = len(phi) - 1
    if len(coeffs) <= d:
        return tuple(coeffs) + (Fraction(0),) * (d - len(coeffs))
    _, rem = _poly_divmod(list(coeffs), phi)
    return tuple(rem) + (Fraction(0),) * (d - len(rem))


@lru_cache(maxsize=None)
def _power_reduced(n: int, k: int) -> tuple[Fraction, ...]:
    """zeta_n^k reduced mod Phi_n, as a coefficient tuple."""
    k %= n
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    return _reduce_mod_phi(coeffs, n)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve an exact linear system; None if inconsistent."""
    m, ncols = len(rows), len(rows[0]) if rows else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][-1] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][-1]
    return sol


class CyclotomicScalar:
    """An element of Q(zeta_N), reduced modulo Phi_N."""

    __slots__ = ("conductor", "coeffs", "_min")

    def __init__(self, conductor: int, coeffs) -> None:
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.coeffs = _reduce_mod_phi(cs, conductor)
        self._min = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(conductor, [Fraction(q)])

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(n, _power_reduced(n, k))

    @staticmethod
    def zero(conductor: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(conductor, [])

    @staticmethod
    def one(conductor: int = 1) -> "CyclotomicScalar":
        return CyclotomicScalar(conductor, [Fraction(1)])

    # -- conductor handling -------------------------------------------

    def to_conductor(self, m: int) -> "CyclotomicScalar":
        """Re-express in Q(zeta_m); m must be a multiple of the conductor."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"{m} is not a multiple of conductor {n}")
        step = m // n
        out = [Fraction(0)] * m
        for k, c in enumerate(self.coeffs):
            if c:
                out[(k * step) % m] += c
        return CyclotomicScalar(m, out)

    def _minimal(self) -> tuple[int, tuple[Fraction, ...]]:
        """Canonical form over the smallest cyclotomic subfield containing self."""
        if self._min is not None:
            return self._min
        n = self.conductor
        target = list(self.coeffs)
        for d in sorted(k for k in range(1, n + 1) if n % k == 0):
            # basis of Q(zeta_d) lifted into Q(zeta_n)
            step = n // d
            deg = _phi_degree(d)
            cols = []
            for k in range(deg):
                cols.append(list(_power_reduced(n, k * step)))
            rows = [[cols[j][i] for j in range(deg)] for i in range(len(target))]
            sol = _solve_exact(rows, target)
            if sol is not None:
                self._min = (d, _reduce_mod_phi(sol, d))
                return self._min
        raise SelfCheckFailed("element lies in no subfield of its own field")

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if not isinstance(other, CyclotomicScalar):
            other = CyclotomicScalar.from_rational(other)
        n = self.conductor
        m = other.conductor
        if n == m:
            return self, other
        l = n * m // math.gcd(n, m)
        return self.to_conductor(l), other.to_conductor(l)

    def __add__(self, other):
        a, b = self._pair(other)
        return CyclotomicScalar(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicScalar(self.conductor, [-x for x in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        return CyclotomicScalar(a.conductor, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        ac, bc = a.coeffs, b.coeffs
        prod = [Fraction(0)] * (len(ac) + len(bc) - 1)
        for i, x in enumerate(ac):
            if x:
                for j, y in enumerate(bc):
                    if y:
                        prod[i + j] += x * y
        return CyclotomicScalar(a.conductor, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        # extended Euclid of self (as a polynomial) and Phi_n over Q
        n = self.conductor
        a = list(cyclotomic_polynomial(n))
        b = [c for c in self.coeffs]
        while len(b) > 1 and b[-1] == 0:
            b.pop()
        # invariants: s*self + t*phi = r  (t not tracked)
        r0, r1 = a, b
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            if len(r1) == 1 and r1[0] != 0:
                inv = [c / r1[0] for c in s1]
                return CyclotomicScalar(n, inv)
            q, r = _poly_divmod(r0, r1)
            # s = s0 - q*s1
            qs = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        if y:
                            qs[i + j] += x * y
            s = [Fraction(0)] * max(len(s0), len(qs))
            for i, x in enumerate(s0):
                s[i] += x
            for i, x in enumerate(qs):
                s[i] -= x
            while len(s) > 1 and s[-1] == 0:
                s.pop()
            r0, r1, s0, s1 = r1, r, s1, s
            if len(r1) == 1 and r1[0] == 0:
                raise ZeroDivisionError("element not invertible")

    def __truediv__(self, other):
        if not isinstance(other, CyclotomicScalar):
            other = CyclotomicScalar.from_rational(other)
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

    def conjugate(self) -> "CyclotomicScalar":
        """Complex conjugation: zeta -> zeta^(-1)."""
        n = self.conductor
        out = [Fraction(0)] * n
        for k, c in enumerate(self.coeffs):
            if c:
                out[(-k) % n] += c
        return CyclotomicScalar(n, out)

    # -- predicates & conversions ---------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        n = self.conductor
        z = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                z += float(c) * cmath.exp(2j * cmath.pi * k / n)
        return z

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicScalar.from_rational(other)
        if not isinstance(other, CyclotomicScalar):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self) -> int:
        return hash(self._minimal())

    def __repr__(self) -> str:
        return f"CyclotomicScalar({self.conductor}, {[str(c) for c in self.coeffs]})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj: dict) -> "CyclotomicScalar":
        coeffs = [Fraction(num, den) for num, den in obj["coeffs"]]
        return CyclotomicScalar(obj["conductor"], coeffs)


def root_of_unity_log(u: CyclotomicScalar) -> tuple[int, int]:
    """Express a root of unity u in Q(zeta_N) as zeta_M^e.

    M is N for even N and 2N for odd N (the full torsion of the field).
    Raises ValueError if u is not a root of unity of the field.
    """
    n = u.conductor
    if n % 2 == 0:
        for e in range(n):
            if u == CyclotomicScalar.zeta(n, e):
                return n, e
    else:
        m = 2 * n
        for e in range(m):
            # zeta_{2n}^e = (-1)^e * zeta_n^(e*(n+1)/2 mod n)
            sign = -1 if e % 2 else 1
            cand = CyclotomicScalar.zeta(n, (e * ((n + 1) // 2)) % n) * sign
            if u == cand:
                return m, e
    raise ValueError("not a root of unity in this cyclotomic field")
