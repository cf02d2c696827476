"""Exact cyclotomic arithmetic, checked against independent identities."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from orbifold4 import CyclotomicScalar, cyclotomic_polynomial, root_of_unity_log


def test_cyclotomic_polynomial_known_values():
    # classical tables: Phi_1 = x - 1, Phi_4 = x^2 + 1, Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(12) == tuple(Fraction(c) for c in (1, 0, -1, 0, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_degree_is_euler_totient(n):
    phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert len(cyclotomic_polynomial(n)) - 1 == phi


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_roots_of_unity_sum_and_order(n):
    # sum of all n-th roots of unity vanishes for n > 1
    total = CyclotomicScalar.zero(n)
    for k in range(n):
        total = total + CyclotomicScalar.zeta(n, k)
    assert total.is_zero()
    z = CyclotomicScalar.zeta(n)
    assert z ** n == 1
    assert all(not (z ** k == 1) for k in range(1, n))


def test_arithmetic_matches_complex_embedding():
    a = CyclotomicScalar.zeta(12, 5) + CyclotomicScalar.from_rational(Fraction(2, 3))
    b = CyclotomicScalar.zeta(8, 3) - CyclotomicScalar.zeta(12, 7)
    for expr, ref in [
        (a * b, a.to_complex() * b.to_complex()),
        (a + b, a.to_complex() + b.to_complex()),
        (a - b, a.to_complex() - b.to_complex()),
        (a / b, a.to_complex() / b.to_complex()),
    ]:
        assert cmath.isclose(expr.to_complex(), ref, rel_tol=0, abs_tol=1e-12)


def test_inverse_and_division():
    a = CyclotomicScalar.zeta(7) + 2
    assert a * a.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        CyclotomicScalar.zero().inverse()


def test_conjugation_is_involutive_and_multiplicative():
    a = CyclotomicScalar.zeta(5, 2) + CyclotomicScalar.from_rational(Fraction(1, 2))
    b = CyclotomicScalar.zeta(5, 4) - 1
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    # |zeta|^2 = 1
    z = CyclotomicScalar.zeta(9, 4)
    assert z * z.conjugate() == 1


def test_cross_conductor_equality_and_hash():
    # zeta_6^3 = -1 = zeta_2, recognized across different declared fields
    a = CyclotomicScalar.zeta(6, 3)
    b = CyclotomicScalar.from_rational(-1, conductor=2)
    assert a == b
    assert CyclotomicScalar.zeta(12, 4) == CyclotomicScalar.zeta(3, 1)
    # no hash can agree with an equality that crosses fields
    with pytest.raises(TypeError):
        hash(a)


def test_rational_detection():
    a = CyclotomicScalar.zeta(4) * CyclotomicScalar.zeta(4, 3)
    assert a.is_rational() and a.rational_value() == 1
    assert not CyclotomicScalar.zeta(4).is_rational()
    with pytest.raises(ValueError):
        CyclotomicScalar.zeta(4).rational_value()


def test_json_round_trip():
    a = CyclotomicScalar.zeta(8, 3) + CyclotomicScalar.from_rational(Fraction(-2, 5))
    assert CyclotomicScalar.from_json(a.to_json()) == a


@pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (8, 5), (6, 2), (12, 7)])
def test_root_of_unity_log_even_conductor(n, k):
    m, e = root_of_unity_log(CyclotomicScalar.zeta(n, k))
    assert m == n and e == k % n


def test_root_of_unity_log_odd_conductor_doubles_torsion():
    # -zeta_3 has order 6 but lives in Q(zeta_3); torsion there is 2*3
    u = CyclotomicScalar.zeta(3) * -1
    m, e = root_of_unity_log(u)
    assert m == 6
    check = CyclotomicScalar.zeta(3, (e * 2) % 3) * (-1 if e % 2 else 1)
    assert check == u


def test_root_of_unity_log_rejects_non_roots():
    with pytest.raises(ValueError):
        root_of_unity_log(CyclotomicScalar.from_rational(Fraction(1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 15, 255, 256])
def test_root_of_unity_log_against_the_field_torsion(n):
    # the roots of unity of Q(zeta_n) are the +-zeta_n^k, lcm(2, n) of them;
    # each is logged once and zeta_M^e, built in Q(zeta_M), equals it
    roots = {}
    for sign in (1, -1):
        for k in range(n):
            u = CyclotomicScalar.zeta(n, k) * sign
            roots[u.num, u.den] = u
    assert len(roots) == math.lcm(2, n)
    exponents = []
    for u in roots.values():
        m, e = root_of_unity_log(u)
        assert m == len(roots) and CyclotomicScalar.zeta(m, e) == u
        exponents.append(e)
    assert sorted(exponents) == list(range(len(roots)))
    for non_root in (CyclotomicScalar.from_rational(Fraction(1, 2), n),
                     CyclotomicScalar.zeta(n) * 2):
        with pytest.raises(ValueError):
            root_of_unity_log(non_root)


# -- the integer representation, on seeded random elements --------------------

CONDUCTORS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24]


def _random_element(rng, n, terms=3):
    """A sum of rational multiples of powers of zeta_n, with a denominator."""
    x = CyclotomicScalar.from_rational(Fraction(rng.randint(-3, 3), rng.randint(2, 6)), n)
    for _ in range(terms):
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 6))
        x = x + CyclotomicScalar.zeta(n, rng.randrange(n)) * c
    return x


def _elements(n, count=4, nonzero=False):
    rng = random.Random(f"cyclotomic:{n}")
    out = []
    while len(out) < count:
        x = _random_element(rng, n)
        if not (nonzero and x.is_zero()):
            out.append(x)
    return out


def _units(n):
    return [k for k in range(1, max(n, 2)) if math.gcd(k, n) == 1]


def _close(got, ref):
    return cmath.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_representation_is_reduced(n):
    for x in _elements(n):
        assert len(x.num) == len(cyclotomic_polynomial(n)) - 1
        assert all(isinstance(c, int) for c in x.num) and isinstance(x.den, int)
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert any(x.den > 1 for x in _elements(n))


@pytest.mark.parametrize("n", CONDUCTORS)
def test_galois_is_a_ring_homomorphism(n):
    a, b, c, _ = _elements(n)
    for k in _units(n):
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert (a - c).galois(k) == a.galois(k) - c.galois(k)
        assert CyclotomicScalar.one(n).galois(k) == 1
    assert a.galois(-1) == a.conjugate()
    assert _close(a.conjugate().to_complex(), a.to_complex().conjugate())
    if n > 1:
        with pytest.raises(ValueError):
            a.galois(n)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_is_exact(n):
    for x in _elements(n, nonzero=True):
        prod = x * x.inverse()
        assert prod == 1
        assert (prod.num, prod.den) == ((1,) + (0,) * (len(x.num) - 1), 1)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_one_representation_per_element(n):
    a, b, c, d = _elements(n)
    if b.is_zero():
        b = b + 1
    # the same element by two routes has the same (num, den)
    for x, y in [((a * b) / b, a), ((a + c) - c, a), (a * (c + d), a * c + a * d)]:
        assert (x.conductor, x.num, x.den) == (y.conductor, y.num, y.den)
    # a lift equals the element rebuilt from powers of zeta_{2n} in the larger field
    m = 2 * n
    lifted = a.to_conductor(m)
    rebuilt = CyclotomicScalar.zero(m)
    for k, coeff in enumerate(a.num):
        rebuilt = rebuilt + CyclotomicScalar.zeta(m, 2 * k) * Fraction(coeff, a.den)
    assert (lifted.num, lifted.den) == (rebuilt.num, rebuilt.den)


@pytest.mark.parametrize("n", [k for k in CONDUCTORS if k > 2])
def test_subfield_elements_agree_across_conductors(n):
    for d in (d for d in range(1, n) if n % d == 0):
        for x in _elements(d, count=2):
            y = x.to_conductor(n)
            z = CyclotomicScalar.zero(n)
            for k, coeff in enumerate(x.num):
                z = z + CyclotomicScalar.zeta(n, k * (n // d)) * Fraction(coeff, x.den)
            assert x == y == z and y == x and z == x


@pytest.mark.parametrize("n", CONDUCTORS)
def test_json_round_trip_is_exact(n):
    for x in _elements(n):
        obj = x.to_json()
        assert all(q > 0 and math.gcd(p, q) == 1 for p, q in obj["coeffs"])
        back = CyclotomicScalar.from_json(obj)
        assert (back.conductor, back.num, back.den) == (x.conductor, x.num, x.den)


@pytest.mark.parametrize("n,m", [(n, CONDUCTORS[(i + 5) % len(CONDUCTORS)])
                                 for i, n in enumerate(CONDUCTORS)])
def test_every_operation_matches_complex_embedding(n, m):
    a, _, c, _ = _elements(n, nonzero=True)
    b, d = _elements(m, count=2, nonzero=True)
    za, zb, zc = a.to_complex(), b.to_complex(), c.to_complex()
    k = _units(n)[-1]
    cases = [
        (a + b, za + zb), (a - b, za - zb), (a * b, za * zb), (a / b, za / zb),
        (-a, -za), (a ** 3, za ** 3), (b ** -2, zb ** -2), (a.inverse(), 1 / za),
        (a.conjugate(), za.conjugate()), (a * Fraction(2, 7) + 3, za * 2 / 7 + 3),
        (a.galois(k), sum(coeff / a.den * cmath.exp(2j * cmath.pi * j * k / n)
                          for j, coeff in enumerate(a.num))),
        (a * c + d, za * zc + d.to_complex()),
    ]
    for got, ref in cases:
        assert _close(got.to_complex(), ref)
