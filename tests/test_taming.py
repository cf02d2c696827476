"""Tameness certificates in Python floats: the scalar taming quotient against
an exact reference and against its reading of 4x4 forms, the one-pass
reduction against a whole-array argmin, and the grid axis against
np.linspace."""

import math
import random
import sys
from decimal import Decimal

import numpy as np
import pytest

from fd_oracles import antisymmetric, exact_taming_quotient, taming_quotients
from orbifold4.sympverify.taming import (TAMENESS_TOL, WORST_SAMPLE_RTOL, certify, linspace,
                                          quotient)

TINY = 5e-324  # the least subnormal


def _form(a, d, b):
    """A 4x4 form whose J0 block is [[a, b], [b, d]]: its reading by
    taming_quotients is exact (up to a subnormal b, whose halves round), as
    is exact_taming_quotient's."""
    return antisymmetric(a, 0.0, b, -b, 0.0, d)


def _triples(rng, n, top=300.0):
    """Random (a, d, b) with magnitudes from 10^-top to 10^top, each sign of a
    and d, and a + d <= 0 for about half of them."""
    def magnitude():
        return 10.0 ** rng.uniform(-top, top) * rng.choice((-1.0, 1.0))
    out = []
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-top, top)
        a, d = scale * rng.uniform(-1.0, 1.0), scale * rng.uniform(-1.0, 1.0)
        b = abs(scale * rng.uniform(0.0, 1.0))
        out.append((a, d, b) if rng.random() < 0.7 else (magnitude(), magnitude(), b))
    return out


SPECIAL = [
    (1.0, 1.0, 0.0), (1.0, -1.0, 0.0), (-2.0, 0.5, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
    (1.0, 1.0, 1.0), (1.0, 1.0, 1.0 - 2 ** -52), (3.0, -3.0, 1.0), (-1.0, -1.0, 1e-300),
    (1e300, 1e300, 1e300), (1.7e308, 1.7e308, 1.7e308), (-1.7e308, -1.7e308, 1.7e308),
    (1.7e308, -1.7e308, 0.0), (1e-300, 1e-300, 1e-300), (TINY, TINY, TINY),
    (1.0, TINY, 0.0), (TINY, -TINY, TINY), (1e-310, 2e-310, 1e-311), (1e300, 1e-300, 1.0),
    (math.inf, 1.0, 0.0), (1.0, -math.inf, 0.0), (1.0, 1.0, math.inf),
    (math.nan, 1.0, 0.0), (1.0, math.nan, 0.0), (1.0, 1.0, math.nan),
]


# the ends of quotient's unscaled range [2^-100, 2^100], and a step outside
EDGES = [2.0 ** -100, np.nextafter(2.0 ** -100, 0.0), 2.0 ** 100, np.nextafter(2.0 ** 100, 3.0)]


def _all_triples():
    """SPECIAL, the EDGES crossed with three values of d, and 40,000 random
    triples, the second half mostly in the range where quotient does not
    rescale."""
    rng = random.Random(7)
    edges = [(x, y, z) for x in EDGES for y in (1.0, -1.0, 2.0 ** -100) for z in EDGES]
    return SPECIAL + edges + _triples(rng, 20000) + _triples(rng, 20000, top=31.0)


TRIPLES = _all_triples()


def test_quotient_matches_an_exact_reference():
    # within 4 ulp of the block's largest entry, against the smaller
    # eigenvalue from the form's entries as exact rationals; NaN exactly for
    # a non-finite input, and -inf for an eigenvalue below -DBL_MAX
    for (a, d, b), form in zip(TRIPLES, _form(*np.array(TRIPLES).T)):
        got = quotient(a, d, b)
        if not (math.isfinite(a) and math.isfinite(d) and math.isfinite(b)):
            assert math.isnan(got), (a, d, b)
            continue
        assert not math.isnan(got), (a, d, b)
        want = exact_taming_quotient(form)
        if want < -Decimal(sys.float_info.max):
            assert got == -math.inf, (a, d, b, got)
            continue
        bound = 4 * Decimal(math.ulp(max(abs(a), abs(d), b)))
        assert abs(Decimal(got) - want) <= bound, (a, d, b, got, want)


def test_quotient_matches_its_reading_of_a_4x4_form():
    # bit for bit, but where taming_quotients rounds the halves of a
    # subnormal b
    with np.errstate(all="ignore"):  # the non-finite inputs
        want = taming_quotients(_form(*np.array(TRIPLES).T)).tolist()
    for (a, d, b), w in zip(TRIPLES, want):
        got = quotient(a, d, b)
        if math.isnan(w):
            assert math.isnan(got), (a, d, b)
        elif b < 2 * sys.float_info.min:
            assert abs(got - w) <= 2 * math.ulp(w), (a, d, b, got, w)
        else:
            assert got == w, (a, d, b, got, w)


def test_quotient_is_nan_exactly_for_a_non_finite_input():
    assert quotient(1.0, 1.0, 0.0) == 1.0
    assert quotient(1.0, 0.0, 0.0) == 0.0
    for bad in (math.inf, -math.inf, math.nan):
        for triple in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 1.0, abs(bad))):
            assert math.isnan(quotient(*triple))
    # an eigenvalue below -DBL_MAX is -inf, as np.ldexp gives it
    assert quotient(-1.7e308, -1.7e308, 1.7e308) == -math.inf


def _reference(quot):
    """The whole-array reduction: the argmin, then the first quotient
    within the tie tolerance of a finite minimum."""
    q = np.array(quot)
    idx = int(np.argmin(q))
    low = float(q[idx])
    if np.isfinite(low):
        idx = int(np.argmax(q <= low + WORST_SAMPLE_RTOL * max(1.0, abs(low))))
    return low, idx


VALUES = [1.0, 1.0 + 1e-12, 1.0 + 5e-14, 1.0 - 5e-14, 1.0 - 1e-12, np.nextafter(1.0, 0.0),
          0.5, 0.0, -0.0, -1e-14, 1e-14, -2.0, -2.0 * (1 + 5e-14), 1e300, math.inf,
          -math.inf, math.nan]


@pytest.mark.parametrize("seed", range(40))
def test_certify_matches_the_whole_array_reduction(seed):
    rng = random.Random(seed)
    pool = rng.sample(VALUES, rng.randint(2, 6))
    if seed % 4:  # NaN and -inf decide alone; keep most draws finite
        pool = [v for v in pool if not (math.isnan(v) or v == -math.inf)] or [1.0]
    quot = [rng.choice(pool) for _ in range(rng.randint(1, 60))]
    points = [(float(i), 0.0, 0.0, 0.0) for i in range(len(quot))]
    cert = certify(zip(points, quot), region="r", grid="g")
    low, idx = _reference(quot)
    assert cert.min_quotient == low or (math.isnan(low) and math.isnan(cert.min_quotient))
    assert cert.worst_sample == points[idx]
    assert (cert.orbits, cert.tame, cert.region, cert.grid) == (len(quot), low > TAMENESS_TOL,
                                                                "r", "g")


def test_certify_keeps_the_first_sample_tied_with_the_minimum():
    # quotients 1 + 1e-12, 1 and 1 - 1ulp in grid order: the last is the
    # minimum, the second lies within the tie tolerance of it, the first not
    quot = [1.0 + 1e-12, 1.0, np.nextafter(1.0, 0.0)]
    cert = certify(((float(i),) * 4, q) for i, q in enumerate(quot))
    assert cert.min_quotient == quot[2]
    assert cert.worst_sample == (1.0,) * 4


def test_certify_refuses_no_samples():
    with pytest.raises(ValueError):
        certify(iter(()))


@pytest.mark.parametrize("start,stop,n", [
    (-0.25, 0.25, 2), (-0.25, 0.25, 21), (-0.2619, 0.2619, 24), (-0.3, 0.3, 4),
    (-1e150, 1e150, 17), (-TINY, TINY, 3), (-TINY, TINY, 50), (-7, 3, 9),
])
def test_linspace_is_np_linspace_bit_for_bit(start, stop, n):
    got = linspace(start, stop, n)
    assert all(type(x) is float for x in got)
    assert np.array_equal(np.array(got), np.linspace(start, stop, n))
    assert [math.copysign(1.0, x) for x in got] == np.copysign(1.0, np.linspace(start, stop, n)).tolist()
