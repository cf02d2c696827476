"""Tameness certificates in Python floats: the record and its tolerances,
the taming quotient of one sample from its 2x2 Hermitian block, the
reduction of a grid's quotients to a certificate, np.linspace's grid axis
and the circles of a plane grid.  Imports no numpy.  `quotient` is the one
taming quotient of every certificate, `forms`' reading of 4x4 forms
included, and every certificate is reduced by `certify`.
"""

from __future__ import annotations

import math
from collections import namedtuple

# a form is tame when its smallest taming quotient exceeds this
TAMENESS_TOL = 1e-9

# worst_sample is the first sample in grid order whose quotient lies within
# this relative distance of the minimum, so that samples tied by a symmetry
# of the model are not told apart by rounding in the last bit
WORST_SAMPLE_RTOL = 1e-13


class TamenessCertificate(namedtuple("TamenessCertificate",
                                     "region grid min_quotient tame worst_sample orbits")):
    """Minimum taming quotient over the samples of a grid.  worst_sample is
    the first sample in grid order whose quotient is within WORST_SAMPLE_RTOL
    * max(1, |min_quotient|) of the minimum, stored as Python floats.  grid
    names the grid whose points are covered and orbits counts the samples
    evaluated, one per torus orbit of its points (see circles)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "region": self.region,
            "grid": self.grid,
            "min_quotient": self.min_quotient,
            "orbits": self.orbits,
            "tame": self.tame,
            "worst_sample": list(self.worst_sample),
        }


# a, d and b whose magnitudes all lie in [2^-100, 2^100] keep every product,
# sum, hypot and quotient of quotient's formula a normal double, whether or
# not they are first divided by a power of two; the division then changes no
# rounding, and quotient skips it
_UNSCALED_LO, _UNSCALED_HI = 2.0 ** -100, 2.0 ** 100


def quotient(a: float, d: float, b: float) -> float:
    """The smaller eigenvalue of the Hermitian block [[a, beta], [conj(beta),
    d]] with |beta| = b >= 0: the taming quotient of a sample for J0.  a, d
    and b are divided by the power of two just above their largest
    magnitude, unless all three magnitudes lie in [2^-100, 2^100], where
    that division would change no rounding, so that blocks with entries
    near the largest double give a finite result.  The larger eigenvalue
    then has no cancellation when a + d > 0, and the smaller is the
    determinant over it; (a + d)/2 - hypot(...) would lose the digits of a
    small eigenvalue next to a large one.  When a + d <= 0 the difference
    itself has no cancellation.  The hypot is C's, as np.hypot computes it
    (math.hypot rounds its own way).  A non-finite input gives NaN, which
    is never tame.
    """
    if (_UNSCALED_LO <= abs(a) <= _UNSCALED_HI and _UNSCALED_LO <= abs(d) <= _UNSCALED_HI
            and _UNSCALED_LO <= b <= _UNSCALED_HI):
        exp = 0
    elif not (math.isfinite(a) and math.isfinite(d) and math.isfinite(b)):
        return math.nan
    else:
        exp = math.frexp(max(abs(a), abs(d), b))[1]
        a, d, b = math.ldexp(a, -exp), math.ldexp(d, -exp), math.ldexp(b, -exp)
    half_sum, radius = 0.5 * a + 0.5 * d, abs(complex(0.5 * a - 0.5 * d, b))
    if half_sum > 0:
        low = (a * d - b * b) / (half_sum + radius)
    else:
        low = half_sum - radius
    try:
        return math.ldexp(low, exp) if exp else low
    except OverflowError:  # an eigenvalue below -DBL_MAX
        return -math.inf


def certify(samples, region: str = "", grid: str = "") -> TamenessCertificate:
    """The certificate of (point, quotient) samples in grid order: the least
    quotient, the first point whose quotient is <= min + WORST_SAMPLE_RTOL *
    max(1, |min|), and the count of samples.  A NaN quotient is the minimum,
    at its first point, as is a -inf.

    One pass in bounded memory: only a point whose quotient is below every
    earlier one can be the worst sample, so `lows` keeps those that are
    still within the tolerance of the running minimum, earliest first."""
    orbits, lows, first_nan = 0, [], None
    for point, q in samples:
        orbits += 1
        if q != q:
            if first_nan is None:
                first_nan = point
        elif not lows or q < lows[-1][0]:
            lows.append((q, point))
            if math.isfinite(q):
                bound = q + WORST_SAMPLE_RTOL * max(1.0, abs(q))
                while not lows[0][0] <= bound:
                    del lows[0]
    if not orbits:
        raise ValueError("a certificate needs at least one sample")
    if first_nan is not None:
        low, worst = math.nan, first_nan
    else:
        low = lows[-1][0]
        worst = lows[0 if math.isfinite(low) else -1][1]
    return TamenessCertificate(region, grid, low, low > TAMENESS_TOL, tuple(worst), orbits)


def linspace(start: float, stop: float, n: int) -> list:
    """np.linspace(start, stop, n) for n >= 2, bit for bit: i*step + start,
    and stop itself last."""
    start, stop, div = float(start), float(stop), n - 1
    step = (stop - start) / div
    if step == 0:  # a subnormal step, as np.linspace handles it
        out = [i / div * (stop - start) + start for i in range(n)]
    else:
        out = [i * step + start for i in range(n)]
    out[-1] = stop
    return out


def circles(axis) -> dict:
    """The circles x^2 + y^2 of the plane grid axis^2, each with its first
    grid point (x, y), in grid order: the torus orbits of one plane."""
    first = {}
    for x in axis:
        for y in axis:
            first.setdefault(x * x + y * y, (x, y))
    return first
