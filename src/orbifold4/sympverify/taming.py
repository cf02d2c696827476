"""Tameness certificates in Python floats: the record and its tolerances,
the taming quotient of one sample from its 2x2 Hermitian block, the
reduction of a grid's quotients to a certificate, np.linspace's grid axis
and the orbit region every certificate samples and labels.  `quotient` is
the one taming quotient of every certificate, and every certificate is
reduced by `certify`.
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
                                     "region grid min_quotient orbits tame worst_sample")):
    """Minimum taming quotient over the samples of a grid.  worst_sample is
    the first sample in grid order whose quotient is within WORST_SAMPLE_RTOL
    * max(1, |min_quotient|) of the minimum, stored as Python floats.  grid
    names the grid whose points are covered and orbits counts the samples
    evaluated, one per torus orbit of its points (see OrbitRegion)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return dict(self._asdict(), worst_sample=list(self.worst_sample))


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
    return TamenessCertificate(region, grid, low, orbits, low > TAMENESS_TOL, tuple(worst))


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


def circles(half: float, n: int) -> list:
    """The circles of the plane grid linspace(-half, half, n)^2 as (s, first
    grid point (x, y)), in grid order, with s = x^2 + y^2 at that point: the
    torus orbits of one plane.  The axis holds x_i = half (2i - n + 1)/(n - 1),
    so a circle is told apart by its exact integer radius (2i - n + 1)^2 +
    (2j - n + 1)^2, and rounding never splits one circle in two."""
    axis, squares, first = linspace(-half, half, n), [(2 * i - n + 1) ** 2 for i in range(n)], {}
    for x, kx in zip(axis, squares):
        for y, ky in zip(axis, squares):
            first.setdefault(kx + ky, (x, y))
    return [(x * x + y * y, (x, y)) for x, y in first.values()]


class OrbitRegion(namedtuple("OrbitRegion", "head tail line tail_min inner outer",
                             defaults=(False, 0.0, None, None))):
    """A torus-invariant region of R^4 and its orbits (s, t) on an n^4 grid
    of linspace axes, named by label.  The head's orbits are the circles
    s = x1^2 + y1^2 of [-head, head]^2 or, with line=True, for a form that
    does not depend on y1, the points s = x1 of [-head, head] at y1 =
    axis[0].  The tail's orbits are the circles t = x2^2 + y2^2 of [-tail,
    tail]^2 with sqrt(t) >= tail_min.  With outer set, the region keeps the
    orbits with inner <= sqrt(s + t) <= outer.  Each orbit is one (s, t),
    read at its first grid point (circles), and is kept or dropped once on
    those floats, so the region holds whole orbits."""

    __slots__ = ()

    @classmethod
    def cube(cls, half: float) -> "OrbitRegion":
        return cls(half, half, line=True)

    @classmethod
    def ball(cls, inner: float, outer: float) -> "OrbitRegion":
        return cls(outer, outer, inner=inner, outer=outer)

    @property
    def label(self) -> str:
        if self.line:
            return f"cube side 2*{self.head}"
        if self.outer is not None:
            return f"ball {self.inner} <= |p| <= {self.outer}"
        return (f"u in [-{self.head}, {self.head}]^2, v in [-{self.tail}, {self.tail}]^2 "
                f"with |v|>={self.tail_min}")

    def factors(self, n: int):
        """The head's and the tail's (orbit coordinate, first grid point) that
        meet the region, in grid order."""
        if self.line:
            axis = linspace(-self.head, self.head, n)
            heads = [(x, (x, axis[0])) for x in axis]
        else:
            heads = circles(self.head, n)
        floor = self.tail_min ** 2
        tails = [c for c in circles(self.tail, n) if c[0] >= floor]
        if self.outer is not None:
            heads, tails = ([c for c in f if math.sqrt(c[0]) <= self.outer] for f in (heads, tails))
        return heads, tails

    def walk(self, n: int, at_head, at_tail, combine):
        """(first grid point, combine(s, t, at_head(s), at_tail(t))) per orbit
        (s, t), head-major, which is grid order: at_head runs once per head
        and at_tail once per tail, and the orbits stream."""
        heads, tails = self.factors(n)
        tails = [(t, w, at_tail(t)) for t, w in tails]
        ruled, inner, outer, sqrt = self.outer is not None, self.inner, self.outer, math.sqrt
        for s, z in heads:
            head = at_head(s)
            for t, w, tail in tails:
                if not ruled or inner <= sqrt(s + t) <= outer:
                    yield z + w, combine(s, t, head, tail)

    def samples(self, n: int):
        """The first grid point of each orbit, in grid order."""
        return (point for point, _ in self.walk(n, *(lambda *_: None,) * 3))
