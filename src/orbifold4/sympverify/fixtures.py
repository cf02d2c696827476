"""Ready-made gluing problems on the smoothed local model.

The pipeline fixture glues omega1 = (i/2) ddbar (h o F_a) — which vanishes on
the inner ball because the ramp h is flat below the potential's maximum
there — to a small multiple of the flat form near the origin.  The ramp
window is derived from the radii: its foot sits above max F_a on the
eps1-ball and its shoulder below eps2^2.  Radii for which s + g(t) falls to
the foot somewhere on the outer annulus are refused, so omega1 is strictly
positive where the cutoff decays.  Everything here runs in Python floats.
"""

from __future__ import annotations

import math

from .forms import GluingProblem
from .profiles import H_cutoff, RadialProfile, f_resolved, h_ramp

# the ramp's foot sits this far above max F_a on the eps1-ball, and its
# shoulder this far below eps2^2
MARGIN = 0.01


def smoothing_excess_max(m: int, a: float, x_max: float) -> float:
    """max over [0, x_max] of fhat(x) - x, the height of the smoothing bump,
    in closed form.  For m = 1 it is a^2 everywhere.  For m >= 2 it is
    concave, with derivative (1/m) (x + a^2)^(1/m - 1) - 1, which vanishes
    at x* = m^(-m/(m-1)) - a^2: the maximum lies at x* clamped into
    [0, x_max]."""
    if m == 1:
        return a * a
    x = min(max(m ** (-m / (m - 1)) - a * a, 0.0), x_max)
    return f_resolved(m, a).fn(x) - x


def annulus_floor(m: int, a: float, eps2: float) -> float:
    """The least s + g(t) over the outer annulus eps2 <= sqrt(s + t) <= eps3
    of pipeline_problem, exactly, from two evaluations of fhat.

    At each t the least s is max(0, eps2^2 - t).  For t <= eps3^2 the cutoff
    in g(t) = t + rho(t) (fhat(t) - t) is exactly 1, as it starts at
    1.5 eps3^2, so g = fhat there: increasing, concave for m >= 2 and linear
    for m = 1.  On [0, eps2^2] the sum eps2^2 - t + fhat(t) is then concave,
    least at an end; on [eps2^2, eps3^2] it is fhat itself, least at
    eps2^2.  So the least value on the whole annulus is
    min(eps2^2 + fhat(0), fhat(eps2^2)), not only at sampled points."""
    fhat = f_resolved(m, a).fn
    return min(eps2 ** 2 + fhat(0.0), fhat(eps2 ** 2))


def pipeline_problem(m: int = 2, a: float = 0.1,
                     eps1: float = 0.5, eps2: float = 0.8, eps3: float = 1.0) -> GluingProblem:
    """Gluing fixture: smoothed-potential form against the flat form.  Radii
    for which omega1 vanishes somewhere on the outer annulus are refused
    (annulus_floor)."""
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError("m must be an integer")
    if m < 1 or not a > 0:
        raise ValueError("need m >= 1 and a > 0")
    # the cutoff window reaches 3*eps3^2; a radius whose square overflows
    # would end in an OverflowError of Python float arithmetic
    if not all(3.0 * e * e < math.inf for e in (eps1, eps2, eps3)):
        raise ValueError("need radii with 3*eps^2 finite")
    # fhat''(0) = (1/m)(1/m - 1) a^(2/m - 4) overflows for a tiny a (m = 2:
    # a below about 1e-103), and a grid point with |w| = 0 would read NaN
    try:
        f_resolved(m, a).jet(0.0)
    except ArithmeticError:
        raise ValueError(f"a={a} is too small: fhat''(0) overflows") from None
    t0 = eps1 ** 2 + smoothing_excess_max(m, a, eps1 ** 2) + MARGIN
    t1 = eps2 ** 2 - MARGIN
    if not t0 < t1:
        raise ValueError(f"radii leave no ramp window: t0={t0:.4f} >= t1={t1:.4f}")
    # cutoff of the smoothing correction beyond the certified ball
    H = H_cutoff(m, a, lo=1.5 * eps3 ** 2, hi=3.0 * eps3 ** 2)
    problem = GluingProblem(
        eps1, eps2, eps3, h_ramp(t0, t1), RadialProfile(lambda x: x + H(x)),
        description=f"pipeline m={m} a={a} ramp=({t0:.4f},{t1:.4f})",
    )
    # g(t) falls below t once t > 1, so on the outer annulus s + g(t) may
    # reach down to the foot, where h and omega1 vanish
    lowest = annulus_floor(m, a, eps2)
    if not lowest > t0:
        raise ValueError(f"radii leave omega1 degenerate on the outer annulus: "
                         f"min s + g(t) = {lowest:.4f} <= t0={t0:.4f}")
    return problem
