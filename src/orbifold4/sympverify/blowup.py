"""Two-chart model of the resolved cyclic singularity C^2/<zeta_m * Id>, in
Python floats.

The resolution is the total space of the degree -m line bundle over the
projective line, covered by charts with coordinates (u, v) and transition
(u, v) -> (1/u, u^m v), written once over complex jets so that its real
Jacobian comes from jet.realified_jacobian.  The candidate symplectic form is

    omega_lambda = (i/2) ddbar [ |v|^(2/m) (1+|u|^2) + lambda log(1+|u|^2) ]

whose first term is the pullback of the flat quotient form (via the
invariant radius) and whose second is the pulled-back Fubini-Study-type
form, scaled by lambda.  In s = |u|^2 and t = |v|^2 the potential is
phi = T(t) (1 + s) + lambda L(s), with the 1-D pieces T(t) = t^(1/m) and
L = log1p, and its complex Hessian (as forms._hessian writes omega1's) is

    c00 = phi_s + s phi_ss = T + (lambda L' + s lambda L''),
    c11 = phi_t + t phi_tt = T' (1 + s) + t T'' (1 + s),
    c01 = conj(u) v phi_st = conj(u) v T'.

`_entries` combines `_fibre` (T, T', T'') and `_base` (lambda L' + s
lambda L'') into c00 and c11, so the certificate (taming_data) and the
closedness and overlap cross-checks (chart_form) read one formula.  Grids
avoid v = 0, where the pulled-back quotient form is continuous but not
smooth for m >= 2.

The cross-checks cost the same whatever the certification grid.  The form
is invariant under the torus acting on u and v by phases, so the closedness
and overlap checks sample torus orbits, each at a few angle pairs: the
closedness residual, exact to rounding from one jet per coordinate, at 72
points, and the overlap at 64.  The exceptional area is a 16-node
Gauss-Legendre rule, whose error is rounding.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .jet import PAIRS, Jet, largest, log1p_rule, power_rule, pullback_discrepancy
from .taming import OrbitRegion, certify, linspace, quotient

# d(omega) has one component per k < l < n, d_k omega_ln - d_l omega_kn +
# d_n omega_kl: each term as (direction, entry)
_TERMS = tuple(((k, PAIRS.index((l, n))), (l, PAIRS.index((k, n))), (n, PAIRS.index((k, l))))
               for k, l, n in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
# the certified region of each chart: u in the square [-1.2, 1.2]^2, v in
# [-0.8, 0.8]^2 with |v| >= 0.05
CHART = OrbitRegion(1.2, 0.8, tail_min=0.05)
# generic angle pairs (alpha, beta) at which the probes meet a torus orbit
_ANGLES = ((0.4, 1.9), (2.3, 4.1), (3.7, 0.8), (5.2, 3.0))
# Gauss-Legendre nodes of exceptional_area
AREA_NODES = 16


def _fibre(t: float, p: float):
    """T, T' and T'' at t = |v|^2, with T(t) = t^p."""
    d1, d2 = power_rule(t, p)
    return t ** p, d1, d2


def _base(s: float, lam: float) -> float:
    """lambda L' + s lambda L'' at s = |u|^2, with L = log1p: the part of
    c00 that depends on s alone, and all of c00 at t = 0, where T = 0."""
    l1, l2 = log1p_rule(s)
    return lam * l1 + s * (lam * l2)


def _entries(one_s: float, t: float, base: float, fibre):
    """(c00, c11) at one (s, t), from 1 + s, t, _base(s) and _fibre(t)."""
    tp, d1, d2 = fibre
    return tp + base, d1 * one_s + t * (d2 * one_s)


def chart_form(m: int, lam: float):
    """The chart form at one point (x1, y1, x2, y2) as its entries above the
    diagonal, (w01, w02, w03, w12, w13, w23): w01 = c00, w23 = c11,
    w03 = Re c01 = -w12 and w02 = -Im c01 = w13, the entries of
    (i/2) sum c_ij dz_i ^ dzbar_j.  Valid for v != 0."""
    p = 1.0 / m

    def form(point):
        x1, y1, x2, y2 = point
        s, t = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        fibre = _fibre(t, p)
        c00, c11 = _entries(1.0 + s, t, _base(s, lam), fibre)
        re, im = (x1 * x2 + y1 * y2) * fibre[1], (x1 * y2 - y1 * x2) * fibre[1]
        return c00, -im, re, -re, -im, c11
    return form


def transition(u, v, m: int):
    """The chart change (u, v) -> (1/u, u^m v), over complex numbers or jets."""
    return 1 / u, u ** m * v


def taming_data(m: int, lam: float, n: int, reduce):
    """(point, reduce(a, d, |b|)) of the chart form per orbit of CHART on
    its n^4 grid, in grid order (OrbitRegion.walk): _fibre once per v
    circle, _base once per u circle."""
    p = 1.0 / m

    def fibre(t):
        fibre = _fibre(t, p)
        return fibre, math.sqrt(t) * abs(fibre[1])

    def combine(s, t, head, tail):
        (one_s, base, root), (fibre, b) = head, tail
        a, d = _entries(one_s, t, base, fibre)
        return reduce(a, d, root * b)

    return CHART.walk(n, lambda s: (1.0 + s, _base(s, lam), math.sqrt(s)), fibre, combine)


def closedness_residual(form) -> float:
    """Max component of d(omega) over closedness_probe, exact to rounding:
    each partial derivative is the form run on a Jet(x, 1.0, 0.0) along one
    coordinate, four evaluations per point.  form maps a point to the six
    entries above the diagonal, over floats and jets.

    chart_form is (i/2) sum c_ij dz_i ^ dzbar_j with c00 and c11 functions
    of (s, t) and c01 = conj(u) v T', so omega is invariant under the torus
    (u, v) -> (e^(i alpha) u, e^(i beta) v), d(omega) is too, and d(omega) = 0
    holds on a whole orbit once it holds at one of its points.  The probe
    meets each orbit twice, so a form that is not invariant also shows."""
    residuals = []
    for point in closedness_probe():
        grad = []
        for i in range(4):
            along = list(point)
            along[i] = Jet(point[i], 1.0, 0.0)
            grad.append([c.grad if isinstance(c, Jet) else 0.0 for c in form(along)])
        residuals += [grad[i][a] - grad[j][b] + grad[k][c]
                      for (i, a), (j, b), (k, c) in _TERMS]
    return largest(residuals)


def _on_orbits(u_radii, v_radii, pairs: int) -> list:
    """The points (|u| e^(i alpha), |v| e^(i beta)) of each pair of radii at
    the first pairs of _ANGLES, as (x1, y1, x2, y2)."""
    return [(ru * math.cos(a), ru * math.sin(a), rv * math.cos(b), rv * math.sin(b))
            for ru in u_radii for rv in v_radii for a, b in _ANGLES[:pairs]]


def closedness_probe() -> list:
    """Points of CHART fixed whatever the certification grid: the orbits of
    its 5^4 grid with |v| >= v_min (CHART.factors), and the ring |v| =
    v_min, where derivatives peak, each at two angle pairs; 72 points."""
    heads, tails = ([math.hypot(*point) for _, point in f] for f in CHART.factors(5))
    return _on_orbits(heads, tails + [CHART.tail_min], 2)


def overlap_probe() -> list:
    """Points of the chart overlap, |u| in [0.5, 2] and |v| in [0.05, 0.5],
    fixed whatever the certification grid: 4 radii spanning each range, each
    pair of radii at four angle pairs; 64 points.

    The transition maps torus orbits to torus orbits, (e^(i alpha) u,
    e^(i beta) v) -> (e^(-i alpha)/u, e^(i(m alpha + beta)) u^m v), and both
    chart forms are torus-invariant, so the two forms agree on a whole
    orbit once they agree at one of its points: the radii carry the probe,
    and the further angle pairs cross-check that invariance."""
    return _on_orbits(linspace(0.5, 2.0, 4), linspace(0.05, 0.5, 4), 4)


def overlap_max_diff(form, m: int) -> float:
    """Max entry of the chart form pulled back along the transition minus
    the chart form, over overlap_probe: the two charts' forms agree."""
    return pullback_discrepancy(lambda u, v: transition(u, v, m), overlap_probe(), form, form)[0]


def gauss_legendre(n: int):
    """The nodes, increasing, and the weights of the n-point Gauss-Legendre
    rule on [-1, 1], exact for polynomials of degree up to 2n - 1.  Each
    root of P_n is found by Newton's method from cos(pi (i + 3/4)/(n + 1/2)),
    with P_n and P_n' from the recurrence (k + 1) P_(k+1) = (2k + 1) x P_k
    - k P_(k-1); its weight is 2/((1 - x^2) P_n'(x)^2)."""
    def legendre(x):
        p0, p1 = 1.0, x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    nodes, weights = [], []
    for i in reversed(range(n)):
        x, step = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        while abs(step) > 1e-15:
            p, dp = legendre(x)
            step = p / dp
            x -= step
        dp = legendre(x)[1]
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


def exceptional_area(lam: float) -> float:
    """Area of the form restricted to the zero section, by radial quadrature.

    The density is c00 at the zero section's point (rho, 0, 0, 0), where
    T = 0: _base at s = rho^2.  The radial integral is compactified by
    rho = tan(theta), whose integrand 2 pi rho _base(rho^2) (1 + rho^2) is
    lambda pi sin(2 theta), smooth on [0, pi/2], and summed by the
    AREA_NODES-point Gauss-Legendre rule, through math.fsum: its relative
    error against lambda pi is rounding.  The potential grows with s, and
    of the points a report samples it is largest here, at the last node,
    where it is lambda log1p(s); an OverflowError refuses a lambda for
    which that is no double."""
    nodes, weights = gauss_legendre(AREA_NODES)
    half, two_pi, terms = math.pi / 4.0, 2.0 * math.pi, []
    for x, w in zip(nodes, weights):
        rho = math.tan(half + half * x)
        s = rho * rho
        terms.append(w * two_pi * rho * _base(s, lam) * (1.0 + s))
    if not math.isfinite(lam * math.log1p(s)):
        raise OverflowError("the potential overflows on the zero section")
    return half * math.fsum(terms)


class BlowupReport(namedtuple("BlowupReport",
                              "certificate closedness_residual overlap_max_diff area lam")):
    """certificate is a TamenessCertificate over the orbits of CHART."""

    __slots__ = ()

    @property
    def area_expected(self) -> float:
        return self.lam * math.pi

    @property
    def ok(self) -> bool:
        """The residual gates are relative to max(1, lambda): omega_lambda grows
        with lambda, and so does the round-off of its derivatives and its
        pullback.  The closedness residual is exact up to rounding, at most
        8.2e-14 * max(1, lambda) for m in {2, 3, 5, 12, 252}, so its gate
        sits at 1e-10.  The area gate is relative to lambda pi itself: the
        quadrature's relative error is rounding, below 1e-15 from lambda =
        1e-8 up, and a bound of 1e-6 * max(1, lambda pi) would pass twice the
        area for a small lambda."""
        scale = max(1.0, self.lam)
        return (
            self.certificate.tame
            and self.closedness_residual / scale <= 1e-10
            and self.overlap_max_diff / scale <= 1e-8
            and abs(self.area - self.area_expected) <= 1e-6 * self.area_expected
        )


def blowup_model_check(m: int, lam: float, grid_n: int = 12) -> BlowupReport:
    """The certificate over the orbits of CHART on its grid_n^4 grid, the
    closedness and overlap cross-checks and the exceptional area, in floats.

    Refuses (ValueError) a lambda below sys.float_info.min, naming it: the
    model's numbers are subnormal there, and no gate relative to lambda pi
    means anything.  Refuses an m and a lambda for which a float of the
    model overflows, naming both, since either may be the cause: from
    lambda = 1.88e307 the potential lambda log1p(s) at the area's last node,
    s = 1.44e4, and from m = 253 the overlap's T'' = p(p - 1) t^(p - 2) at a
    tiny t = |u^m v|^2.  A power
    overflows with an OverflowError (or a ZeroDivisionError, once u^m v
    underflows to 0), a product to inf, which leaves a number of the report
    non-finite: no report holds an area or a quotient computed past the
    largest double."""
    if m < 2 or not 0 < lam < math.inf:
        raise ValueError("need m >= 2 and a finite lambda > 0")
    if lam < sys.float_info.min:
        raise ValueError(f"lambda={lam} is subnormal: the blow-up model needs lambda >= "
                         f"{sys.float_info.min}")
    refusal = f"the blow-up model overflows a double at m={m}, lambda={lam}"
    try:
        form = chart_form(m, lam)
        cert = certify(taming_data(m, lam, grid_n, quotient),
                       f"two charts, {CHART.label} (m={m}, lambda={lam})",
                       f"{grid_n}^4 per chart, v=0 excluded")
        report = BlowupReport(cert, closedness_residual(form), overlap_max_diff(form, m),
                              exceptional_area(lam), lam)
    except ArithmeticError as exc:  # a power's OverflowError carries (errno, message)
        raise ValueError(f"{refusal}: {exc.args[-1]}") from None
    numbers = (cert.min_quotient, report.closedness_residual, report.overlap_max_diff,
               report.area, report.area_expected)
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{refusal}: a number of the report is not finite")
    return report
