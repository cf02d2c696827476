"""The gluing, certified on its torus orbits in Python floats.

Points are (x1, y1, x2, y2), with complex coordinates z = x1 + i y1 and
w = x2 + i y2.  The gluing's potential has its complex Hessian written
once, at one torus orbit (s, t) = (|z|^2, |w|^2) (`_hessian`): every check
reads its taming data through `taming.quotient`, the one quotient of every
certificate, and builds no 4x4 form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .profiles import rho_bump
from .taming import OrbitRegion, certify, quotient

# glue_forms' bound on omega1's norm on the inner ball and on how far below
# 0 its taming quotient may reach on the middle annulus
GLUING_TOL = 1e-7


class PreconditionFailure(ValueError):
    def __init__(self, message: str, worst_sample=None, value=None):
        self.worst_sample = worst_sample
        self.value = value
        super().__init__(message)


class GluingProblem(namedtuple("GluingProblem", "eps1 eps2 eps3 h g description",
                               defaults=("",))):
    """Radii 0 < eps1 < eps2 < eps3, and omega1 the form of the potential
    phi1(s, t) = h(s + g(t)) of (s, t) = (|z|^2, |w|^2): h a profile defined
    by its rule (RadialProfile.of_rule), g a RadialProfile.  The cutoff rho
    is rho_bump(eps2, eps3): 1 below eps2, 0 above eps3.  glue_forms reads
    h's rule, g's float jets and rho's rule."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.eps1 < self.eps2 < self.eps3:
            raise ValueError("need 0 < eps1 < eps2 < eps3")
        return self

    @property
    def rho(self):
        return rho_bump(self.eps2, self.eps3)


def _tail_jet(g, t: float):
    """(g, g', g'^2, g'') at t = |w|^2, off one float jet of g."""
    j = g.jet(t)
    return j.value, j.grad, j.grad * j.grad, j.hess


def _hessian(h, s: float, t: float, tail, delta: float = 0.0, rho=None):
    """c00 = phi_s + s phi_ss, c11 = phi_t + t phi_tt and phi_st at one
    orbit (s, t): the complex Hessian of phi(|z|^2, |w|^2) is [[c00,
    zbar w phi_st], [z wbar phi_st, c11]].  phi is omega1's potential
    h(s + g(t)), plus delta G(s + t) for a cutoff rule rho, where G'(R) =
    rho(sqrt R): (i/2) ddbar G(|p|^2) is d(rho(r) beta) for the primitive
    beta = (1/4) d^c |p|^2 of the flat form.

        phi_s = h',  phi_t = h' g',  phi_ss = h'',  phi_st = h'' g',
        phi_tt = h'' g'^2 + h' g'',

    with h the rule of omega1's ramp and tail = _tail_jet(g, t), and the
    cutoff adding delta rho to phi_s and phi_t and delta G'' = delta
    rho'(r) / 2r to each second derivative, at r = sqrt(s + t).  G'' is
    formed directly, not by the chain rule through sqrt R, whose two
    rho / 2R terms would cancel; it is 0 where rho' is, so r = 0 gives no
    0/0."""
    g0, g1, g11, g2 = tail
    _, h1, h2 = h(s + g0)
    phi_s, phi_t = h1, h1 * g1
    phi_ss, phi_st, phi_tt = h2, h2 * g1, h2 * g11 + h1 * g2
    if rho is not None:
        r = math.sqrt(s + t)
        rho0, rho1, _ = rho(r)
        flat = (rho1 / (2.0 * r) if rho1 != 0 else 0.0) * delta
        phi_s, phi_t = phi_s + rho0 * delta, phi_t + rho0 * delta
        phi_ss, phi_st, phi_tt = phi_ss + flat, phi_st + flat, phi_tt + flat
    return phi_s + s * phi_ss, phi_t + t * phi_tt, phi_st


def _samples(problem: GluingProblem, region, n: int, reduce, cutoff=(0.0, None)):
    """(point, reduce(a, d, |b|)) per torus orbit (s, t) of a region on its
    n^4 grid, in grid order (OrbitRegion.walk): a = c00, d = c11 and
    |b| = sqrt(s) sqrt(t) |phi_st| of omega1's potential, plus delta G for
    cutoff = (delta, rho's rule) (see _hessian).  h's rule runs once per
    orbit, as does rho's; g is read off one float jet per tail circle.
    """
    h, g, sqrt, (delta, rho) = problem.h.rule, problem.g, math.sqrt, cutoff

    def tail(t):
        return sqrt(t), _tail_jet(g, t)

    def combine(s, t, root_s, tail):
        root_t, jet = tail
        c00, c11, phi_st = _hessian(h, s, t, jet, delta, rho)
        return reduce(c00, c11, root_s * root_t * abs(phi_st))

    return region.walk(n, sqrt, tail, combine)


def _slope_sup(rule, ball, n: int, lo: float) -> float:
    """The sup of |rho'(r)| r / 2 over the orbits (s, t) of a ball on its
    n^4 grid, for the rule of a cutoff rho that is constant up to lo: rho'
    is exactly 0 there, so only the orbits with r = sqrt(s + t) > lo are
    read, and (s, t) and (t, s), which share r, once."""
    sup, squares = 0.0, [t for t, _ in ball.factors(n)[1]]
    for i, s in enumerate(squares):
        for t in squares[i:]:
            r = math.sqrt(s + t)
            if lo < r and ball.inner <= r <= ball.outer:
                sup = max(sup, abs(rule(r)[1]) * r / 2.0)
    return sup


def _frobenius(a: float, d: float, b: float) -> float:
    """The Frobenius norm of a form from its taming data: constant on
    orbits, as is the taming quotient; the largest entry of a form is not."""
    return math.sqrt(2.0 * (a * a + d * d + 2.0 * (b * b)))


def glue_forms(problem: GluingProblem, grid_n: int = 15):
    """Glue omega1 (vanishing near 0) to a multiple of the flat form near 0:
    omega_delta = omega1 + delta * d(rho beta), the form of the potential
    phi1(s, t) + delta G(s + t) (see _hessian), with delta chosen
    from the sampled positivity constant C of omega1 on the outer annulus
    and the sampled sup-norm |rho'(r)| r / 2 of d(rho) ^ beta: beta is
    normal to the radius, with |beta| = r / 2.

    Every check runs on one sample per torus orbit of its ball or annulus
    (OrbitRegion.ball), from the taming data of its potential in (s, t) in
    Python floats (_samples), with r = sqrt(s + t).

    Returns (delta, certificate over the eps3-ball).
    """
    e1, e2, e3 = problem.eps1, problem.eps2, problem.eps3
    rho, worst = problem.rho, None
    inner, mid = OrbitRegion.ball(0.0, e1 * 0.999), OrbitRegion.ball(e1, e2)
    outer, ball = OrbitRegion.ball(e2 * (1 + 1e-9), e3), OrbitRegion.ball(1e-6, e3)
    for point, norm in _samples(problem, inner, grid_n, _frobenius):
        # the first largest norm is the worst, a NaN before any number
        if worst is None or norm > worst[1] or norm != norm:
            worst = (point, norm)
            if norm != norm:
                break
    if worst is not None and not worst[1] <= GLUING_TOL:
        raise PreconditionFailure("omega1 does not vanish on the inner ball",
                                  worst_sample=worst[0], value=worst[1])
    if not (any(mid.samples(grid_n)) and any(outer.samples(grid_n))):
        raise ValueError(f"a {grid_n}^4 grid has no sample on an annulus; use a finer grid")
    cert = certify(_samples(problem, mid, grid_n, quotient))
    if not cert.min_quotient >= -GLUING_TOL:
        raise PreconditionFailure("omega1 not semipositive on the middle annulus",
                                  worst_sample=cert.worst_sample, value=cert.min_quotient)
    cert = certify(_samples(problem, outer, grid_n, quotient))
    C = cert.min_quotient
    if not C > 0:
        raise PreconditionFailure("omega1 not positive outside eps2",
                                  worst_sample=cert.worst_sample, value=C)

    delta = C / (2.0 * (_slope_sup(rho.rule, ball, grid_n, e2) + 1.0))
    return delta, certify(_samples(problem, ball, grid_n, quotient, (delta, rho.rule)),
                          ball.label, f"{grid_n}^4 cubic grid")
