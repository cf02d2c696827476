"""Kähler forms of invariant potentials, the taming quotients of arrays of
4x4 forms for J0, and the gluing, certified on its torus orbits in Python
floats.

Potentials F are scalar fields on R^4 = C^2, vectorized over point arrays of
shape (..., 4).  2-forms are antisymmetric 4x4 coefficient matrices in the
real coordinates (x1, y1, x2, y2), with complex coordinates z = x1 + i y1,
w = x2 + i y2.  These array APIs import numpy when called, and read each
form's quotient through `taming.quotient`, the one quotient of every
certificate.  The gluing's checks read the taming data of its potentials on
(|z|^2, |w|^2) orbits as Python floats and build no 4x4 form; they import
no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .jet import Jet
from .profiles import rho_bump
from .taming import OrbitRegion, TamenessCertificate, certify, quotient

# glue_forms' bound on omega1's norm on the inner ball and on how far below
# 0 its taming quotient may reach on the middle annulus
GLUING_TOL = 1e-7


class PreconditionFailure(ValueError):
    def __init__(self, message: str, worst_sample=None, value=None):
        self.worst_sample = worst_sample
        self.value = value
        super().__init__(message)


def antisymmetric(w01, w02, w03, w12, w13, w23):
    """The antisymmetric (..., 4, 4) matrix with the given entries above the
    diagonal, which broadcast to the point shape.  Component-major: the view
    of a (4, 4, ...) buffer, so each entry is one contiguous array, written
    once, as is its negative below the diagonal and the zero diagonal."""
    import numpy as np
    upper = {(0, 1): w01, (0, 2): w02, (0, 3): w03, (1, 2): w12, (1, 3): w13, (2, 3): w23}
    buf = np.empty((4, 4) + np.broadcast_shapes(*(np.shape(w) for w in upper.values())))
    for (i, j), w in upper.items():
        buf[i, j] = w
        np.negative(buf[i, j], out=buf[j, i, ...])
    for i in range(4):
        buf[i, i] = 0.0
    return np.moveaxis(buf, (0, 1), (-2, -1))


def form_from_hermitian(coeff):
    """Real matrix of (i/2) sum coeff_ij dz_i ^ dzbar_j, from Re and Im of coeff."""
    import numpy as np

    c = np.asarray(coeff, dtype=complex)
    re, im = c.real, c.imag
    w03 = 0.5 * (re[..., 0, 1] + re[..., 1, 0])
    w02 = 0.5 * (im[..., 1, 0] - im[..., 0, 1])
    return antisymmetric(re[..., 0, 0], w02, w03, -w03, w02, re[..., 1, 1])


def taming_quotients(forms):
    """Smallest eigenvalue of S = (1/2)(Omega J0 + (Omega J0)^T) per sample
    of a (..., 4, 4) array of antisymmetric forms Omega, in closed form.

    S commutes with J0, so in the unitary frame (e1, J0 e1, e3, J0 e3) it is
    the realification of the Hermitian block [[a, beta], [conj(beta), d]],
    and each of its two eigenvalues appears twice:

        a = Omega01,   d = Omega23,
        |beta| = hypot((Omega21 + Omega03)/2, (Omega31 - Omega02)/2),

    whose smaller eigenvalue taming.quotient takes, sample by sample.
    Neither Omega J0 nor S is formed, and no eigensolver runs.  Every model
    here is written in holomorphic coordinates, so J0 is the only complex
    structure read.
    """
    import numpy as np
    f = np.asarray(forms, dtype=float)
    b = np.hypot(0.5 * f[..., 2, 1] + 0.5 * f[..., 0, 3], 0.5 * f[..., 3, 1] - 0.5 * f[..., 0, 2])
    a, d = f[..., 0, 1], f[..., 2, 3]
    return np.fromiter(map(quotient, a.ravel().tolist(), d.ravel().tolist(), b.ravel().tolist()),
                       float, count=b.size).reshape(b.shape)


def tameness_min(form_eval, points, region: str = "", grid: str = "") -> TamenessCertificate:
    """The certificate (taming.certify) of the taming quotients of the forms
    form_eval gives at an (N, 4) array of samples, for J0, evaluated once
    over the whole array.  The commands certify from their taming data; this
    is their reference over 4x4 forms."""
    import numpy as np
    p = np.asarray(points, dtype=float).reshape(-1, 4)
    return certify(zip(p.tolist(), taming_quotients(form_eval(p)).tolist()), region, grid)


def _complex_hessian(phi, s, t):
    """c00 = phi_s + s phi_ss, c11 = phi_t + t phi_tt and phi_st at arrays
    s = |z|^2 and t = |w|^2, off one jet of phi in (s, t): the complex
    Hessian of phi(|z|^2, |w|^2) is [[c00, zbar w phi_st], [z wbar phi_st, c11]]."""
    j = phi(Jet.variable(s, 0, 2), Jet.variable(t, 1, 2))
    return j.grad[0] + s * j.hess[0, 0], j.grad[1] + t * j.hess[1, 1], j.hess[0, 1]


def invariant_potential_form(phi):
    """(i/2) ddbar of phi(s, t), s = |z|^2, t = |w|^2, phi written over arrays
    or jets, as (..., 4, 4) forms (see _complex_hessian).  Building the
    evaluator imports no numpy; calling it does.
    """
    def omega(points):
        import numpy as np
        p = np.asarray(points, dtype=float)
        s, t = p[..., 0] ** 2 + p[..., 1] ** 2, p[..., 2] ** 2 + p[..., 3] ** 2
        c00, c11, phi_st = _complex_hessian(phi, s, t)
        c = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
        c[..., 0, 0], c[..., 1, 1] = c00, c11
        c[..., 0, 1] = (p[..., 0] - 1j * p[..., 1]) * (p[..., 2] + 1j * p[..., 3]) * phi_st
        c[..., 1, 0] = np.conj(c[..., 0, 1])
        return form_from_hermitian(c)
    return omega


# -- gluing -----------------------------------------------------------------


class GluingProblem(namedtuple("GluingProblem", "eps1 eps2 eps3 h g description",
                               defaults=("",))):
    """Radii 0 < eps1 < eps2 < eps3, and omega1 the form of the potential
    phi1(s, t) = h(s + g(t)) of (s, t) = (|z|^2, |w|^2): h a profile defined
    by its rule (RadialProfile.of_rule), g a RadialProfile.  The cutoff rho
    is rho_bump(eps2, eps3): 1 below eps2, 0 above eps3.  phi1, omega1 and
    rho are array APIs for cross-checks; glue_forms reads h's rule and g's
    float jets."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.eps1 < self.eps2 < self.eps3:
            raise ValueError("need 0 < eps1 < eps2 < eps3")
        return self

    @property
    def phi1(self):
        h, g = self.h, self.g
        return lambda s, t: h(s + g(t))

    @property
    def omega1(self):
        return invariant_potential_form(self.phi1)

    @property
    def rho(self):
        return rho_bump(self.eps2, self.eps3)


def _samples(problem: GluingProblem, region, n: int, reduce, cutoff=(0.0, None)):
    """(point, reduce(a, d, |b|)) per torus orbit (s, t) of a region on its
    n^4 grid, in grid order (OrbitRegion.walk).

    (a, d, |b|) are the taming data of omega1's potential phi = h(s + g(t)),
    plus delta G(s + t) for cutoff = (delta, rho's rule), where G'(R) =
    rho(sqrt R): (i/2) ddbar G(|p|^2) is d(rho(r) beta) for the primitive
    beta = (1/4) d^c |p|^2 of the flat form.

        a = phi_s + s phi_ss,   d = phi_t + t phi_tt,   |b| = sqrt(s) sqrt(t) |phi_st|,

    with phi_s = h', phi_t = h' g', phi_ss = h'', phi_st = h'' g' and
    phi_tt = h'' g'^2 + h' g'', and the cutoff adding delta rho to phi_s and
    phi_t and delta G'' = delta rho'(r) / 2r to each second derivative, at
    r = sqrt(s + t).  G'' is formed directly, not by the chain rule through
    sqrt R, whose two rho / 2R terms would cancel; it is 0 where rho' is, so
    r = 0 gives no 0/0.  h is the rule of omega1's ramp, evaluated once per
    orbit, as is rho's; g is read off one float jet per tail circle.
    """
    h, g, sqrt, (delta, rho) = problem.h.rule, problem.g, math.sqrt, cutoff

    def tail(t):
        j = g.float_jet(t)
        return sqrt(t), j.value, j.grad, j.grad * j.grad, j.hess

    def combine(s, t, root_s, tail):
        root_t, g0, g1, g11, g2 = tail
        _, h1, h2 = h(s + g0)
        phi_s, phi_t = h1, h1 * g1
        phi_ss, phi_st, phi_tt = h2, h2 * g1, h2 * g11 + h1 * g2
        if rho is not None:
            r = sqrt(s + t)
            rho0, rho1, _ = rho(r)
            flat = (rho1 / (2.0 * r) if rho1 != 0 else 0.0) * delta
            phi_s, phi_t = phi_s + rho0 * delta, phi_t + rho0 * delta
            phi_ss, phi_st, phi_tt = phi_ss + flat, phi_st + flat, phi_tt + flat
        return reduce(phi_s + s * phi_ss, phi_t + t * phi_tt, root_s * root_t * abs(phi_st))

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
    phi1(s, t) + delta G(s + t) (see _samples), with delta chosen
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
