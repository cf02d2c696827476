"""Kähler forms of invariant potentials, the taming quotient of arrays of
4x4 forms for J0, and the gluing, certified on its torus orbits.

Potentials F are scalar fields on R^4 = C^2, vectorized over point arrays of
shape (..., 4).  2-forms are antisymmetric 4x4 coefficient matrices in the
real coordinates (x1, y1, x2, y2), with complex coordinates z = x1 + i y1,
w = x2 + i y2.  The gluing's checks read the taming data of its potentials
on (|z|^2, |w|^2) orbits and build no 4x4 form.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .jet import Jet
from .taming import TamenessCertificate, certify, circles, linspace

# glue_forms' bound on omega1's norm on the inner ball and on how far below
# 0 its taming quotient may reach on the middle annulus
GLUING_TOL = 1e-7

# points per block of a grid evaluation: the per-sample 4x4 arrays of one
# block are alive at a time, whatever the size of the grid.  A block's forms
# take 256 KiB; larger blocks lift a verify job's peak RSS above what its
# imports need (README.md, design notes)
CHUNK = 2 ** 11


class NotAlmostComplexError(ValueError):
    pass


class PreconditionFailure(ValueError):
    def __init__(self, message: str, worst_sample=None, value=None):
        self.worst_sample = worst_sample
        self.value = value
        super().__init__(message)


def form_from_hermitian(coeff):
    """Real matrix of (i/2) sum coeff_ij dz_i ^ dzbar_j, from Re and Im of coeff."""
    from .linear import antisymmetric

    c = np.asarray(coeff, dtype=complex)
    re, im = c.real, c.imag
    w03 = 0.5 * (re[..., 0, 1] + re[..., 1, 0])
    w02 = 0.5 * (im[..., 1, 0] - im[..., 0, 1])
    return antisymmetric(re[..., 0, 0], w02, w03, -w03, w02, re[..., 1, 1])


def blockwise(fn, points):
    """fn over consecutive CHUNK-row slices of an (N, ...) array of points,
    its one float per row written into one preallocated array of length N.
    No block's result outlives its block: a result that is a view into a
    block's buffer (a form entry, say) would otherwise pin that buffer."""
    out = np.empty(len(points))
    for i in range(0, len(points), CHUNK):
        out[i:i + CHUNK] = fn(points[i:i + CHUNK])
    return out


def quotients(a, d, b):
    """taming.quotient over arrays: the smaller eigenvalue of the Hermitian
    block [[a, beta], [conj(beta), d]] per sample, with |beta| = b >= 0.

    a, d and b are divided by the power of two just above their largest
    magnitude before any product, so that blocks with entries near the
    largest double give a finite result.  The larger eigenvalue
    (a + d)/2 + hypot((a - d)/2, b) has no cancellation when a + d > 0, and
    the smaller is then the determinant over it; (a + d)/2 - hypot(...)
    would lose the digits of a small eigenvalue next to a large one.  When
    a + d <= 0 the difference itself has no cancellation.  A sample with a
    non-finite input gives NaN, which is never tame.
    """
    top = np.maximum(np.maximum(np.abs(a), np.abs(d)), b)
    finite, exp = np.isfinite(top), np.frexp(top)[1]
    a, d, b = (np.where(finite, np.ldexp(x, -exp), 0.0) for x in (a, d, b))
    half_sum, radius = 0.5 * a + 0.5 * d, np.hypot(0.5 * a - 0.5 * d, b)
    positive = half_sum > 0
    lam_max = np.where(positive, half_sum + radius, 1.0)
    lam_min = np.where(positive, (a * d - b * b) / lam_max, half_sum - radius)
    return np.where(finite, np.ldexp(lam_min, exp), np.nan)


def _require_j0(acs) -> None:
    from .linear import J0

    acs = np.asarray(acs, dtype=float)
    if acs.shape != (4, 4):
        raise NotAlmostComplexError(f"J must be one 4x4 matrix, not of shape {acs.shape}")
    if not np.array_equal(acs, J0):
        raise NotAlmostComplexError("the taming quotient is written for J = J0 only")


def taming_quotients(forms, acs):
    """Smallest eigenvalue of S = (1/2)(Omega J + (Omega J)^T) per sample, in
    closed form, for an antisymmetric Omega and J = J0.

    S commutes with J0, so in the unitary frame (e1, J0 e1, e3, J0 e3) it is
    the realification of the Hermitian block [[a, beta], [conj(beta), d]],
    and each of its two eigenvalues appears twice:

        a = Omega01,   d = Omega23,
        |beta| = hypot((Omega21 + Omega03)/2, (Omega31 - Omega02)/2),

    whose smaller eigenvalue `quotients` takes.  Neither Omega J nor S is
    formed, and no eigensolver runs.  Every model here is written in
    holomorphic coordinates, so every caller passes J0; any other J, or one
    that is not a single 4x4 matrix, is refused (NotAlmostComplexError).
    """
    _require_j0(acs)
    f = np.asarray(forms, dtype=float)
    b = np.hypot(0.5 * f[..., 2, 1] + 0.5 * f[..., 0, 3], 0.5 * f[..., 3, 1] - 0.5 * f[..., 0, 2])
    return quotients(f[..., 0, 1], f[..., 2, 3], b)


def _certify(points, quot, region: str = "", grid: str = "") -> TamenessCertificate:
    """taming.certify of the samples of an (N, 4) array and their quotients,
    read as Python floats CHUNK samples at a time."""
    def samples():
        for i in range(0, len(quot), CHUNK):
            yield from zip(points[i:i + CHUNK].tolist(), quot[i:i + CHUNK].tolist())
    return certify(samples(), region, grid)


def tameness_min(form_eval, acs, points, region: str = "", grid: str = "") -> TamenessCertificate:
    """The certificate (taming.certify) of the taming quotients of the forms
    form_eval gives at an (N, 4) array of samples, for J = J0, evaluated
    CHUNK samples at a time.  J is checked once, before any form is
    evaluated.  The commands certify from their taming data; this is their
    reference over 4x4 forms."""
    _require_j0(acs)
    p = np.asarray(points, dtype=float).reshape(-1, 4)
    return _certify(p, blockwise(lambda q: taming_quotients(form_eval(q), acs), p), region, grid)


def _complex_hessian(phi, s, t):
    """c00 = phi_s + s phi_ss, c11 = phi_t + t phi_tt and phi_st at arrays
    s = |z|^2 and t = |w|^2, off one jet of phi in (s, t): the complex
    Hessian of phi(|z|^2, |w|^2) is [[c00, zbar w phi_st], [z wbar phi_st, c11]]."""
    j = phi(Jet.variable(s, 0, 2), Jet.variable(t, 1, 2))
    return j.grad[0] + s * j.hess[0, 0], j.grad[1] + t * j.hess[1, 1], j.hess[0, 1]


def invariant_potential_form(phi):
    """(i/2) ddbar of phi(s, t), s = |z|^2, t = |w|^2, phi written over arrays
    or jets, as (..., 4, 4) forms (see _complex_hessian).  The evaluator's
    `potential` attribute evaluates phi itself, for finite-difference
    cross-checks.
    """

    def omega(points):
        p = np.asarray(points, dtype=float)
        c00, c11, phi_st = _complex_hessian(phi, *_radii(p))
        c = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
        c[..., 0, 0], c[..., 1, 1] = c00, c11
        c[..., 0, 1] = (p[..., 0] - 1j * p[..., 1]) * (p[..., 2] + 1j * p[..., 3]) * phi_st
        c[..., 1, 0] = np.conj(c[..., 0, 1])
        return form_from_hermitian(c)

    def potential(points):
        return phi(*_radii(np.asarray(points, dtype=float)))

    omega.potential = potential
    return omega


def _radii(p):
    return p[..., 0] ** 2 + p[..., 1] ** 2, p[..., 2] ** 2 + p[..., 3] ** 2


def _taming_data(phi, points):
    """(a, d, |b|) of the form of phi at an (N, 4) array of samples: c00,
    c11 and |c01| = sqrt(s) sqrt(t) |phi_st|, each a function of the sample's
    torus orbit (s, t) alone."""
    s, t = _radii(points)
    a, d, phi_st = _complex_hessian(phi, s, t)
    return a, d, np.sqrt(s) * np.sqrt(t) * np.abs(phi_st)


# -- gluing -----------------------------------------------------------------


def orbit_samples(radius: float, n: int, inner: float = 0.0):
    """One sample per torus orbit (s, t) = (|z|^2, |w|^2) of the n^4 cubic
    grid of [-radius, radius]^4 with inner <= sqrt(s + t) <= radius, each the
    first grid point of its orbit, in grid order, as an (N, 4) array.

    An orbit is a pair of circles of the plane grid (taming.circles), each
    at its first point; the pairs run head-major, which is grid order.  The
    region is decided per orbit, so an orbit lies in it or outside it as a
    whole.
    """
    plane = circles(linspace(-radius, radius, n))
    r2, first = np.array(list(plane)), np.array(list(plane.values()))
    r = np.sqrt(r2[:, None] + r2)
    heads, tails = np.nonzero((inner <= r) & (r <= radius))
    out = np.empty((len(heads), 4))
    out[:, :2], out[:, 2:] = first[heads], first[tails]
    return out


def _certificate(phi, samples, region: str = "", grid: str = "") -> TamenessCertificate:
    """The certificate of the form of phi over orbit samples, from its
    taming data."""
    quot = blockwise(lambda q: quotients(*_taming_data(phi, q)), samples)
    return _certify(samples, quot, region, grid)


class GluingProblem(namedtuple("GluingProblem", "eps1 eps2 eps3 phi1 rho description",
                               defaults=("",))):
    """Radii 0 < eps1 < eps2 < eps3; phi1 the potential of omega1 as a
    function of (s, t) = (|z|^2, |w|^2), written over arrays or jets; rho a
    RadialProfile, the cutoff in r: 1 below eps2, 0 above eps3."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.eps1 < self.eps2 < self.eps3:
            raise ValueError("need 0 < eps1 < eps2 < eps3")
        return self

    @property
    def omega1(self):
        return invariant_potential_form(self.phi1)


def _cutoff_potential(rho):
    """G(R) with G'(R) = rho(sqrt R), over a jet R: (i/2) ddbar G(|p|^2) is
    d(rho(r) beta) for the primitive beta = (1/4) d^c |p|^2 of the flat form.
    G'' = rho'(r) / 2r is formed directly, not by the chain rule through
    sqrt R, whose two rho / 2R terms would cancel; it is 0 where rho' is,
    so r = 0 gives no 0/0.  No form reads G's value, which is NaN, as it is
    over arrays: the glued potential has no plausible wrong value."""
    def G(R):
        if not isinstance(R, Jet):
            return np.full(np.shape(R), np.nan)
        r = np.sqrt(R.value)
        j = rho.jet(r)
        d1 = j.grad[0]
        d2 = np.divide(d1, 2.0 * r, out=np.zeros_like(r), where=d1 != 0)
        return R.apply(np.full_like(r, np.nan), j.value, d2)
    return G


def glue_forms(problem: GluingProblem, grid_n: int = 15):
    """Glue omega1 (vanishing near 0) to a multiple of the flat form near 0:
    omega_delta = omega1 + delta * d(rho beta), the form of the potential
    phi1(s, t) + delta G(s + t) (see _cutoff_potential), with delta chosen
    from the sampled positivity constant C of omega1 on the outer annulus
    and the sampled sup-norm |rho'(r)| r / 2 of d(rho) ^ beta: beta is
    normal to the radius, with |beta| = r / 2.

    Every check runs on one sample per torus orbit of its ball or annulus
    (orbit_samples), from the taming data of its potential: every form here
    is a potential form in (s, t), and r = sqrt(s + t).

    Returns (delta, glued evaluator, certificate over the eps3-ball).
    """
    e1, e2, e3 = problem.eps1, problem.eps2, problem.eps3
    phi1, rho = problem.phi1, problem.rho

    def frobenius(q):
        # the Frobenius norm of omega1 is constant on orbits, as is the
        # taming quotient; the largest entry of a form is not
        a, d, b = _taming_data(phi1, q)
        return np.sqrt(2.0 * (a * a + d * d + 2.0 * (b * b)))

    inner = orbit_samples(e1 * 0.999, grid_n)
    norm = blockwise(frobenius, inner)
    if norm.size and not float(np.max(norm)) <= GLUING_TOL:
        idx = int(np.argmax(norm))
        raise PreconditionFailure(
            "omega1 does not vanish on the inner ball",
            worst_sample=tuple(inner[idx].tolist()), value=float(norm[idx]),
        )
    mid_pts = orbit_samples(e2, grid_n, inner=e1)
    outer_pts = orbit_samples(e3, grid_n, inner=e2 * (1 + 1e-9))
    if not (len(mid_pts) and len(outer_pts)):
        raise ValueError(f"a {grid_n}^4 grid has no sample on an annulus; use a finer grid")
    mid = _certificate(phi1, mid_pts)
    if not mid.min_quotient >= -GLUING_TOL:
        raise PreconditionFailure("omega1 not semipositive on the middle annulus",
                                  worst_sample=mid.worst_sample, value=mid.min_quotient)
    outer = _certificate(phi1, outer_pts)
    del inner, mid_pts, outer_pts  # one region's samples alive at a time from here
    C = outer.min_quotient
    if not C > 0:
        raise PreconditionFailure("omega1 not positive outside eps2",
                                  worst_sample=outer.worst_sample, value=C)

    def dr_beta_norm(q):
        r = np.sqrt(np.add(*_radii(q)))
        return np.abs(rho.jet(r).grad[0]) * r / 2.0

    ball = orbit_samples(e3, grid_n, inner=1e-6)
    delta = C / (2.0 * (float(np.max(blockwise(dr_beta_norm, ball))) + 1.0))

    G = _cutoff_potential(rho)

    def glued_phi(s, t):
        return phi1(s, t) + delta * G(s + t)

    cert = _certificate(glued_phi, ball, region=f"ball radius {e3}",
                        grid=f"{grid_n}^4 cubic grid")
    return delta, invariant_potential_form(glued_phi), cert
