"""Kähler forms of invariant potentials, tameness certification over arrays
of 4x4 forms, and the gluing.

Potentials F are scalar fields on R^4 = C^2, vectorized over point arrays of
shape (..., 4).  2-forms are antisymmetric 4x4 coefficient matrices in the
real coordinates (x1, y1, x2, y2), with complex coordinates z = x1 + i y1,
w = x2 + i y2.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .jet import Jet
from .linear import J0, antisymmetric
from .taming import TAMENESS_TOL, WORST_SAMPLE_RTOL, TamenessCertificate

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


def taming_quotients(forms, acs):
    """Smallest eigenvalue of S = (1/2)(Omega J + (Omega J)^T) per sample, in
    closed form, for an antisymmetric Omega and an orthogonal almost-complex
    structure J (J^2 = -I and J^T = -J, as J0 is).

    For such a J, (Omega J)^T = J Omega, so S = (1/2)(Omega J + J Omega)
    commutes with J.  In a unitary frame (e1, J e1, f, J f), with e1 the
    first coordinate vector, S is then the realification of a Hermitian 2x2
    matrix [[alpha, beta], [conj(beta), delta]], and each of its two
    eigenvalues appears twice:

        alpha = S00,   delta = (S11 - S00)/2 + (S22 + S33)/2,
        |beta|^2 = |S e1|^2 - alpha^2 - (J e1 . S e1)^2 = S10^2 + S20^2 + S30^2,

    where delta is tr S / 2 - alpha and (J e1 . S e1) vanishes because J S
    is antisymmetric.  For J0, S11 = S00 = Omega01 and S22 = S33 = Omega23,
    so alpha and delta are each read off their own entry of Omega, exactly.
    The larger eigenvalue (alpha + delta)/2 + hypot((alpha - delta)/2, |beta|)
    has no cancellation when alpha + delta > 0, and the smaller is then
    (alpha delta - |beta|^2) / lambda_max, the determinant over the larger
    eigenvalue; (alpha + delta)/2 - hypot(...) would lose the digits of a
    small eigenvalue next to a large one.  When alpha + delta <= 0 the
    difference itself has no cancellation.

    Only the diagonal, the first row and the first column of Omega J are
    read, each entry as (Omega J)_ab = sum of Omega_ak J_kb over the k with
    J_kb != 0: for J0 a single entry of Omega, up to sign.  Neither Omega J
    nor S is formed.  alpha, delta and |beta| (a nested hypot) are divided by
    the power of two just above their largest magnitude before any product,
    so forms with entries near the largest double give a finite result, and
    a sample with a non-finite one gives NaN, which is never tame.  For
    a J that is not orthogonal S need not commute with J, its spectrum need
    not pair up and the formula is wrong; tameness_min refuses such a J.
    acs is one constant 4x4 matrix.
    """
    acs = np.asarray(acs, dtype=float)
    if acs.shape != (4, 4):
        raise NotAlmostComplexError(f"J must be one 4x4 matrix, not of shape {acs.shape}")
    forms = np.asarray(forms, dtype=float)

    def oj(a, b):
        terms = [forms[..., a, k] * acs[k, b] for k in np.flatnonzero(acs[:, b])]
        return sum(terms[1:], terms[0]) if terms else np.zeros(forms.shape[:-2])

    d0, d1, d2, d3 = (oj(i, i) for i in range(4))
    beta1, beta2, beta3 = (0.5 * oj(i, 0) + 0.5 * oj(0, i) for i in (1, 2, 3))
    alpha, delta = d0, (0.5 * d1 - 0.5 * d0) + (0.5 * d2 + 0.5 * d3)
    beta = np.hypot(np.hypot(beta1, beta2), beta3)
    top = np.maximum(np.maximum(np.abs(alpha), np.abs(delta)), beta)
    finite, exp = np.isfinite(top), np.frexp(top)[1]
    a, d, b = (np.where(finite, np.ldexp(x, -exp), 0.0) for x in (alpha, delta, beta))
    half_sum, radius = 0.5 * a + 0.5 * d, np.hypot(0.5 * a - 0.5 * d, b)
    positive = half_sum > 0
    lam_max = np.where(positive, half_sum + radius, 1.0)
    lam_min = np.where(positive, (a * d - b * b) / lam_max, half_sum - radius)
    return np.where(finite, np.ldexp(lam_min, exp), np.nan)


def tameness_min(form_eval, acs, points, region: str = "", grid: str = "",
                 tol: float = TAMENESS_TOL) -> TamenessCertificate:
    """Certify min over samples of the taming quotient omega(u, Ju)/|u|^2 for
    one constant almost-complex structure J (a 4x4 matrix, J0 for every model
    here), evaluated CHUNK samples at a time.  The commands pass one sample
    per torus orbit of their grid (see orbit_grid), and the certificate
    counts the samples as its orbits.  J^2 = -I and J^T = -J are checked
    once, before any form is evaluated: taming_quotients holds for an
    orthogonal J only, and a non-finite J fails both checks.

    min_quotient is the true minimum.  worst_sample is the first sample in
    grid order whose quotient is <= min + WORST_SAMPLE_RTOL * max(1, |min|).
    """
    acs = np.asarray(acs, dtype=float)
    if acs.shape != (4, 4):
        raise NotAlmostComplexError(f"J must be one 4x4 matrix, not of shape {acs.shape}")
    if not float(np.max(np.abs(acs @ acs + np.eye(4)))) <= 1e-8:
        raise NotAlmostComplexError("J^2 != -I")
    if not float(np.max(np.abs(acs + acs.T))) <= 1e-8:
        raise NotAlmostComplexError("J^T != -J")
    p = np.asarray(points, dtype=float).reshape(-1, 4)
    quot = blockwise(lambda q: taming_quotients(form_eval(q), acs), p)
    idx = int(np.argmin(quot))
    mq = float(quot[idx])
    if np.isfinite(mq):
        idx = int(np.argmax(quot <= mq + WORST_SAMPLE_RTOL * max(1.0, abs(mq))))
    return TamenessCertificate(region, grid, mq, mq > tol, tuple(p[idx].tolist()), len(p))


def invariant_potential_form(phi):
    """(i/2) ddbar of phi(s, t), s = |z|^2, t = |w|^2, phi written over arrays or jets.

    The jet of phi in (s, t) gives the complex Hessian c00 = phi_s + s phi_ss,
    c01 = zbar w phi_st, c11 = phi_t + t phi_tt.  The evaluator's `potential`
    attribute evaluates phi itself, for finite-difference cross-checks.
    """

    def omega(points):
        p = np.asarray(points, dtype=float)
        s, t = _radii(p)
        j = phi(Jet.variable(s, 0, 2), Jet.variable(t, 1, 2))
        c = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
        c[..., 0, 0] = j.grad[0] + s * j.hess[0, 0]
        c[..., 0, 1] = (p[..., 0] - 1j * p[..., 1]) * (p[..., 2] + 1j * p[..., 3]) * j.hess[0, 1]
        c[..., 1, 0] = np.conj(c[..., 0, 1])
        c[..., 1, 1] = j.grad[1] + t * j.hess[1, 1]
        return form_from_hermitian(c)

    def potential(points):
        return phi(*_radii(np.asarray(points, dtype=float)))

    omega.potential = potential
    return omega


def _radii(p):
    return p[..., 0] ** 2 + p[..., 1] ** 2, p[..., 2] ** 2 + p[..., 3] ** 2


def cube_grid(*axes):
    """The product grid of the axes as an (N, len(axes)) array of points, in
    the order of np.meshgrid(*axes, indexing="ij"), filled in place."""
    out = np.empty(tuple(len(a) for a in axes) + (len(axes),))
    for i, a in enumerate(axes):
        out[..., i] = np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - i))
    return out.reshape(-1, len(axes))


def plane(axis):
    """The ij grid of one axis in a coordinate plane, as (n*n, 2) points, and
    the squared radius x*x + y*y of each point."""
    pts = cube_grid(axis, axis)
    return pts, pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]


def first_of_each(values):
    """Ascending indices of the first occurrence of each distinct value: over
    the squared radii of a plane grid, the first grid point on each circle."""
    return np.sort(np.unique(values, return_index=True)[1])


def orbit_grid(heads, tails, inside=None):
    """One sample per torus orbit of a region of a 4-D product grid, each the
    first grid point of its orbit, in grid order.

    The grid is the product of a grid of the (x0, x1) plane and a grid of the
    (x2, x3) plane, in grid order by the (x0, x1) point first.  heads are
    (A, 2) points of the first plane in grid order, each the first point of
    its orbit there; tails are (B, 2) points of the second plane in grid
    order, whose orbits are the circles t = x2^2 + x3^2.  The region is the
    (head, tail) pairs with inside(s, x2, x3), where s = x0^2 + x1^2 of a
    block of heads comes as a column and the tails' coordinates as (B,)
    rows; without inside it is every pair.  inside depends on a head only
    through s, so it decides alike for every point of a head's orbit; for a
    given s it may decide differently for tails on one circle, and a circle
    keeps its first tail that lies inside.  A form invariant under the torus
    takes each of its values on the region at one of the samples.
    """
    t = tails[:, 0] * tails[:, 0] + tails[:, 1] * tails[:, 1]
    if inside is None:
        circles = tails[first_of_each(t)]
        out = np.empty((len(heads), len(circles), 4))
        out[..., :2], out[..., 2:] = heads[:, None], circles
        return out.reshape(-1, 4)
    circle = np.unique(t, return_inverse=True)[1]
    order = np.argsort(circle, kind="stable")
    starts = np.flatnonzero(np.diff(circle[order], prepend=-1))
    # per head, the least tail index inside the region on each circle (n
    # where none is): a minimum over each circle's run of columns, decided
    # for one block of heads at a time
    n = len(tails)
    x2, x3, index = tails[order, 0], tails[order, 1], np.arange(n)[order]
    step = max(1, CHUNK // max(n, 1))
    first = np.empty((len(heads), len(starts)), dtype=index.dtype)
    for i in range(0, len(heads), step):
        h = heads[i:i + step]
        s = h[:, :1] * h[:, :1] + h[:, 1:] * h[:, 1:]
        first[i:i + step] = np.minimum.reduceat(np.where(inside(s, x2, x3), index, n),
                                                starts, axis=1)
    first.sort(axis=1)
    rows, k = np.nonzero(first < n)
    out = np.empty((len(rows), 4))
    out[:, :2], out[:, 2:] = heads[rows], tails[first[rows, k]]
    return out


# -- gluing -----------------------------------------------------------------


def _in_ball(radius: float, inner: float):
    """Whether r lies in [inner, radius], from s = x0^2 + x1^2, x2 and x3,
    with r = sqrt(((x0^2 + x1^2) + x2^2) + x3^2) in the order of operations
    of np.linalg.norm."""
    def inside(s, x2, x3):
        r = np.sqrt((s + x2 * x2) + x3 * x3)
        return (r <= radius) & (r >= inner)
    return inside


def ball_orbits(radius: float, n: int, inner: float = 0.0):
    """The points of the n^4 cubic grid of [-radius, radius]^4 with
    inner <= r <= radius, one per (|z|^2, |w|^2) orbit (see orbit_grid); a
    grid point is kept exactly when np.linalg.norm puts it in that range."""
    pts, s = plane(np.linspace(-radius, radius, n))
    return orbit_grid(pts[first_of_each(s)], pts, _in_ball(radius, inner))


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
    (ball_orbits), as every form here is a potential form in (s, t).

    Returns (delta, glued evaluator, certificate over the eps3-ball).
    """
    e1, e2, e3 = problem.eps1, problem.eps2, problem.eps3
    omega1 = problem.omega1

    # the Frobenius norm and the taming quotient are constant on orbits;
    # the largest entry of a form is not
    inner_pts = ball_orbits(e1 * 0.999, grid_n)
    w1_inner = blockwise(lambda q: np.linalg.norm(omega1(q), axis=(-2, -1)), inner_pts)
    if w1_inner.size and float(np.max(w1_inner)) > GLUING_TOL:
        idx = int(np.argmax(w1_inner))
        raise PreconditionFailure(
            "omega1 does not vanish on the inner ball",
            worst_sample=tuple(inner_pts[idx].tolist()), value=float(w1_inner[idx]),
        )
    mid_pts = ball_orbits(e2, grid_n, inner=e1)
    outer_pts = ball_orbits(e3, grid_n, inner=e2 * (1 + 1e-9))
    if not (len(mid_pts) and len(outer_pts)):
        raise ValueError(f"a {grid_n}^4 grid has no sample on an annulus; use a finer grid")
    mid = tameness_min(omega1, J0, mid_pts)
    if mid.min_quotient < -GLUING_TOL:
        raise PreconditionFailure("omega1 not semipositive on the middle annulus",
                                  worst_sample=mid.worst_sample, value=mid.min_quotient)
    outer = tameness_min(omega1, J0, outer_pts)
    C = outer.min_quotient
    if C <= 0:
        raise PreconditionFailure("omega1 not positive outside eps2",
                                  worst_sample=outer.worst_sample, value=C)

    ball = ball_orbits(e3, grid_n, inner=1e-6)
    r = np.linalg.norm(ball, axis=-1)
    norm = float(np.max(np.abs(problem.rho.jet(r).grad[0]) * r / 2.0))
    delta = C / (2.0 * (norm + 1.0))

    G, phi1 = _cutoff_potential(problem.rho), problem.phi1
    glued = invariant_potential_form(lambda s, t: phi1(s, t) + delta * G(s + t))
    cert = tameness_min(
        glued, J0, ball,
        region=f"ball radius {e3}", grid=f"{grid_n}^4 cubic grid",
    )
    return delta, glued, cert
