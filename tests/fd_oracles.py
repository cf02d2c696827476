"""Reference implementations for the tests, the independent cross-checks
of orbifold4.sympverify: forms over numpy arrays as antisymmetric 4x4
matrices (`antisymmetric`, `pack`, the local model's `eval_omega_a`), their
taming quotients and certificate (`taming_quotients`, `tameness_min`), the
reference for the certificates' taming data in floats; the
automatic-differentiation oracle, a jet in n variables over numpy arrays
(`ArrayJet`) and the Kähler forms (i/2) ddbar of potentials in (|z|^2,
|w|^2) read off it (`invariant_potential_form`, `form_from_hermitian`), the
reference for the complex Hessians that the local model, the gluing and
the blow-up write by hand; the complex Hessian
of a potential and its Kähler form by central differences, and the exterior
derivative of a form by central differences; the exact taming quotient of a
form's entries; the primitive beta of the flat form and d(rho(r) beta) from
their explicit formulas; the product grid of axes and the full 4-D ball
grid; the gluing over numpy arrays (its orbit samples, the taming data of
its potentials off array jets, and delta and the certificate from them),
the reference for forms.glue_forms' float arithmetic; the smoothstep
profiles composed from clip, the reference for jet.smoothstep_rule; and the
blow-up chart model over numpy arrays (its potential written over array
jets and its 4-D chart grid), the reference for blowup's float arithmetic;
and the standard symplectic form OMEGA0, complex structure J0 and
realification of R^4 = C^2, with the complex matrix of an exact UMat2.
Last, the writers no command needs: the complex embedding of a cyclotomic
scalar (`to_complex`), and the JSON of a scalar, a matrix, a polynomial and
a spec in the documented file formats, with the polynomial's reader."""

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from orbifold4.sympverify.blowup import CHART
from orbifold4.sympverify.forms import GLUING_TOL, PreconditionFailure
from orbifold4.sympverify.jet import Jet, log1p_rule
from orbifold4.sympverify.localmodel import model_form
from orbifold4.sympverify.profiles import RadialProfile
from orbifold4.sympverify.taming import certify, quotient

# complex coordinates (z, w) are real coordinates (x1, y1, x2, y2): OMEGA0 is
# the matrix of the standard symplectic form dx1^dy1 + dx2^dy2, and J0 that
# of multiplication by i
OMEGA0 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
J0 = -OMEGA0


def antisymmetric(w01, w02, w03, w12, w13, w23):
    """The antisymmetric (..., 4, 4) matrix with the given entries above the
    diagonal, which broadcast to the point shape.  Component-major: the view
    of a (4, 4, ...) buffer, so each entry is one contiguous array, written
    once, as is its negative below the diagonal and the zero diagonal."""
    upper = {(0, 1): w01, (0, 2): w02, (0, 3): w03, (1, 2): w12, (1, 3): w13, (2, 3): w23}
    buf = np.empty((4, 4) + np.broadcast_shapes(*(np.shape(w) for w in upper.values())))
    for (i, j), w in upper.items():
        buf[i, j] = w
        np.negative(buf[i, j], out=buf[j, i, ...])
    for i in range(4):
        buf[i, i] = 0.0
    return np.moveaxis(buf, (0, 1), (-2, -1))


def pack(form, points):
    """form at each of an array of points of shape (..., 4), as antisymmetric
    (..., 4, 4) matrices; form maps a point (x1, y1, x2, y2) of Python floats
    to its six entries above the diagonal, as the library's forms do."""
    p = np.asarray(points, dtype=float)
    entries = np.array([form(q) for q in p.reshape(-1, 4).tolist()])
    return antisymmetric(*entries.T.reshape((6,) + p.shape[:-1]))


def eval_omega_a(model, points, resolved: bool = False):
    """localmodel.model_form at each of an array of points of shape (..., 4)."""
    return pack(model_form(model, resolved), points)


def taming_quotients(forms):
    """Smallest eigenvalue of S = (1/2)(Omega J0 + (Omega J0)^T) per sample
    of a (..., 4, 4) array of antisymmetric forms Omega, in closed form.

    S commutes with J0, so in the unitary frame (e1, J0 e1, e3, J0 e3) it is
    the realification of the Hermitian block [[a, beta], [conj(beta), d]],
    and each of its two eigenvalues appears twice:

        a = Omega01,   d = Omega23,
        |beta| = hypot((Omega21 + Omega03)/2, (Omega31 - Omega02)/2),

    whose smaller eigenvalue taming.quotient takes, sample by sample.
    Neither Omega J0 nor S is formed, and no eigensolver runs."""
    f = np.asarray(forms, dtype=float)
    b = np.hypot(0.5 * f[..., 2, 1] + 0.5 * f[..., 0, 3], 0.5 * f[..., 3, 1] - 0.5 * f[..., 0, 2])
    a, d = f[..., 0, 1], f[..., 2, 3]
    return np.fromiter(map(quotient, a.ravel().tolist(), d.ravel().tolist(), b.ravel().tolist()),
                       float, count=b.size).reshape(b.shape)


def tameness_min(form_eval, points, region: str = "", grid: str = ""):
    """The certificate (taming.certify) of the taming quotients of the forms
    form_eval gives at an (N, 4) array of samples, evaluated once over the
    whole array: the reference over 4x4 forms for the library's
    certificates, which read taming data."""
    p = np.asarray(points, dtype=float).reshape(-1, 4)
    return certify(zip(p.tolist(), taming_quotients(form_eval(p)).tolist()), region, grid)


class ArrayJet(Jet):
    """A second-order jet in n variables over numpy arrays: value (...),
    grad (n, ...) and hess (n, n, ...); plain numbers and arrays act as
    constants.  A Jet, so a profile called on it composes the profile's own
    one-variable jet at its value through this apply, which takes the outer
    product of the gradients."""

    @classmethod
    def variable(cls, value, i: int = 0, n: int = 1) -> "ArrayJet":
        """The i-th of n independent variables, at the given real values."""
        value = np.asarray(value, dtype=float)
        grad = np.zeros((n,) + value.shape)
        grad[i] = 1.0
        return cls(value, grad, np.zeros((n, n) + value.shape))

    def apply(self, f0, f1, f2) -> "ArrayJet":
        g = self.grad
        return ArrayJet(f0, f1 * g, f2 * (g[:, None] * g[None]) + f1 * self.hess)

    def __add__(self, o):
        if isinstance(o, Jet):
            return ArrayJet(self.value + o.value, self.grad + o.grad, self.hess + o.hess)
        return ArrayJet(self.value + o, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return ArrayJet(-self.value, -self.grad, -self.hess)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return ArrayJet(self.value * o, self.grad * o, self.hess * o)
        g, h = self.grad, o.grad
        cross = g[:, None] * h[None]
        return ArrayJet(self.value * o.value, g * o.value + self.value * h,
                        self.hess * o.value + cross + cross.swapaxes(0, 1)
                        + self.value * o.hess)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            return self * o ** -1
        return ArrayJet(self.value / o, self.grad / o, self.hess / o)


def log1p(x):
    """log1p over plain arrays or jets, its derivatives by jet.log1p_rule."""
    if not isinstance(x, Jet):
        return np.log1p(x)
    return x.apply(np.log1p(x.value), *log1p_rule(x.value))


def form_from_hermitian(coeff):
    """Real matrix of (i/2) sum coeff_ij dz_i ^ dzbar_j, from Re and Im of coeff."""
    c = np.asarray(coeff, dtype=complex)
    re, im = c.real, c.imag
    w03 = 0.5 * (re[..., 0, 1] + re[..., 1, 0])
    w02 = 0.5 * (im[..., 1, 0] - im[..., 0, 1])
    return antisymmetric(re[..., 0, 0], w02, w03, -w03, w02, re[..., 1, 1])


def _complex_hessian(phi, s, t):
    """c00 = phi_s + s phi_ss, c11 = phi_t + t phi_tt and phi_st at arrays
    s = |z|^2 and t = |w|^2, off one jet of phi in (s, t): the complex
    Hessian of phi(|z|^2, |w|^2) is [[c00, zbar w phi_st], [z wbar phi_st, c11]]."""
    j = phi(ArrayJet.variable(s, 0, 2), ArrayJet.variable(t, 1, 2))
    return j.grad[0] + s * j.hess[0, 0], j.grad[1] + t * j.hess[1, 1], j.hess[0, 1]


def invariant_potential_form(phi):
    """(i/2) ddbar of phi(s, t), s = |z|^2, t = |w|^2, phi written over arrays
    or jets, as (..., 4, 4) forms (see _complex_hessian)."""
    def omega(points):
        p = np.asarray(points, dtype=float)
        s, t = p[..., 0] ** 2 + p[..., 1] ** 2, p[..., 2] ** 2 + p[..., 3] ** 2
        c00, c11, phi_st = _complex_hessian(phi, s, t)
        c = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
        c[..., 0, 0], c[..., 1, 1] = c00, c11
        c[..., 0, 1] = (p[..., 0] - 1j * p[..., 1]) * (p[..., 2] + 1j * p[..., 3]) * phi_st
        c[..., 1, 0] = np.conj(c[..., 0, 1])
        return form_from_hermitian(c)
    return omega


def phi1(problem):
    """The potential h(s + g(t)) of a gluing problem's omega1, over arrays or
    array jets."""
    h, g = problem.h, problem.g
    return lambda s, t: h(s + g(t))


def omega1(problem):
    """A gluing problem's omega1 off the array jet of phi1, as (..., 4, 4) forms."""
    return invariant_potential_form(phi1(problem))


def complex_matrix(g):
    """The 2x2 complex matrix of an exact UMat2, entry by entry."""
    return np.array([[to_complex(e) for e in row] for row in g.entries])


def realify(c):
    """The real 4x4 matrix acting on (x1, y1, x2, y2) of a 2x2 complex
    matrix: entry a + ib becomes the block [[a, -b], [b, a]]."""
    return np.block([[np.array([[z.real, -z.imag], [z.imag, z.real]]) for z in row]
                     for row in np.asarray(c, dtype=complex)])


def _shift(points, i, h):
    p = np.array(points, dtype=float)
    p[..., i] += h
    return p


def _central_differences(fn, p, h):
    """(fn(p + h e_i) - fn(p - h e_i)) / 2h for the four axes i, stacked on a
    new axis after the point axes of p."""
    return np.stack([(np.asarray(fn(_shift(p, i, h)), float)
                      - np.asarray(fn(_shift(p, i, -h)), float)) / (2.0 * h)
                     for i in range(4)], axis=p.ndim - 1)


def exterior_derivative_fd(form_eval, points, h: float = 1e-3) -> float:
    """Max component of the finite-difference exterior derivative d(omega)."""
    grad = _central_differences(form_eval, np.asarray(points, dtype=float), h)  # d/dx_i of M[k,l]
    k, l, n = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T  # k < l < n
    res = grad[..., k, l, n] - grad[..., l, k, n] + grad[..., n, k, l]
    return float(np.max(np.abs(res)))


def complex_hessian_fd(F, points, h: float = 1e-3):
    """The 2x2 matrix of d^2 F / dz_i dzbar_j by central differences."""
    p = np.asarray(points, dtype=float)
    f0 = np.asarray(F(p), dtype=float)
    d2 = np.zeros(p.shape[:-1] + (4, 4))
    for i in range(4):
        d2[..., i, i] = (F(_shift(p, i, h)) - 2.0 * f0 + F(_shift(p, i, -h))) / (h * h)
        for j in range(i + 1, 4):
            val = (
                F(_shift(_shift(p, i, h), j, h))
                - F(_shift(_shift(p, i, h), j, -h))
                - F(_shift(_shift(p, i, -h), j, h))
                + F(_shift(_shift(p, i, -h), j, -h))
            ) / (4.0 * h * h)
            d2[..., i, j] = d2[..., j, i] = val
    x, y = slice(0, 4, 2), slice(1, 4, 2)
    return 0.25 * (d2[..., x, x] + d2[..., y, y] + 1.0j * (d2[..., x, y] - d2[..., y, x]))


def ddbar_fd(F, points, h: float = 1e-3):
    """(i/2) ddbar F assembled from mixed complex second differences."""
    return form_from_hermitian(complex_hessian_fd(F, points, h))


def exact_taming_quotient(w) -> Decimal:
    """The smaller eigenvalue of [[alpha, beta], [conj(beta), delta]] for J0,
    from the entries of the 4x4 form w read as exact rationals, to 40 digits."""
    e = {(i, j): Fraction(float(w[i, j])) for i in range(4) for j in range(i + 1, 4)}
    trace = e[0, 1] + e[2, 3]
    det = e[0, 1] * e[2, 3] - ((e[0, 2] + e[1, 3]) ** 2 + (e[0, 3] - e[1, 2]) ** 2) / 4
    with localcontext() as ctx:
        ctx.prec = 40
        dec = [Decimal(q.numerator) / Decimal(q.denominator) for q in (trace, det)]
        root = (dec[0] * dec[0] - 4 * dec[1]).sqrt()
        return 2 * dec[1] / (dec[0] + root) if dec[0] > 0 else (dec[0] - root) / 2


def cube_grid(*axes):
    """The product grid of the axes as an (N, len(axes)) array of points, in
    the order of np.meshgrid(*axes, indexing="ij"), filled in place."""
    out = np.empty(tuple(len(a) for a in axes) + (len(axes),))
    for i, a in enumerate(axes):
        out[..., i] = np.reshape(a, (-1,) + (1,) * (len(axes) - 1 - i))
    return out.reshape(-1, len(axes))


def plane_circles(half: float, n: int):
    """The plane grid linspace(-half, half, n)^2 as (n^2, 2) points in grid
    order, and the index into it of the first point of each point's circle.
    A circle is told apart by its exact integer radius round(x (n - 1)/half)^2
    + round(y (n - 1)/half)^2, since the axis holds x_i = half (2i - n + 1)/
    (n - 1), so two copies of one circle whose x^2 + y^2 differ by rounding
    share their first point."""
    axis = np.linspace(-half, half, n)
    plane = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    index = np.rint(plane * ((n - 1) / half)).astype(np.int64)
    _, at, inverse = np.unique((index * index).sum(axis=1), return_index=True,
                               return_inverse=True)
    return plane, at[inverse.ravel()]


def _first_squares(half: float, n: int):
    """x^2 + y^2 at the first point of each point's circle, over the plane
    grid of plane_circles in grid order: the orbit coordinate the walk reads."""
    plane, first = plane_circles(half, n)
    return (plane[:, 0] * plane[:, 0] + plane[:, 1] * plane[:, 1])[first]


def ball_grid(radius: float, n: int, inner: float = 0.0):
    """The points of the n^4 cubic grid of [-radius, radius]^4 whose torus
    orbit (s, t) = (|z|^2, |w|^2), read at the first grid point of each
    circle, has inner <= sqrt(s + t) <= radius, as (N, 4) points in grid
    order: the orbit rule of OrbitRegion.walk, so whole orbits are kept."""
    axis = np.linspace(-radius, radius, n)
    pts = cube_grid(axis, axis, axis, axis)
    # the point of plane indices (p, q) is pts[p n^2 + q]; no (N, 4) array of
    # squares is built
    s = _first_squares(radius, n)
    r = np.add.outer(s, s).ravel()
    np.sqrt(r, out=r)
    return pts[(inner <= r) & (r <= radius)]


def standard_primitive(points):
    """beta = (1/2)(x1 dy1 - y1 dx1 + x2 dy2 - y2 dx2); d(beta) is the flat form."""
    p = np.asarray(points, dtype=float)
    return 0.5 * np.stack([-p[..., 1], p[..., 0], -p[..., 3], p[..., 2]], axis=-1)


def flat_form(points):
    p = np.asarray(points, dtype=float)
    return np.broadcast_to(OMEGA0, p.shape[:-1] + (4, 4)).copy()


def dbeta_residual(beta, omega, points, h: float = 1e-4) -> float:
    """Max entry of d(beta) - omega, d(beta) by central differences."""
    p = np.asarray(points, dtype=float)
    grad = _central_differences(beta, p, h)
    return float(np.max(np.abs(grad - np.swapaxes(grad, -1, -2) - omega(p))))


def dr_beta(rho, points):
    """The matrix of rho'(r) dr ^ beta for beta = standard_primitive."""
    p = np.asarray(points, dtype=float)
    r = np.linalg.norm(p, axis=-1)
    n, b = p / np.maximum(r, 1e-300)[..., None], standard_primitive(p)
    return rho.jet(r).grad[..., None, None] * antisymmetric(
        *(n[..., i] * b[..., j] - b[..., i] * n[..., j]
          for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))))


def d_rho_beta(rho, points):
    """The matrix of d(rho(r) beta) = rho'(r) dr ^ beta + rho(r) d(beta), with
    d(beta) the flat form."""
    p = np.asarray(points, dtype=float)
    r = np.linalg.norm(p, axis=-1)
    return dr_beta(rho, p) + rho.value(r)[..., None, None] * OMEGA0


def _chart_phi(m: int, lam: float):
    """The blow-up chart potential as a function of s = |u|^2 and t = |v|^2,
    over arrays or array jets."""
    return lambda s, t: t ** (1.0 / m) * (1.0 + s) + lam * log1p(s)


def numpy_chart_form(m: int, lam: float):
    """(i/2) ddbar of the chart potential, as (..., 4, 4) forms; valid for v != 0."""
    return invariant_potential_form(_chart_phi(m, lam))


def invariant_potential(phi):
    """The potential phi(|z|^2, |w|^2) as a scalar field over (..., 4) point
    arrays, the input of ddbar_fd."""
    def potential(points):
        p = np.asarray(points, dtype=float)
        return phi(p[..., 0] ** 2 + p[..., 1] ** 2, p[..., 2] ** 2 + p[..., 3] ** 2)
    return potential


def chart_potential(m: int, lam: float):
    return invariant_potential(_chart_phi(m, lam))


def zero_section_density(m: int, lam: float, rho):
    """The du^dubar coefficient of the form of the potential restricted to
    v = 0, at the points (rho, 0, 0, 0): t = 0.0 enters as a plain float."""
    phi = _chart_phi(m, lam)
    pts = np.zeros((len(rho), 4))
    pts[:, 0] = rho
    return invariant_potential_form(lambda s, t: phi(s, 0.0))(pts)[:, 0, 1]


def chart_grid(n: int):
    """The n^4 grid of blowup.CHART's squares whose v circle, read at its
    first grid point, has |v| >= its floor, as (N, 4) points in grid order."""
    ax_u = np.linspace(-CHART.head, CHART.head, n)
    ax_v = np.linspace(-CHART.tail, CHART.tail, n)
    pts = cube_grid(ax_u, ax_u, ax_v, ax_v)
    t = np.tile(_first_squares(CHART.tail, n), n * n)
    return pts[t >= CHART.tail_min ** 2]


def clip(x, lo: float, hi: float):
    """x clipped to [lo, hi], over arrays, array jets and float jets; use
    math.inf for a missing bound.  At the kinks a jet carries the right
    derivative."""
    if not isinstance(x, Jet):
        return np.clip(x, lo, hi)
    v = x.value
    if isinstance(v, float):
        return x.apply(min(max(v, lo), hi), float(lo <= v < hi), 0.0)
    return x.apply(np.clip(v, lo, hi), ((v >= lo) & (v < hi)) * 1.0, 0.0)


def composed_ramp(t0: float, t1: float) -> RadialProfile:
    """profiles.h_ramp composed from clip and the smoothstep's antiderivative
    s^4 (s^2 - 3s + 2.5), plus s - 1 above 1, on jets."""
    w = t1 - t0

    def integral(s):
        s_c = clip(s, 0.0, 1.0)
        return s_c ** 4 * (s_c * s_c - 3.0 * s_c + 2.5) + (clip(s, 1.0, math.inf) - 1.0)
    return RadialProfile(lambda t: w * integral((t - t0) / w))


def composed_bump(lo: float, hi: float) -> RadialProfile:
    """profiles.rho_bump composed from clip and the quintic smoothstep
    s^3 (6s^2 - 15s + 10), on jets."""
    w = hi - lo

    def smoothstep(s):
        s = clip(s, 0.0, 1.0)
        return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)
    return RadialProfile(lambda x: 1.0 - smoothstep((x - lo) / w))


def orbit_samples(radius: float, n: int, inner: float = 0.0):
    """One sample per torus orbit (s, t) = (|z|^2, |w|^2) of the n^4 cubic
    grid of [-radius, radius]^4 with inner <= sqrt(s + t) <= radius, each the
    first grid point of its orbit, in grid order, as an (N, 4) array: the
    pairs of circles of the plane grid, head-major, each circle x^2 + y^2 at
    the first point of the plane grid on it (plane_circles)."""
    plane, at = plane_circles(radius, n)
    first = plane[np.unique(at)]
    r2 = first[:, 0] * first[:, 0] + first[:, 1] * first[:, 1]
    r = np.sqrt(r2[:, None] + r2)
    heads, tails = np.nonzero((inner <= r) & (r <= radius))
    out = np.empty((len(heads), 4))
    out[:, :2], out[:, 2:] = first[heads], first[tails]
    return out


def orbit_taming_data(phi, points, delta: float = 0.0, rho=None):
    """(a, d, |b|) of the form of phi(s, t) at an (N, 4) array of samples,
    off one array jet of phi in (s, t): c00, c11 and |c01| = sqrt(s) sqrt(t)
    |phi_st|.  With a cutoff rho, those of phi + delta G(s + t), G'(R) =
    rho(sqrt R), from G's Hessian in closed form: delta (rho + s G'',
    rho + t G'', G'') added, with G'' = rho'(r) / 2r, 0 where rho' is."""
    s = points[:, 0] ** 2 + points[:, 1] ** 2
    t = points[:, 2] ** 2 + points[:, 3] ** 2
    j = phi(ArrayJet.variable(s, 0, 2), ArrayJet.variable(t, 1, 2))
    a, d, st = j.grad[0] + s * j.hess[0, 0], j.grad[1] + t * j.hess[1, 1], j.hess[0, 1]
    if rho is not None:
        r = np.sqrt(s + t)
        cut = rho.jet(r)
        g2 = np.divide(cut.grad, 2.0 * r, out=np.zeros_like(r), where=cut.grad != 0)
        a = a + delta * (cut.value + s * g2)
        d = d + delta * (cut.value + t * g2)
        st = st + delta * g2
    return a, d, np.sqrt(s) * np.sqrt(t) * np.abs(st)


def _orbit_certificate(phi, samples, delta=0.0, rho=None, **labels):
    quot = map(quotient, *(x.tolist() for x in orbit_taming_data(phi, samples, delta, rho)))
    return certify(zip(samples.tolist(), quot), **labels)


def glue_forms_oracle(problem, n: int):
    """(delta, certificate) of forms.glue_forms over numpy arrays, every
    region's orbit samples at once, raising where it raises."""
    e1, e2, e3 = problem.eps1, problem.eps2, problem.eps3
    phi, rho = phi1(problem), problem.rho
    inner = orbit_samples(e1 * 0.999, n)
    a, d, b = orbit_taming_data(phi, inner)
    norm = np.sqrt(2.0 * (a * a + d * d + 2.0 * (b * b)))
    if norm.size and not float(np.max(norm)) <= GLUING_TOL:
        idx = int(np.argmax(norm))
        raise PreconditionFailure("omega1 does not vanish on the inner ball",
                                  worst_sample=tuple(inner[idx].tolist()), value=float(norm[idx]))
    mid, outer = orbit_samples(e2, n, inner=e1), orbit_samples(e3, n, inner=e2 * (1 + 1e-9))
    if not (len(mid) and len(outer)):
        raise ValueError(f"a {n}^4 grid has no sample on an annulus; use a finer grid")
    cert = _orbit_certificate(phi, mid)
    if not cert.min_quotient >= -GLUING_TOL:
        raise PreconditionFailure("omega1 not semipositive on the middle annulus",
                                  worst_sample=cert.worst_sample, value=cert.min_quotient)
    cert = _orbit_certificate(phi, outer)
    C = cert.min_quotient
    if not C > 0:
        raise PreconditionFailure("omega1 not positive outside eps2",
                                  worst_sample=cert.worst_sample, value=C)
    ball = orbit_samples(e3, n, inner=1e-6)
    r = np.sqrt(ball[:, 0] ** 2 + ball[:, 1] ** 2 + (ball[:, 2] ** 2 + ball[:, 3] ** 2))
    delta = C / (2.0 * (float(np.max(np.abs(rho.jet(r).grad) * r / 2.0)) + 1.0))
    return delta, _orbit_certificate(phi, ball, delta, rho,
                                     region=f"ball {1e-6} <= |p| <= {e3}",
                                     grid=f"{n}^4 cubic grid")


# -- the exact half's complex embedding and JSON writers ---------------------


def to_complex(x) -> complex:
    """The complex value of a CyclotomicScalar, zeta_N = exp(2 pi i / N)."""
    z = 0j
    for k, c in enumerate(x.num):
        if c:
            z += (c / x.den) * cmath.exp(2j * cmath.pi * k / x.conductor)
    return z


def scalar_to_json(x) -> dict:
    """A scalar as {"conductor": N, "coeffs": [[num, den], ...]}, each
    coefficient in lowest terms."""
    gcds = [math.gcd(c, x.den) for c in x.num]
    return {"conductor": x.conductor,
            "coeffs": [[c // g, x.den // g] for c, g in zip(x.num, gcds)]}


def matrix_to_json(m) -> list:
    """A UMat2 as a 2x2 array of scalars, a generator of a group file."""
    return [[scalar_to_json(e) for e in row] for row in m.entries]


def poly_to_json(p) -> list:
    return [{"ze": a, "we": b, "coeff": scalar_to_json(c)}
            for (a, b), c in sorted(p.terms.items(), reverse=True)]


def poly_from_json(obj: list):
    from orbifold4.cyclotomic import CyclotomicScalar
    from orbifold4.invariants import Poly2

    return Poly2({(t["ze"], t["we"]): CyclotomicScalar.from_json(t["coeff"]) for t in obj})


def _group_to_json(g) -> dict:
    return {"conductor": g.conductor,
            "generators": [matrix_to_json(gen) for gen in g.generators]}


def spec_to_json(spec) -> dict:
    """An OrbifoldSpec in the spec file format, each group written out."""
    return {
        "name": spec.name,
        "base_betti": list(spec.base_betti),
        "betti_provenance": list(spec.betti_provenance),
        "isolated_points": [
            {"label": p.label, "group": _group_to_json(p.group)} for p in spec.isolated_points
        ],
        "surfaces": [
            {"label": s.label, "genus": s.genus, "m": s.m, "compact": s.compact}
            for s in spec.surfaces
        ],
        "corner_points": [
            {"label": c.label, "group": _group_to_json(c.group),
             "incident_surfaces": list(c.incident_surfaces)}
            for c in spec.corner_points
        ],
    }
