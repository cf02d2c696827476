"""Reference implementations for the tests, the independent cross-checks
of orbifold4.sympverify: the complex Hessian of a potential and its Kähler
form (i/2) ddbar F by central differences, and the exterior derivative of a
form by central differences; the exact taming quotient of a form's entries;
the primitive beta of the flat form and d(rho(r) beta) from their explicit
formulas; the product grid of axes and the full 4-D ball grid whose orbits
forms.orbit_samples samples; and the blow-up chart model over numpy arrays (its potential written over array
jets, its 4-D chart grid and its chart transition through
linear.holomorphic_map), the reference for blowup's float arithmetic."""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from orbifold4.sympverify.blowup import U_MAX, V_MAX, V_MIN
from orbifold4.sympverify.forms import form_from_hermitian, invariant_potential_form
from orbifold4.sympverify.jet import log1p
from orbifold4.sympverify.linear import OMEGA0, antisymmetric, holomorphic_map


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


def ball_grid(radius: float, n: int, inner: float = 0.0):
    """The points of the n^4 cubic grid of [-radius, radius]^4 whose torus
    orbit (s, t) = (|z|^2, |w|^2) has inner <= sqrt(s + t) <= radius, as
    (N, 4) points in grid order."""
    axis = np.linspace(-radius, radius, n)
    pts = cube_grid(axis, axis, axis, axis)
    # without np.linalg.norm's (N, 4) array of squares
    x = pts.T
    r = np.sqrt((x[0] * x[0] + x[1] * x[1]) + (x[2] * x[2] + x[3] * x[3]))
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
    return rho.jet(r).grad[0][..., None, None] * antisymmetric(
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


def chart_potential(m: int, lam: float):
    return numpy_chart_form(m, lam).potential


def zero_section_density(m: int, lam: float, rho):
    """The du^dubar coefficient of the form of the potential restricted to
    v = 0, at the points (rho, 0, 0, 0): t = 0.0 enters as a plain float."""
    phi = _chart_phi(m, lam)
    pts = np.zeros((len(rho), 4))
    pts[:, 0] = rho
    return invariant_potential_form(lambda s, t: phi(s, 0.0))(pts)[:, 0, 1]


def numpy_transition(points, m: int):
    """Chart-1 -> chart-2 coordinates and the real Jacobian of the map, over arrays."""
    return holomorphic_map(lambda u, v: (1 / u, u ** m * v), points)


def chart_grid(n: int):
    """The n^4 chart grid with |v| >= V_MIN, as (N, 4) points in grid order."""
    ax_u = np.linspace(-U_MAX, U_MAX, n)
    ax_v = np.linspace(-V_MAX, V_MAX, n)
    pts = cube_grid(ax_u, ax_u, ax_v, ax_v)
    t = pts[:, 2] ** 2 + pts[:, 3] ** 2
    return pts[t >= V_MIN ** 2]
