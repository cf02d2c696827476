"""Reference implementations for the tests, the independent cross-checks
of orbifold4.sympverify: the complex Hessian of a potential and its Kähler
form (i/2) ddbar F by central differences; the primitive beta of the flat
form and d(rho(r) beta) from their explicit formulas; and the full 4-D ball
grid whose orbits ball_orbits samples."""

import numpy as np

from orbifold4.sympverify.forms import (_central_differences, _in_ball, _shift, cube_grid,
                                        form_from_hermitian)
from orbifold4.sympverify.linear import OMEGA0, antisymmetric


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


def ball_grid(radius: float, n: int, inner: float = 0.0):
    """The points of the n^4 cubic grid of [-radius, radius]^4 with
    inner <= r <= radius, as (N, 4) points in grid order."""
    axis = np.linspace(-radius, radius, n)
    pts = cube_grid(axis, axis, axis, axis)
    # without np.linalg.norm's (N, 4) array of squares
    x = pts.T
    return pts[_in_ball(radius, inner)(x[0] * x[0] + x[1] * x[1], x[2], x[3])]


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
