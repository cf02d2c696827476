"""Finite-difference oracles for the tests: the complex Hessian of a
potential and its Kähler form (i/2) ddbar F by central differences, the
independent cross-checks of the jet-based forms in orbifold4.sympverify."""

import numpy as np

from orbifold4.sympverify.forms import _shift, form_from_hermitian


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
