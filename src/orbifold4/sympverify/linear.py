"""Linear symplectic algebra on R^4 = C^2: the real avatars of exact unitaries.

Complex coordinates (z, w) correspond to real coordinates (x1, y1, x2, y2).
OMEGA0 is the matrix of the standard symplectic form dx1^dy1 + dx2^dy2 and
J0 the standard complex structure in these coordinates.
"""

from __future__ import annotations

import numpy as np

from .jet import Jet

OMEGA0 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

J0 = -OMEGA0  # multiplication by i in (x1,y1,x2,y2) coordinates


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


def realify(u) -> np.ndarray:
    """The real matrix acting on (x1,y1,x2,y2) of a (..., 2, 2) complex array
    (of an exact UMat2, its `to_complex()`): entry a + ib becomes the block
    [[a, -b], [b, a]]."""
    c = np.asarray(u, dtype=complex)
    out = np.empty(c.shape[:-2] + (4, 4))
    out[..., 0::2, 0::2] = out[..., 1::2, 1::2] = c.real
    out[..., 1::2, 0::2] = c.imag
    out[..., 0::2, 1::2] = -c.imag
    return out


def holomorphic_map(f, points):
    """Image points and real Jacobians of the holomorphic map (z, w) -> f(z, w)
    of C^2, with f written once over two complex jets."""
    p = np.asarray(points, dtype=float)
    image = f(Jet.variable(p[..., 0] + 1j * p[..., 1], 0, 2),
              Jet.variable(p[..., 2] + 1j * p[..., 3], 1, 2))
    values = np.stack([c.value for c in image], axis=-1)
    out = np.empty(p.shape)
    out[..., 0::2], out[..., 1::2] = values.real, values.imag
    # d image_i / d variable_j on the last two axes
    jac = np.moveaxis(np.array([c.grad for c in image]), (0, 1), (-2, -1))
    return out, realify(jac)


def pullback(jac, form):
    """J^T omega J: the pullback of the 2-form matrices along the Jacobians."""
    return np.swapaxes(jac, -1, -2) @ form @ jac
