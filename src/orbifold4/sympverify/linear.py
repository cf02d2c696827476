"""Linear symplectic algebra on R^4 = C^2: the real avatars of exact unitaries.

Complex coordinates (z, w) correspond to real coordinates (x1, y1, x2, y2).
OMEGA0 is the matrix of the standard symplectic form dx1^dy1 + dx2^dy2 and
J0 the standard complex structure in these coordinates.
"""

from __future__ import annotations

import numpy as np

from ..unitary import UMat2
from .jet import Jet

OMEGA0 = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

J0 = -OMEGA0  # multiplication by i in (x1,y1,x2,y2) coordinates


class NotSymplecticError(ValueError):
    pass


def realify(u) -> np.ndarray:
    """The real matrix acting on (x1,y1,x2,y2) of an exact UMat2 or of a
    (..., 2, 2) complex array: entry a + ib becomes the block [[a, -b], [b, a]]."""
    c = u.to_complex() if isinstance(u, UMat2) else np.asarray(u, dtype=complex)
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


def is_orthogonal(a: np.ndarray, tol: float = 1e-10) -> bool:
    return float(np.max(np.abs(a.T @ a - np.eye(4)))) <= tol


def is_symplectic(a: np.ndarray, tol: float = 1e-10) -> bool:
    return float(np.max(np.abs(a.T @ OMEGA0 @ a - OMEGA0))) <= tol


class NearSingularError(ValueError):
    def __init__(self, smallest_eigenvalue: float):
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(f"matrix nearly singular: smallest eigenvalue {smallest_eigenvalue:.3e}")


def matrix_inv_sqrt(s: np.ndarray, eig_floor: float = 1e-12) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix."""
    s = np.asarray(s, dtype=float)
    if np.max(np.abs(s - s.T)) > 1e-10:
        raise ValueError("input is not symmetric")
    vals, vecs = np.linalg.eigh(s)
    if vals[0] <= eig_floor:
        raise NearSingularError(float(vals[0]))
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T


def unitary_retract(a: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Retraction of a symplectic matrix onto the realified unitary group."""
    a = np.asarray(a, dtype=float)
    if not is_symplectic(a, tol=tol):
        raise NotSymplecticError("input matrix is not symplectic")
    return a @ matrix_inv_sqrt(a.T @ a)


class DegenerateFormError(ValueError):
    pass


def compatible_acs(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Almost-complex structure J compatible with the 2-form w, built from the
    auxiliary metric g via the polar factor of the g-normalized form matrix.

    Post-conditions: J^2 = -I, (u,v) -> w(u, Jv) is symmetric positive
    definite, and w(Ju, Jv) = w(u, v).
    """
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(np.linalg.det(w)) <= 1e-12:
        raise DegenerateFormError("form is degenerate")
    g_inv_sqrt = matrix_inv_sqrt(g)
    g_sqrt = np.linalg.inv(g_inv_sqrt)
    b = g_inv_sqrt @ w @ g_inv_sqrt
    b = 0.5 * (b - b.T)  # exact antisymmetry against roundoff
    j_tilde = -b @ matrix_inv_sqrt(b.T @ b)
    return g_inv_sqrt @ j_tilde @ g_sqrt


class PreconditionError(ValueError):
    pass


def retract_equivariance_check(a: UMat2, c: UMat2, b: np.ndarray,
                               pre_tol: float = 1e-10, post_tol: float = 1e-8) -> bool:
    """Check that conjugation relations survive the unitary retraction.

    Requires realify(a) = B^-1 realify(c) B; returns whether the same holds
    with B replaced by its retraction r(B).
    """
    ra, rc = realify(a), realify(c)
    b = np.asarray(b, dtype=float)
    b_inv = np.linalg.inv(b)
    if np.max(np.abs(ra - b_inv @ rc @ b)) > pre_tol:
        raise PreconditionError("realify(a) != B^-1 realify(c) B within tolerance")
    rb = unitary_retract(b)
    return bool(np.max(np.abs(ra - np.linalg.inv(rb) @ rc @ rb)) <= post_tol)
