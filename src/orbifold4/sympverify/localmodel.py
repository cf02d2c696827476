"""Local models of an isotropy-surface neighborhood and their 2-forms.

Coordinates are (x1, y1, x2, y2): (x1, y1) on the base disc/torus, (x2, y2)
on the fiber, r^2 = x2^2 + y2^2.  The connection 1-form is
eta = dtheta + pi*nu with nu = nu1 dx1 + (nu2 + kappa*x1) dy1, so
d(eta) = kappa dx1^dy1.  Forms are returned as antisymmetric 4x4 coefficient
matrices, vectorized over arrays of points of shape (..., 4).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .forms import cube_grid, orbit_grid
from .linear import antisymmetric
from .profiles import f_smoothing, f_resolved, identity_profile


class OutOfDomainError(ValueError):
    pass


class LocalModel(namedtuple("LocalModel", "m a delta0 delta2 nu kappa",
                            defaults=(1, 0.0, 1.0, 0.25, (0.0, 0.0), 0.0))):
    """The model radius delta0, the smoothing radius delta2 (delta0 >
    3*delta2, and r^2 = 2*delta2^2 at the corners of the cube [-delta2,
    delta2]^4 finite), the connection (nu1, nu2) and the curvature kappa."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        reals = (self.a, self.delta0, self.delta2, self.kappa, *self.nu)
        if len(self.nu) != 2 or not np.all(np.isfinite(reals)):
            raise ValueError("model parameters must be finite reals, nu a pair")
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValueError("m must be an integer")
        if self.m < 1 or self.a < 0:
            raise ValueError("need m >= 1 and a >= 0")
        if not self.delta2 > 0:
            raise ValueError("need delta2 > 0")
        if not 2.0 * self.delta2 * self.delta2 < np.inf:
            raise ValueError("the cube's corner radius r^2 = 2*delta2^2 overflows")
        if not self.delta0 > 3 * self.delta2:
            raise ValueError("need delta0 > 3*delta2")
        return self


def _split(points):
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 4:
        raise ValueError("points must have 4 coordinates")
    return p, p[..., 2] ** 2 + p[..., 3] ** 2


def _nu_at(model: LocalModel, p, scale: float = 1.0):
    n1 = np.full(p.shape[:-1], scale * model.nu[0])
    n2 = scale * (model.nu[1] + model.kappa * p[..., 0])
    return n1, n2


def _assemble(base_coeff, vert_coeff, p, n1, n2):
    """base*dx1^dy1 + vert*(dx2^dy2 + (x2 dx2 + y2 dy2)^nu) as a matrix."""
    x2, y2 = p[..., 2], p[..., 3]
    return antisymmetric(base_coeff, -vert_coeff * x2 * n1, -vert_coeff * y2 * n1,
                         -vert_coeff * x2 * n2, -vert_coeff * y2 * n2, vert_coeff)


def _check_domain(model: LocalModel, x):
    if np.any(np.sqrt(x) > model.delta0 + 1e-12):
        raise OutOfDomainError("fiber radius exceeds the model radius delta0")


def cube_orbits(axis):
    """The points of the cube axis^4, one per orbit of the models' symmetry
    (see forms.orbit_grid).  The forms do not depend on y1 and are invariant
    under rotations of the fiber plane, which commute with J0, so each
    (x1, r^2) is sampled once: at y1 = axis[0], on the first fiber point of
    its circle."""
    axis = np.asarray(axis, dtype=float)
    heads = np.stack([axis, np.full(len(axis), axis[0])], axis=-1)
    return orbit_grid(heads, cube_grid(axis, axis))


def eval_omega0(model: LocalModel, points):
    """The reference form: base area + r dr^eta + (r^2/2) d(eta)."""
    p, x = _split(points)
    _check_domain(model, x)
    n1, n2 = _nu_at(model, p)
    return _assemble(1.0 + 0.5 * x * model.kappa, 1.0, p, n1, n2)


def eval_omega_a(model: LocalModel, points, resolved: bool = False):
    """The smoothed form built from f(x) = (x^m + a^2)^(1/m) at x = r^2:

        base area + (1/2) x f'(x) * kappa dx1^dy1 + (x f''(x) + f'(x)) r dr^eta.

    With resolved=True the evaluation is in the coordinates (z, w^m) of the
    smooth model: profile fhat(x) = (x + a^2)^(1/m) and connection scaled by m.
    """
    p, x = _split(points)
    _check_domain(model, x)
    # with a = 0 both sides have f(x) = (x^m)^(1/m) = x
    if model.a == 0.0:
        profile = identity_profile()
    else:
        profile = (f_resolved if resolved else f_smoothing)(model.m, model.a)
    scale = float(model.m) if resolved else 1.0
    n1, n2 = _nu_at(model, p, scale=scale)
    f = profile.jet(x)
    d1 = f.grad[0]
    vert = x * f.hess[0, 0] + d1
    base = 1.0 + 0.5 * x * d1 * (scale * model.kappa)
    return _assemble(base, vert, p, n1, n2)
