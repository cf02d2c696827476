"""Local models of an isotropy-surface neighborhood, their 2-forms and the
taming data of the smoothed form.

Coordinates are (x1, y1, x2, y2): (x1, y1) on the base disc/torus, (x2, y2)
on the fiber, r^2 = x2^2 + y2^2.  The connection 1-form is
eta = dtheta + pi*nu with nu = nu1 dx1 + (nu2 + kappa*x1) dy1, so
d(eta) = kappa dx1^dy1.  `model_form` writes the smoothed form once, at one
point in Python floats, as its entries above the diagonal, and the taming
data and the cube's certificate read the same coefficients (`_coefficients`).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .. import is_int
from .profiles import f_smoothing, f_resolved, identity_profile
from .taming import quotient


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
        if len(self.nu) != 2 or not all(map(math.isfinite, reals)):
            raise ValueError("model parameters must be finite reals, nu a pair")
        if not is_int(self.m):
            raise ValueError("m must be an integer")
        if self.m < 1 or self.a < 0:
            raise ValueError("need m >= 1 and a >= 0")
        if not self.delta2 > 0:
            raise ValueError("need delta2 > 0")
        if not 2.0 * self.delta2 * self.delta2 < math.inf:
            raise ValueError("the cube's corner radius r^2 = 2*delta2^2 overflows")
        if not self.delta0 > 3 * self.delta2:
            raise ValueError("need delta0 > 3*delta2")
        return self


def _profile(model: LocalModel, resolved: bool):
    """f(x) = (x^m + a^2)^(1/m), or fhat(x) = (x + a^2)^(1/m) on the resolved
    side; with a = 0 both are f(x) = (x^m)^(1/m) = x."""
    if model.a == 0.0:
        return identity_profile()
    return (f_resolved if resolved else f_smoothing)(model.m, model.a)


def _coefficients(x, d1, d2, kappa):
    """(base, vert) = (1 + (1/2) x f' kappa, x f'' + f') at x = r^2, from
    the floats f'(x), f''(x) and the connection's kappa (scaled on the
    resolved side)."""
    return 1.0 + 0.5 * x * d1 * kappa, x * d2 + d1


def model_form(model: LocalModel, resolved: bool = False):
    """The smoothed form built from f(x) = (x^m + a^2)^(1/m) at x = r^2:

        base area + (1/2) x f'(x) * kappa dx1^dy1 + (x f''(x) + f'(x)) r dr^eta,

    that is base dx1^dy1 + vert (dx2^dy2 + (x2 dx2 + y2 dy2)^nu).  At a = 0
    it is the reference form omega0 = base area + r dr^eta + (r^2/2) d(eta).
    With resolved=True the evaluation is in the coordinates (z, w^m) of the
    smooth model: profile fhat(x) = (x + a^2)^(1/m) and connection scaled by m.

    Returns the form at one point (x1, y1, x2, y2) in Python floats, as its
    entries above the diagonal, (w01, w02, w03, w12, w13, w23), as
    blowup.chart_form gives the chart form: f' and f'' off one float jet of
    the profile, NaN where float arithmetic cannot compute them."""
    profile = _profile(model, resolved)
    scale = float(model.m) if resolved else 1.0
    n1, nu2, kappa = scale * model.nu[0], model.nu[1], model.kappa

    def form(point):
        x1, _, x2, y2 = point
        x = x2 * x2 + y2 * y2
        if math.sqrt(x) > model.delta0 + 1e-12:
            raise OutOfDomainError("fiber radius exceeds the model radius delta0")
        base, vert = _coefficients(x, *_derivatives(profile, x), scale * kappa)
        n2 = scale * (nu2 + kappa * x1)
        return base, -vert * x2 * n1, -vert * y2 * n1, -vert * x2 * n2, -vert * y2 * n2, vert
    return form


def _derivatives(profile, x: float):
    """f'(x) and f''(x) off one float jet of the profile's definition; NaN
    where Python's float arithmetic cannot compute them (0.0 ** -p, an
    overflowing power, or a power that leaves the reals)."""
    try:
        f = profile.jet(x)
    except ArithmeticError:
        return math.nan, math.nan
    if isinstance(f.grad, complex) or isinstance(f.hess, complex):
        return math.nan, math.nan
    return f.grad, f.hess


def cube_samples(model: LocalModel, region, n: int, resolved: bool = False):
    """(point, taming quotient) of the smoothed form per (x1, r^2) orbit of
    a cube region (OrbitRegion.cube) on its n^4 grid, in grid order: the
    form does not depend on y1, and its quotient is invariant under
    rotations of the fiber plane.  The quotient is that of the form's 2x2
    Hermitian block for J0, with s = m on the resolved side and 1 otherwise:

        a = 1 + (1/2) x f'(x) s kappa,   d = x f''(x) + f'(x),
        |b| = (1/2) |d| sqrt(x) hypot(s nu1, s (nu2 + kappa x1)),

    f' and f'' off one float jet per circle x = r^2.  The cube of side
    2*delta2 lies inside the model radius, as delta0 > 3*delta2."""
    profile = _profile(model, resolved)
    scale = float(model.m) if resolved else 1.0
    nu1, nu2, kappa = scale * model.nu[0], model.nu[1], model.kappa

    def fibre(x):
        base, vert = _coefficients(x, *_derivatives(profile, x), scale * kappa)
        return base, vert, 0.5 * abs(vert) * math.sqrt(x)

    def combine(x1, x, nu, fibre):
        base, vert, half = fibre
        return quotient(base, vert, half * nu)

    return region.walk(n, lambda x1: math.hypot(nu1, scale * (nu2 + kappa * x1)), fibre, combine)
