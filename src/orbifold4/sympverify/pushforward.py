"""Consistency of the smoothed form under the fiber power map (z, w) -> (z, w^m).

The orbifold-side form built from f(x) = (x^m + a^2)^(1/m) must equal the
pullback of the smooth-side form built from fhat(x) = (x + a^2)^(1/m) with
the connection scaled by m.  The radial relation |w^m| = |w|^m is exact.
The map is written once over complex jets (`linear.holomorphic_map`), which
gives its real Jacobian, and `linear.pullback` pulls the form back."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .linear import holomorphic_map, pullback
from .localmodel import LocalModel, eval_omega_a


class PushforwardReport(namedtuple("PushforwardReport",
                                   "m samples max_discrepancy worst_sample radial_exact")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.radial_exact and self.max_discrepancy <= 1e-8


def _fiber_power(points, m: int):
    """(x1,y1,x2,y2) -> (x1,y1, Re w^m, Im w^m) and the real 4x4 Jacobian."""
    return holomorphic_map(lambda z, w: (z, w ** m), points)


R_MIN = 0.05


def sample_points(model: LocalModel, count: int, seed: int = 0):
    """Deterministic samples with fiber radius in [R_MIN, delta2]."""
    rng = np.random.default_rng(seed)
    pts = np.zeros((count, 4))
    pts[:, 0] = rng.uniform(-0.3, 0.3, count)
    pts[:, 1] = rng.uniform(-0.3, 0.3, count)
    r = rng.uniform(R_MIN, model.delta2, count)
    th = rng.uniform(0.0, 2 * np.pi, count)
    pts[:, 2], pts[:, 3] = r * np.cos(th), r * np.sin(th)
    return pts


def pushforward_check(m: int, model: LocalModel, samples: int = 1000,
                      seed: int = 0) -> PushforwardReport:
    if m < 1:
        raise ValueError("m must be >= 1")
    if m != model.m:
        raise ValueError("model.m must equal m")
    pts = sample_points(model, samples, seed=seed)
    image, jac = _fiber_power(pts, m)

    w = pts[:, 2] + 1j * pts[:, 3]
    wp = image[:, 2] + 1j * image[:, 3]
    radial_exact = bool(np.allclose(np.abs(wp), np.abs(w) ** m, rtol=0, atol=1e-14))

    orb = eval_omega_a(model, pts)
    smooth = eval_omega_a(model, image, resolved=True)
    diff = np.abs(pullback(jac, smooth) - orb).max(axis=(-2, -1))
    idx = int(np.argmax(diff))
    return PushforwardReport(m, samples, float(diff[idx]), tuple(pts[idx]), radial_exact)
