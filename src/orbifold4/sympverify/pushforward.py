"""Consistency of the smoothed form under the fiber power map (z, w) -> (z, w^m).

The orbifold-side form built from f(x) = (x^m + a^2)^(1/m) must equal the
pullback of the smooth-side form built from fhat(x) = (x + a^2)^(1/m) with
the connection scaled by m.  The radial relation |w^m| = |w|^m is exact.
The map is written once over complex float jets, which give its real
Jacobian, and `jet.pullback_discrepancy` pulls the form back along it, in
Python floats: the check imports no numpy."""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .jet import pullback_discrepancy
from .localmodel import LocalModel, model_form


class PushforwardReport(namedtuple("PushforwardReport",
                                   "m samples max_discrepancy worst_sample radial_exact")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.radial_exact and self.max_discrepancy <= 1e-8


R_MIN = 0.05


def sample_points(model: LocalModel, count: int, seed: int = 0):
    """Deterministic samples with fiber radius in [R_MIN, delta2], as a list
    of points (x1, y1, x2, y2) drawn by random.Random(seed)."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        x1, y1 = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
        r, th = rng.uniform(R_MIN, model.delta2), rng.uniform(0.0, 2.0 * math.pi)
        points.append((x1, y1, r * math.cos(th), r * math.sin(th)))
    return points


def pushforward_check(m: int, model: LocalModel, samples: int = 1000,
                      seed: int = 0) -> PushforwardReport:
    if m < 1:
        raise ValueError("m must be >= 1")
    if m != model.m:
        raise ValueError("model.m must equal m")
    pts = sample_points(model, samples, seed=seed)
    fibres = [complex(x2, y2) for _, _, x2, y2 in pts]
    radial_exact = all(abs(abs(w ** m) - abs(w) ** m) <= 1e-14 for w in fibres)
    diff, worst = pullback_discrepancy(lambda z, w: (z, w ** m), pts, model_form(model),
                                       model_form(model, resolved=True))
    return PushforwardReport(m, samples, diff, worst, radial_exact)
