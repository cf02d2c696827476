"""Closed-form radial profiles and their first two derivatives.

Everything here is exact calculus on elementary functions; finite
differences are reserved for composite Kähler potentials elsewhere.
All callables are vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class RadialProfile:
    tag: str
    params: dict
    value: Callable
    d1: Callable
    d2: Callable

    def __call__(self, x):
        return self.value(x)


def f_smoothing(m: int, a: float) -> RadialProfile:
    """f(x) = (x^m + a^2)^(1/m): smooths x -> x near 0 for a > 0."""
    a2 = a * a

    def val(x):
        x = np.asarray(x, dtype=float)
        return (x ** m + a2) ** (1.0 / m)

    def d1(x):
        x = np.asarray(x, dtype=float)
        return x ** (m - 1) * (x ** m + a2) ** (1.0 / m - 1.0)

    def d2(x):
        x = np.asarray(x, dtype=float)
        if m == 1:
            return np.zeros_like(x)
        return a2 * (m - 1) * x ** (m - 2) * (x ** m + a2) ** (1.0 / m - 2.0)

    return RadialProfile("f_smoothing", {"m": m, "a": a}, val, d1, d2)


def f_resolved(m: int, a: float) -> RadialProfile:
    """fhat(x) = (x + a^2)^(1/m): the same smoothing seen through x -> x^m."""
    a2 = a * a
    p = 1.0 / m

    def val(x):
        return (np.asarray(x, dtype=float) + a2) ** p

    def d1(x):
        return p * (np.asarray(x, dtype=float) + a2) ** (p - 1.0)

    def d2(x):
        return p * (p - 1.0) * (np.asarray(x, dtype=float) + a2) ** (p - 2.0)

    return RadialProfile("f_resolved", {"m": m, "a": a}, val, d1, d2)


def identity_profile() -> RadialProfile:
    return RadialProfile(
        "identity", {},
        lambda x: np.asarray(x, dtype=float) + 0.0,
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _smoothstep(s):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 across both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)


def _smoothstep_d1(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s * s * (s - 1.0) ** 2, 0.0)


def _smoothstep_d2(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 60.0 * s * (s - 1.0) * (2.0 * s - 1.0), 0.0)


def _smoothstep_integral(s):
    """Antiderivative of the quintic smoothstep, zero at 0; equals s - 1/2 above 1."""
    s_c = np.clip(s, 0.0, 1.0)
    base = s_c ** 4 * (s_c * s_c - 3.0 * s_c + 2.5)
    return np.where(np.asarray(s) > 1.0, np.asarray(s) - 1.0 + 0.5, base)


def h_ramp(t0: float, t1: float) -> RadialProfile:
    """C^2 convex ramp: 0 below t0, slope rising to 1, equal to t - t1 + (t1-t0)/2
    above t1.  h' and h'' are >= 0 everywhere."""
    if not t0 < t1:
        raise ValueError("ramp requires t0 < t1")
    w = t1 - t0

    def val(t):
        return w * _smoothstep_integral((np.asarray(t, dtype=float) - t0) / w)

    def d1(t):
        return _smoothstep((np.asarray(t, dtype=float) - t0) / w)

    def d2(t):
        return _smoothstep_d1((np.asarray(t, dtype=float) - t0) / w) / w

    return RadialProfile("h_ramp", {"t0": t0, "t1": t1}, val, d1, d2)


def rho_bump(lo: float, hi: float) -> RadialProfile:
    """C^2 decreasing cutoff: 1 below lo, 0 above hi."""
    if not 0 <= lo < hi:
        raise ValueError("bump requires 0 <= lo < hi")
    w = hi - lo

    def val(x):
        return 1.0 - _smoothstep((np.asarray(x, dtype=float) - lo) / w)

    def d1(x):
        return -_smoothstep_d1((np.asarray(x, dtype=float) - lo) / w) / w

    def d2(x):
        return -_smoothstep_d2((np.asarray(x, dtype=float) - lo) / w) / (w * w)

    return RadialProfile("rho_bump", {"lo": lo, "hi": hi}, val, d1, d2)


def H_cutoff(m: int, a: float, lo: float, hi: float,
             resolved: bool = False) -> RadialProfile:
    """H(x) = rho(x) * (f(x) - x): the smoothing correction, cut off to zero
    above hi so potentials revert to the flat one far out.

    With resolved=True the smooth-model profile fhat(x) = (x + a^2)^(1/m) is
    used, which keeps the fiber coefficient positive at x = 0."""
    f = f_resolved(m, a) if resolved else f_smoothing(m, a)
    rho = rho_bump(lo, hi)

    def val(x):
        x = np.asarray(x, dtype=float)
        return rho.value(x) * (f.value(x) - x)

    def d1(x):
        x = np.asarray(x, dtype=float)
        return rho.d1(x) * (f.value(x) - x) + rho.value(x) * (f.d1(x) - 1.0)

    def d2(x):
        x = np.asarray(x, dtype=float)
        return (
            rho.d2(x) * (f.value(x) - x)
            + 2.0 * rho.d1(x) * (f.d1(x) - 1.0)
            + rho.value(x) * f.d2(x)
        )

    return RadialProfile("H_cutoff", {"m": m, "a": a, "lo": lo, "hi": hi}, val, d1, d2)
