"""Radial profiles, each defined once as a function of its argument.

A profile's function is written over numpy arrays and jets (`jet.Jet`) alike:
values are read off a plain evaluation, and the first two derivatives off
one evaluation on a one-variable jet.  Finite differences are reserved for
independent cross-checks.  All callables are vectorized over numpy arrays;
`float_jet` evaluates one float without numpy, for the profiles written
with arithmetic operators only.
"""

from __future__ import annotations

import math

from .jet import Jet, clip


class RadialProfile:
    """A profile given by fn, its one definition over arrays or jets.  A plain
    class: its instances take attributes, as the benchmark tracer rebinds
    value, d1 and d2 on each."""

    def __init__(self, fn):
        self.fn = fn

    def jet(self, x) -> Jet:
        """Value, first and second derivative at x as a one-variable jet."""
        return self.fn(Jet.variable(x))

    def float_jet(self, x: float) -> Jet:
        """Value, first and second derivative at one float, as Python floats."""
        return self.fn(Jet.float_variable(x))

    def value(self, x):
        import numpy as np
        return self.fn(np.asarray(x, dtype=float))

    def d1(self, x):
        return self.jet(x).grad[0]

    def d2(self, x):
        return self.jet(x).hess[0, 0]

    def __call__(self, x):
        """The profile at x; at a jet x, its own jet at x.value composed with x,
        in Python floats for a float jet."""
        if isinstance(x, Jet):
            if isinstance(x.value, (float, complex)):
                f = self.float_jet(x.value)
                return x.apply(f.value, f.grad, f.hess)
            f = self.jet(x.value)
            return x.apply(f.value, f.grad[0], f.hess[0, 0])
        return self.value(x)


def f_smoothing(m: int, a: float) -> RadialProfile:
    """f(x) = (x^m + a^2)^(1/m): smooths x -> x near 0 for a > 0."""
    return RadialProfile(lambda x: (x ** m + a * a) ** (1.0 / m))


def f_resolved(m: int, a: float) -> RadialProfile:
    """fhat(x) = (x + a^2)^(1/m): the same smoothing seen through x -> x^m."""
    return RadialProfile(lambda x: (x + a * a) ** (1.0 / m))


def identity_profile() -> RadialProfile:
    return RadialProfile(lambda x: x + 0.0)


def _smoothstep(s):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 across both ends."""
    s = clip(s, 0.0, 1.0)
    return s ** 3 * (6.0 * s * s - 15.0 * s + 10.0)


def _smoothstep_integral(s):
    """Antiderivative of the quintic smoothstep, zero at 0; equals s - 1/2 above 1."""
    s_c = clip(s, 0.0, 1.0)
    return s_c ** 4 * (s_c * s_c - 3.0 * s_c + 2.5) + (clip(s, 1.0, math.inf) - 1.0)


def h_ramp(t0: float, t1: float) -> RadialProfile:
    """C^2 convex ramp: 0 below t0, slope rising to 1, equal to t - t1 + (t1-t0)/2
    above t1.  h' and h'' are >= 0 everywhere."""
    if not t0 < t1:
        raise ValueError("ramp requires t0 < t1")
    w = t1 - t0
    return RadialProfile(lambda t: w * _smoothstep_integral((t - t0) / w))


def rho_bump(lo: float, hi: float) -> RadialProfile:
    """C^2 decreasing cutoff: 1 below lo, 0 above hi."""
    if not 0 <= lo < hi:
        raise ValueError("bump requires 0 <= lo < hi")
    w = hi - lo
    return RadialProfile(lambda x: 1.0 - _smoothstep((x - lo) / w))


def H_cutoff(m: int, a: float, lo: float, hi: float,
             resolved: bool = False) -> RadialProfile:
    """H(x) = rho(x) * (f(x) - x): the smoothing correction, cut off to zero
    above hi so potentials revert to the flat one far out.

    With resolved=True the smooth-model profile fhat(x) = (x + a^2)^(1/m) is
    used, which keeps the fiber coefficient positive at x = 0."""
    f = f_resolved(m, a) if resolved else f_smoothing(m, a)
    rho = rho_bump(lo, hi)
    return RadialProfile(lambda x: rho(x) * (f(x) - x))
