"""Radial profiles, each defined once as a function of its argument.

A profile's function is written over plain values and one-variable jets
(`jet.Jet`) alike: values are read off a plain evaluation, and the first two
derivatives off one evaluation on a jet, over whatever scalar its argument
is: a Python float everywhere in the library, and a numpy array where a
test's oracle reads `value`, `d1` or `d2` or a jet over a grid.  Finite
differences are reserved for independent cross-checks.  The ramp and the
bump are defined by a rule (`RadialProfile.of_rule`) from the smoothstep's
rule in `jet`: their jets apply it, and a float path reads value and
derivatives off `rule` without building a jet.
"""

from __future__ import annotations

from .jet import Jet, smoothstep_rule


class RadialProfile:
    """A profile given by fn, its one definition over values or jets.  A plain
    class: its instances take attributes, as the benchmark tracer rebinds
    value, d1 and d2 on each."""

    def __init__(self, fn):
        self.fn = fn

    @classmethod
    def of_rule(cls, rule) -> "RadialProfile":
        """The profile whose value, first and second derivative at a float
        or an array x are rule(x): its fn applies the rule to a jet and
        reads the value off it at a plain x, and its `rule` is the float
        path's evaluation, which builds no jet."""
        profile = cls(lambda x: x.apply(*rule(x.value)) if isinstance(x, Jet) else rule(x)[0])
        profile.rule = rule
        return profile

    def jet(self, x) -> Jet:
        """Value, first and second derivative at x, as a jet over x's scalar."""
        return self.fn(Jet(x, 1.0, 0.0))

    def value(self, x):
        return self.fn(x)

    def d1(self, x):
        return self.jet(x).grad

    def d2(self, x):
        return self.jet(x).hess

    def __call__(self, x):
        """The profile at x; at a jet x, its own jet at x.value composed with x."""
        if isinstance(x, Jet):
            f = self.jet(x.value)
            return x.apply(f.value, f.grad, f.hess)
        return self.value(x)


def f_smoothing(m: int, a: float) -> RadialProfile:
    """f(x) = (x^m + a^2)^(1/m): smooths x -> x near 0 for a > 0."""
    return RadialProfile(lambda x: (x ** m + a * a) ** (1.0 / m))


def f_resolved(m: int, a: float) -> RadialProfile:
    """fhat(x) = (x + a^2)^(1/m): the same smoothing seen through x -> x^m."""
    return RadialProfile(lambda x: (x + a * a) ** (1.0 / m))


def identity_profile() -> RadialProfile:
    return RadialProfile(lambda x: x + 0.0)


def h_ramp(t0: float, t1: float) -> RadialProfile:
    """C^2 convex ramp: 0 below t0, slope rising to 1, equal to t - t1 + (t1-t0)/2
    above t1.  h' and h'' are >= 0 everywhere.  h(t) = w I((t - t0)/w) with
    w = t1 - t0 and I the smoothstep's antiderivative, so h' = I' and
    h'' = I''/w."""
    if not t0 < t1:
        raise ValueError("ramp requires t0 < t1")
    w = t1 - t0

    def rule(t):
        i, s, s1, _ = smoothstep_rule((t - t0) / w)
        return w * i, s, s1 / w
    return RadialProfile.of_rule(rule)


def rho_bump(lo: float, hi: float) -> RadialProfile:
    """C^2 decreasing cutoff: 1 below lo, 0 above hi.  rho(x) = 1 - S((x - lo)/w)
    with w = hi - lo and S the smoothstep, so rho' = -S'/w and
    rho'' = -S''/w^2."""
    if not 0 <= lo < hi:
        raise ValueError("bump requires 0 <= lo < hi")
    w = hi - lo

    def rule(x):
        _, s, s1, s2 = smoothstep_rule((x - lo) / w)
        return 1.0 - s, -s1 / w, -s2 / (w * w)
    return RadialProfile.of_rule(rule)


def H_cutoff(m: int, a: float, lo: float, hi: float) -> RadialProfile:
    """H(x) = rho(x) * (fhat(x) - x): the smoothing correction, cut off to
    zero above hi so potentials revert to the flat one far out.  fhat(x) =
    (x + a^2)^(1/m) is the smooth-model profile, which keeps the fiber
    coefficient positive at x = 0."""
    f, rho = f_resolved(m, a), rho_bump(lo, hi)
    return RadialProfile(lambda x: rho(x) * (f(x) - x))
