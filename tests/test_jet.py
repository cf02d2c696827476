"""Second-order jets: every operation's gradient and Hessian against central
differences of the same definition evaluated on plain arrays, on the
oracle's n-variable array jet; the one-variable jet over Python floats,
complex numbers, arrays and a scalar type that only defines arithmetic
against it."""

import numpy as np
import pytest

from fd_oracles import ArrayJet, clip, composed_bump, composed_ramp, log1p
from orbifold4.sympverify.jet import Jet, log1p_rule, power_rule
from orbifold4.sympverify.profiles import (H_cutoff, f_resolved, f_smoothing, h_ramp,
                                           identity_profile, rho_bump)

# functions written once, evaluated on arrays or jets; arguments stay in (0.2, 1.4)
ONE = {
    "add": lambda x: x + 0.3 + x,
    "sub": lambda x: 2.0 - x - (x - 0.5),
    "mul": lambda x: 3.0 * x * x * 0.5,
    "div": lambda x: x / 0.7 + 2.0 / x + x / (x + 1.0),
    "neg": lambda x: -x,
    "pow": lambda x: x ** 3 + x ** 0.5 + x ** -1.5 + x ** 0 * 2.0,
    "log1p_shifted": lambda x: log1p(x - 0.1),
    "log1p": lambda x: log1p(x * x),
    "clip_inside": lambda x: clip(x, 0.0, 2.0) ** 2,
    "clip_below": lambda x: clip(x - 2.0, 0.0, 1.0) + x,
    "clip_above": lambda x: clip(x, -1.0, 0.1) * x,
    "profile": lambda x: h_ramp(0.3, 0.9)(x) + f_smoothing(3, 0.2)(x),
}
TWO = {
    "add": lambda x, y: x + y + 1.0,
    "sub": lambda x, y: x - y - (y - 2.0 * x),
    "mul": lambda x, y: x * y * x,
    "div": lambda x, y: x / y + y / (x * x),
    "pow": lambda x, y: (x * y) ** 1.5 + (x + y) ** 2,
    "log1p_product": lambda x, y: log1p(x * y + y),
    "log1p": lambda x, y: log1p(x / y) * y,
    "clip": lambda x, y: clip(x * y, 0.1, 0.5) + clip(x + y, 5.0, 6.0) * x,
    "profile": lambda x, y: f_smoothing(2, 0.1)(x * y) + h_ramp(0.2, 0.8)(x + y),
}
# holomorphic functions of two complex variables
COMPLEX = {
    "inverse": lambda z, w: 1 / z,
    "cube_times": lambda z, w: z ** 3 * w,
}


def _fd(fn, pts, h):
    """Central-difference gradient and Hessian of fn at pts (shape (n, N)); a
    complex step h differentiates a holomorphic fn along h."""
    n = len(pts)
    e = np.eye(n)[:, :, None] * h
    grad = np.array([(fn(*(pts + e[i])) - fn(*(pts - e[i]))) / (2 * h) for i in range(n)])
    hess = np.array([[(fn(*(pts + e[i] + e[j])) - fn(*(pts + e[i] - e[j]))
                       - fn(*(pts - e[i] + e[j])) + fn(*(pts - e[i] - e[j]))) / (4 * h * h)
                      for j in range(n)] for i in range(n)])
    return grad, hess


def _check(fn, pts):
    n = len(pts)
    jet = fn(*[ArrayJet.variable(pts[i], i, n) for i in range(n)])
    assert np.allclose(jet.value, fn(*pts), rtol=1e-14, atol=0)
    grad, _ = _fd(fn, pts, 1e-6)
    _, hess = _fd(fn, pts, 1e-4)
    assert np.allclose(jet.grad, grad, rtol=1e-6, atol=1e-7)
    assert np.allclose(jet.hess, hess, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("name", sorted(ONE))
def test_one_variable_jet_matches_central_differences(name):
    xs = np.linspace(0.2, 1.4, 13)
    _check(ONE[name], xs[None])
    # the library's one-variable jet over arrays: the oracle's, bit for bit
    got, want = ONE[name](Jet(xs, 1.0, 0.0)), ONE[name](ArrayJet.variable(xs))
    for g, w in ((got.value, want.value), (got.grad, want.grad[0]), (got.hess, want.hess[0, 0])):
        assert np.array_equal(np.broadcast_to(g, xs.shape), w)


@pytest.mark.parametrize("name", sorted(TWO))
def test_two_variable_jet_matches_central_differences(name):
    rng = np.random.default_rng(3)
    _check(TWO[name], rng.uniform(0.2, 1.4, (2, 40)))


@pytest.mark.parametrize("unit", [1.0, 1j], ids=["real-step", "imaginary-step"])
@pytest.mark.parametrize("name", sorted(COMPLEX))
def test_complex_variable_jet_matches_complex_central_differences(name, unit):
    # a complex float jet in one variable, the other held at its value,
    # carries the complex derivatives along that variable: the diagonal of
    # the central differences, whatever the step's direction
    fn = COMPLEX[name]
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.5, 1.4, (2, 40)) * np.exp(2j * np.pi * rng.uniform(size=(2, 40)))
    grad, _ = _fd(fn, pts, 1e-6 * unit)
    _, hess = _fd(fn, pts, 1e-4 * unit)
    for k, point in enumerate(pts.T.tolist()):
        for i in range(2):
            args = list(point)
            args[i] = Jet(point[i], 1.0, 0.0)
            jet = fn(*args)
            if not isinstance(jet, Jet):  # fn does not depend on this variable
                jet = Jet(jet, 0.0, 0.0)
            assert np.allclose(jet.value, fn(*point), rtol=1e-14, atol=0)
            assert np.allclose(jet.grad, grad[i, k], rtol=1e-6, atol=1e-7)
            assert np.allclose(jet.hess, hess[i, i, k], rtol=1e-5, atol=1e-5)


def test_clip_passes_derivatives_only_inside_its_bounds():
    x = ArrayJet.variable(np.array([-1.0, 0.5, 2.0]))
    out = clip(x * x, 0.0, 1.0)
    assert np.array_equal(out.value, [1.0, 0.25, 1.0])
    assert np.array_equal(out.grad[0], [0.0, 1.0, 0.0])
    assert np.array_equal(out.hess[0, 0], [0.0, 2.0, 0.0])


def test_integer_powers_are_exact_at_zero():
    # p(p-1) x^(p-2) alone is 0 * inf = NaN at x = 0 for p = 1
    x = Jet(np.array([0.0, 1.5]), 1.0, 0.0)
    one, two = x ** 1, x ** 2
    assert np.array_equal(one.grad, [1.0, 1.0]) and np.array_equal(one.hess, [0.0, 0.0])
    assert np.array_equal(two.grad, [0.0, 3.0]) and np.array_equal(two.hess, [2.0, 2.0])
    m1 = f_smoothing(1, 0.1).jet(np.array([0.0]))
    assert m1.grad[0] == 1.0 and m1.hess[0] == 0.0
    assert f_smoothing(1, 0.1).jet(0.0).grad == 1.0 and f_smoothing(1, 0.1).jet(0.0).hess == 0.0


def test_numpy_operands_defer_to_the_jet():
    x = Jet(np.array([0.5, 1.0]), 1.0, 0.0)
    for out in (np.float64(2.0) * x, np.array([2.0, 2.0]) * x):
        assert isinstance(out, Jet) and np.all(out.grad == 2.0)


# profiles evaluated on float jets; the ramp and the bump have kinks at 0.5 and 1.1
FLOAT_PROFILES = {
    "smoothing": f_smoothing(3, 0.2),
    "ramp": h_ramp(0.5, 1.1),
    "bump": rho_bump(0.5, 1.1),
    "cutoff": H_cutoff(2, 0.1, 0.5, 1.1),
}


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "neg", "pow", *FLOAT_PROFILES])
def test_float_jet_matches_the_array_jet(name):
    # the arithmetic operators and the rules on a jet of Python floats give the
    # oracle's array jet's value and derivatives, up to numpy's own rounding
    # of powers (the smoothing profile's f'' cancels, and shows it), on both
    # sides of the kinks and at them, where both carry the right derivative
    fn = ONE[name] if name in ONE else FLOAT_PROFILES[name].fn
    xs = np.union1d(np.linspace(0.2, 1.4, 13), [0.5, 1.1])
    want = fn(ArrayJet.variable(xs))
    for i, x in enumerate(xs.tolist()):
        got = fn(Jet(x, 1.0, 0.0))
        assert all(type(v) is float for v in (got.value, got.grad, got.hess))
        for g, w in ((got.value, want.value[i]), (got.grad, want.grad[0, i]),
                     (got.hess, want.hess[0, 0, i])):
            assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (x, g, w)


def test_float_jet_raises_where_numpy_warns():
    with pytest.raises(ZeroDivisionError):
        Jet(0.0, 1.0, 0.0) ** 0.5
    with pytest.raises(OverflowError):
        Jet(1e100, 1.0, 0.0) ** 4


# the sums of the absolute coefficients of the smoothstep's Horner
# polynomials, I: 6.5, S: 31, S': 120 and S'': 360, through the chain rule
# of each profile on a window of width w: the scale of its rounding
RULE_SCALES = {
    "ramp": (h_ramp, composed_ramp, lambda w: (6.5 * w, 31.0, 120.0 / w)),
    "bump": (rho_bump, composed_bump, lambda w: (31.0, 120.0 / w, 360.0 / (w * w))),
}


@pytest.mark.parametrize("window", [(0.5, 1.1), (0.52, 0.63)], ids=["wide", "default-ramp"])
@pytest.mark.parametrize("name", sorted(RULE_SCALES))
def test_smoothstep_rule_matches_the_composed_definition(name, window):
    # jet.smoothstep_rule against the smoothstep composed from clip, on both
    # sides of both kinks and at them, on float jets, array jets and the
    # float path's rule: value, first and second derivative to 1e-15 of the
    # polynomial's scale (the two round their own ways; near c = 1/2 the
    # composed second derivative is 6.6e-14 from the exact value at w = 0.6)
    make, compose, scales = RULE_SCALES[name]
    lo, hi = window
    profile, composed, tol = make(lo, hi), compose(lo, hi), scales(hi - lo)
    xs = sorted({*np.linspace(lo - 0.2, hi + 0.2, 61).tolist(), lo, hi,
                 *(float(np.nextafter(k, d)) for k in window for d in (0.0, 2.0))})
    want = composed.jet(np.array(xs))
    got = profile.jet(np.array(xs))
    for i, x in enumerate(xs):
        expected = (want.value[i], want.grad[i], want.hess[i])
        fj = profile.jet(x)
        for g in ((fj.value, fj.grad, fj.hess), profile.rule(x),
                  (got.value[i], got.grad[i], got.hess[i])):
            for u, w, scale in zip(g, expected, tol):
                assert abs(u - w) <= 1e-15 * scale, (x, u, w)
        assert all(type(v) is float for v in (fj.value, fj.grad, fj.hess, *profile.rule(x)))


class Arithmetic:
    """A scalar that defines only the arithmetic operators, over the Python
    float it wraps: a stand-in for an interval type."""

    def __init__(self, x):
        self.x = x

    def __add__(self, o):
        return Arithmetic(self.x + _unwrap(o))

    __radd__ = __add__

    def __sub__(self, o):
        return Arithmetic(self.x - _unwrap(o))

    def __rsub__(self, o):
        return Arithmetic(_unwrap(o) - self.x)

    def __neg__(self):
        return Arithmetic(-self.x)

    def __mul__(self, o):
        return Arithmetic(self.x * _unwrap(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        return Arithmetic(self.x / _unwrap(o))

    def __rtruediv__(self, o):
        return Arithmetic(_unwrap(o) / self.x)

    def __pow__(self, p):
        return Arithmetic(self.x ** p)


def _unwrap(v):
    return v.x if isinstance(v, Arithmetic) else v


STAND_IN_PROFILES = {
    "smoothing": f_smoothing(3, 0.2),
    "resolved": f_resolved(2, 0.1),
    "identity": identity_profile(),
}
STAND_IN_POINTS = [0.05, 0.3, 0.7, 1.2]


@pytest.mark.parametrize("name", sorted(STAND_IN_PROFILES))
def test_profile_jets_run_on_a_scalar_that_defines_only_arithmetic(name):
    # the jet and the profiles need no branch for a new scalar type: the
    # stand-in's jet is the float jet, bit for bit
    profile = STAND_IN_PROFILES[name]
    for x in STAND_IN_POINTS:
        got, want = profile.jet(Arithmetic(x)), profile.jet(x)
        assert isinstance(got.value, Arithmetic)
        assert [_unwrap(v) for v in (got.value, got.grad, got.hess)] == [
            want.value, want.grad, want.hess]


def test_rules_run_on_a_scalar_that_defines_only_arithmetic():
    for x in STAND_IN_POINTS:
        for p in (0, 1, 2, 3, 0.5, -1.5, 1.0 / 3.0):
            assert list(map(_unwrap, power_rule(Arithmetic(x), p))) == list(power_rule(x, p))
        assert list(map(_unwrap, log1p_rule(Arithmetic(x)))) == list(log1p_rule(x))
    # the smoothstep's clamp is the one operation beyond arithmetic it takes
    with pytest.raises(AttributeError, match="clip"):
        rho_bump(0.5, 1.1).jet(Arithmetic(0.7))
