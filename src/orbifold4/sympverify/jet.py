"""A second-order forward-mode jet of one variable, over any scalar with
+, -, * and /.

A Jet holds a value and the first and second derivative along its one
variable, `Jet(x, 1.0, 0.0)`, and takes the arithmetic operators only: its
scalars may be Python floats, complex numbers, or any type that defines
those operators, as do the numpy arrays of the tests' oracles, and
constants are plain numbers.  The variable is taken as given, with no
float() coercion.  The library hands it only Python floats or complex
numbers: the orbit coordinates of `localmodel.cube_samples` and
`forms._samples`, the points of `model_form`, `fixtures.pipeline_problem`'s
0.0 and `realified_jacobian`'s complex point.  Their arithmetic raises where a
numpy scalar's would warn and return inf: ZeroDivisionError for 0.0 ** -p
and OverflowError for an overflowing power, which
`localmodel._derivatives` reads as NaN.  A variable may take a complex
value: a holomorphic function's jet then carries its complex derivative.
A holomorphic map of C^2 written over them gives its real Jacobian
(`realified_jacobian`), along which `pullback_discrepancy` compares two
2-forms, each given by its six entries above the diagonal (PAIRS).

Each function's first and second derivative are written once, as a rule
(`power_rule`, `log1p_rule`, `smoothstep_rule`) that the jets apply and
that a closed-form evaluation over plain floats calls directly.
"""

from __future__ import annotations

import math


class Jet:
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = value, grad, hess

    def apply(self, f0, f1, f2) -> "Jet":
        """f(self), given f, f' and f'' at self.value (the chain rule)."""
        g = self.grad
        return Jet(f0, f1 * g, f2 * (g * g) + f1 * self.hess)

    def __add__(self, o):
        if isinstance(o, Jet):
            return Jet(self.value + o.value, self.grad + o.grad, self.hess + o.hess)
        return Jet(self.value + o, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.grad, -self.hess)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.value * o, self.grad * o, self.hess * o)
        g, h = self.grad, o.grad
        cross = g * h
        return Jet(self.value * o.value, g * o.value + self.value * h,
                   self.hess * o.value + (cross + cross) + self.value * o.hess)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            return self * o ** -1
        return Jet(self.value / o, self.grad / o, self.hess / o)

    def __rtruediv__(self, o):
        return self ** -1 * o

    def __pow__(self, p):
        """self**p for a constant p (see power_rule)."""
        v = self.value
        return self.apply(v ** p, *power_rule(v, p))


def power_rule(v, p):
    """The first and second derivative of x**p at v, for a constant p.  A
    zero coefficient p or p(p-1) gives an exactly zero derivative, so x**1
    and x**2 are exact at x = 0."""
    d1 = p * v ** (p - 1) if p != 0 else 0.0
    d2 = p * (p - 1) * v ** (p - 2) if p * (p - 1) != 0 else 0.0
    return d1, d2


def smoothstep_rule(v):
    """The quintic smoothstep S, its antiderivative I (zero at 0) and their
    derivatives at v, as (I, S, S', S''): the integral's value and first two
    derivatives are the first three, the smoothstep's the last three.

    On [0, 1] each is a polynomial, by Horner's method:
    S(c) = c^3 (10 + c (-15 + 6c)) and I(c) = c^4 (2.5 + c (-3 + c)).  S is
    0 below 0 and 1 above 1, where I(v) = I(1) + (v - 1) = v - 1/2.
    S' = 30 c^2 (c - 1)^2 and S'' = 60 c (c - 1)(2c - 1) vanish at both
    ends, so the pieces join C^2, and the polynomials at v clamped to [0, 1]
    give the outer pieces too, bit for bit: a float off [0, 1] takes them
    as constants, an array is clamped by its own `clip`.  A NaN stays NaN."""
    if not isinstance(v, float):
        c, excess = v.clip(0.0, 1.0), v.clip(1.0, None) - 1.0
    elif v < 0.0:
        return 0.0, 0.0, 0.0, 0.0
    elif v > 1.0:
        return 0.5 + (v - 1.0), 1.0, 0.0, 0.0
    else:
        c, excess = v, 0.0
    c2 = c * c
    return (c2 * c2 * (2.5 + c * (-3.0 + c)) + excess, c2 * c * (10.0 + c * (-15.0 + 6.0 * c)),
            c2 * (30.0 + c * (-60.0 + 30.0 * c)), c * (60.0 + c * (-180.0 + 120.0 * c)))


def log1p_rule(v):
    """log1p' and log1p'' at v: r and -r^2, with r = 1/(1 + v)."""
    r = 1.0 / (1.0 + v)
    return r, -r * r


# the entries (k, l), k < l, of a 2-form on R^4 above the diagonal, in the
# order of a form's six entries (w01, w02, w03, w12, w13, w23)
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def realified_jacobian(f, z: complex, w: complex):
    """f(z, w) as a point (x1, y1, x2, y2) and its real 4x4 Jacobian, for a
    holomorphic map f of C^2 written over complex float jets: one jet per
    variable, and a complex derivative a + ib is the block [[a, -b], [b, a]]."""
    by_z = f(Jet(z, 1.0, 0.0), w)
    by_w = f(z, Jet(w, 1.0, 0.0))
    values = [c.value if isinstance(c, Jet) else c for c in by_z]
    grad = [[c.grad if isinstance(c, Jet) else 0.0 for c in col] for col in (by_z, by_w)]
    jac = [[0.0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            g = complex(grad[j][i])
            jac[2 * i][2 * j], jac[2 * i][2 * j + 1] = g.real, -g.imag
            jac[2 * i + 1][2 * j], jac[2 * i + 1][2 * j + 1] = g.imag, g.real
    point = (values[0].real, values[0].imag, values[1].real, values[1].imag)
    return point, jac


def pullback(jac, w):
    """The entries above the diagonal of jac^T omega jac, omega given by its
    entries above the diagonal: sum over a < b of
    omega_ab (jac_ak jac_bl - jac_bk jac_al) for each k < l."""
    return [sum(w_ab * (jac[a][k] * jac[b][l] - jac[b][k] * jac[a][l])
                for (a, b), w_ab in zip(PAIRS, w)) for k, l in PAIRS]


def largest(values) -> float:
    """max |x| over a list of floats, or inf when one of them is not finite:
    max() alone may pass over a NaN."""
    if not all(map(math.isfinite, values)):
        return math.inf
    return max(map(abs, values))


def pullback_discrepancy(f, points, form, image_form):
    """The largest entry of image_form pulled back along the holomorphic map
    f minus form, over a list of points (x1, y1, x2, y2), and the first point
    where it is reached; inf at a point where an entry is not finite.  Both
    forms map a point to its six entries above the diagonal."""
    diffs = []
    for point in points:
        image, jac = realified_jacobian(f, complex(*point[:2]), complex(*point[2:]))
        diffs.append(largest([a - b for a, b in zip(pullback(jac, image_form(image)),
                                                     form(point))]))
    worst = max(diffs)
    return worst, points[diffs.index(worst)]
