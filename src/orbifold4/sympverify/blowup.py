"""Two-chart model of the resolved cyclic singularity C^2/<zeta_m * Id>.

The resolution is the total space of the degree -m line bundle over the
projective line, covered by charts with coordinates (u, v), transition
(u, v) -> (1/u, u^m v), written once over complex jets so that its Jacobian
comes from `linear.holomorphic_map`.  The candidate symplectic form is

    omega_lambda = (i/2) ddbar [ |v|^(2/m) (1+|u|^2) + lambda log(1+|u|^2) ]

whose first term is the pullback of the flat quotient form (via the
invariant radius) and whose second is the pulled-back Fubini-Study-type
form, scaled by lambda.  The potential is written once, as a function of
(|u|^2, |v|^2): its complex Hessian comes from second-order jets, and
`chart_potential` evaluates the same definition so that finite differences
(the tests' `ddbar_fd`) can cross-check it.  Grids avoid v = 0, where the
pulled-back quotient form is continuous but not smooth for m >= 2; the area
of the zero section is read off the same potential restricted to v = 0."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .forms import (blockwise, cube_grid, exterior_derivative_fd, first_of_each,
                    invariant_potential_form, orbit_grid, plane, tameness_min)
from .jet import log1p
from .linear import J0, holomorphic_map, pullback


def _phi(m: int, lam: float):
    """The chart potential as a function of s = |u|^2 and t = |v|^2."""
    return lambda s, t: t ** (1.0 / m) * (1.0 + s) + lam * log1p(s)


def chart_form(m: int, lam: float):
    """(i/2) ddbar of the chart potential; valid for v != 0."""
    return invariant_potential_form(_phi(m, lam))


def chart_potential(m: int, lam: float):
    return chart_form(m, lam).potential


def transition(points, m: int):
    """Chart-1 -> chart-2 coordinates and the real Jacobian of the map."""
    return holomorphic_map(lambda u, v: (1 / u, u ** m * v), points)


def chart_grid(n: int, u_max: float = 1.2, v_min: float = 0.05, v_max: float = 0.8):
    ax_u = np.linspace(-u_max, u_max, n)
    ax_v = np.linspace(-v_max, v_max, n)
    pts = cube_grid(ax_u, ax_u, ax_v, ax_v)
    t = pts[:, 2] ** 2 + pts[:, 3] ** 2
    return pts[t >= v_min ** 2]


def chart_orbits(n: int, u_max: float = 1.2, v_min: float = 0.05, v_max: float = 0.8):
    """The points of chart_grid, one per (|u|^2, |v|^2) orbit (see
    forms.orbit_grid): the chart form is a potential form, invariant under
    the torus that rotates u and v."""
    u, s = plane(np.linspace(-u_max, u_max, n))
    v, t = plane(np.linspace(-v_max, v_max, n))
    return orbit_grid(u[first_of_each(s)], v[t >= v_min ** 2])


def closedness_residual(omega) -> float:
    """Max component of d(omega) by central differences with step 1e-5 at
    probe points fixed whatever the certification grid: the 5^4 chart grid
    plus 8 points on |v| = 0.05, where derivatives peak, above each grid u."""
    ax_u = np.linspace(-1.2, 1.2, 5)
    theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    u = cube_grid(ax_u, ax_u).reshape(-1, 1, 2)
    v = 0.05 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)[None]
    ring = np.concatenate(np.broadcast_arrays(u, v), axis=-1).reshape(-1, 4)
    return exterior_derivative_fd(omega, np.concatenate([chart_grid(5), ring]), h=1e-5)


def overlap_probe():
    """Points of the chart overlap, |u| in [0.5, 2] and |v| in [0.05, 0.5],
    fixed whatever the certification grid: 4 radii spanning each range, on 5
    angles of u and 3 of v, each set offset by half its step; 240 points."""
    def polar(lo, hi, k):
        r = np.linspace(lo, hi, 4)[:, None]
        theta = (np.arange(k) + 0.5) * (2.0 * np.pi / k)
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1).reshape(-1, 2)
    u, v = polar(0.5, 2.0, 5)[:, None], polar(0.05, 0.5, 3)[None]
    return np.concatenate(np.broadcast_arrays(u, v), axis=-1).reshape(-1, 4)


def exceptional_area(m: int, lam: float, n: int = 20000) -> float:
    """Area of the form restricted to the zero section, by radial quadrature.

    The form of the potential restricted to v = 0 is evaluated at
    (rho, 0, 0, 0), one block of rho at a time; its du^dubar coefficient is
    the (0, 1) entry.  t = 0.0 enters as a plain float, so |v|^(2/m) is the
    constant 0 and the jets in s stay finite.  The radial integral is
    compactified by rho = tan(theta)."""
    phi = _phi(m, lam)
    zero_section = invariant_potential_form(lambda s, t: phi(s, 0.0))
    theta = np.linspace(0.0, np.pi / 2.0, n)
    rho = np.tan(theta[:-1])

    def du_dubar(r):
        pts = np.zeros((len(r), 4))
        pts[:, 0] = r
        return zero_section(pts)[:, 0, 1]

    density = blockwise(du_dubar, rho)
    integrand = 2.0 * np.pi * rho * density * (1.0 + rho ** 2)
    integrand = np.append(integrand, 0.0)  # rho -> inf limit
    return float(np.trapezoid(integrand, theta))


class BlowupReport(namedtuple("BlowupReport",
                              "certificate closedness_residual overlap_max_diff area lam")):
    """certificate is a TamenessCertificate over chart_orbits."""

    __slots__ = ()

    @property
    def area_expected(self) -> float:
        return self.lam * np.pi

    @property
    def ok(self) -> bool:
        """The residual gates are relative to max(1, lambda): omega_lambda grows
        with lambda, and so do its finite-difference and pullback round-off."""
        scale = max(1.0, self.lam)
        return (
            self.certificate.tame
            and self.closedness_residual / scale <= 1e-5
            and self.overlap_max_diff / scale <= 1e-8
            and abs(self.area - self.area_expected) <= 1e-6 * max(1.0, self.area_expected)
        )


def blowup_model_check(m: int, lam: float, grid_n: int = 12) -> BlowupReport:
    """Refuses (ValueError) a lambda for which a float of the model
    overflows, as it does from lambda = 1e307: no report holds an area or a
    quotient computed past the largest double."""
    if m < 2 or not 0 < lam < np.inf:
        raise ValueError("need m >= 2 and a finite lambda > 0")
    try:
        with np.errstate(over="raise"):
            omega = chart_form(m, lam)

            cert = tameness_min(
                omega, J0, chart_orbits(grid_n),
                region=f"two charts, |u|<=1.2, 0.05<=|v|<=0.8 (m={m}, lambda={lam})",
                grid=f"{grid_n}^4 per chart, v=0 excluded",
            )

            closed = closedness_residual(omega)

            # chart compatibility on the overlap
            ov = overlap_probe()
            image, jac = transition(ov, m)
            overlap = float(np.max(np.abs(pullback(jac, omega(image)) - omega(ov))))

            return BlowupReport(cert, closed, overlap, exceptional_area(m, lam), lam)
    except FloatingPointError as exc:
        raise ValueError(f"lambda={lam} overflows the blow-up model: {exc}") from None
