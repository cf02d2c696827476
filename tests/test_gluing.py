"""Gluing of a form vanishing near the origin to a multiple of the flat form."""

import math

import numpy as np
import pytest

from fd_oracles import (ball_grid, dbeta_residual, flat_form, glue_forms_oracle, omega1,
                        standard_primitive, taming_quotients)
from orbifold4.sympverify import GluingProblem, RadialProfile, glue_forms, identity_profile
from orbifold4.sympverify.fixtures import annulus_floor, pipeline_problem, smoothing_excess_max
from orbifold4.sympverify.forms import PreconditionFailure
from orbifold4.sympverify.profiles import H_cutoff
from test_sympverify_forms import traced_peak

# h(u) = u: with g the identity, the potential s + t = |p|^2 of the flat form
_IDENTITY = RadialProfile.of_rule(lambda u: (u, 1.0, 0.0))


def _negated(problem):
    """The problem whose potential is -h(s + g(t))."""
    rule = problem.h.rule
    return problem._replace(h=RadialProfile.of_rule(lambda u: tuple(-v for v in rule(u))))


def test_standard_primitive_differentiates_to_flat_form():
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (40, 4))
    assert dbeta_residual(standard_primitive, flat_form, pts) < 1e-9


def test_problem_radius_validation():
    with pytest.raises(ValueError):
        GluingProblem(0.8, 0.5, 1.0, _IDENTITY, identity_profile())


def test_smoothing_excess_max():
    # for m = 2 the max of sqrt(x + a^2) - x over [0, b] is at x = 1/4 - a^2
    # (interior for b = 0.25, a = 0.1), with value 1/4 + a^2
    assert abs(smoothing_excess_max(2, 0.1, 0.25) - 0.26) < 1e-6


def test_pipeline_problem_geometry():
    prob = pipeline_problem(m=2, a=0.1)
    # omega1 really vanishes on the inner ball
    pts = ball_grid(prob.eps1 * 0.99, 9)
    assert float(np.max(np.abs(omega1(prob)(pts)))) < 1e-12
    # and is nondegenerate on the outer annulus
    outer = ball_grid(prob.eps3, 9, inner=prob.eps2 * 1.001)
    assert float(np.min(taming_quotients(omega1(prob)(outer)))) > 0


@pytest.mark.parametrize("a,x_max", [(0.1, 1.0), (0.1, 0.02), (0.9, 1.0),
                                     (0.0524, 0.4585 ** 2), (0.1142, 0.4982 ** 2)],
                         ids=["interior", "clamped-to-x_max", "clamped-to-0", "seed-7", "seed-11"])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_smoothing_excess_max_bounds_a_dense_sample(m, a, x_max):
    # the closed form against 10^5 + 1 samples of fhat(x) - x on [0, x_max]:
    # at least each, less the rounding of a sample (an ulp or two of its
    # operands, all below 1 + x_max), and at most 1e-9 above the largest.
    # x* = m^(-m/(m-1)) - a^2 lies beyond x_max = 0.02 and below 0 at
    # a = 0.9 for every m >= 2; at m = 1 the bump is a^2
    x = np.linspace(0.0, x_max, 100001)
    top = float(np.max((x + a * a) ** (1.0 / m) - x))
    exact = smoothing_excess_max(m, a, x_max)
    assert exact >= top - 2 * math.ulp(1.0 + x_max)
    assert exact - top <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3])
def test_annulus_floor_is_the_least_value_on_the_whole_annulus(m):
    # min over t in [0, eps3^2] of max(0, eps2^2 - t) + g(t), exactly, against
    # a dense sample through both ends of [0, eps2^2], where the least value
    # lies; each float sample may round an ulp or two below the true value
    rng = np.random.default_rng(17 + m)
    for _ in range(20):
        a, eps2 = rng.uniform(0.01, 0.5), rng.uniform(0.2, 3.0)
        eps3 = eps2 * rng.uniform(1.05, 1.5)
        # pipeline_problem's g(t) = t + H(t), H cut off from 1.5 eps3^2 on
        H = H_cutoff(m, a, lo=1.5 * eps3 ** 2, hi=3.0 * eps3 ** 2)
        t = np.concatenate([np.linspace(0.0, eps2 ** 2, 20001),
                            np.linspace(eps2 ** 2, eps3 ** 2, 2001)])
        sample = float(np.min(np.maximum(0.0, eps2 ** 2 - t) + (t + H.value(t))))
        exact = annulus_floor(m, a, eps2)
        assert exact <= sample + 4 * math.ulp(sample)
        assert sample - exact <= 1e-9


def test_pipeline_problem_rejects_radii_without_ramp_window():
    with pytest.raises(ValueError):
        pipeline_problem(m=2, a=0.5, eps1=0.7, eps2=0.75)


@pytest.mark.parametrize("radii,lowest,t0", [
    ((1.5, 2.4, 3.0), "2.4021", "2.5200"),
    ((1.75, 2.8, 3.5), "2.8018", "3.3325"),
    ((5.0, 8.0, 10.0), "8.0006", "25.2700"),
])
def test_pipeline_problem_refuses_radii_that_flatten_omega1_on_the_annulus(radii, lowest, t0):
    # g(t) < t once t > 1, so s + g(t) falls to the ramp's foot t0 on the
    # outer annulus and omega1 vanishes there; grid 12 of (1.5, 2.4, 3.0)
    # missed those orbits and certified
    with pytest.raises(ValueError, match=f"min s \\+ g\\(t\\) = {lowest} <= t0={t0}"):
        pipeline_problem(2, 0.1, *radii)


@pytest.mark.parametrize("e", [1.2, 2.0, 2.5])
@pytest.mark.parametrize("n", [12, 24])
def test_scaled_radii_with_a_positive_annulus_margin_certify(e, n):
    _, cert = glue_forms(pipeline_problem(2, 0.1, 0.5 * e, 0.8 * e, e), grid_n=n)
    assert cert.tame


@pytest.mark.parametrize("m,a_min", [(2, 1.8e-103), (3, 3.4e-93), (5, 2.4e-86)])
def test_pipeline_problem_refuses_an_a_whose_fhat_second_derivative_overflows(m, a_min):
    # fhat''(0) = (1/m)(1/m - 1) a^(2/m - 4); below a_min (docs/file-formats.md)
    # it overflows, and a grid point with |w| = 0 would read NaN
    eps1 = 0.5 if m == 2 else 0.2
    with pytest.raises(ValueError, match="too small"):
        pipeline_problem(m=m, a=a_min / 2, eps1=eps1)
    with pytest.raises(ValueError, match="too small"):
        pipeline_problem(m=m, a=1e-300, eps1=eps1)  # a^2 underflows to 0
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        _, cert = glue_forms(pipeline_problem(m=m, a=a_min, eps1=eps1), grid_n=7)
    assert cert.tame


def test_glue_forms_certificate_and_delta_bound():
    prob = pipeline_problem(m=2, a=0.1)
    delta, cert = glue_forms(prob, grid_n=11)
    assert cert.tame and delta > 0


def test_glue_forms_determinism():
    prob = pipeline_problem(m=2, a=0.1)
    d1, c1 = glue_forms(prob, grid_n=9)
    d2, c2 = glue_forms(pipeline_problem(m=2, a=0.1), grid_n=9)
    assert d1 == d2 and c1.min_quotient == c2.min_quotient


def test_glue_forms_rejects_nonvanishing_omega1():
    # gluing the flat form to itself violates the inner-ball precondition
    prob = GluingProblem(0.3, 0.6, 0.9, _IDENTITY, identity_profile())
    with pytest.raises(PreconditionFailure):
        glue_forms(prob, grid_n=7)


def test_glue_forms_reports_the_worst_annulus_sample():
    base = pipeline_problem(m=2, a=0.1)

    mid = ball_grid(base.eps2, 9, inner=base.eps1)
    q = taming_quotients(-omega1(base)(mid))
    with pytest.raises(PreconditionFailure, match="middle annulus") as exc:
        glue_forms(_negated(base), grid_n=9)
    assert exc.value.value == q.min() and exc.value.worst_sample == tuple(mid[np.argmin(q)])

    # the zero potential
    outer = ball_grid(base.eps3, 9, inner=base.eps2 * (1 + 1e-9))
    zero = base._replace(h=RadialProfile.of_rule(lambda u: (0.0 * u, 0.0 * u, 0.0 * u)))
    with pytest.raises(PreconditionFailure, match="outside eps2") as exc:
        glue_forms(zero, grid_n=9)
    assert exc.value.value == 0.0 and exc.value.worst_sample == tuple(outer[0])


# the default problem, the gluing problems of the benchmark's seeds 7 and 11,
# problems at m = 1 and m = 3, and two that fail a precondition: the flat
# form, which does not vanish on the inner ball, and the negated default
ORACLE_PROBLEMS = {
    "default": pipeline_problem(),
    "seed-7": pipeline_problem(2, 0.0524, 0.4585, 0.8404, 1.0),
    "seed-11": pipeline_problem(2, 0.1142, 0.4982, 0.8061, 1.0),
    "m1": pipeline_problem(1, 0.1, 0.5, 0.8, 1.0),
    "m3": pipeline_problem(3, 0.15, 0.25, 0.8, 1.0),
    "flat": GluingProblem(0.3, 0.6, 0.9, _IDENTITY, identity_profile()),
    "negated": _negated(pipeline_problem()),
}


def _outcome(fn):
    """(delta, certificate) of fn(), or the error it raises, as comparable fields."""
    try:
        delta, cert = fn()
    except PreconditionFailure as exc:
        return "precondition", str(exc), exc.worst_sample, exc.value
    except ValueError as exc:
        return "invalid", str(exc)
    return "ok", delta, cert


@pytest.mark.parametrize("n", [*range(3, 13), 22])
@pytest.mark.parametrize("name", sorted(ORACLE_PROBLEMS))
def test_float_gluing_matches_the_numpy_oracle(name, n):
    problem = ORACLE_PROBLEMS[name]
    got = _outcome(lambda: glue_forms(problem, grid_n=n))
    want = _outcome(lambda: glue_forms_oracle(problem, n))
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1:3] == want[1:3]
        if got[0] == "precondition":
            assert abs(got[3] - want[3]) <= 1e-13 * max(1.0, abs(want[3]))
        return
    (delta, cert), (want_delta, want_cert) = got[1:], want[1:]
    assert abs(delta - want_delta) <= 1e-13 * want_delta
    assert abs(cert.min_quotient - want_cert.min_quotient) <= 1e-13 * abs(want_cert.min_quotient)
    assert cert._replace(min_quotient=0.0) == want_cert._replace(min_quotient=0.0)


def test_glue_forms_peak_memory_does_not_grow_with_the_grid():
    # the orbits stream through the certificates: nine times as many at grid
    # 40 as at 20, none of them kept.  Only the circles of a plane grid and
    # g's float jets on them are, which grow as the square of the grid, by
    # about 0.1 MB from grid 20 to 40
    problem = pipeline_problem()

    def peak(n):
        return traced_peak(lambda: glue_forms(problem, grid_n=n))

    assert peak(40) <= peak(20) + 256 * 2 ** 10
