"""Gluing of a form vanishing near the origin to a multiple of the flat form."""

import numpy as np
import pytest

from orbifold4.sympverify import GluingProblem, glue_forms, rho_bump
from orbifold4.sympverify.fixtures import (flat_form, pipeline_problem,
                                           smoothing_excess_max,
                                           standard_primitive)
from orbifold4.sympverify.forms import PreconditionFailure, ball_grid, taming_quotients
from orbifold4.sympverify.linear import J0, OMEGA0


def test_standard_primitive_differentiates_to_flat_form():
    from orbifold4.sympverify.forms import _dbeta_residual
    prob = GluingProblem(0.3, 0.6, 0.9, flat_form, flat_form,
                         standard_primitive, rho_bump(0.6, 0.9))
    pts = np.random.default_rng(0).uniform(-0.5, 0.5, (40, 4))
    assert _dbeta_residual(prob, pts) < 1e-9


def test_problem_radius_validation():
    with pytest.raises(ValueError):
        GluingProblem(0.8, 0.5, 1.0, flat_form, flat_form,
                      standard_primitive, rho_bump(0.5, 1.0))


def test_smoothing_excess_max():
    # for m = 2 the max of sqrt(x + a^2) - x over [0, b] is at x = 1/4 - a^2
    # (interior for b = 0.25, a = 0.1), with value 1/4 + a^2
    assert abs(smoothing_excess_max(2, 0.1, 0.25) - 0.26) < 1e-6


def test_pipeline_problem_geometry():
    prob = pipeline_problem(m=2, a=0.1)
    # omega1 really vanishes on the inner ball
    pts = ball_grid(prob.eps1 * 0.99, 9)
    assert float(np.max(np.abs(prob.omega1(pts)))) < 1e-12
    # and is nondegenerate on the outer annulus
    outer = ball_grid(prob.eps3, 9, inner=prob.eps2 * 1.001)
    assert float(np.min(taming_quotients(prob.omega1(outer), J0))) > 0


def test_pipeline_problem_rejects_radii_without_ramp_window():
    with pytest.raises(ValueError):
        pipeline_problem(m=2, a=0.5, eps1=0.7, eps2=0.75)


def test_glue_forms_certificate_and_delta_bound():
    prob = pipeline_problem(m=2, a=0.1)
    delta, glued, cert = glue_forms(prob, grid_n=11)
    assert cert.tame and delta > 0
    # near the origin the glued form is delta times the flat form
    near = np.random.default_rng(1).uniform(-0.05, 0.05, (20, 4))
    assert np.max(np.abs(glued(near) - delta * OMEGA0)) < 1e-9
    # outside eps3 the cutoff is gone and the glued form equals omega1
    far = ball_grid(prob.eps3, 7, inner=prob.eps3 * 0.999)
    assert np.max(np.abs(glued(far) - np.asarray(prob.omega1(far), float))) < 1e-9


def test_glue_forms_determinism():
    prob = pipeline_problem(m=2, a=0.1)
    d1, _, c1 = glue_forms(prob, grid_n=9)
    d2, _, c2 = glue_forms(pipeline_problem(m=2, a=0.1), grid_n=9)
    assert d1 == d2 and c1.min_quotient == c2.min_quotient


def test_glue_forms_rejects_nonvanishing_omega1():
    # gluing the flat form to itself violates the inner-ball precondition
    prob = GluingProblem(0.3, 0.6, 0.9, flat_form, flat_form,
                         standard_primitive, rho_bump(0.6, 0.9))
    with pytest.raises(PreconditionFailure):
        glue_forms(prob, grid_n=7)


def test_glue_forms_rejects_wrong_primitive():
    base = pipeline_problem(m=2, a=0.1)
    bad = GluingProblem(base.eps1, base.eps2, base.eps3, base.omega1,
                        flat_form, lambda p: 3.0 * standard_primitive(p),
                        base.rho)
    with pytest.raises(PreconditionFailure):
        glue_forms(bad, grid_n=7)


def test_glue_forms_reports_the_worst_annulus_sample():
    base = pipeline_problem(m=2, a=0.1)

    def problem(omega1):
        return GluingProblem(base.eps1, base.eps2, base.eps3, omega1, base.omega2,
                             base.beta, base.rho)

    def negated(p):
        return -np.asarray(base.omega1(p), float)

    mid = ball_grid(base.eps2, 9, inner=base.eps1)
    q = taming_quotients(negated(mid), J0)
    with pytest.raises(PreconditionFailure, match="middle annulus") as exc:
        glue_forms(problem(negated), grid_n=9)
    assert exc.value.value == q.min() and exc.value.worst_sample == tuple(mid[np.argmin(q)])

    outer = ball_grid(base.eps3, 9, inner=base.eps2 * (1 + 1e-9))
    with pytest.raises(PreconditionFailure, match="outside eps2") as exc:
        glue_forms(problem(lambda p: np.zeros(np.shape(p)[:-1] + (4, 4))), grid_n=9)
    assert exc.value.value == 0.0 and exc.value.worst_sample == tuple(outer[0])
