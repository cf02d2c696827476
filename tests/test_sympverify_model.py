"""Local models: reference and smoothed forms, domains, fiber-power maps,
and the certificate of the cube from the taming data in floats."""

import math

import numpy as np
import pytest

from fd_oracles import (OMEGA0, antisymmetric, cube_grid, eval_omega_a, exterior_derivative_fd,
                        tameness_min)
from orbifold4.sympverify import LocalModel, OutOfDomainError, pushforward_check, sample_points
from orbifold4.sympverify import localmodel
from orbifold4.sympverify.jet import PAIRS
from orbifold4.sympverify.localmodel import _derivatives, cube_samples, model_form
from orbifold4.sympverify.profiles import H_cutoff, RadialProfile, f_resolved, f_smoothing
from orbifold4.sympverify.taming import OrbitRegion, certify


def _omega0(model, pts):
    """The reference form base area + r dr^eta + (r^2/2) d(eta), entry by entry."""
    x1, x2, y2 = pts[:, 0], pts[:, 2], pts[:, 3]
    n1, n2 = model.nu[0], model.nu[1] + model.kappa * x1
    return antisymmetric(1.0 + 0.5 * (x2 * x2 + y2 * y2) * model.kappa,
                         -x2 * n1, -y2 * n1, -x2 * n2, -y2 * n2, 1.0)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        LocalModel(m=0)
    with pytest.raises(ValueError):
        LocalModel(delta0=0.5, delta2=0.2)  # needs delta0 > 3*delta2


def test_trivial_model_is_flat():
    model = LocalModel()  # m=1, a=0, no connection
    pts = np.random.default_rng(0).uniform(-0.3, 0.3, (40, 4))
    assert np.allclose(eval_omega_a(model, pts), OMEGA0)


def test_omega0_with_curvature():
    # at a = 0 the smoothed form is the reference form
    model = LocalModel(kappa=2.0, nu=(0.3, -0.1))
    pts = np.random.default_rng(1).uniform(-0.2, 0.2, (30, 4))
    forms = eval_omega_a(model, pts)
    assert np.allclose(forms, -np.swapaxes(forms, -1, -2))
    x = pts[:, 2] ** 2 + pts[:, 3] ** 2
    assert np.allclose(forms[:, 0, 1], 1.0 + 0.5 * x * model.kappa)
    assert np.allclose(forms[:, 2, 3], 1.0)
    # the reference form is closed
    assert exterior_derivative_fd(lambda p: eval_omega_a(model, p), pts[:10], h=1e-4) < 1e-8


def test_omega_a_is_closed_and_tame():
    model = LocalModel(m=2, a=0.1, kappa=0.5, nu=(0.1, 0.0))
    pts = np.random.default_rng(2).uniform(-0.2, 0.2, (30, 4))
    assert exterior_derivative_fd(lambda p: eval_omega_a(model, p), pts[:10], h=1e-4) < 1e-6
    cert = tameness_min(lambda p: eval_omega_a(model, p), pts)
    assert cert.tame


@pytest.mark.parametrize("m", [1, 2, 5])
def test_omega_a_reduces_to_omega0_for_trivial_smoothing(m):
    model = LocalModel(m=m, a=0.0, kappa=1.0, nu=(0.2, 0.1))
    pts = np.random.default_rng(3).uniform(-0.2, 0.2, (25, 4))
    assert np.allclose(eval_omega_a(model, pts), _omega0(model, pts), rtol=1e-15, atol=1e-16)


def test_domain_and_singularity_guards():
    model = LocalModel(m=2, a=0.0)
    far = np.array([[0.0, 0.0, 2.0, 0.0]])
    with pytest.raises(OutOfDomainError):
        eval_omega_a(model, far)
    # with a = 0 the profile is x itself, so the fiber origin is no singularity
    origin = np.array([[0.1, 0.0, 0.0, 0.0]])
    assert np.array_equal(eval_omega_a(model, origin), _omega0(model, origin))


def test_resolved_profile_is_positive_at_fiber_origin():
    # the resolved-side profile keeps the vertical coefficient positive at r=0
    model = LocalModel(m=2, a=0.1)
    origin = np.array([[0.1, -0.05, 0.0, 0.0]])
    forms = eval_omega_a(model, origin, resolved=True)
    assert forms[0, 2, 3] > 0


def test_cutoff_profile_reverts_to_identity_far_out():
    H = H_cutoff(2, 0.1, lo=0.5, hi=0.9)
    f = f_resolved(2, 0.1)
    x = np.array([0.0, 0.2, 0.4])
    assert np.allclose(H.value(x), f.value(x) - x)
    assert np.allclose(H.value(np.array([1.0, 2.0])), 0.0)
    assert np.allclose(H.d1(np.array([1.0, 2.0])), 0.0)


def test_sample_points_deterministic_and_in_annulus():
    model = LocalModel(m=2, a=0.1)
    a = np.array(sample_points(model, 100, seed=4))
    b = np.array(sample_points(model, 100, seed=4))
    assert np.array_equal(a, b)
    r = np.hypot(a[:, 2], a[:, 3])
    assert np.all((r >= 0.05) & (r <= model.delta2 + 1e-12))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pushforward_exactness(m):
    model = LocalModel(m=m, a=0.1, kappa=0.3, nu=(0.1, -0.2))
    report = pushforward_check(m, model, samples=300, seed=0)
    assert report.radial_exact
    assert report.max_discrepancy < 1e-12  # the relation is exact, not just close
    assert report.ok


def test_pushforward_rejects_mismatched_m():
    with pytest.raises(ValueError):
        pushforward_check(3, LocalModel(m=2, a=0.1))


@pytest.mark.parametrize("resolved", [False, True], ids=["orbifold", "resolved"])
@pytest.mark.parametrize("params", [{}, {"m": 2, "a": 0.1, "kappa": 0.3, "nu": (0.1, -0.2)},
                                    {"m": 3, "a": 0.05, "kappa": -1.9, "nu": (0.3, -0.7)}])
def test_eval_omega_a_packs_model_form_at_each_point(params, resolved):
    # eval_omega_a is model_form point by point, its six entries above the
    # diagonal and their negatives below, over any leading shape of points,
    # the fiber origin included
    model = LocalModel(**params)
    pts = np.array(sample_points(model, 11, seed=2) + [(0.1, -0.2, 0.0, 0.0)]).reshape(3, 4, 4)
    forms = eval_omega_a(model, pts, resolved=resolved)
    assert forms.shape == (3, 4, 4, 4)
    assert np.array_equal(forms, -np.swapaxes(forms, -1, -2))
    form = model_form(model, resolved=resolved)
    for point, w in zip(pts.reshape(-1, 4).tolist(), forms.reshape(-1, 4, 4)):
        assert [w[k, l] for k, l in PAIRS] == list(form(point))
    assert np.array_equal(eval_omega_a(model, pts[1, 2], resolved=resolved), forms[1, 2])


def test_model_form_refuses_a_point_beyond_the_model_radius():
    with pytest.raises(OutOfDomainError):
        model_form(LocalModel(m=2, a=0.0))((0.0, 0.0, 2.0, 0.0))


def test_an_overflowing_model_fails_the_pushforward():
    # the resolved side scales nu1 = 1e308 by m = 2 past the largest double,
    # so its form and the pullback's entries are not finite
    report = pushforward_check(2, LocalModel(m=2, a=0.1, nu=(1e308, 0.0)), samples=50)
    assert report.max_discrepancy == math.inf and report.ok is False


def test_smoothing_profiles_asymptotics():
    f = f_smoothing(2, 0.1)
    assert abs(f.value(0.0) - 0.1) < 1e-15  # f(0) = a^(2/m)
    x = np.array([5.0, 10.0])
    assert np.max(np.abs(f.value(x) - x)) < 1e-3  # f(x) -> x far out
    fr = f_resolved(2, 0.1)
    assert np.allclose(fr.value(x ** 2), f.value(x))  # fhat(x^m) = f(x)


CONNECTIONS = {"flat": {}, "connection": {"nu": (0.05, -0.08), "kappa": 0.4},
               "strong-connection": {"nu": (0.3, -0.7), "kappa": -1.9}}


def _cube_certificate(model, n, resolved):
    """The certificate `verify tameness` computes: the cube of side 2*delta2."""
    return certify(cube_samples(model, OrbitRegion.cube(model.delta2), n, resolved=resolved))


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("resolved", [False, True], ids=["orbifold", "resolved"])
@pytest.mark.parametrize("connection", sorted(CONNECTIONS))
@pytest.mark.parametrize("a", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_float_certificate_matches_the_4x4_forms_on_the_whole_grid(m, a, connection,
                                                                  resolved, n):
    # the taming data in floats against eval_omega_a + tameness_min on every
    # point of the n^4 cube; odd grids meet r = 0, where the quotient is 0
    model = LocalModel(m=m, a=a, **CONNECTIONS[connection])
    got = _cube_certificate(model, n, resolved)
    ax = np.linspace(-model.delta2, model.delta2, n)
    grid = cube_grid(ax, ax, ax, ax)
    want = tameness_min(lambda q: eval_omega_a(model, q, resolved=resolved), grid)
    assert abs(got.min_quotient - want.min_quotient) <= 1e-13 * abs(want.min_quotient)
    assert (got.worst_sample, got.tame) == (want.worst_sample, want.tame)
    # an orbit is x1 and the exact integer radius of the (x2, y2) circle
    index = np.rint(grid[:, 2:] * ((n - 1) / model.delta2)).astype(np.int64)
    orbits = set(zip(grid[:, 0].tolist(), (index * index).sum(axis=1).tolist()))
    assert got.orbits == len(orbits)


@pytest.mark.parametrize("model,n,resolved,worst", [
    (LocalModel(m=2, a=1e-200), 21, False, (-0.25, -0.25, 0.0, 0.0)),
    (LocalModel(m=2, a=1e-200), 21, True, (-0.25, -0.25, 0.0, 0.0)),
    (LocalModel(m=8, a=0.1, delta0=1e60, delta2=1e50), 6, False, (-1e50,) * 4),
], ids=["zero-to-a-negative-power", "resolved", "overflowing-power"])
def test_taming_data_that_floats_cannot_compute_read_nan(model, n, resolved, worst):
    # a^2 underflows, so the grid's r = 0 meets 0.0 ** -p; or x ** m
    # overflows: numpy read NaN there, with a warning, and so do the floats
    cert = _cube_certificate(model, n, resolved)
    assert math.isnan(cert.min_quotient) and not cert.tame
    assert cert.worst_sample == worst


def test_a_profile_that_leaves_the_reals_reads_nan():
    sqrt_below_one = RadialProfile(lambda x: (x - 1.0) ** 0.5)
    assert all(map(math.isnan, _derivatives(sqrt_below_one, 0.5)))
    assert _derivatives(sqrt_below_one, 2.0) == (0.5, -0.25)


@pytest.mark.parametrize("resolved", [False, True], ids=["orbifold", "resolved"])
def test_the_certificate_and_the_4x4_form_read_one_formula(monkeypatch, resolved):
    # vert doubled in the one helper: the float certificate and the form
    # the cross-checks evaluate both see it (an even grid skips r = 0, where
    # the orbifold side's vert is 0 either way)
    model = LocalModel(m=2, a=0.1, nu=(0.3, 0.2), kappa=0.5)
    axis = np.linspace(-model.delta2, model.delta2, 6)
    pts = cube_grid(axis, axis, axis, axis)
    good = _cube_certificate(model, 6, resolved).min_quotient
    form = eval_omega_a(model, pts, resolved=resolved)
    coefficients = localmodel._coefficients
    monkeypatch.setattr(localmodel, "_coefficients",
                        lambda *args: (coefficients(*args)[0], 2.0 * coefficients(*args)[1]))
    assert _cube_certificate(model, 6, resolved).min_quotient != good
    assert not np.allclose(eval_omega_a(model, pts, resolved=resolved), form)
