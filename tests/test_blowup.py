"""Two-chart model of the resolved cyclic singularity and its candidate form."""

import numpy as np
import pytest

from fd_oracles import ddbar_fd
from orbifold4.sympverify import (blowup_model_check, chart_form, chart_grid,
                                  chart_potential, exceptional_area, transition)
from orbifold4.sympverify import blowup, jet
from orbifold4.sympverify.blowup import closedness_residual, overlap_probe
from orbifold4.sympverify.linear import holomorphic_map
from orbifold4.sympverify.pushforward import _fiber_power

# holomorphic maps of C^2 with their real Jacobians
MAPS = {"transition": lambda p: transition(p, 2), "fiber-power": lambda p: _fiber_power(p, 3)}


@pytest.mark.parametrize("m", [2, 3])
def test_chart_form_matches_potential_fd(m):
    omega = chart_form(m, 0.1)
    F = chart_potential(m, 0.1)
    pts = np.random.default_rng(0).uniform(0.1, 0.8, (30, 4))
    fd = ddbar_fd(F, pts, h=1e-4)
    assert np.max(np.abs(fd - omega(pts))) < 1e-6


def test_transition_is_an_involution_on_the_overlap():
    pts = np.array([[1.0, 0.5, 0.3, -0.2], [0.8, -0.4, 0.1, 0.6]])
    image, _ = transition(pts, 3)
    back, _ = transition(image, 3)
    assert np.allclose(back, pts, atol=1e-12)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_transition_jacobian_against_fd(name):
    fmap = MAPS[name]
    pts = np.array([[0.9, 0.4, 0.3, -0.1]])
    _, jac = fmap(pts)
    h = 1e-6
    for i in range(4):
        dp = pts.copy()
        dp[0, i] += h
        dm = pts.copy()
        dm[0, i] -= h
        col = (fmap(dp)[0] - fmap(dm)[0]) / (2 * h)
        assert np.allclose(jac[0, :, i], col[0], atol=1e-6)


def test_the_overlap_probe_spans_the_overlap_annulus():
    # at least 200 points, the same whatever the grid, reaching both ends of
    # |u| in [0.5, 2] and |v| in [0.05, 0.5], and no two alike
    pts = overlap_probe()
    ru, rv = np.hypot(pts[:, 0], pts[:, 1]), np.hypot(pts[:, 2], pts[:, 3])
    assert len(pts) >= 200 and len(np.unique(pts.round(12), axis=0)) == len(pts)
    assert np.allclose([ru.min(), ru.max(), rv.min(), rv.max()], [0.5, 2.0, 0.05, 0.5])


def test_chart_grid_avoids_fiber_origin():
    pts = chart_grid(8, v_min=0.05)
    t = pts[:, 2] ** 2 + pts[:, 3] ** 2
    assert np.all(t >= 0.05 ** 2 - 1e-15)


@pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
def test_exceptional_area_is_lambda_pi(lam):
    assert abs(exceptional_area(2, lam) - lam * np.pi) < 1e-8 * max(1.0, lam)


@pytest.mark.parametrize("m", [2, 3])
def test_blowup_model_check(m):
    report = blowup_model_check(m, 0.1, grid_n=8)
    assert report.ok
    assert report.certificate.tame and report.certificate.min_quotient > 0
    assert report.closedness_residual <= 1e-5
    assert report.overlap_max_diff <= 1e-8


@pytest.mark.parametrize("lam", [1e7, 1e8])
@pytest.mark.parametrize("m", [2, 3])
def test_blowup_gates_are_relative_to_lambda(m, lam):
    # omega_lambda is closed and chart-compatible for every lambda > 0, while
    # its finite-difference and pullback residuals grow with lambda
    assert blowup_model_check(m, lam, grid_n=6).ok


def test_a_wrong_chart_transition_fails_the_report(monkeypatch):
    monkeypatch.setattr(blowup, "transition", lambda points, m: holomorphic_map(
        lambda u, v: (1 / u, u ** (m + 1) * v), points))
    report = blowup_model_check(2, 0.1, grid_n=6)
    assert report.ok is False and report.overlap_max_diff > 1e-8
    assert report.certificate.tame and report.closedness_residual <= 1e-5


def test_the_area_is_read_off_the_chart_potential(monkeypatch):
    # 2 lambda log(1+|u|^2) gives the zero section the area 2 lambda pi, so
    # the report, which expects lambda pi, must fail
    monkeypatch.setattr(blowup, "log1p", lambda x: 2 * jet.log1p(x))
    report = blowup_model_check(2, 0.1, grid_n=8)
    assert abs(report.area - 2 * 0.1 * np.pi) < 1e-8
    assert report.ok is False


def test_blowup_model_check_rejects_bad_parameters():
    with pytest.raises(ValueError):
        blowup_model_check(1, 0.1)
    with pytest.raises(ValueError):
        blowup_model_check(2, 0.0)


@pytest.mark.parametrize("n", range(18, 25))
@pytest.mark.parametrize("m", [2, 3])
def test_blowup_closedness_check_does_not_depend_on_the_grid(m, n):
    assert blowup_model_check(m, 0.1, grid_n=n).ok


@pytest.mark.parametrize("m", [2, 3])
def test_closedness_residual_rejects_a_non_closed_form(m):
    omega = chart_form(m, 0.1)

    def perturbed(points):
        # the dy1 ^ dx2 coefficient scaled by (1 + 0.001 x1): d(omega) != 0
        w = omega(points).copy()
        f = 1.0 + 0.001 * np.asarray(points)[..., 0]
        w[..., 1, 2] *= f
        w[..., 2, 1] *= f
        return w

    assert closedness_residual(omega) <= 1e-5 < closedness_residual(perturbed)
