"""Two-chart model of the resolved cyclic singularity and its candidate
form, in Python floats, against the numpy path of tests/fd_oracles.py and
against finite differences."""

import json
import math
import re
from decimal import Decimal

import numpy as np
import pytest

from fd_oracles import (chart_grid, chart_potential, ddbar_fd, exact_taming_quotient,
                        numpy_chart_form, realify, zero_section_density)
from orbifold4.cli import main
from orbifold4.sympverify import blowup, jet
from orbifold4.sympverify.blowup import (CHART, PAIRS, _base, blowup_model_check, chart_form,
                                         closedness_residual, exceptional_area, overlap_probe,
                                         taming_data, transition)
from orbifold4.sympverify.forms import taming_quotients
from orbifold4.sympverify.jet import realified_jacobian
from orbifold4.sympverify.taming import quotient

MODELS = [(m, lam) for m in (2, 3, 5) for lam in (0.1, 1e8, 1e16)]


def _upper(forms):
    """The entries above the diagonal of (N, 4, 4) forms, as (N, 6), in PAIRS order."""
    return np.stack([forms[:, k, l] for k, l in PAIRS], axis=1)


def _float_forms(m, lam, pts):
    form = chart_form(m, lam)
    return np.array([form(p) for p in pts.tolist()])


@pytest.mark.parametrize("m", [2, 3])
def test_chart_form_matches_potential_fd(m):
    pts = np.random.default_rng(0).uniform(0.1, 0.8, (30, 4))
    fd = ddbar_fd(chart_potential(m, 0.1), pts, h=1e-4)
    assert np.max(np.abs(_upper(fd) - _float_forms(m, 0.1, pts))) < 1e-6


@pytest.mark.parametrize("m,lam", MODELS)
def test_float_entries_match_the_numpy_form(m, lam):
    # the float and the numpy power round t^p apart in the last bit, and
    # the complex product conj(u) v cancels: c00 agrees to its own size, c11
    # = (1 + s) p^2 t^(p - 1) to m times that (its two terms cancel by 1/m),
    # and the c01 entries to the largest entry of their form
    pts = np.concatenate([chart_grid(7), np.random.default_rng(m).uniform(-1.2, 1.2, (40, 4))])
    want, got = _upper(numpy_chart_form(m, lam)(pts)), _float_forms(m, lam, pts)
    assert np.all(np.abs(got[:, 0] - want[:, 0]) <= 1e-15 * np.abs(want[:, 0]))
    assert np.all(np.abs(got[:, 5] - want[:, 5]) <= m * 1e-15 * np.abs(want[:, 5]))
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got[:, 1:5] - want[:, 1:5]) <= 1e-15 * scale)


def _data(m, lam, n):
    data = list(taming_data(m, lam, n, lambda *abd: abd))
    return np.array([p for p, _ in data]), np.array([abd for _, abd in data])


@pytest.mark.parametrize("m,lam", MODELS)
def test_float_taming_data_match_the_numpy_form(m, lam):
    # a = c00 and d = c11 read off the 4x4 form, |b| = hypot(w02, w03)
    pts, abd = _data(m, lam, 9)
    forms = numpy_chart_form(m, lam)(pts)
    a, d, b = abd.T
    assert np.all(np.abs(a - forms[:, 0, 1]) <= 1e-15 * forms[:, 0, 1])
    assert np.all(np.abs(d - forms[:, 2, 3]) <= m * 1e-15 * forms[:, 2, 3])
    assert np.all(np.abs(b - np.hypot(forms[:, 0, 2], forms[:, 0, 3])) <= 1e-15 * b)
    got = np.array([quotient(*row) for row in abd.tolist()])
    want = taming_quotients(forms)
    assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_float_quotients_match_an_exact_reference_at_a_large_lambda(m):
    # lambda = 1e16 scales the u-direction only: a quotient of order 1 next
    # to an eigenvalue of order 1e16, against the exact smaller eigenvalue of
    # the numpy form's entries
    pts, abd = _data(m, 1e16, 8)
    want = [exact_taming_quotient(w) for w in numpy_chart_form(m, 1e16)(pts)]
    got = [quotient(*row) for row in abd.tolist()]
    assert max(abs(Decimal(g) - x) / abs(x) for g, x in zip(got, want)) <= Decimal("8e-16")


@pytest.mark.parametrize("m,lam", MODELS)
def test_area_density_matches_the_numpy_zero_section(m, lam):
    # the density is c00 at t = 0, where T = 0: the base piece alone
    rho = np.tan(np.linspace(0.0, np.pi / 2.0, 400)[:-1])
    got = [_base(r * r, lam) for r in rho.tolist()]
    assert np.array_equal(got, zero_section_density(m, lam, rho))


@pytest.mark.parametrize("lam", [0.1, 2.0])
@pytest.mark.parametrize("m", [2, 3])
def test_exceptional_area_matches_the_numpy_trapezoid(m, lam):
    theta = np.linspace(0.0, np.pi / 2.0, 20000)
    rho = np.tan(theta[:-1])
    integrand = np.append(2.0 * np.pi * rho * zero_section_density(m, lam, rho) * (1.0 + rho ** 2),
                          0.0)
    want = float(np.trapezoid(integrand, theta))
    assert abs(exceptional_area(lam) - want) <= 1e-14 * want


def test_transition_is_an_involution_on_the_overlap():
    for u, v in ((complex(1.0, 0.5), complex(0.3, -0.2)), (complex(0.8, -0.4), complex(0.1, 0.6))):
        back = transition(*transition(u, v, 3), 3)
        assert abs(back[0] - u) < 1e-12 and abs(back[1] - v) < 1e-12


def _float_map(f, points):
    """The image points and real Jacobians of the holomorphic map f, one
    point at a time."""
    out = [realified_jacobian(f, complex(*p[:2]), complex(*p[2:]))
           for p in np.asarray(points, dtype=float).tolist()]
    return np.array([image for image, _ in out]), np.array([jac for _, jac in out])


# holomorphic maps of C^2, over complex numbers or jets, and their complex
# Jacobians [[df1/dz, df1/dw], [df2/dz, df2/dw]] in closed form, at m
MAPS = {
    "transition": (lambda m: lambda u, v: transition(u, v, m),
                   lambda m, u, v: [[-1 / u ** 2, 0], [m * u ** (m - 1) * v, u ** m]]),
    "fiber-power": (lambda m: lambda z, w: (z, w ** m),
                    lambda m, z, w: [[1, 0], [0, m * w ** (m - 1)]]),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_transition_jacobian_against_fd(name):
    f = MAPS[name][0](2 if name == "transition" else 3)
    pts = np.array([[0.9, 0.4, 0.3, -0.1]])
    _, jac = _float_map(f, pts)
    h = 1e-6
    for i in range(4):
        dp = pts.copy()
        dp[0, i] += h
        dm = pts.copy()
        dm[0, i] -= h
        col = (_float_map(f, dp)[0] - _float_map(f, dm)[0]) / (2 * h)
        assert np.allclose(jac[0, :, i], col[0], atol=1e-6)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_float_jacobian_matches_its_closed_form(name, m):
    # the jets' derivatives against -1/u^2, m u^(m-1) v and u^m of the
    # transition and m w^(m-1) of the fiber power, realified, and the image
    # against the map over complex numbers, on the overlap probe
    f, derivative = MAPS[name][0](m), MAPS[name][1]
    pts = np.array(overlap_probe())
    image, jac = _float_map(f, pts)
    for p, got_image, got in zip(pts.tolist(), image, jac):
        z, w = complex(*p[:2]), complex(*p[2:])
        want = realify(derivative(m, z, w))
        assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
        fz, fw = f(z, w)
        assert np.allclose(got_image, [fz.real, fz.imag, fw.real, fw.imag], rtol=1e-14, atol=0)


def test_the_overlap_probe_spans_the_overlap_annulus():
    # at least 200 points, the same whatever the grid, reaching both ends of
    # |u| in [0.5, 2] and |v| in [0.05, 0.5], and no two alike
    pts = np.array(overlap_probe())
    ru, rv = np.hypot(pts[:, 0], pts[:, 1]), np.hypot(pts[:, 2], pts[:, 3])
    assert len(pts) >= 200 and len(np.unique(pts.round(12), axis=0)) == len(pts)
    assert np.allclose([ru.min(), ru.max(), rv.min(), rv.max()], [0.5, 2.0, 0.05, 0.5])


def test_chart_orbits_avoid_the_fiber_origin():
    _, tails = CHART.factors(8)
    assert min(t for t, _ in tails) >= 0.05 ** 2
    assert all(x * x + y * y == t for t, (x, y) in tails)


@pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
def test_exceptional_area_is_lambda_pi(lam):
    assert abs(exceptional_area(lam) - lam * np.pi) < 1e-8 * max(1.0, lam)


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
    monkeypatch.setattr(blowup, "transition", lambda u, v, m: (1 / u, u ** (m + 1) * v))
    report = blowup_model_check(2, 0.1, grid_n=6)
    assert report.ok is False and report.overlap_max_diff > 1e-8
    assert report.certificate.tame and report.closedness_residual <= 1e-5


def test_the_certificate_and_the_cross_checks_read_one_formula(monkeypatch):
    # c11 doubled without c01 is no longer closed: the closedness check sees
    # the slip, and the certificate, which reads the same entries, moves
    good = blowup_model_check(2, 0.1, grid_n=6)
    monkeypatch.setattr(blowup, "_entries",
                        lambda one_s, t, base, fibre: (fibre[0] + base,
                                                       2.0 * one_s * (fibre[1] + t * fibre[2])))
    report = blowup_model_check(2, 0.1, grid_n=6)
    assert report.ok is False and report.closedness_residual > 1e-5
    assert report.certificate.min_quotient != good.certificate.min_quotient


def test_the_area_is_read_off_the_chart_potential(monkeypatch):
    # the rule of 2 log1p gives the potential 2 lambda log(1+|u|^2) and the
    # zero section the area 2 lambda pi, so the report, which expects
    # lambda pi, must fail
    monkeypatch.setattr(blowup, "log1p_rule", lambda x: tuple(2.0 * d for d in jet.log1p_rule(x)))
    report = blowup_model_check(2, 0.1, grid_n=8)
    assert abs(report.area - 2 * 0.1 * np.pi) < 1e-8
    assert report.ok is False


def test_the_area_gate_is_relative_to_lambda_pi(monkeypatch):
    # at lambda = 1e-8 the expected area lambda pi is far below 1: twice the
    # area must fail, as it does at lambda = 0.1
    lam = 1e-8
    good = blowup_model_check(2, lam, grid_n=4)
    assert good.ok and abs(good.area - lam * np.pi) <= 1e-8 * lam * np.pi
    monkeypatch.setattr(blowup, "log1p_rule", lambda x: tuple(2.0 * d for d in jet.log1p_rule(x)))
    report = blowup_model_check(2, lam, grid_n=4)
    assert abs(report.area - 2 * lam * np.pi) <= 1e-8 * lam * np.pi
    assert report.ok is False


def test_a_subnormal_lambda_fails_its_area_check(capsys):
    # at lambda = 1e-310 the quadrature works in subnormals, and its area
    # 1.74e-309 is not lambda pi = 3.14e-310
    assert main(["verify", "blowup", "--lam", "1e-310", "--grid", "4", "--json"]) == 4
    results = json.loads(capsys.readouterr().out)["results"]
    assert abs(results["exceptional_area"] - 1e-310 * np.pi) > 1e-310


def test_blowup_model_check_rejects_bad_parameters():
    with pytest.raises(ValueError):
        blowup_model_check(1, 0.1)
    with pytest.raises(ValueError):
        blowup_model_check(2, 0.0)


@pytest.mark.parametrize("m,lam", [(300, 0.1), (2, 1e307), (2, 1e308)])
def test_an_overflowing_model_is_refused_naming_m_and_lambda(m, lam):
    # m = 300 overflows T'' on the overlap, lambda = 1e307 the potential on
    # the zero section and lambda = 1e308 the expected area lambda pi
    with pytest.raises(ValueError, match=re.escape(f"m={m}, lambda={lam}")):
        blowup_model_check(m, lam, grid_n=4)


def test_a_lambda_just_below_overflow_is_certified():
    assert blowup_model_check(2, 5e306, grid_n=4).ok


@pytest.mark.parametrize("n", range(18, 25))
@pytest.mark.parametrize("m", [2, 3])
def test_blowup_closedness_check_does_not_depend_on_the_grid(m, n):
    assert blowup_model_check(m, 0.1, grid_n=n).ok


@pytest.mark.parametrize("m", [2, 3])
def test_closedness_residual_rejects_a_non_closed_form(m):
    form = chart_form(m, 0.1)

    def perturbed(point):
        # the dy1 ^ dx2 coefficient scaled by (1 + 0.001 x1): d(omega) != 0
        w = list(form(point))
        w[PAIRS.index((1, 2))] *= 1.0 + 0.001 * point[0]
        return w

    assert closedness_residual(form) <= 1e-5 < closedness_residual(perturbed)


def test_closedness_residual_matches_the_numpy_finite_differences():
    # the same 800 probes and step as exterior_derivative_fd over arrays
    from fd_oracles import exterior_derivative_fd
    heads = np.linspace(-1.2, 1.2, 5)
    theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ring = [(x, y, 0.05 * math.cos(a), 0.05 * math.sin(a))
            for x in heads for y in heads for a in theta]
    probes = np.concatenate([chart_grid(5), np.array(ring)])
    assert len(probes) == 800
    for m in (2, 3, 5):
        want = exterior_derivative_fd(numpy_chart_form(m, 0.1), probes, h=1e-5)
        assert abs(closedness_residual(chart_form(m, 0.1)) - want) <= 1e-4 * want
