"""Two-chart model of the resolved cyclic singularity and its candidate
form, in Python floats, against the numpy path of tests/fd_oracles.py and
against finite differences."""

import math
import re
import sys
from decimal import Decimal

import numpy as np
import pytest

from fd_oracles import (chart_grid, chart_potential, ddbar_fd, exact_taming_quotient,
                        exterior_derivative_fd, numpy_chart_form, realify, taming_quotients,
                        zero_section_density)
from orbifold4.cli import main
from orbifold4.sympverify import blowup, jet
from orbifold4.sympverify.blowup import (CHART, PAIRS, _base, blowup_model_check, chart_form,
                                         closedness_probe, closedness_residual, exceptional_area,
                                         gauss_legendre, overlap_probe, taming_data, transition)
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


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_gauss_legendre_matches_numpy(n):
    # up to the area's 16 nodes; from about 30 nodes numpy's own edge
    # weights stray past 1e-15 (2.1e-15 at 31, against 40 digits)
    nodes, weights = gauss_legendre(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(np.array(nodes) - want_nodes)) <= 1e-15
    assert np.max(np.abs(np.array(weights) - want_weights)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 31])
def test_gauss_legendre_is_exact_up_to_degree_2n_minus_1(n):
    nodes, weights = gauss_legendre(n)
    for k in range(2 * n):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x ** k for x, w in zip(nodes, weights)) - want) <= 1e-14


@pytest.mark.parametrize("lam", [1e-8, 0.1, 0.5, 2.0, 1e8, 5e306])
@pytest.mark.parametrize("m", [2, 3])
def test_exceptional_area_is_lambda_pi(m, lam):
    # the area's Gauss-Legendre rule, and the same rule on the numpy path's
    # zero-section density, read lambda pi to rounding
    assert abs(exceptional_area(lam) - lam * math.pi) <= 1e-14 * lam * math.pi
    x, w = np.polynomial.legendre.leggauss(blowup.AREA_NODES)
    theta = np.pi / 4.0 * (1.0 + x)
    rho = np.tan(theta)
    integrand = 2.0 * np.pi * rho * zero_section_density(m, lam, rho) * (1.0 + rho ** 2)
    assert abs(math.fsum(np.pi / 4.0 * w * integrand) - lam * math.pi) <= 1e-14 * lam * math.pi


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
    # 64 points, the same whatever the grid, reaching both ends of |u| in
    # [0.5, 2] and |v| in [0.05, 0.5], and no two alike
    pts = np.array(overlap_probe())
    ru, rv = np.hypot(pts[:, 0], pts[:, 1]), np.hypot(pts[:, 2], pts[:, 3])
    assert len(pts) == 64 and len(np.unique(pts.round(12), axis=0)) == len(pts)
    assert np.allclose([ru.min(), ru.max(), rv.min(), rv.max()], [0.5, 2.0, 0.05, 0.5])


def test_chart_orbits_avoid_the_fiber_origin():
    _, tails = CHART.factors(8)
    assert min(t for t, _ in tails) >= 0.05 ** 2
    assert all(x * x + y * y == t for t, (x, y) in tails)


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


@pytest.mark.parametrize("lam", [0.1, 1e8])
def test_the_closedness_gate_sits_at_1e_10_of_max_1_lambda(lam):
    # exact derivatives leave rounding alone, so a residual the old
    # finite-difference gate of 1e-5 passed now fails
    good = blowup_model_check(2, lam, grid_n=4)
    scale = max(1.0, lam)
    assert good.ok and good._replace(closedness_residual=1e-10 * scale).ok
    assert good._replace(closedness_residual=2e-10 * scale).ok is False


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


def test_a_subnormal_lambda_is_refused_naming_it(capsys):
    # below the smallest normal double the model's numbers are subnormal,
    # and no gate relative to lambda pi means anything; the smallest normal
    # lambda is certified
    assert main(["verify", "blowup", "--lam", "1e-310", "--grid", "4", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: lambda=1e-310 is subnormal")
    assert blowup_model_check(2, sys.float_info.min, grid_n=4).ok


def test_blowup_model_check_rejects_bad_parameters():
    with pytest.raises(ValueError):
        blowup_model_check(1, 0.1)
    with pytest.raises(ValueError):
        blowup_model_check(2, 0.0)


@pytest.mark.parametrize("m,lam", [(300, 0.1), (2, 5e307), (2, 1e308)])
def test_an_overflowing_model_is_refused_naming_m_and_lambda(m, lam):
    # m = 300 overflows T'' on the overlap, lambda = 5e307 the potential at
    # the area's last node and lambda = 1e308 the expected area lambda pi
    with pytest.raises(ValueError, match=re.escape(f"m={m}, lambda={lam}")):
        blowup_model_check(m, lam, grid_n=4)


@pytest.mark.parametrize("lam", [5e306, 1e307])
def test_a_lambda_just_below_overflow_is_certified(lam):
    # the potential at the area's last node overflows from 1.88e307
    assert blowup_model_check(2, lam, grid_n=4).ok


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


@pytest.mark.parametrize("m", [2, 3, 5])
def test_the_numpy_finite_differences_find_the_closedness_probe_closed(m):
    # the independent oracle, on the arrays' form, at the same 72 points
    probes = closedness_probe()
    assert len(probes) == 72 and len(set(probes)) == 72
    assert exterior_derivative_fd(numpy_chart_form(m, 0.1), probes, h=1e-5) <= 1e-5


@pytest.mark.parametrize("lam", [0.1, 1e8, 1e16])
@pytest.mark.parametrize("m", [2, 3, 5, 12, 252])
def test_the_jet_closedness_residual_is_rounding(m, lam):
    # at most 8.2e-14 measured: the report's gate 1e-10 is 1000 times that
    assert closedness_residual(chart_form(m, lam)) <= 1e-10 * max(1.0, lam)


def test_a_packing_slip_in_the_chart_form_fails_the_report(monkeypatch):
    # Im c01 with the wrong sign in w02 and w13: the certificate, which reads
    # |b|, cannot see it, the closedness and overlap checks must
    packed = blowup.chart_form

    def slipped(m, lam):
        form = packed(m, lam)

        def flipped(point):
            w01, w02, w03, w12, w13, w23 = form(point)
            return w01, -w02, w03, w12, -w13, w23
        return flipped

    monkeypatch.setattr(blowup, "chart_form", slipped)
    report = blowup_model_check(2, 0.1, grid_n=6)
    assert report.ok is False and report.certificate.tame
    assert report.closedness_residual > 1.0 and report.overlap_max_diff > 1.0


@pytest.mark.parametrize("n", [6, 24])
def test_the_cross_checks_cost_a_fixed_number_of_form_evaluations(monkeypatch, n):
    # closedness: 72 points, one jet per coordinate; overlap: 64 points,
    # the form and its image; the certificate reads no chart_form
    calls = []
    packed = blowup.chart_form

    def counted(m, lam):
        form = packed(m, lam)

        def evaluate(point):
            calls.append(None)
            return form(point)
        return evaluate

    monkeypatch.setattr(blowup, "chart_form", counted)
    assert blowup_model_check(3, 0.4322, grid_n=n).ok
    assert len(calls) == 72 * 4 + 64 * 2
