"""Certificates on the orbit space: each `verify` certificate evaluates one
grid point per torus orbit of its region, and reaches the minimum, the
worst sample and the gluing constant of the whole 4-D grid."""

import json
import math
import pathlib
import re

import numpy as np
import pytest

from fd_oracles import (ball_grid, chart_grid, cube_grid, d_rho_beta, dr_beta, eval_omega_a,
                        numpy_chart_form, omega1, orbit_samples, orbit_taming_data, phi1,
                        tameness_min)
from orbifold4.cli import main
from orbifold4.sympverify import LocalModel, forms
from orbifold4.sympverify.blowup import CHART, blowup_model_check
from orbifold4.sympverify.fixtures import pipeline_problem
from orbifold4.sympverify.forms import glue_forms
from orbifold4.sympverify.taming import OrbitRegion
from test_sympverify_forms import traced_peak

PROBLEM = pipeline_problem()


def _samples(region, n):
    return np.array(list(region.samples(n)))


def _cube(n):
    ax = np.linspace(-0.25, 0.25, n)
    return cube_grid(ax, ax, ax, ax)


def _ball(radius, inner):
    return OrbitRegion.ball(inner, radius), lambda n: ball_grid(radius, n, inner)


# the regions the commands build, each with its whole 4-D grid: the
# tameness cube, the blow-up chart grid, and the balls and annuli on which
# glue_forms checks omega1, sizes delta and certifies the glued form
REGIONS = {
    "cube": (OrbitRegion.cube(0.25), _cube),
    "chart": (CHART, chart_grid),
    "inner-ball": _ball(PROBLEM.eps1 * 0.999, 0.0),
    "middle-annulus": _ball(PROBLEM.eps2, PROBLEM.eps1),
    "outer-annulus": _ball(PROBLEM.eps3, PROBLEM.eps2 * (1 + 1e-9)),
    "ball": _ball(PROBLEM.eps3, 1e-6),
}


def _orbit(region, n, p):
    """A point's orbit: (x1, t) in the cube, whose forms do not depend on y1,
    and (s, t) elsewhere, each circle of a plane [-h, h]^2 told by its exact
    integer radius round(x (n - 1)/h)^2 + round(y (n - 1)/h)^2."""
    def circle(x, y, half):
        scale = (n - 1) / half
        return round(x * scale) ** 2 + round(y * scale) ** 2
    fibre = circle(p[2], p[3], region.tail)
    return (p[0], fibre) if region.line else (circle(p[0], p[1], region.head), fibre)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("kind", sorted(REGIONS))
def test_orbit_samples_are_the_first_point_of_each_orbit_of_the_region(kind, n):
    orbit_region, whole = REGIONS[kind]
    samples, region = _samples(orbit_region, n), whole(n)
    index = {p: i for i, p in enumerate(map(tuple, region.tolist()))}
    first = {}
    for i, p in enumerate(region.tolist()):
        first.setdefault(_orbit(orbit_region, n, p), i)
    at = [index.get(p) for p in map(tuple, samples.tolist())]
    keys = [_orbit(orbit_region, n, p) for p in samples.tolist()]
    assert None not in at  # every sample is a point of the region
    assert at == sorted(set(at))  # in grid order, each once
    assert len(set(keys)) == len(keys)  # one per orbit
    assert set(keys) == set(first)  # and every orbit of the region
    assert at == sorted(first.values())  # each the first grid point of its orbit


def _radii_apart(factor) -> bool:
    """Whether no two orbit coordinates of a factor agree to 1e-12 relative."""
    values = sorted(s for s, _ in factor)
    return all(b - a > 1e-12 * max(abs(a), abs(b)) for a, b in zip(values, values[1:]))


def test_each_circle_is_one_orbit():
    # a circle is told apart by its exact integer radius, so rounding in x^2
    # + y^2 splits none: a 24-point axis has 64 circles of distinct x^2 +
    # y^2, one of them below the chart's |v| floor, where float keys read
    # 116 x 144; the cube's fibre at grid 21 has 61
    assert tuple(map(len, CHART.factors(24))) == (64, 63)
    assert tuple(map(len, CHART.factors(5))) == (6, 5)
    assert len(OrbitRegion.cube(0.25).factors(21)[1]) == 61
    for n in range(2, 41):
        for region in (CHART, OrbitRegion.cube(0.25), OrbitRegion.ball(PROBLEM.eps1, 1.0)):
            assert all(map(_radii_apart, region.factors(n))), (region, n)


@pytest.mark.parametrize("delta2", [0.2246, 0.2351])
def test_the_cube_orbit_count_does_not_depend_on_its_side(capsys, delta2):
    # 24 x1 points times 64 fibre circles, whatever delta2 rounds to
    main(["verify", "tameness", "--model", "flat", "--delta2", str(delta2), "--grid", "24",
          "--json"])
    assert json.loads(capsys.readouterr().out)["results"]["certificate"]["orbits"] == 1536


def _counting_quotient(monkeypatch, module) -> list:
    """Count the calls of module's taming quotient."""
    calls, quotient = [], module.quotient

    def counted(*args):
        calls.append(None)
        return quotient(*args)
    monkeypatch.setattr(module, "quotient", counted)
    return calls


def test_the_blowup_certificate_evaluates_one_quotient_per_orbit(monkeypatch):
    # 64 x 63 circle pairs at grid 24, where float keys made 16,704
    from orbifold4.sympverify import blowup
    calls = _counting_quotient(monkeypatch, blowup)
    assert blowup_model_check(3, 0.4322, 24).certificate.orbits == len(calls) == 4032


def test_the_gluing_evaluates_one_quotient_per_orbit(monkeypatch):
    # the middle annulus, the outer annulus and the ball at grid 22, each
    # orbit once: the oracle's exact orbits, and 841 in the ball where float
    # keys made 7,336
    calls = _counting_quotient(monkeypatch, forms)
    e1, e2, e3 = PROBLEM.eps1, PROBLEM.eps2, PROBLEM.eps3
    _, cert = glue_forms(PROBLEM, grid_n=22)
    regions = [orbit_samples(e2, 22, e1), orbit_samples(e3, 22, e2 * (1 + 1e-9)),
               orbit_samples(e3, 22, 1e-6)]
    assert len(calls) == sum(map(len, regions)) == 1974
    assert cert.orbits == len(regions[-1]) == 841


MODEL_FILE = str(pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"
                 / "model.json")
# every certificate a command reports: gluing grid 2 has no orbit on an
# annulus and exits 2
LABELLED = {
    "tameness-flat": ("tameness", "--model", "flat"),
    "tameness-resolved": ("tameness", "--model", "flat", "--resolved"),
    "tameness-model": ("tameness", "--model", MODEL_FILE),
    "blowup": ("blowup", "--m", "2", "--lam", "0.1"),
    "blowup-m3": ("blowup", "--m", "3", "--lam", "0.4322"),
    "gluing": ("gluing",),
}
CHARTS = (r"two charts, u in \[(\S+), (\S+)\]\^2, v in \[(\S+), (\S+)\]\^2 "
          r"with \|v\|>=(\S+) \(m=(\d+), lambda=(\S+)\)")


def _in_labelled_region(label, argv, p):
    """Whether the point p lies in the region the label names, its bounds
    read back from the label: the cube [-h, h]^4, the ball inner <= |p| <=
    outer, or a chart's squares with |v| >= v_min, the chart label naming
    the command's (m, lambda)."""
    x1, y1, x2, y2 = p
    if match := re.fullmatch(r"cube side 2\*(\S+)", label):
        return max(map(abs, p)) <= float(match[1])
    if match := re.fullmatch(r"ball (\S+) <= \|p\| <= (\S+)", label):
        r = math.sqrt((x1 * x1 + y1 * y1) + (x2 * x2 + y2 * y2))
        return float(match[1]) <= r <= float(match[2])
    u_lo, u_hi, v_lo, v_hi, v_min, m, lam = re.fullmatch(CHARTS, label).groups()
    assert (m, lam) == (argv[argv.index("--m") + 1], argv[argv.index("--lam") + 1])
    u_lo, u_hi, v_lo, v_hi, v_min = map(float, (u_lo, u_hi, v_lo, v_hi, v_min))
    return (u_lo <= min(x1, y1) and max(x1, y1) <= u_hi and v_lo <= min(x2, y2)
            and max(x2, y2) <= v_hi and math.hypot(x2, y2) >= v_min)


@pytest.mark.parametrize("command,n", [(c, n) for c in sorted(LABELLED) if c != "gluing"
                                       for n in (2, 8, 24)] + [("gluing", 8), ("gluing", 24)])
def test_the_worst_sample_lies_in_the_labelled_region(capsys, command, n):
    # each label is computed from its region's bounds; grid 2's one chart
    # orbit is a corner of both squares, |u| = 1.70 > 1.2
    argv = ("verify", *LABELLED[command], "--grid", str(n), "--json")
    main(list(argv))
    cert = json.loads(capsys.readouterr().out)["results"]["certificate"]
    assert _in_labelled_region(cert["region"], argv, cert["worst_sample"])


def _model(resolved=False, **connection):
    model = LocalModel(m=2, a=0.1, **connection)
    return lambda q: eval_omega_a(model, q, resolved=resolved)


CONNECTION = {"nu": (0.05, -0.08), "kappa": 0.4}
CERTIFICATES = {
    "flat": (_model(), "cube"),
    "connection": (_model(**CONNECTION), "cube"),
    "connection-resolved": (_model(resolved=True, **CONNECTION), "cube"),
    "blowup-m2": (numpy_chart_form(2, 0.1), "chart"),
    "blowup-m3": (numpy_chart_form(3, 0.4322), "chart"),
}


def _assert_same_certificate(got, want):
    assert abs(got.min_quotient - want.min_quotient) <= 1e-13 * abs(want.min_quotient)
    assert got.worst_sample == want.worst_sample


@pytest.mark.parametrize("n", range(6, 13))
@pytest.mark.parametrize("kind", sorted(CERTIFICATES))
def test_orbit_certificate_matches_the_whole_grid(kind, n):
    form, kind = CERTIFICATES[kind]
    region, whole = REGIONS[kind]
    samples, grid = _samples(region, n), whole(n)
    got = tameness_min(form, samples)
    assert got.orbits == len(samples) < len(grid)
    _assert_same_certificate(got, tameness_min(form, grid))


@pytest.mark.parametrize("n", [6, 9, 12, 20])
@pytest.mark.parametrize("m,lam", [(2, 0.1), (3, 0.4322), (5, 1e8), (3, 1e16)])
def test_float_blowup_certificate_matches_the_numpy_forms_on_the_whole_grid(m, lam, n):
    # the float certificate over the orbits against the numpy path's 4x4
    # forms over every point of the chart grid
    got = blowup_model_check(m, lam, grid_n=n).certificate
    grid = chart_grid(n)
    want = tameness_min(numpy_chart_form(m, lam), grid)
    assert got.orbits == len(_samples(CHART, n)) < len(grid)
    assert got.tame == want.tame
    _assert_same_certificate(got, want)


# the default problem and the gluing problems of the benchmark's seeds 7 and 11
GLUING = {
    "default": PROBLEM,
    "seed-7": pipeline_problem(2, 0.0524, 0.4585, 0.8404, 1.0),
    "seed-11": pipeline_problem(2, 0.1142, 0.4982, 0.8061, 1.0),
}


@pytest.mark.parametrize("n", [*range(6, 13), 22])
@pytest.mark.parametrize("name", sorted(GLUING))
def test_glue_forms_on_orbits_matches_the_whole_grid(name, n):
    # the certificate and delta from the taming data on the orbits against
    # tameness_min's 4x4 forms over every point of the orbit-rule region:
    # the glued form read as omega1 + delta d(rho beta), omega1 off the
    # oracle's array jet of phi1 and beta by its explicit formula
    problem = GLUING[name]
    e2, e3 = problem.eps2, problem.eps3
    delta, cert = glue_forms(problem, grid_n=n)
    ball, form = ball_grid(e3, n, inner=1e-6), omega1(problem)
    want = tameness_min(lambda q: form(q) + delta * d_rho_beta(problem.rho, q), ball)
    assert cert.orbits == len(orbit_samples(e3, n, 1e-6)) < len(ball)
    assert cert.tame == want.tame
    _assert_same_certificate(cert, want)
    C = tameness_min(form, ball_grid(e3, n, inner=e2 * (1 + 1e-9))).min_quotient
    norm = float(np.max(np.linalg.norm(dr_beta(problem.rho, ball), ord=2, axis=(-2, -1))))
    want = C / (2.0 * (norm + 1.0))
    assert abs(delta - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [11, 22])
@pytest.mark.parametrize("cutoff", [False, True], ids=["phi1", "glued"])
@pytest.mark.parametrize("name", sorted(GLUING))
def test_the_gluing_hessian_is_the_oracles_on_every_orbit(name, cutoff, n):
    # the hand-written Hessian's taming data (a, d, |b|) per orbit of the
    # certified ball, of phi1 and of phi1 + delta G with the cutoff's rule,
    # against the oracle's array jet of phi1 and G's Hessian in closed form
    problem = GLUING[name]
    e3, rho = problem.eps3, problem.rho
    delta = glue_forms(problem, grid_n=n)[0] if cutoff else 0.0
    samples = list(forms._samples(problem, OrbitRegion.ball(1e-6, e3), n,
                                  lambda a, d, b: (a, d, b), (delta, rho.rule if cutoff else None)))
    points = orbit_samples(e3, n, 1e-6)
    assert [p for p, _ in samples] == list(map(tuple, points.tolist()))
    got = np.array([abd for _, abd in samples]).T
    want = np.array(orbit_taming_data(phi1(problem), points, delta, rho if cutoff else None))
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-13 * np.max(np.abs(want), axis=1))


def test_no_certificate_builds_its_4d_grid(capsys):
    # tracemalloc sees numpy's buffers: each command's peak stays below the
    # (N, 4) float array of the 4-D points its region is cut from
    point = 4 * 8
    assert traced_peak(lambda: blowup_model_check(3, 0.4322, 24)) < len(chart_grid(24)) * point
    flat = ["verify", "tameness", "--model", "flat", "--grid", "24", "--json"]
    assert traced_peak(lambda: main(flat)) < 24 ** 4 * point
    assert traced_peak(lambda: glue_forms(PROBLEM, grid_n=22)) < 22 ** 4 * point
