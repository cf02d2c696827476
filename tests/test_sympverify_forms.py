"""Finite-difference Kähler calculus and tameness certification."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from fd_oracles import (J0, OMEGA0, ball_grid, chart_grid, complex_hessian_fd, cube_grid,
                        ddbar_fd, eval_omega_a, exact_taming_quotient, exterior_derivative_fd,
                        form_from_hermitian, invariant_potential, invariant_potential_form,
                        numpy_chart_form, taming_quotients, tameness_min)
from orbifold4.sympverify import LocalModel, glue_forms, h_ramp, rho_bump
from orbifold4.sympverify.blowup import blowup_model_check, exceptional_area
from orbifold4.sympverify.fixtures import pipeline_problem
from orbifold4.sympverify.profiles import f_smoothing


def _flat_potential(p):
    p = np.asarray(p, dtype=float)
    return np.sum(p * p, axis=-1)


def _sample_points(n=50, seed=0, scale=0.5):
    return np.random.default_rng(seed).uniform(-scale, scale, (n, 4))


def test_form_from_hermitian_identity_is_flat_form():
    assert np.allclose(form_from_hermitian(np.eye(2)), OMEGA0)
    # an antihermitian perturbation contributes nothing real-symmetric
    coeff = np.eye(2) + np.array([[0, 0.3 + 0.1j], [-0.3 + 0.1j, 0]])
    out = form_from_hermitian(coeff)
    assert np.allclose(out, -out.T)


def test_ddbar_flat_potential():
    pts = _sample_points()
    forms = ddbar_fd(_flat_potential, pts, h=1e-3)
    assert np.max(np.abs(forms - OMEGA0)) < 1e-9


def test_ddbar_second_order_convergence():
    # a potential with nonvanishing fourth derivatives
    def F(p):
        p = np.asarray(p, dtype=float)
        r2 = np.sum(p * p, axis=-1)
        return np.exp(r2) + p[..., 0] ** 2 * p[..., 2] ** 2
    pts = _sample_points(30, seed=3, scale=0.4)
    ref = ddbar_fd(F, pts, h=1e-5)
    e1 = np.max(np.abs(ddbar_fd(F, pts, h=4e-3) - ref))
    e2 = np.max(np.abs(ddbar_fd(F, pts, h=2e-3) - ref))
    assert 3.0 < e1 / e2 < 5.0  # ratio ~4 for a second-order scheme


def test_complex_hessian_pluriharmonic_vanishes():
    # Re(z w) is pluriharmonic: mixed holomorphic/antiholomorphic Hessian = 0
    def F(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0] * p[..., 2] - p[..., 1] * p[..., 3]
    hess = complex_hessian_fd(F, _sample_points(20, seed=7))
    assert np.max(np.abs(hess)) < 1e-9


def test_tameness_of_standard_pair():
    pts = _sample_points()
    quot = taming_quotients(np.broadcast_to(OMEGA0, (len(pts), 4, 4)))
    assert np.allclose(quot, 1.0)
    cert = tameness_min(lambda p: np.broadcast_to(OMEGA0, np.asarray(p).shape[:-1] + (4, 4)), pts)
    assert cert.tame and abs(cert.min_quotient - 1.0) < 1e-12


def test_tameness_detects_degenerate_form():
    rank2 = np.zeros((4, 4))
    rank2[0, 1], rank2[1, 0] = 1.0, -1.0
    cert = tameness_min(lambda p: np.broadcast_to(rank2, np.asarray(p).shape[:-1] + (4, 4)),
                        _sample_points())
    assert not cert.tame and abs(cert.min_quotient) < 1e-12


def test_certificate_serialization():
    cert = tameness_min(lambda p: np.broadcast_to(OMEGA0, np.asarray(p).shape[:-1] + (4, 4)),
                        _sample_points(), region="r", grid="g")
    obj = cert.to_json()
    assert obj["region"] == "r" and obj["tame"] is True
    assert len(obj["worst_sample"]) == 4


def test_exterior_derivative_of_exact_form_vanishes():
    g = f_smoothing(2, 0.1)
    omega = invariant_potential_form(lambda s, t: s + g(t))
    pts = _sample_points(20, seed=11, scale=0.3)
    pts[:, 2:] += 0.2  # keep away from the fiber origin
    assert exterior_derivative_fd(omega, pts, h=1e-4) < 1e-6


def test_radial_potential_form_matches_fd():
    g = f_smoothing(2, 0.1)
    h = h_ramp(0.05, 0.4)

    def phi(s, t):
        return h(s + g(t))

    omega = invariant_potential_form(phi)
    pts = _sample_points(40, seed=13, scale=0.35)
    pts[:, 2:] += 0.15
    fd = ddbar_fd(invariant_potential(phi), pts, h=1e-3)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert float(np.max(np.abs(fd - omega(pts)))) / scale < 1e-4


def test_radial_potential_form_without_outer_profile():
    from orbifold4.sympverify.profiles import identity_profile
    g = identity_profile()
    omega = invariant_potential_form(lambda s, t: s + g(t))
    assert np.allclose(omega(_sample_points(10)), OMEGA0)


def test_ball_grid_geometry():
    pts = ball_grid(1.0, 7)
    r = np.linalg.norm(pts, axis=-1)
    assert np.all(r <= 1.0 + 1e-12)
    ann = ball_grid(1.0, 7, inner=0.5)
    r = np.linalg.norm(ann, axis=-1)
    assert np.all(r >= 0.5) and len(ann) < len(pts)


@pytest.mark.parametrize("radius,n,inner", [(1.0, 22, 1e-6), (0.8061, 22, 0.4982),
                                            (1.0, 7, 1e-3), (0.25, 15, 0.0)])
def test_ball_grid_keeps_the_points_whose_orbit_lies_in_the_region(radius, n, inner):
    # the orbit rule: inner <= sqrt(s + t) <= radius, with s = x1^2 + y1^2 and
    # t = x2^2 + y2^2 read at the first grid point of each circle, a circle
    # told by its exact integer radius, so a torus orbit is kept or dropped
    # as a whole even where its points' own x^2 + y^2 differ by rounding
    axis = np.linspace(-radius, radius, n)
    pts = cube_grid(axis, axis, axis, axis)
    first = {}
    for x in axis.tolist():
        for y in axis.tolist():
            key = round(x * (n - 1) / radius) ** 2 + round(y * (n - 1) / radius) ** 2
            first.setdefault(key, x * x + y * y)

    def square(x, y):
        return first[round(x * (n - 1) / radius) ** 2 + round(y * (n - 1) / radius) ** 2]
    keep = [inner <= math.sqrt(square(x1, y1) + square(x2, y2)) <= radius
            for x1, y1, x2, y2 in pts.tolist()]
    assert np.array_equal(ball_grid(radius, n, inner), pts[keep])


def test_ball_grid_makes_no_array_of_squares():
    # the cube of points plus per-coordinate temporaries, not a second (N, 4)
    n = 22
    tracemalloc.start()
    try:
        ball_grid(1.0, n, inner=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n ** 4 * 4 * 8


def test_profiles_calculus():
    # derivative consistency of every closed-form profile, by central FD
    for prof in [f_smoothing(3, 0.2), h_ramp(0.2, 0.7), rho_bump(0.3, 0.9)]:
        x = np.linspace(0.01, 1.2, 200)
        h = 1e-5
        fd1 = (prof.value(x + h) - prof.value(x - h)) / (2 * h)
        fd2 = (prof.d1(x + h) - prof.d1(x - h)) / (2 * h)
        assert np.max(np.abs(fd1 - prof.d1(x))) < 1e-6
        assert np.max(np.abs(fd2 - prof.d2(x))) < 1e-5
    ramp = h_ramp(0.2, 0.7)
    x = np.linspace(0.0, 2.0, 500)
    assert np.all(ramp.d1(x) >= 0) and np.all(ramp.d2(x) >= 0)
    assert np.allclose(ramp.value(np.array([0.0, 0.1])), 0.0)
    bump = rho_bump(0.3, 0.9)
    assert np.allclose(bump.value(np.array([0.0, 0.3])), 1.0)
    assert np.allclose(bump.value(np.array([0.9, 2.0])), 0.0)


def _scaled_flat(q):
    """x1 * OMEGA0, whose taming quotient against J0 is x1 at every sample."""
    return np.asarray(q, dtype=float)[:, 0, None, None] * OMEGA0


def _numbered_points(n):
    """n samples with x1 = 1.5 and y1 = the sample's index."""
    pts = np.zeros((n, 4))
    pts[:, 0], pts[:, 1] = 1.5, np.arange(n)
    return pts


@pytest.mark.parametrize("ties", [(), (2047, 2048)],
                         ids=["min-in-last-block", "tie-across-block-boundary"])
def test_tameness_min_across_blocks_matches_whole_array_argmin(ties):
    # the minimum near the end of 4103 samples, or tied at samples 2047 and
    # 2048 as well: the first of the ties is the worst sample
    n = 4103
    pts = _numbered_points(n)
    pts[:, 0] += np.random.default_rng(3).uniform(-0.4, 0.4, n)
    pts[[4099, *ties], 0] = 0.5
    quot = taming_quotients(_scaled_flat(pts))
    idx = int(np.argmin(quot))
    assert idx == (ties[0] if ties else 4099)
    cert = tameness_min(_scaled_flat, pts)
    assert cert.min_quotient == quot[idx]
    assert cert.worst_sample == tuple(pts[idx])


def traced_peak(fn):
    """tracemalloc's peak of numpy's and Python's buffers over one call of
    fn, after one untraced call that leaves imports and any first-call
    state behind; the peak helper of every memory test."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call,limit_mb", [
    (lambda: blowup_model_check(3, 0.4322, 24), 2.5),
    (lambda: exceptional_area(0.4322), 0.01),
    (lambda: glue_forms(pipeline_problem(), grid_n=24), 2.5),
], ids=["blowup-24", "exceptional-area", "gluing-24"])
def test_certification_peak_memory(call, limit_mb):
    # one block of temporaries beyond the samples: the blow-up's 4,032
    # orbits are a few blocks, and the area's 16 nodes peak below 1 kB
    assert traced_peak(call) < limit_mb * 2 ** 20


def test_worst_sample_is_the_first_sample_tied_with_the_minimum():
    # quotients 1 + 1e-12, 1 and 1 - 1ulp in grid order: the last is the
    # minimum, the second lies within the tie tolerance of it, the first not
    pts = _numbered_points(3)
    pts[:, 0] = [1.0 + 1e-12, 1.0, np.nextafter(1.0, 0.0)]
    cert = tameness_min(_scaled_flat, pts)
    assert cert.min_quotient == np.nextafter(1.0, 0.0)
    assert cert.worst_sample == tuple(pts[1])
    assert all(type(x) is float for x in cert.worst_sample)


def _frobenius(s):
    """Frobenius norm per sample, scaled so that entries near 1e300 do not overflow."""
    scale = np.max(np.abs(s), axis=(-2, -1))
    scale = np.where(scale > 0, scale, 1.0)
    return scale * np.linalg.norm(s / scale[..., None, None], axis=(-2, -1))


def _random_forms(rng, kind, n):
    if kind == "rank-2":
        a, b = rng.normal(size=(2, n, 4))
        return a[:, :, None] * b[:, None, :] - b[:, :, None] * a[:, None, :]
    g = rng.normal(size=(n, 4, 4))
    g -= np.swapaxes(g, -1, -2)
    if kind == "pure-(2,0)+(0,2)":
        # the part with J^T Omega J = -Omega, whose taming quotient is 0
        g = 0.5 * (g - J0.T @ g @ J0)
    return g


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8, 1e300])
@pytest.mark.parametrize("kind", ["generic", "pure-(2,0)+(0,2)", "rank-2"])
def test_taming_quotients_match_eigvalsh(kind, scale):
    rng = np.random.default_rng(23)
    forms = scale * _random_forms(rng, kind, 500)
    with np.errstate(all="raise"):
        closed = taming_quotients(forms)
    oj = forms @ J0
    sym = 0.5 * oj + 0.5 * np.swapaxes(oj, -1, -2)
    reference = np.linalg.eigvalsh(sym)[:, 0]
    assert np.all(np.isfinite(closed))
    if kind == "pure-(2,0)+(0,2)":
        # S is rounding noise here, so the bound is relative to Omega's size
        bound = 1e-14 * np.maximum(1.0, _frobenius(forms))
        assert np.all(np.abs(closed) <= bound) and np.all(np.abs(reference) <= bound)
    else:
        bound = 1e-14 * np.maximum(1.0, _frobenius(sym))
    assert np.all(np.abs(closed - reference) <= bound)


@pytest.mark.parametrize("lam", [1.0, 1e8, 1e12, 1e16])
@pytest.mark.parametrize("m", [2, 3])
def test_taming_quotients_match_an_exact_reference(m, lam):
    # lambda scales the u-direction only: a quotient of order 1 next to an
    # eigenvalue of order lambda, which (alpha + delta)/2 - hypot(...) loses
    forms = numpy_chart_form(m, lam)(chart_grid(8))
    got = taming_quotients(forms)
    want = [exact_taming_quotient(w) for w in forms]
    assert max(abs(Decimal(float(g)) - x) / abs(x) for g, x in zip(got, want)) <= Decimal("1e-14")
    assert blowup_model_check(m, lam, grid_n=8).certificate.tame


def test_tameness_min_takes_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigen- or singular-value decomposition on the tameness path")

    for name in ("eigvalsh", "eigh", "eig", "eigvals", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    blowup = tameness_min(numpy_chart_form(2, 1.0), chart_grid(6))
    model = LocalModel(m=2, a=0.1)
    ax = np.linspace(-model.delta2, model.delta2, 6)
    flat = tameness_min(lambda q: eval_omega_a(model, q), cube_grid(ax, ax, ax, ax))
    assert blowup.tame and flat.tame


def _form_outputs():
    """The forms of every constructor at fixed points, by name."""
    model = LocalModel(m=2, a=0.1, nu=(0.05, -0.08), kappa=0.4)
    pts = _sample_points(40, seed=5, scale=0.2)
    g = np.random.default_rng(5).normal(size=(2, 40, 2, 2))
    coeff = g[0] + 1j * g[1]
    return {
        "eval_omega_a-a0": eval_omega_a(model._replace(a=0.0), pts),
        "eval_omega_a": eval_omega_a(model, pts),
        "eval_omega_a-resolved": eval_omega_a(model, pts, resolved=True),
        "form_from_hermitian": form_from_hermitian(coeff + np.conj(np.swapaxes(coeff, -1, -2))),
        "chart_form": numpy_chart_form(2, 0.7)(chart_grid(5)),
    }


def test_every_entry_of_a_form_is_written(monkeypatch):
    # np.empty hands out NaN-filled memory, so an entry left unwritten, the
    # diagonal included, shows up as a NaN
    want = _form_outputs()
    real_empty = np.empty

    def nan_empty(shape, dtype=float, *args, **kwargs):
        out = real_empty(shape, dtype, *args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    got = _form_outputs()
    for name, form in got.items():
        assert np.all(np.isfinite(form)), name
        assert np.array_equal(form, -np.swapaxes(form, -1, -2)), name
        assert np.all(np.diagonal(form, axis1=-2, axis2=-1) == 0.0), name
        assert np.array_equal(form, want[name]), name


@pytest.mark.parametrize("entry", [None, (0, 2)], ids=["nan-at-one-sample", "inf-in-omega02"])
def test_a_non_finite_form_is_never_certified(entry):
    pts = _numbered_points(20)

    def form_eval(q):
        out = _scaled_flat(q)
        bad = q[:, 1] == 7.0
        if entry is None:
            out[bad] = np.nan
        else:
            out[bad, entry[0], entry[1]] = np.inf
            out[bad, entry[1], entry[0]] = -np.inf
        return out

    assert tameness_min(_scaled_flat, pts).tame
    assert not tameness_min(form_eval, pts).tame
