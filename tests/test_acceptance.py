"""Acceptance gate: one test per advertised criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines on the terminal.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from orbifold4 import (CyclotomicScalar, UMat2, abelianize, builtin_group,
                       builtin_mapping_torus, fundamental_invariants,
                       generate_group, hj_resolve, induced_cyclic_data,
                       mapping_torus_pi1, molien, resolution_betti, delta_set)
from orbifold4.invariants import invariant_dimension_bruteforce
from fd_oracles import (ball_grid, ddbar_fd, dr_beta, eval_omega_a, omega1, taming_quotients,
                        tameness_min)
from orbifold4.sympverify import LocalModel, blowup_model_check, glue_forms, pushforward_check
from orbifold4.sympverify.fixtures import pipeline_problem
from orbifold4.sympverify.profiles import f_smoothing
from orbifold4.sympverify.pushforward import sample_points


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _zeta(n, k=1):
    return CyclotomicScalar.zeta(n, k)


def test_criterion_01_mapping_torus_end_to_end():
    start = time.perf_counter()
    spec = builtin_mapping_torus()
    delta = delta_set(spec).labels
    profile = resolution_betti(spec)
    elapsed = time.perf_counter() - start
    ok = (
        delta == ()
        and len(profile.contributing_points) == 5
        and all(eb == (1, 0, 1) for _, eb in profile.contributing_points)
        and profile.betti[2] == 7
        and profile.betti[1] == 0
        and elapsed < 5.0
    )
    _report(1, "mapping-torus end-to-end", ok,
            f"delta={delta}, b2={profile.betti[2]}, {elapsed:.2f}s")


def test_criterion_02_klein_four_pipeline():
    G = builtin_group("klein_four")
    basis = fundamental_invariants(G)
    ok = (
        len(G.gamma_star) == G.order
        and G.gamma_prime.order == 1
        and sorted(basis.degrees) == [2, 2]
        and basis.degrees[0] * basis.degrees[1] == G.order
        and {basis.f.lex_first(), basis.g.lex_first()} == {(2, 0), (0, 2)}
    )
    _report(2, "Klein-four pipeline: invariants (z^2, w^2), degrees (2,2)", ok)


def test_criterion_03_chain_family():
    def oracle(coeffs):
        val = Fraction(coeffs[-1])
        for a in reversed(coeffs[:-1]):
            val = a - 1 / val
        return val

    data = induced_cyclic_data(builtin_group("minus_identity"))
    ok = (data.m, data.q) == (2, 1) and hj_resolve(2, 1).coeffs == [2]
    for m in range(2, 13):
        G = generate_group([UMat2.diagonal(_zeta(m), _zeta(m, m - 1))])
        d = induced_cyclic_data(G)
        chain = hj_resolve(d.m, d.q)
        ok = ok and chain.coeffs == [2] * (m - 1) \
            and oracle(chain.coeffs) == Fraction(m, m - 1)
    _report(3, "order-2 chain [2] and the m-1 curve family up to m=12", ok)


def test_criterion_04_degree_identities():
    families = [builtin_group("klein_four")]
    families += [generate_group([UMat2.diagonal(_zeta(m), CyclotomicScalar.one())])
                 for m in range(2, 9)]
    families += [generate_group([UMat2.diagonal(_zeta(m), CyclotomicScalar.one()),
                                 UMat2.diagonal(CyclotomicScalar.one(), _zeta(k))])
                 for m, k in [(2, 3), (3, 4), (2, 4)]]
    ok = True
    for G in families:
        basis = fundamental_invariants(G)
        d1, d2 = basis.degrees
        r = len(G.reflections)
        ok = ok and d1 * d2 == G.order and d1 + d2 == r + 2
    _report(4, "degree identities d1*d2=|G| and d1+d2=r+2 across the family", ok)


def test_criterion_05_molien_vs_bruteforce():
    groups = [
        builtin_group("minus_identity"),
        builtin_group("klein_four"),
        generate_group([UMat2.diagonal(_zeta(4), _zeta(4, 3))]),
        generate_group([UMat2.diagonal(_zeta(8), CyclotomicScalar.one())]),
        generate_group([UMat2.diagonal(_zeta(2), CyclotomicScalar.one()),
                        UMat2.diagonal(CyclotomicScalar.one(), _zeta(8))]),
        generate_group([UMat2.diagonal(_zeta(4), _zeta(4, 3)),
                        UMat2([[CyclotomicScalar.zero(), CyclotomicScalar.one()],
                               [-1 * CyclotomicScalar.one(), CyclotomicScalar.zero()]])]),
        generate_group([UMat2.diagonal(_zeta(16), CyclotomicScalar.one())]),
    ]
    ok = all(G.order <= 16 for G in groups)
    for G in groups:
        series = molien(G, 8)
        for d in range(9):
            ok = ok and series.coefficients[d] == invariant_dimension_bruteforce(G, d)
    _report(5, "Molien coefficients equal Reynolds-image ranks (order<=16, deg<=8)", ok)


def test_criterion_06_abelianization():
    inv = abelianize(mapping_torus_pi1([[-1, 0], [0, -1]]))
    ok = inv.free_rank == 1 and inv.torsion == [2, 2]
    _report(6, "Z semidirect Z^2 by -Id abelianizes to Z + Z_2 + Z_2", ok,
            f"rank={inv.free_rank}, torsion={inv.torsion}")


def test_criterion_07_potential_consistency():
    start = time.perf_counter()
    model = LocalModel(m=2, a=0.1)
    pts = sample_points(model, 600, seed=1)
    f = f_smoothing(2, 0.1)

    def potential(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0] ** 2 + p[..., 1] ** 2 + f.value(p[..., 2] ** 2 + p[..., 3] ** 2)

    ref = eval_omega_a(model, pts)
    scale = float(np.max(np.abs(ref)))
    err_coarse = float(np.max(np.abs(ddbar_fd(potential, pts, h=1e-3) - ref))) / scale
    err_fine = float(np.max(np.abs(ddbar_fd(potential, pts, h=5e-4) - ref))) / scale
    elapsed = time.perf_counter() - start
    ok = (len(pts) >= 500 and err_coarse <= 1e-4
          and err_coarse / err_fine >= 3.0 and elapsed < 30.0)
    _report(7, "finite-difference potential matches the closed-form 2-form", ok,
            f"err(h=1e-3)={err_coarse:.2e}, shrink x{err_coarse / err_fine:.2f}, {elapsed:.1f}s")


def test_criterion_08_tameness_certification():
    start = time.perf_counter()
    ok = True
    details = []
    for m in (2, 3):
        for a in (0.05, 0.2):
            model = LocalModel(m=m, a=a, nu=(0.1, -0.05), kappa=0.4)
            ax = np.linspace(-model.delta2, model.delta2, 20)
            grid = np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"),
                            axis=-1).reshape(-1, 4)
            cert = tameness_min(lambda p, _m=model: eval_omega_a(_m, p), grid)
            ok = ok and cert.tame and cert.min_quotient > 0
            details.append(f"m={m},a={a}:{cert.min_quotient:.1e}")
            # vertical coefficient positivity from the closed-form derivatives
            prof = f_smoothing(m, a)
            x = np.linspace(1e-6, model.delta2 ** 2, 2000)
            ok = ok and np.all(prof.d1(x) > 0) and np.all(x * prof.d2(x) + prof.d1(x) > 0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(8, "smoothed form tame on the 20^4 fiber neighborhood grid", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_gluing_executor():
    start = time.perf_counter()
    ok = True
    details = []
    for (e1, e2, e3) in [(0.5, 0.8, 1.0), (0.4, 0.7, 0.9), (0.6, 0.9, 1.1)]:
        problem = pipeline_problem(m=2, a=0.1, eps1=e1, eps2=e2, eps3=e3)
        delta, cert = glue_forms(problem, grid_n=15)
        outer = ball_grid(e3, 15, inner=e2 * (1 + 1e-9))
        C = float(np.min(taming_quotients(omega1(problem)(outer))))
        drb = dr_beta(problem.rho, ball_grid(e3, 15, inner=1e-6))
        norm = float(np.max(np.linalg.norm(drb, ord=2, axis=(-2, -1))))
        ok = ok and delta * (norm + 1.0) < C and cert.tame
        details.append(f"({e1},{e2},{e3}):delta={delta:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(9, "glued form tame on the 15^4 ball for 3 radii configurations", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_10_pushforward():
    ok = True
    details = []
    for m in (2, 3):
        model = LocalModel(m=m, a=0.1, kappa=0.3, nu=(0.1, -0.2))
        report = pushforward_check(m, model, samples=1000, seed=0)
        ok = ok and report.radial_exact and report.max_discrepancy <= 1e-8
        details.append(f"m={m}:max={report.max_discrepancy:.1e}")
    _report(10, "fiber-power pushforward agreement on 10^3 samples", ok,
            "; ".join(details))


def test_criterion_11_blowup_model():
    report = blowup_model_check(2, 0.1, grid_n=12)
    ok = (report.ok and report.closedness_residual <= 1e-5
          and report.overlap_max_diff <= 1e-8 and report.certificate.tame)
    _report(11, "two-chart blow-up form closed, chart-consistent, tame", ok,
            f"d-residual={report.closedness_residual:.1e}, "
            f"overlap={report.overlap_max_diff:.1e}, "
            f"min_quotient={report.certificate.min_quotient:.2e}")
