"""Seeded inputs, CLI jobs and independent output checks for each workload.

Nothing here imports orbifold4: the inputs are written in the documented
JSON formats (docs/file-formats.md) from the benchmark's own cyclotomic
reduction, and every check recomputes the expected answer by a route that
is independent of the program (integer continued fractions, monomial
counts, power series, hand-derived radial profiles) or tests a property the
method must have.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class CheckError(Exception):
    """A job's output is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


@dataclass
class Job:
    name: str
    argv: list
    expect_exit: int
    check: object  # callable(payload: dict | None, stderr: str) -> None


# -- cyclotomic inputs ----------------------------------------------------


def _cyclotomic_poly(n: int) -> list:
    """Integer coefficients of Phi_n, ascending: (x^n - 1) / prod_{d|n, d<n} Phi_d."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, _cyclotomic_poly(d))
    return num


def _exact_div(num: list, den: list) -> list:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]  # den is monic
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise ValueError("inexact cyclotomic division")
    return q


def zeta_coeffs(n: int, k: int) -> list:
    """zeta_n^k in the power basis of Q(zeta_n), reduced modulo Phi_n."""
    phi = _cyclotomic_poly(n)
    deg = len(phi) - 1
    poly = [0] * (k % n) + [1]
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            for j, pj in enumerate(phi):
                poly[top - deg + j] -= c * pj
    poly = poly[:deg] + [0] * max(0, deg - len(poly))
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def scalar(n: int, k: int | None) -> dict:
    """zeta_n^k as a JSON scalar; k=None is zero."""
    coeffs = [] if k is None else zeta_coeffs(n, k)
    return {"conductor": n, "coeffs": [[c, 1] for c in coeffs]}


def diag(n: int, a: int, b: int) -> list:
    return [[scalar(n, a), scalar(n, None)], [scalar(n, None), scalar(n, b)]]


def group_json(gens: list) -> dict:
    return {"generators": gens, "max_order": 512}


def _unit(rng: random.Random, m: int) -> int:
    return rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1] or [1])


def cc_group(rng, m: int) -> dict:
    """C_m x C_m: diag(zeta^a, 1), diag(1, zeta^b) with seeded units a, b."""
    return group_json([diag(m, _unit(rng, m), 0), diag(m, 0, _unit(rng, m))])


def bd_group(rng, n: int) -> dict:
    """Binary dihedral BD_n of order 4n in SU(2), conductor 2n:
    diag(zeta^k, zeta^-k) and [[0, u], [-conj(u), 0]] with u = zeta^j."""
    N = 2 * n
    k = _unit(rng, N)
    j = rng.randrange(N)
    swap = [[scalar(N, None), scalar(N, j)], [scalar(N, (n - j) % N), scalar(N, None)]]
    return group_json([diag(N, k, -k % N), swap])


def cyclic_group(rng, m: int, q: int) -> dict:
    """Z_m acting with weights (1, q), generated by a seeded power of the
    standard generator."""
    k = _unit(rng, m)
    return group_json([diag(m, k, k * q % m)])


def corner_group(rng, a: int, k: int, s: int) -> dict:
    """C_a x C_a reflections extended by diag(zeta_ak, zeta_ak^s): the
    reflection subgroup is C_a x C_a and the quotient acts on (z^a, w^a)
    with weights (1, s) mod k."""
    N = a * k
    u = _unit(rng, k)
    e = u + k * rng.randrange(a)
    return group_json([diag(N, k * _unit(rng, a), 0), diag(N, 0, k * _unit(rng, a)),
                       diag(N, e % N, e * s % N)])


# -- independent mathematics ------------------------------------------------


def hj_chain(m: int, q: int) -> list:
    """Hirzebruch-Jung continued fraction m/q = a1 - 1/(a2 - ...)."""
    out = []
    while q:
        a = -(-m // q)
        out.append(a)
        m, q = q, a * q - m
    return out


def continuant(chain: list) -> int:
    """det(-M) for the tridiagonal intersection matrix M of a chain."""
    prev, cur = 1, 0
    for a in chain:
        prev, cur = a * prev - cur, prev
    return prev


def chain_value(chain: list) -> Fraction:
    val = Fraction(chain[-1])
    for a in reversed(chain[:-1]):
        val = a - 1 / val
    return val


def hj_length(m: int, q: int) -> int:
    return len(hj_chain(m, q))


def q_with_length(rng, m: int, length: int) -> int:
    """A seeded q coprime to m whose chain has the given length (at least
    q and its inverse mod m qualify, so the work per job is unchanged)."""
    qs = [q for q in range(1, m) if math.gcd(q, m) == 1 and hj_length(m, q) == length]
    if not qs:
        raise ValueError(f"no q for m={m} with chain length {length}")
    return rng.choice(qs)


def monomial_invariants(d: int, ok) -> int:
    return sum(1 for a in range(d + 1) if ok(a, d - a))


def series(num: dict, dens: list, top: int) -> list:
    """Coefficients through t^top of sum(num) / prod(1 - t^e for e in dens)."""
    coeffs = [0] * (top + 1)
    for e, c in num.items():
        if e <= top:
            coeffs[e] += c
    for e in dens:
        for i in range(e, top + 1):
            coeffs[i] += coeffs[i - e]
    return coeffs


# -- shared payload checks --------------------------------------------------


def payload_checks_pass(p: dict, command: str, exit_status: int = 0) -> None:
    """The report names its command and exit status; every report check
    passes on exit 0, and some check fails on exit 4."""
    require(p.get("command") == command, f"command is {p.get('command')!r}")
    require(p.get("exit_status") == exit_status, f"exit_status {p.get('exit_status')}")
    statuses = [c["status"] for c in p.get("checks", [])]
    if exit_status == 0:
        require(statuses and all(s == "pass" for s in statuses), f"report checks {statuses}")
    else:
        require("fail" in statuses, f"report checks {statuses} on exit {exit_status}")


def check_classify(order, kinds, stratum, star, quotient, induced):
    def check(p, _err):
        payload_checks_pass(p, "group classify")
        r = p["results"]
        require(r["order"] == order, f"order {r['order']} != {order}")
        require(r["element_kinds"] == kinds, f"element kinds {r['element_kinds']} != {kinds}")
        require(r["stratum"] == stratum, f"stratum {r['stratum']} != {stratum}")
        require(r["reflection_subgroup_order"] == star, "reflection subgroup order")
        require(r["quotient_order"] == quotient, "quotient order")
        require(r["induced_cyclic"] == induced, f"induced {r['induced_cyclic']} != {induced}")
    return check


def check_invariants(order, molien, degrees):
    def check(p, _err):
        payload_checks_pass(p, "group invariants")
        r = p["results"]
        require(r["order"] == order, f"order {r['order']} != {order}")
        require(r["molien"] == molien, "Molien coefficients differ from the independent count")
        inv = r["invariants"]
        if degrees is None:
            require("unsupported" in inv, "fundamental invariants of a non-reflection group")
        else:
            require(inv.get("degrees") == list(degrees), f"degrees {inv.get('degrees')}")
            require(degrees[0] * degrees[1] == order, "degree product != |G|")
    return check


# -- workloads ---------------------------------------------------------------

DEGREE = 24


def exact_groups(rng, work: str) -> list:
    """Closure, Gamma*/Gamma' tables, Molien and Reynolds at small conductors."""
    jobs = []

    def add(name, group, classify, invariants):
        path = os.path.join(work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(group, fh)
        jobs.append(Job(f"classify-{name}", ["group", "classify", "--file", path], 0, classify))
        jobs.append(Job(f"invariants-{name}",
                        ["group", "invariants", "--file", path, "--degree", str(DEGREE)],
                        0, invariants))

    for m in (4, 6):
        add(f"c{m}xc{m}", cc_group(rng, m),
            check_classify(m * m, {"identity": 1, "reflection": 2 * (m - 1), "free": (m - 1) ** 2},
                           "Sigma1", m * m, 1, {"m": 1, "q": 0}),
            check_invariants(m * m, [monomial_invariants(d, lambda a, b: a % m == 0 and b % m == 0)
                                     for d in range(DEGREE + 1)], (m, m)))
    for n in (4, 6):
        add(f"bd{n}", bd_group(rng, n),
            check_classify(4 * n, {"identity": 1, "free": 4 * n - 1}, "Sigma0", 1, 4 * n,
                           {"unsupported": "non-abelian isotropy group"}),
            check_invariants(4 * n, series({0: 1, 2 * n + 2: 1}, [4, 2 * n], DEGREE), None))
    for m, length in ((20, 7), (24, 3)):
        q = q_with_length(rng, m, length)
        add(f"z{m}", cyclic_group(rng, m, q),
            check_classify(m, {"identity": 1, "free": m - 1}, "Sigma0", 1, m, {"m": m, "q": q}),
            check_invariants(m, [monomial_invariants(d, lambda a, b: (a + q * b) % m == 0)
                                 for d in range(DEGREE + 1)], None))
    return jobs


def _surfaces():
    return [{"label": "S", "genus": 0, "m": 2, "compact": True},
            {"label": "T", "genus": 1, "m": 2, "compact": True}]


def _base(rng):
    b1 = rng.randrange(3)
    return [1, b1, rng.randrange(1, 4), b1, 1]


def check_spec(base, curves, delta):
    """b2 and chi grow by the exceptional curve count of each contributing point."""
    def check(p, _err):
        payload_checks_pass(p, "orbifold resolve")
        r = p["results"]
        total = sum(curves.values())
        want = [base[0], base[1], base[2] + total, base[3], base[4]]
        require(r["betti"] == want, f"betti {r['betti']} != {want}")
        got = {c["label"]: c["exceptional_betti"] for c in r["contributing_points"]}
        require(got == {k: [1, 0, v] for k, v in curves.items()}, f"exceptional betti {got}")
        require(r["delta"] == delta, f"delta {r['delta']} != {delta}")
        chi = base[0] - base[1] + base[2] - base[3] + base[4]
        require(r["euler_characteristic"] == chi + total, "Euler characteristic")
        require(r["provenance"][2] == "computed", "b2 provenance")
    return check


def check_chain(m, q, chain):
    def check(p, _err):
        payload_checks_pass(p, "singularity resolve")
        r = p["results"]
        got = r["chain"]
        require((r["m"], r["q"]) == (m, q), "echoed (m, q)")
        require(got == chain, "chain differs from the continued fraction")
        require(all(a >= 2 for a in got) and r["curve_count"] == len(got), "chain entries")
        require(chain_value(got) == Fraction(m, q), "chain does not evaluate to m/q")
        mat = r["intersection_matrix"]
        k = len(got)
        for i in range(k):
            for j in range(k):
                want = -got[i] if i == j else (1 if abs(i - j) == 1 else 0)
                require(mat[i][j] == want, f"intersection matrix entry ({i}, {j})")
        require(continuant([-mat[i][i] for i in range(k)]) == m, "det(-M) != m")
    return check


def check_refused(p, err):
    require(p is None, "refused spec printed a report")
    require("unsupported" in err, "refusal does not say unsupported")


CHAIN_LENGTHS = (30, 31, 32)


def resolve_specs(rng, work: str) -> list:
    """HJ chains, Betti assembly and spec validation at large conductors."""
    jobs = []

    def spec_job(name, spec, check, expect=0):
        path = os.path.join(work, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        jobs.append(Job(name, ["orbifold", "resolve", "--spec", path], expect, check))

    # cyclic isolated points, cyclic-quotient corners and binary dihedral
    # points (n + 2 curves each), one contributing point or two per spec
    q20, s5, s7 = q_with_length(rng, 20, 7), q_with_length(rng, 5, 2), q_with_length(rng, 7, 3)
    specs = {
        "spec-z20": ({"P20": cyclic_group(rng, 20, q20), "A5": corner_group(rng, 2, 5, s5)},
                     {"P20": 7, "A5": 2}),
        "spec-z24": ({"P24": cyclic_group(rng, 24, 23)}, {"P24": 23}),
        "spec-bd4": ({"B4": bd_group(rng, 4), "A7": corner_group(rng, 2, 7, s7)},
                     {"B4": 6, "A7": 3}),
        "spec-bd6": ({"B6": bd_group(rng, 6)}, {"B6": 8}),
    }
    for name, (groups, curves) in specs.items():
        base = _base(rng)
        corners = [{"label": "K", "group": "klein_four", "incident_surfaces": ["S", "T"]}]
        corners += [{"label": lbl, "group": g, "incident_surfaces": ["S", "T"]}
                    for lbl, g in groups.items() if lbl.startswith("A")]
        spec_job(name, {
            "name": name, "base_betti": base, "betti_provenance": ["asserted"] * 5,
            "isolated_points": [{"label": lbl, "group": g} for lbl, g in groups.items()
                                if not lbl.startswith("A")],
            "surfaces": _surfaces(), "corner_points": corners,
        }, check_spec(base, curves, [lbl for lbl in groups if lbl.startswith("A")]))

    # Q8 times scalar zeta_3: no reflections, non-abelian, det != 1 -> refused
    refuse = group_json([
        [[scalar(12, None), scalar(12, 6)], [scalar(12, 0), scalar(12, None)]],
        diag(12, 3, 9), diag(12, 4, 4)])
    spec_job("spec-refused", {
        "name": "refused", "base_betti": [1, 0, 2, 0, 1], "betti_provenance": ["asserted"] * 5,
        "isolated_points": [{"label": "R", "group": refuse}], "surfaces": [], "corner_points": [],
    }, check_refused, expect=3)

    # long chains: seeded placement of three 3s among 2s
    for length in CHAIN_LENGTHS:
        chain = [2] * length
        for i in rng.sample(range(length), 3):
            chain[i] = 3
        val = chain_value(chain)
        m, q = val.numerator, val.denominator
        jobs.append(Job(f"chain-{length}", ["singularity", "resolve", "--m", str(m), "--q", str(q)],
                        0, check_chain(m, q, chain)))
    return jobs


def vert_orbifold(x, m, a):
    """x f'' + f' for f = (x^m + a^2)^(1/m), simplified by hand."""
    return x ** (m - 1) * (x ** m + a * a) ** (1.0 / m - 2.0) * (x ** m + m * a * a)


def vert_resolved(x, m, a):
    """x f'' + f' for f = (x + a^2)^(1/m), simplified by hand."""
    p = 1.0 / m
    return p * (x + a * a) ** (p - 2.0) * (p * x + a * a)


def fibre_radii(delta2, n):
    ax = np.linspace(-delta2, delta2, n)
    return (ax[:, None] ** 2 + ax[None, :] ** 2).ravel()


def check_flat(m, a, delta2, n, resolved):
    vert = vert_resolved if resolved else vert_orbifold
    want = min(1.0, float(np.min(vert(fibre_radii(delta2, n), m, a))))
    tame = want > 1e-9

    def check(p, _err):
        payload_checks_pass(p, "verify tameness", 0 if tame else 4)
        cert = p["results"]["certificate"]
        require(cert["grid"] == f"{n}^4", "certificate grid")
        require(cert["tame"] is tame, f"tame is {cert['tame']}")
        got = cert["min_quotient"]
        require(abs(got - want) <= 1e-12 * max(1.0, abs(want)) + 1e-15,
                f"min_quotient {got!r} != hand-derived {want!r}")
    return check


def taming_quotient(model, point):
    """Smallest eigenvalue of sym(Omega J0) at one point, from the local
    model's formula base dx1^dy1 + v (dx2^dy2 + r dr ^ nu)."""
    x1, _, x2, y2 = point
    x = x2 * x2 + y2 * y2
    m, a, (nu1, nu2), kappa = model["m"], model["a"], model["nu"], model["kappa"]
    fp = x ** (m - 1) * (x ** m + a * a) ** (1.0 / m - 1.0)
    v = vert_orbifold(x, m, a)
    n1, n2 = nu1, nu2 + kappa * x1
    w = np.zeros((4, 4))
    w[0, 1] = 1.0 + 0.5 * x * fp * kappa
    w[2, 3] = v
    w[0, 2], w[1, 2] = -v * x2 * n1, -v * x2 * n2
    w[0, 3], w[1, 3] = -v * y2 * n1, -v * y2 * n2
    w -= w.T
    j = np.zeros((4, 4))
    j[1, 0] = j[3, 2] = 1.0
    j[0, 1] = j[2, 3] = -1.0
    oj = w @ j
    return float(np.linalg.eigvalsh(0.5 * (oj + oj.T))[0])


def check_model(model, n):
    def check(p, _err):
        payload_checks_pass(p, "verify tameness")
        cert = p["results"]["certificate"]
        require(cert["tame"] is True and cert["min_quotient"] > 0, "model not tame")
        require(cert["grid"] == f"{n}^4", "certificate grid")
        at_worst = taming_quotient(model, cert["worst_sample"])
        require(abs(at_worst - cert["min_quotient"]) <= 1e-9, "min_quotient at worst sample")
        ax = np.linspace(-model["delta2"], model["delta2"], n)
        for i in range(0, n, 5):
            pt = (ax[i], ax[-1 - i], ax[(2 * i) % n], ax[(3 * i) % n])
            require(taming_quotient(model, pt) >= cert["min_quotient"] - 1e-12,
                    "a grid point lies below the certified minimum")
    return check


def check_gluing(n):
    def check(p, _err):
        payload_checks_pass(p, "verify gluing")
        r = p["results"]
        require(r["delta"] > 0, "delta <= 0")
        require(r["certificate"]["tame"] is True and r["certificate"]["min_quotient"] > 0,
                "glued form not tame")
        require(r["grid"] == f"{n}^4", "grid")
    return check


def check_blowup(lam):
    def check(p, _err):
        payload_checks_pass(p, "verify blowup")
        r = p["results"]
        area = lam * math.pi
        require(abs(r["exceptional_area"] - area) <= 1e-6 * max(1.0, area),
                f"exceptional area {r['exceptional_area']!r} != lambda*pi")
        require(abs(r["exceptional_area_expected"] - area) <= 1e-15 * max(1.0, area),
                "expected area")
        require(r["certificate"]["tame"] is True, "blow-up form not tame")
    return check


def certify_grids(rng, work: str) -> list:
    """numpy evaluation in sympverify: tameness, gluing and blow-up grids."""
    jobs = []
    m = rng.choice((2, 3))
    a = round(rng.uniform(0.05, 0.2), 4)
    d2 = round(rng.uniform(0.2, 0.3), 4)
    flat = ["verify", "tameness", "--model", "flat", "--m", str(m), "--a", str(a),
            "--delta2", str(d2)]
    for n, resolved in ((24, False), (24, True), (21, False)):
        jobs.append(Job(f"tameness-flat-{n}{'-resolved' if resolved else ''}",
                        flat + ["--grid", str(n)] + (["--resolved"] if resolved else []),
                        4 if n % 2 else 0, check_flat(m, a, d2, n, resolved)))

    # the documented model file's fields, with seeded connection and curvature
    model = {"m": 2, "a": 0.1, "delta0": 1.0, "delta2": 0.25,
             "nu": [round(rng.uniform(-0.1, 0.1), 4), round(rng.uniform(-0.1, 0.1), 4)],
             "kappa": round(rng.uniform(0.2, 0.6), 4)}
    path = os.path.join(work, "model.json")
    with open(path, "w") as fh:
        json.dump(model, fh)
    jobs.append(Job("tameness-model-20", ["verify", "tameness", "--model", path, "--grid", "20"],
                    0, check_model(model, 20)))

    # m = 3 leaves no ramp window at these radii (exit 2), so gluing uses m = 2
    glue = {"m": 2, "a": round(rng.uniform(0.05, 0.12), 4),
            "eps1": round(rng.uniform(0.45, 0.5), 4), "eps2": round(rng.uniform(0.8, 0.85), 4),
            "eps3": 1.0}
    path = os.path.join(work, "problem.json")
    with open(path, "w") as fh:
        json.dump(glue, fh)
    jobs.append(Job("gluing-22", ["verify", "gluing", "--problem", path, "--grid", "22"],
                    0, check_gluing(22)))

    # grids 18, 21, 22 and 23 trip the closedness cross-check (see README.md)
    for n in (20, 24):
        lam = round(rng.uniform(0.05, 2.0), 4)
        jobs.append(Job(f"blowup-{n}", ["verify", "blowup", "--m", str(rng.choice((2, 3))),
                                        "--lam", str(lam), "--grid", str(n)],
                        0, check_blowup(lam)))
    return jobs


WORKLOADS = {
    "exact-groups": exact_groups,
    "resolve-specs": resolve_specs,
    "certify-grids": certify_grids,
}


def make_jobs(workload: str, seed: int, work: str) -> list:
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, work)
    rng.shuffle(jobs)
    return jobs
