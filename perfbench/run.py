#!/usr/bin/env python3
"""orbifold4 benchmark: closed-loop CLI jobs, drift-corrected.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact-groups --seed 1 --seconds 36 --trace 0

One process runs one CLI job at a time (`python -m orbifold4.cli ... --json`
with PYTHONPATH=src) and checks its output against independent computations.
It repeats whole rounds of the workload's jobs while the next round fits in
--seconds, and runs at least two rounds, so every job is repeated and its
output compared.  Each child's wall time is drift-corrected to raw * R0 / R,
where R is the mean time of a reference computation run just before and
just after it and R0 is that computation's nominal time.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it gives the raw figures.  --trace 1 runs one
untraced round and one round under perfbench/tracer.py and reports per-layer
metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

JOB_TIMEOUT = 60.0    # seconds one CLI job may take
RUN_BUDGET = 165.0    # no new round starts after this many seconds
MIN_ROUNDS = 2
SETUP_PROBES = 5
PROBE = ("import sys; from orbifold4.cli import build_parser; "
         "build_parser().parse_args(sys.argv[1:])")
CONDUCTORS = (1, 2, 4, 6, 8, 10, 12, 14, 20, 24)


# The reference computations, each a fresh interpreter timed from spawn to
# exit like a job, with its nominal time R0 on the machine described in the
# README.  On a shared machine the cost of starting a process, of importing
# modules and the speed of Python code drift within seconds, and a child
# process sees these drifts the way the jobs do.  Jobs are corrected by a
# short fixed exact-arithmetic loop; CLI start-ups, which are mostly imports,
# by importing numpy.
LOOP = """
from fractions import Fraction
table = {}
acc = Fraction(0)
for i in range(1, 100):
    a = Fraction(i, i + 7)
    row = tuple(a * Fraction(j, 3) + Fraction(1, j + 1) for j in range(1, 6))
    acc += sum(row) / (i + 1)
    table[row] = i
"""
REFERENCES = {"loop": (LOOP, 0.060), "import": ("import numpy", 0.200)}


class Runner:
    """Spawns CLI jobs one at a time and records time, exit code and peak RSS."""

    def __init__(self, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.refs: dict = {kind: [] for kind in REFERENCES}
        self.pid = None
        signal.signal(signal.SIGALRM, self._on_timeout)

    def _on_timeout(self, *_):
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def _spawn(self, argv: list, tag: str, timeout: float):
        out, err = (os.path.join(self.work, f"{tag}.{s}") for s in ("out", "err"))
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        t0 = time.perf_counter()
        self.pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                  file_actions=actions)
        _, status, usage = os.wait4(self.pid, 0)
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.pid = None
        return t0, t1 - t0, os.waitstatus_to_exitcode(status), usage, out, err

    def reference(self, kind: str) -> float:
        _, ref, code, *_ = self._spawn(["-c", REFERENCES[kind][0]], "reference", JOB_TIMEOUT)
        if code != 0:
            raise SystemExit(f"reference computation {kind!r} failed")
        self.refs[kind].append(ref)
        return ref

    def spawn(self, argv: list, tag: str, timeout: float = JOB_TIMEOUT, ref: str = "loop"):
        """Run one child to completion between two reference computations.
        `corr` is its wall time at reference speed: wall * R0 / R, with R the
        mean of the reference times just before and just after it."""
        before = self.refs[ref][-1] if self.refs[ref] else self.reference(ref)
        t0, wall, code, usage, out, err = self._spawn(argv, tag, timeout)
        after = self.reference(ref)
        with open(out, "rb") as fh:
            stdout = fh.read()
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return {"t0": t0, "wall": wall, "corr": wall * 2 * REFERENCES[ref][1] / (before + after),
                "exit": code, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": stdout, "stderr": stderr}


def verify(job, res) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if res["exit"] != job.expect_exit:
        return f"exit {res['exit']} (want {job.expect_exit}): {res['stderr'][-300:]}"
    try:
        payload = json.loads(res["stdout"]) if res["stdout"].strip() else None
        if payload is None and job.expect_exit != 3:
            return "no report on stdout"
        job.check(payload, res["stderr"])
    except (workloads.CheckError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class Tally:
    """Operations attempted and failed; a wrong answer also clears `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: list = []

    def record(self, job, res, first_stdout=None):
        self.attempted += 1
        why = verify(job, res)
        if why is None and first_stdout is not None and res["stdout"] != first_stdout:
            why = "output differs from the first run of the same job"
        if why is not None:
            self.failed += 1
            if res["exit"] == job.expect_exit:
                self.correct = False
            self.reasons.append(f"{job.name}: {why}")


def self_test() -> None:
    """The checks accept known answers and count corrupted ones as failed."""
    chain = {"command": "singularity resolve", "exit_status": 0,
             "checks": [{"name": "round trip", "status": "pass"}],
             "results": {"m": 12, "q": 7, "chain": [2, 4, 2], "curve_count": 3,
                         "intersection_matrix": [[-2, 1, 0], [1, -4, 1], [0, 1, -2]]}}
    klein = {"command": "group classify", "exit_status": 0,
             "checks": [{"name": "closed", "status": "pass"}],
             "results": {"order": 4, "stratum": "Sigma1", "reflection_subgroup_order": 4,
                         "quotient_order": 1, "induced_cyclic": {"m": 1, "q": 0},
                         "element_kinds": {"identity": 1, "reflection": 2, "free": 1}}}
    cases = [
        (workloads.check_chain(12, 7, [2, 4, 2]), chain, ("chain", [2, 4, 3])),
        (workloads.check_classify(4, {"identity": 1, "reflection": 2, "free": 1}, "Sigma1",
                                  4, 1, {"m": 1, "q": 0}), klein, ("order", 8)),
    ]
    tally = Tally()
    for check, payload, (key, wrong) in cases:
        job = workloads.Job("self-test", [], 0, check)
        bad = json.loads(json.dumps(payload))
        bad["results"][key] = wrong
        for p in (payload, bad):
            tally.record(job, {"exit": 0, "stdout": json.dumps(p).encode(), "stderr": ""})
    if (tally.attempted, tally.failed, tally.correct) != (4, 2, False):
        raise SystemExit(f"check self-test failed: {tally.reasons}")


def setup(runner: Runner, probe_argv: list) -> list:
    """SETUP_PROBES CLI start-ups to a parsed command line, after one
    untimed start-up that fills the bytecode caches."""
    runner.spawn(["-c", PROBE, *probe_argv], "probe", ref="import")
    probes = [runner.spawn(["-c", PROBE, *probe_argv], "probe", ref="import")
              for _ in range(SETUP_PROBES)]
    for res in probes:
        if res["exit"] != 0:
            raise SystemExit(f"CLI start-up failed: {res['stderr'][-300:]}")
    return probes


def run_round(runner, jobs, tally, firsts, prefix, deadline, traced=False):
    results = []
    for i, job in enumerate(jobs):
        tag = f"{prefix}-{i}"
        if traced:
            argv = [os.path.join(HERE, "tracer.py"), os.path.join(runner.work, f"{tag}.trace"),
                    *job.argv, "--json"]
        else:
            argv = ["-m", "orbifold4.cli", *job.argv, "--json"]
        res = runner.spawn(argv, tag, min(JOB_TIMEOUT, deadline - time.perf_counter()))
        tally.record(job, res, firsts.setdefault(job.name, res["stdout"]))
        if traced:
            res["trace"] = _read_trace(os.path.join(runner.work, f"{tag}.trace"))
        results.append(res)
    return results


def _read_trace(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def end_to_end(rounds: list) -> dict:
    jobs = range(len(rounds[0]))
    return {
        "work_s": sum(statistics.median(r[j]["corr"] for r in rounds) for j in jobs),
        "job_s_p50": statistics.median(res["corr"] for r in rounds for res in r),
        "peak_rss_mb": max(statistics.median(r[j]["rss_mb"] for r in rounds) for j in jobs),
    }


OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
       "__truediv__", "__pow__", "__eq__", "inverse", "conjugate")


def per_layer(traced: list) -> dict:
    """Sum the traces of one traced round into the per-layer metrics; each
    job's times are drift-corrected with that job's own factor."""
    self_s, calls, incl, counts, mul = {}, {}, {}, {}, {}
    startup = []
    for res in traced:
        tr, f = res["trace"], res["corr"] / res["wall"]
        for src, dst, scale in ((tr.get("self_s", {}), self_s, f), (tr.get("calls", {}), calls, 1),
                                (tr.get("incl_s", {}), incl, f), (tr.get("counts", {}), counts, 1)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v * scale
        for n, (c, sec) in tr.get("mul_s", {}).items():
            rec = mul.setdefault(int(n), [0, 0.0])
            rec[0] += c
            rec[1] += sec * f
        if "t_main" in tr:
            startup.append((tr["t_main"] - res["t0"]) * f)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    certified = counts.get("points.tameness_min", 0)
    out = {
        "cli.startup_s": statistics.median(startup) if startup else 0.0,
        "cli.emit_s": s("cli.emit"),
        "cyclotomic.ops": sum(c(f"cyclotomic.CyclotomicScalar.{op}") for op in OPS),
        "cyclotomic.scalars_built": c("cyclotomic.CyclotomicScalar.__init__"),
        "cyclotomic.self_s": self_s.get("cyclotomic", 0.0),
    }
    for n in CONDUCTORS:
        cnt, sec = mul.get(n, (0, 0.0))
        out[f"cyclotomic.mul_us.n{n}"] = sec / cnt * 1e6 if cnt else 0.0
    out.update({
        "unitary.matmuls": c("unitary.UMat2.__matmul__"),
        "unitary.self_s": self_s.get("unitary", 0.0),
        "groups.elements_closed": counts.get("groups.elements_closed", 0),
        "groups.generate_group_s": s("groups.generate_group"),
        "groups.induced_cyclic_data_s": s("groups.induced_cyclic_data"),
        "groups.self_s": self_s.get("groups", 0.0),
        "invariants.reynolds_calls": c("invariants.reynolds"),
        "invariants.molien_s": s("invariants.molien"),
        "invariants.fundamental_invariants_s": s("invariants.fundamental_invariants"),
        "invariants.self_s": self_s.get("invariants", 0.0),
        "isotropy.load_spec_s": s("isotropy.load_spec"),
        "isotropy.validate_spec_calls": c("isotropy.validate_spec"),
        "isotropy.self_s": self_s.get("isotropy", 0.0),
        "resolution.hj_resolve_calls": c("resolution.hj_resolve"),
        "resolution.negdef_checks": c("resolution.HJChain.is_negative_definite"),
        "resolution.resolution_betti_calls": c("resolution.resolution_betti"),
        "resolution.exceptional_betti_s": s("resolution.exceptional_betti"),
        "resolution.self_s": self_s.get("resolution", 0.0),
    })
    for mod in ("localmodel", "forms", "profiles", "blowup"):
        out[f"sympverify.{mod}.self_s"] = self_s.get(f"sympverify.{mod}", 0.0)
    out["sympverify.localmodel.points_evaluated"] = (
        counts.get("points.eval_omega_a", 0) + counts.get("points.eval_omega0", 0))
    out["sympverify.forms.points_certified"] = certified
    tm = s("sympverify.forms.tameness_min")
    out["sympverify.forms.points_per_s"] = certified / tm if tm else 0.0
    return out


UNITS = {"per_s": "1/s", "_s": "s", "_us": "us", "overhead": "ratio"}
E2E_UNITS = {"work_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()
    deadline = start + RUN_BUDGET

    if not os.path.isfile(os.path.join(SRC, "orbifold4", "cli.py")):
        print(f"error: no orbifold4 sources under {SRC}", file=sys.stderr)
        return 2
    self_test()

    work = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-t{args.trace}")
    os.makedirs(work, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed, work)
    runner = Runner(work)
    probes = setup(runner, jobs[0].argv)

    tally = Tally()
    firsts: dict = {}
    rounds: list = []
    traced: list = []
    t_loop = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rounds.append(run_round(runner, jobs, tally, firsts, f"r{len(rounds)}", deadline))
        if args.trace:
            traced = run_round(runner, jobs, tally, firsts, "traced", deadline, traced=True)
            break
        # stop before a round that would end after --seconds
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (now + (now - t_round) - t_loop > args.seconds
                                          or now > deadline):
            break

    e2e = end_to_end(rounds)
    e2e["setup_s"] = statistics.median(p["corr"] for p in probes)
    ref = statistics.median(runner.refs["loop"])
    raw = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "jobs": [j.name for j in jobs], "ref_s": ref, "ref_samples_s": runner.refs,
        "setup_raw_s": [p["wall"] for p in probes],
        "job_raw_s": [[r[j]["wall"] for r in rounds] for j in range(len(jobs))],
        "end_to_end": e2e, "failures": tally.reasons,
    }
    if args.trace:
        metrics = per_layer(traced)
        metrics["bench.ref_s"] = ref
        metrics["trace.overhead"] = (sum(r["corr"] for r in traced)
                                     / sum(r["corr"] for r in rounds[0]))
        raw["per_layer"] = metrics
    else:
        metrics = e2e
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(raw, fh, indent=1)
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({k: v for k, v in raw.items() if k not in ("job_raw_s",)}))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
