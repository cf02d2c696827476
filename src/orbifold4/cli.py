"""Command-line front end.

Subcommands: `group classify|invariants`, `singularity resolve`,
`orbifold resolve`, `verify tameness|gluing|blowup`.  Every command supports
`--json` (deterministic payload: sorted keys, 17-significant-digit floats,
a non-finite float as null) and `--quiet`.  Exit codes: 0 success, 2 invalid
input, 3 unsupported math, 4 a failed check (every report check passes on
exit 0).  Each command imports the modules it uses, so a `verify` command
loads the sympverify modules it runs and none of the exact half, and no
command loads numpy: every certificate runs in Python floats.  A `verify`
grid lies in [2, MAX_GRID], and a `group invariants` degree in
[0, MAX_DEGREE].  A command reads one group or spec source, and a
`verify tameness` model is `flat` or a file.  One reader (`_read`) opens
every input file, a --file, --spec, --model or --problem, and refuses it
with exit 2 and one line.  `run` is the process entry point: `main`, then
the exit path.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import is_int

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_FAILED_CERT = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        self.code = code
        super().__init__(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        # an integral float keeps a point or an exponent, so it reads back as a float
        text = format(value, ".17g")
        return text if "." in text or "e" in text else repr(float(value))
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return json.dumps(str(value))


def emit(report: dict, args) -> None:
    if getattr(args, "quiet", False):
        return
    if getattr(args, "json", False):
        print(_fmt(report))
        return
    for check in report["checks"]:
        print(f"[{check['status']}] {check['name']}")
    for key, val in sorted(report["results"].items()):
        print(f"{key}: {val}")


def _report(command: str, results: dict, checks) -> dict:
    """The report of a command.  Each check is (name, ok) or (name, ok,
    extra fields); it reads "pass" or "fail", and the exit status is
    EXIT_FAILED_CERT exactly when some check fails."""
    rows = [{"name": name, "status": "pass" if ok else "fail", **(extra[0] if extra else {})}
            for name, ok, *extra in checks]
    failed = any(row["status"] == "fail" for row in rows)
    return {"command": command, "results": results, "checks": rows,
            "exit_status": EXIT_FAILED_CERT if failed else EXIT_OK}


def _read(path: str, what: str, build, *args):
    """build(the JSON value of the file at path, *args): the one reader of
    an input file.  Every refusal exits 2 with one line naming what was
    read: NotUnitaryError and NotFiniteWithinBound are ValueErrors, a file
    nested past the recursion limit is a RecursionError, and a KeyError is
    the lookup of a key the file lacks."""
    try:
        with open(path) as fh:
            return build(json.load(fh), *args)
    except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise CliError(f"invalid {what}: {detail}", EXIT_INVALID)


def _load_group(args):
    from .groups import builtin_group, group_from_json

    if getattr(args, "builtin", None):
        try:
            return builtin_group(args.builtin)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_INVALID)
    if getattr(args, "file", None):
        return _read(args.file, "group file", group_from_json)
    raise CliError("need --builtin or --file", EXIT_INVALID)


def cmd_group_classify(args) -> dict:
    from .groups import Unsupported, induced_cyclic_data, stratum_class

    G = _load_group(args)
    kinds = {}
    for c in G.classes:
        kinds[c.kind] = kinds.get(c.kind, 0) + 1
    results = {
        "order": G.order,
        "stratum": stratum_class(G),
        "reflection_subgroup_order": len(G.gamma_star),
        "quotient_order": G.gamma_prime.order,
        "element_kinds": kinds,
    }
    try:
        data = induced_cyclic_data(G)
        results["induced_cyclic"] = {"m": data.m, "q": data.q}
    except Unsupported as exc:
        results["induced_cyclic"] = {"unsupported": exc.reason}
    # a finite group's table has each element once in every row
    indices = set(range(G.order))
    closed = all(len(row) == G.order and set(row) == indices for row in G.table)
    return _report("group classify", results, [("group finite and closed", closed)])


# the largest --degree `group invariants` accepts.  The Molien series
# through degree D and its check grow faster than D: at D = 1000 a job takes
# 0.1-0.4 s (klein_four, a C6 x C6 and a binary dihedral group of order 24),
# at D = 10,000 2.6 s on klein_four, and D = 10^8 did not finish in a
# minute.  The benchmark's jobs read degree 24
MAX_DEGREE = 1000


def cmd_group_invariants(args) -> dict:
    from .invariants import NotReflectionGroup, fundamental_invariants, molien

    if args.degree < 0:
        raise CliError("--degree must be nonnegative", EXIT_INVALID)
    if args.degree > MAX_DEGREE:
        raise CliError(f"--degree must be at most {MAX_DEGREE}", EXIT_INVALID)
    G = _load_group(args)
    D = args.degree
    series = molien(G, D)
    results = {"order": G.order, "molien": series.coefficients}
    try:
        basis = fundamental_invariants(G)
    except NotReflectionGroup as exc:
        results["invariants"] = {"unsupported": str(exc)}
        # molien() refuses a group average that is not a nonnegative integer
        return _report("group invariants", results,
                       [(f"molien integrality through degree {D}", True)])
    d1, d2 = basis.degrees
    results["invariants"] = {"f": _poly_str(basis.f), "g": _poly_str(basis.g),
                             "degrees": [d1, d2]}
    # Chevalley-Shephard-Todd: the series is 1/((1 - t^d1)(1 - t^d2)), whose
    # t^d coefficient counts the i, j >= 0 with i*d1 + j*d2 = d
    free = [sum((d - i * d1) % d2 == 0 for i in range(d // d1 + 1)) for d in range(D + 1)]
    return _report("group invariants", results, [
        (f"molien prefix through degree {D}", series.coefficients == free),
        ("degree product equals group order", d1 * d2 == G.order),
    ])


def _poly_str(p) -> str:
    """p as text: a rational coefficient n/d (lowest terms, d > 0) reads "n"
    or "n/d", a coefficient 1 is left out, an irrational one reads "(...)"."""
    bits = []
    for (a, b), c in sorted(p.terms.items(), reverse=True):
        mono = ("z^%d" % a if a else "") + ("w^%d" % b if b else "") or "1"
        if not c.is_rational():
            coeff = "(...)"
        elif c.num[0] == c.den:
            coeff = ""
        else:
            coeff = (f"{c.num[0]}" if c.den == 1 else f"{c.num[0]}/{c.den}") + "*"
        bits.append(coeff + mono)
    return " + ".join(bits) or "0"


# the longest chain `singularity resolve` builds.  It prints the chain's
# k x k intersection matrix: at k = 1000 (m = 1001, q = 1000) that takes
# about 0.4 s and 33 MB, at k = 3000 about 2.6 s and 170 MB, and the 99,999
# curves of (100000, 99999) would take more memory than there is.  A point of
# an orbifold spec needs no bound: its chain is shorter than its group, which
# the closure has already listed
MAX_CURVES = 1000


def cmd_singularity_resolve(args) -> dict:
    from .resolution import _hj_reconstruct, hj_resolve

    try:
        chain = hj_resolve(args.m, args.q, MAX_CURVES)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID)
    results = {
        "m": chain.m, "q": chain.q,
        "chain": chain.coeffs,
        "curve_count": chain.curve_count,
        "intersection_matrix": chain.intersection_matrix(),
    }
    return _report("singularity resolve", results, [
        ("continued fraction round trip", _hj_reconstruct(chain.coeffs) == (args.m, args.q)),
        ("intersection matrix negative definite", chain.is_negative_definite()),
    ])


def _load_spec(args):
    """The spec of --example or --spec; --m, --m2 and --symmetric belong to
    --example product alone, and are refused with any other source."""
    from .isotropy import BUILTIN_SPECS, builtin_product, spec_from_json

    if not (args.example or args.spec):
        raise CliError("need --example or --spec", EXIT_INVALID)
    name = args.example and args.example.replace("-", "_")
    if name == "product":
        m2 = [args.m2] if args.m2 is not None else []
        try:
            return builtin_product([args.m] if args.m is not None else [],
                                   m2, symmetric=args.symmetric)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_INVALID)
    product_only = [flag for flag, given in (("--m", args.m is not None),
                                             ("--m2", args.m2 is not None),
                                             ("--symmetric", args.symmetric)) if given]
    if product_only:
        raise CliError(f"only --example product reads {', '.join(product_only)}", EXIT_INVALID)
    if args.spec:
        return _read(args.spec, "spec file", spec_from_json)
    if name in BUILTIN_SPECS:
        return BUILTIN_SPECS[name]()
    raise CliError(f"unknown example {args.example!r}", EXIT_INVALID)


def cmd_orbifold_resolve(args) -> dict:
    from .groups import Unsupported
    from .resolution import Incomplete, SpecInvalid, euler_characteristic, resolution_betti

    spec = _load_spec(args)
    try:
        profile = resolution_betti(spec)
    except SpecInvalid as exc:
        raise CliError(str(exc), EXIT_INVALID)
    except Unsupported as exc:
        raise CliError(f"unsupported: {exc.reason}", EXIT_UNSUPPORTED)
    chi = euler_characteristic(spec, profile)
    results = {
        "delta": list(profile.delta),
        "contributing_points": [
            {"label": lbl, "exceptional_betti": list(eb)}
            for lbl, eb in profile.contributing_points
        ],
        "betti": list(profile.betti),
        "provenance": list(profile.provenance),
        "euler_characteristic": (
            {"incomplete": chi.reason} if isinstance(chi, Incomplete) else chi
        ),
    }
    # resolution_betti refuses an invalid spec before any report exists
    return _report("orbifold resolve", results, [("spec validation", True)])


# the largest --grid a verify command accepts.  At 100 points per axis the
# blow-up certificate has 843,636 orbits and the gluing's ball 239,076:
# `verify blowup` took 0.8-1.4 s and `verify gluing` 2.3-2.5 s end to end,
# at 15.7 MB, on a 2-core container.  Their samples stream, so peak RSS
# stays near start-up's.  The time grows about as the fourth power of the
# grid, and the circles of one plane of a grid of 10^8 points per axis
# would take more memory than there is
MAX_GRID = 100


def _check_grid(args) -> None:
    """A certificate needs at least two samples per grid axis, and at most
    MAX_GRID; checked before any grid is built."""
    if args.grid < 2:
        raise CliError("--grid must be at least 2", EXIT_INVALID)
    if args.grid > MAX_GRID:
        raise CliError(f"--grid must be at most {MAX_GRID}", EXIT_INVALID)


def _parameters(obj, keys) -> dict:
    """obj, the JSON value of a --model or --problem file, checked against
    the keys of its record: the top level an object, each key one of keys,
    and each but m, which the record checks, a real number, an integer
    (`is_int`) or a float, nu a list of two of them.  The first fault is
    named, keys in their order and nu last: a JSON true is not 1, nor a
    string a number."""
    if not isinstance(obj, dict):
        raise ValueError("the top level must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    nu = obj.get("nu", [0.0, 0.0])
    if not (isinstance(nu, list) and len(nu) == 2):
        raise ValueError("nu must be a list of two real numbers")
    reals = [(key, obj[key]) for key in keys if key in obj and key not in ("m", "nu")]
    for key, value in reals + [("nu", v) for v in nu]:
        if not (is_int(value) or isinstance(value, float)):
            raise ValueError(f"{key} must be a real number")
    return obj


def cmd_verify_tameness(args) -> dict:
    from .sympverify.localmodel import LocalModel, cube_samples
    from .sympverify.taming import TAMENESS_TOL, OrbitRegion, certify

    _check_grid(args)
    if args.model == "flat":
        params = {"m": args.m, "a": args.a, "delta0": 1.0, "delta2": args.delta2}
    else:
        params = _read(args.model, "model", _parameters, LocalModel._fields)
    try:
        model = LocalModel(**params)
    except (ValueError, OverflowError) as exc:
        raise CliError(f"invalid model: {exc}", EXIT_INVALID)
    region = OrbitRegion.cube(model.delta2)
    cert = certify(cube_samples(model, region, args.grid, resolved=args.resolved),
                   region.label, f"{args.grid}^4")
    return _report("verify tameness",
                   {"certificate": cert.to_json(), "tolerance": TAMENESS_TOL},
                   [("tameness certificate", cert.tame, {"min_quotient": cert.min_quotient})])


def cmd_verify_gluing(args) -> dict:
    from .sympverify.fixtures import pipeline_problem
    from .sympverify.forms import PreconditionFailure, glue_forms

    _check_grid(args)
    keys = ("m", "a", "eps1", "eps2", "eps3")
    obj = _read(args.problem, "problem file", _parameters, keys) if args.problem else {}
    try:
        problem = pipeline_problem(**{key: obj.get(key, getattr(args, key)) for key in keys})
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(str(exc), EXIT_INVALID)
    try:
        delta, cert = glue_forms(problem, grid_n=args.grid)
    except PreconditionFailure as exc:
        raise CliError(f"precondition failed: {exc}", EXIT_FAILED_CERT)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID)
    results = {
        "problem": problem.description,
        "delta": delta,
        "certificate": cert.to_json(),
        "grid": f"{args.grid}^4",
    }
    return _report("verify gluing", results, [
        ("glued form tame on full ball", cert.tame, {"min_quotient": cert.min_quotient}),
    ])


def cmd_verify_blowup(args) -> dict:
    from .sympverify.blowup import blowup_model_check

    _check_grid(args)
    try:
        rep = blowup_model_check(args.m, args.lam, grid_n=args.grid)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID)
    results = {
        "certificate": rep.certificate.to_json(),
        "closedness_residual": rep.closedness_residual,
        "overlap_max_diff": rep.overlap_max_diff,
        "exceptional_area": rep.area,
        "exceptional_area_expected": rep.area_expected,
    }
    return _report("verify blowup", results, [("blow-up model certificate", rep.ok)])


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a deterministic JSON report")
    common.add_argument("--quiet", action="store_true")
    return common


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="orbifold4")
    common = _common_flags()
    sub = ap.add_subparsers(dest="topic", required=True)

    grp = sub.add_parser("group").add_subparsers(dest="action", required=True)
    for action, fn in (("classify", cmd_group_classify), ("invariants", cmd_group_invariants)):
        p = grp.add_parser(action, parents=[common])
        source = p.add_mutually_exclusive_group()
        source.add_argument("--builtin")
        source.add_argument("--file")
        if action == "invariants":
            p.add_argument("--degree", type=int, default=8)
        p.set_defaults(func=fn)

    sing = sub.add_parser("singularity").add_subparsers(dest="action", required=True)
    p = sing.add_parser("resolve", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_singularity_resolve)

    orb = sub.add_parser("orbifold").add_subparsers(dest="action", required=True)
    p = orb.add_parser("resolve", parents=[common])
    source = p.add_mutually_exclusive_group()
    source.add_argument("--example")
    source.add_argument("--spec")
    p.add_argument("--m", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--symmetric", action="store_true")
    p.set_defaults(func=cmd_orbifold_resolve)

    ver = sub.add_parser("verify").add_subparsers(dest="action", required=True)
    p = ver.add_parser("tameness", parents=[common])
    p.add_argument("--model", required=True, help="'flat' or a JSON file")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--delta2", type=float, default=0.25)
    p.add_argument("--grid", type=int, default=12)
    p.add_argument("--resolved", action="store_true")
    p.set_defaults(func=cmd_verify_tameness)
    p = ver.add_parser("gluing", parents=[common])
    p.add_argument("--problem")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--eps1", type=float, default=0.5)
    p.add_argument("--eps2", type=float, default=0.8)
    p.add_argument("--eps3", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=15)
    p.set_defaults(func=cmd_verify_gluing)
    p = ver.add_parser("blowup", parents=[common])
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--grid", type=int, default=12)
    p.set_defaults(func=cmd_verify_blowup)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        emit(report, args)
    except BrokenPipeError:
        pass  # a reader that closes stdout early does not change the status
    return report["exit_status"]


def run() -> int:
    """The process entry point: the `orbifold4` script and `python -m
    orbifold4.cli`.  Runs main() and flushes stdout; when the reader has
    closed stdout, points it at os.devnull so that the interpreter's last
    flush stays quiet.  Then freezes the heap: its objects live until exit,
    and frozen objects are skipped by the full collections of interpreter
    teardown."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
