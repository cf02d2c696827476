"""Command-line interface: subcommands, exit codes, deterministic JSON."""

import argparse
import gc
import importlib
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
import warnings

import pytest

from fd_oracles import matrix_to_json, scalar_to_json, spec_to_json
from orbifold4.cli import _fmt, build_parser, main


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"
UNTAMED = EXAMPLES / "untamed-model.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_classify_builtin(capsys):
    code, out, _ = run(capsys, "group", "classify", "--builtin", "klein_four", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["order"] == 4
    assert payload["results"]["stratum"] == "Sigma1"
    assert payload["results"]["quotient_order"] == 1


def test_group_invariants(capsys):
    code, out, _ = run(capsys, "group", "invariants", "--builtin", "klein_four",
                       "--degree", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["molien"] == [1, 0, 2, 0, 3, 0, 4]
    assert payload["results"]["invariants"]["degrees"] == [2, 2]


def test_singularity_resolve(capsys):
    code, out, _ = run(capsys, "singularity", "resolve", "--m", "4", "--q", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["chain"] == [2, 2, 2]
    assert payload["results"]["intersection_matrix"][0] == [-2, 1, 0]


def _statuses(out) -> dict:
    return {c["name"]: c["status"] for c in json.loads(out)["checks"]}


def test_group_classify_reads_closure_off_the_table(capsys, monkeypatch):
    # a table row that repeats an element is not a group's: the check fails
    from orbifold4 import groups
    real = groups.builtin_group

    def broken(name):
        G = real(name)
        G.table[1] = [1, 1, 3, 2]
        return G

    code, out, _ = run(capsys, "group", "classify", "--builtin", "klein_four", "--json")
    assert code == 0 and _statuses(out)["group finite and closed"] == "pass"
    monkeypatch.setattr(groups, "builtin_group", broken)
    code, out, _ = run(capsys, "group", "classify", "--builtin", "klein_four", "--json")
    assert _statuses(out)["group finite and closed"] == "fail"
    assert code == 4 and json.loads(out)["exit_status"] == 4


def test_singularity_resolve_checks_the_round_trip(capsys, monkeypatch):
    # a chain that does not reconstruct (m, q) fails the round trip
    from orbifold4 import resolution

    code, out, _ = run(capsys, "singularity", "resolve", "--m", "12", "--q", "7", "--json")
    assert code == 0 and _statuses(out)["continued fraction round trip"] == "pass"
    monkeypatch.setattr(resolution, "hj_resolve",
                        lambda m, q, max_curves: resolution.HJChain(m, q, [2]))
    code, out, _ = run(capsys, "singularity", "resolve", "--m", "12", "--q", "7", "--json")
    statuses = _statuses(out)
    assert statuses["continued fraction round trip"] == "fail"
    assert statuses["intersection matrix negative definite"] == "pass"
    assert code == 4 and json.loads(out)["exit_status"] == 4


def test_group_invariants_checks_the_molien_prefix(capsys, monkeypatch):
    # a reflection group's series is 1/((1 - t^d1)(1 - t^d2)); a wrong
    # coefficient fails the check and the command
    from orbifold4 import invariants
    real = invariants.molien
    argv = ("group", "invariants", "--builtin", "klein_four", "--degree", "6", "--json")

    code, out, _ = run(capsys, *argv)
    assert code == 0 and _statuses(out)["molien prefix through degree 6"] == "pass"
    monkeypatch.setattr(invariants, "molien", lambda G, D: invariants.MolienSeries(
        real(G, D).coefficients[:-1] + [5]))
    code, out, _ = run(capsys, *argv)
    assert _statuses(out)["molien prefix through degree 6"] == "fail"
    assert code == 4 and json.loads(out)["exit_status"] == 4


def test_group_invariants_of_a_non_reflection_group_reports_integrality(capsys):
    code, out, _ = run(capsys, "group", "invariants", "--builtin", "minus_identity", "--json")
    assert code == 0
    assert _statuses(out) == {"molien integrality through degree 8": "pass"}


def test_singularity_resolve_invalid_input(capsys):
    code, _, err = run(capsys, "singularity", "resolve", "--m", "4", "--q", "2")
    assert code == 2 and "invalid" in err


@pytest.mark.parametrize("m", [100000, 10 ** 18])
def test_singularity_resolve_refuses_a_chain_past_max_curves(capsys, monkeypatch, m):
    # the chain of (m, m - 1) has m - 1 curves: m = 100000 would print a
    # matrix of 10^10 entries, and m = 10^18 would never end its loop.  The
    # refusal comes before any matrix is built
    from orbifold4 import resolution

    monkeypatch.setattr(resolution.HJChain, "intersection_matrix", None)
    code, out, err = run(capsys, "singularity", "resolve", "--m", str(m), "--q", str(m - 1),
                         "--json")
    assert (code, out) == (2, "")
    assert err == (f"error: the resolution of (m, q) = ({m}, {m - 1}) has more than 1000 "
                   f"curves; longer chains are refused\n")


def test_singularity_resolve_builds_a_chain_of_max_curves(capsys):
    from orbifold4.cli import MAX_CURVES

    code, out, _ = run(capsys, "singularity", "resolve", "--m", str(MAX_CURVES + 1), "--q",
                       str(MAX_CURVES), "--json")
    assert code == 0 and json.loads(out)["results"]["curve_count"] == MAX_CURVES == 1000


@pytest.mark.parametrize("action", ["classify", "invariants"])
def test_an_unknown_builtin_group_exits_2_with_its_message(capsys, action):
    code, out, err = run(capsys, "group", action, "--builtin", "nope")
    assert (code, out, err) == (2, "", "error: unknown built-in group 'nope'\n")


def test_orbifold_resolve_mapping_torus(capsys):
    code, out, _ = run(capsys, "orbifold", "resolve", "--example", "mapping-torus", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["betti"] == [1, 0, 7, 0, 1]
    assert payload["results"]["delta"] == []
    assert len(payload["results"]["contributing_points"]) == 5


def test_orbifold_resolve_product(capsys):
    code, out, _ = run(capsys, "orbifold", "resolve", "--example", "product",
                       "--m", "3", "--m2", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["betti"] == [1, 0, 2, 0, 1]
    assert payload["results"]["euler_characteristic"] == 4


def test_orbifold_resolve_unknown_example(capsys):
    code, _, err = run(capsys, "orbifold", "resolve", "--example", "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv,min_quotient", [
    (("--m", "2", "--a", "0.1", "--grid", "6"), None),
    # m = 1 is the flat form itself; odd grids meet r = 0
    (("--m", "1", "--a", "0.1", "--grid", "21"), 1.0),
    (("--m", "1", "--a", "0", "--grid", "21"), 1.0),
    # a = 0 is the flat form for every m, also where the grid meets r = 0
    (("--m", "2", "--a", "0", "--grid", "5"), 1.0),
], ids=["m2-grid6", "m1-a0.1-grid21", "m1-a0-grid21", "m2-a0-grid5"])
def test_verify_tameness_flat_passes(capsys, argv, min_quotient):
    code, out, _ = run(capsys, "verify", "tameness", "--model", "flat", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["certificate"]["tame"] is True
    if min_quotient is not None:
        assert payload["results"]["certificate"]["min_quotient"] == min_quotient


@pytest.mark.parametrize("grid", ["2", "4", "12", "24"])
def test_verify_tameness_untamed_model_fails_with_exit_4(capsys, grid):
    # |nu| = 10 tilts the form past taming at the cube's corners, which
    # every grid samples
    code, out, _ = run(capsys, "verify", "tameness", "--model", str(UNTAMED), "--grid", grid,
                       "--json")
    assert code == 4
    cert = json.loads(out)["results"]["certificate"]
    assert cert["tame"] is False and cert["min_quotient"] == -0.76776695296636899


def test_verify_tameness_model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"m": 2, "a": 0.1, "delta0": 1.0, "delta2": 0.2}))
    # even grid: the odd one samples the fiber origin, where the smoothed
    # orbifold-side form is degenerate for m >= 2
    code, out, _ = run(capsys, "verify", "tameness", "--model", str(path),
                       "--grid", "6", "--json")
    assert code == 0
    assert json.loads(out)["results"]["certificate"]["tame"] is True


def test_verify_tameness_of_a_huge_model_stays_finite(tmp_path, capsys):
    # entries near the largest double: the taming quotient must not overflow
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"m": 2, "a": 0.1, "kappa": 1e308, "nu": [1e308, 1e308]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "tameness", "--model", str(path),
                             "--grid", "4", "--json")
    assert code == 4 and err == "" and not caught
    assert math.isfinite(json.loads(out)["results"]["certificate"]["min_quotient"])


def test_verify_tameness_bad_model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"m": 0}))
    code, _, err = run(capsys, "verify", "tameness", "--model", str(path))
    assert code == 2


def test_verify_gluing(capsys):
    code, out, _ = run(capsys, "verify", "gluing", "--grid", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["delta"] > 0
    assert payload["results"]["certificate"]["tame"] is True


def test_verify_blowup(capsys):
    code, out, _ = run(capsys, "verify", "blowup", "--m", "2", "--lam", "0.1",
                       "--grid", "6", "--json")
    assert code == 0
    assert json.loads(out)["results"]["certificate"]["tame"] is True


def test_verify_blowup_failure_prints_the_full_report(capsys, monkeypatch):
    from orbifold4.sympverify import blowup
    monkeypatch.setattr(blowup, "transition", lambda u, v, m: (1 / u, u ** (m + 1) * v))
    code, out, err = run(capsys, "verify", "blowup", "--grid", "6", "--json")
    assert code == 4 and err == ""
    payload = json.loads(out)
    assert payload["checks"][0]["status"] == "fail"
    assert payload["results"]["overlap_max_diff"] > 1e-8


def test_verify_blowup_invalid(capsys):
    code, _, err = run(capsys, "verify", "blowup", "--m", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("tameness", "--model", "flat", "--grid", "4"),
    ("gluing", "--grid", "8"),
    ("blowup", "--grid", "6"),
], ids=["tameness", "gluing", "blowup"])
def test_plain_verify_output_prints_plain_numbers(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert "worst_sample" in out and "np." not in out


def test_json_output_is_byte_identical_across_runs(capsys):
    args = ("verify", "gluing", "--grid", "7", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ("group", "classify", "--builtin", "minus_identity", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_json_keys_sorted(capsys):
    _, out, _ = run(capsys, "singularity", "resolve", "--m", "5", "--q", "2", "--json")
    payload = json.loads(out)
    assert list(payload.keys()) == sorted(payload.keys())


def test_quiet_suppresses_output(capsys):
    code, out, _ = run(capsys, "group", "classify", "--builtin", "klein_four", "--quiet")
    assert code == 0 and out == ""


def test_unsupported_math_exit_code(capsys, monkeypatch, tmp_path):
    # the refusal path maps to exit 3
    from orbifold4 import Unsupported, builtin_mapping_torus

    def refuse(spec):
        raise Unsupported("deliberately refused in test")

    monkeypatch.setattr("orbifold4.resolution.resolution_betti", refuse)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(builtin_mapping_torus())))
    code, _, err = run(capsys, "orbifold", "resolve", "--spec", str(path))
    assert code == 3 and "unsupported" in err


def test_spec_file_round_trip(capsys, tmp_path):
    from orbifold4 import builtin_mapping_torus
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(builtin_mapping_torus())))
    code, out, _ = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 0
    assert json.loads(out)["results"]["betti"] == [1, 0, 7, 0, 1]


@pytest.mark.parametrize("argv", [
    ("verify", "tameness", "--model", "flat", "--grid", "0"),
    ("verify", "tameness", "--model", "flat", "--grid", "1"),
    ("verify", "gluing", "--grid", "1"),
    ("verify", "blowup", "--grid", "1"),
    ("group", "invariants", "--builtin", "klein_four", "--degree", "-1"),
    ("orbifold", "resolve", "--example", "product", "--m", "3", "--symmetric"),
    ("verify", "tameness", "--model", "flat", "--m", "0"),
    ("verify", "tameness", "--model", "flat", "--a", "-1"),
    ("verify", "tameness", "--model", "flat", "--delta2", "0.5"),
    ("verify", "tameness", "--model", "flat", "--delta2", "-0.1"),
    ("verify", "gluing", "--m", "0"),
    ("verify", "gluing", "--a", "0"),
    ("verify", "gluing", "--eps1", "0.25", "--eps3", "2", "--grid", "2"),
    ("verify", "tameness", "--model", "flat", "--a", "nan"),
    ("group", "classify", "--builtin", "no_such_group"),
    ("verify", "blowup", "--lam", "inf"),
    ("orbifold", "resolve", "--example", "product", "--m", "0", "--m2", "3"),
    ("orbifold", "resolve", "--example", "product", "--m", "3", "--m2", "0"),
    ("verify", "gluing", "--eps3", "1e300"),
    ("verify", "gluing", "--eps1", "1e200", "--eps2", "2e200", "--eps3", "3e200"),
    ("verify", "gluing", "--a", "1e-150", "--grid", "15"),
    ("verify", "gluing", "--a", "1e-150", "--grid", "16"),
    ("verify", "gluing", "--a", "1e-300"),
    # omega1 would vanish on the outer annulus
    ("verify", "gluing", "--eps1", "1.5", "--eps2", "2.4", "--eps3", "3"),
    ("verify", "gluing", "--eps1", "1.75", "--eps2", "2.8", "--eps3", "3.5"),
    ("verify", "gluing", "--eps1", "5", "--eps2", "8", "--eps3", "10"),
    # refused before any grid is built: a list or an array of 10^8 points
    # would not fit in memory
    ("verify", "blowup", "--grid", "100000000"),
    ("verify", "gluing", "--grid", "100000000"),
    ("verify", "tameness", "--model", "flat", "--grid", "100000000"),
    ("verify", "blowup", "--grid", "101"),
    # a model is 'flat' or a file: any other name is a missing file
    ("verify", "tameness", "--model", "degenerate-fixture"),
])
def test_invalid_input_exits_2_with_error_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == "" and err.startswith("error: ")


# one argv that every command accepts
VALID_ARGV = {
    ("group", "classify"): ("--builtin", "klein_four"),
    ("group", "invariants"): ("--builtin", "klein_four"),
    ("singularity", "resolve"): ("--m", "4", "--q", "3"),
    ("orbifold", "resolve"): ("--example", "mapping-torus"),
    ("verify", "tameness"): ("--model", "flat"),
    ("verify", "gluing"): (),
    ("verify", "blowup"): (),
}


def test_every_command_refuses_seed(capsys):
    parser = build_parser()
    assert {path for path, _ in _leaf_parsers(parser)} == set(VALID_ARGV)
    for path, argv in VALID_ARGV.items():
        parser.parse_args([*path, *argv])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*path, *argv, "--seed", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


# a scalar whose only coefficient [num, den] has den = 0
ZERO_DEN = '{"conductor": 1, "coeffs": [[1, 0]]}'


def _minus_identity(conductor: str, max_order: str = "512", other: str | None = None) -> str:
    """The group file of -1 as a diagonal matrix whose entries name a
    conductor, as JSON text; with other, a second generator, the identity
    in conductor other."""
    def diagonal(n, value):
        entry = '{"conductor": %s, "coeffs": [[%d, 1]]}' % (n, value)
        zero = '{"conductor": %s, "coeffs": []}' % n
        return "[[%s, %s], [%s, %s]]" % (entry, zero, zero, entry)
    gens = [diagonal(conductor, -1)] + ([diagonal(other, 1)] if other else [])
    return '{"generators": [%s], "max_order": %s}' % (", ".join(gens), max_order)


def _spec_of(group: str) -> str:
    """A spec file whose one isolated point has the given group, as JSON text."""
    return ('{"base_betti": [1, 0, 0, 0, 1], '
            '"isolated_points": [{"label": "C1", "group": %s}]}' % group)


@pytest.mark.parametrize("argv,content", [
    (("group", "classify", "--file"), "[1, 2]"),
    (("orbifold", "resolve", "--spec"), "[1, 2]"),
    (("verify", "gluing", "--problem"), "[1, 2]"),
    (("verify", "gluing", "--problem"), '{"m": "2"}'),
    (("verify", "tameness", "--model"), "[1, 2]"),
    (("verify", "tameness", "--model"), '{"kappa": NaN}'),
    (("verify", "tameness", "--model"), '{"nu": [1]}'),
    (("verify", "tameness", "--model"), '{"m": 2.5}'),
    (("verify", "tameness", "--model"), '{"m": true}'),
    (("verify", "gluing", "--problem"), '{"m": 2.5, "a": 0.1}'),
    (("verify", "gluing", "--problem"), '{"m": true, "a": 0.1}'),
    (("group", "classify", "--file"),
     '{"generators": [[[%s, %s], [%s, %s]]]}' % ((ZERO_DEN,) * 4)),
    (("orbifold", "resolve", "--spec"),
     '{"base_betti": [1, 0, 0, 0, 1], "isolated_points": [{"label": "C1", "group": '
     '{"generators": [[[%s, %s], [%s, %s]]]}}]}' % ((ZERO_DEN,) * 4)),
    (("verify", "tameness", "--model"), '{"m": 2, "a": 0.1, "base": "disc"}'),
    (("verify", "tameness", "--model"), '{"m": 2, "a": 0.1, "delta0": 1e308, "delta2": 1e300}'),
    (("verify", "gluing", "--problem"), '{"m": 2, "a": 0.1, "esp1": 0.45}'),
    (("verify", "gluing", "--problem"), (EXAMPLES / "group.json").read_text()),
    (("verify", "gluing", "--problem"), '{"eps3": 1%s}' % ("0" * 400)),
    (("verify", "tameness", "--model"), '{"kappa": 1%s}' % ("0" * 400)),
    # a conductor that is not an integer in [1, MAX_CONDUCTOR], and a
    # max_order above MAX_ORDER, on an order-2 group
    *((("group", "classify", "--file"), _minus_identity(conductor))
      for conductor in ("4.5", '"4"', "null", "true", "0", "257")),
    (("orbifold", "resolve", "--spec"), _spec_of(_minus_identity("4.5"))),
    (("group", "classify", "--file"), _minus_identity("2", max_order="1000000")),
    (("group", "invariants", "--file"), _minus_identity("2", max_order="2.5")),
    # a generator that is not 2x2 was an IndexError traceback, exit 1
    (("group", "classify", "--file"), '{"generators": [[[%s]]]}' % ZERO_DEN),
])
def test_malformed_input_file_exits_2(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_text(content)
    code, out, err = run(capsys, *argv, str(path), "--json")
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv,what", [
    (("group", "classify", "--file"), "group file"),
    (("orbifold", "resolve", "--spec"), "spec file"),
    (("verify", "tameness", "--model"), "model"),
    (("verify", "gluing", "--problem"), "problem file"),
], ids=["group", "spec", "model", "problem"])
def test_a_file_nested_past_the_recursion_limit_exits_2(capsys, tmp_path, argv, what):
    # json.load raises RecursionError on it: every reader refuses the file
    # with one line, as any other malformed file
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, *argv, str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid {what}: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def _group_with_coefficient(pair: str) -> str:
    """The group file of diag(s, s), s the rational scalar whose one
    coefficient is the JSON text pair, as JSON text."""
    s = '{"conductor": 1, "coeffs": [%s]}' % pair
    zero = '{"conductor": 1, "coeffs": []}'
    return '{"generators": [[[%s, %s], [%s, %s]]]}' % (s, zero, zero, s)


@pytest.mark.parametrize("where", ["group-file", "spec"])
@pytest.mark.parametrize("pair", ["[true, 1]", "[1.5, 1]", '["1", 1]', "[null, 1]",
                                  "[1, true]", "[1, 1.5]", '[1, "1"]', "[1, null]"])
def test_a_coefficient_that_is_not_a_pair_of_integers_exits_2(capsys, tmp_path, where, pair):
    # a JSON true is not 1, as for a conductor: one line names the coefficient
    group = _group_with_coefficient(pair)
    path = tmp_path / "input.json"
    if where == "spec":
        path.write_text(_spec_of(group))
        argv, what = ("orbifold", "resolve", "--spec"), "spec file"
    else:
        path.write_text(group)
        argv, what = ("group", "classify", "--file"), "group file"
    code, out, err = run(capsys, *argv, str(path), "--json")
    assert (code, out) == (2, "")
    assert err == f"error: invalid {what}: coefficient {pair} is not a pair of integers\n"


def test_poly_str_prints_rationals_as_integers_or_fractions():
    from orbifold4.cyclotomic import CyclotomicScalar
    from orbifold4.cli import _poly_str
    from orbifold4.invariants import Poly2

    p = Poly2({(3, 0): 1, (2, 1): -1, (1, 2): CyclotomicScalar(1, [1], 2),
               (0, 3): CyclotomicScalar(1, [-3], 4), (0, 0): CyclotomicScalar.zeta(4)})
    assert _poly_str(p) == "z^3 + -1*z^2w^1 + 1/2*z^1w^2 + -3/4*w^3 + (...)1"
    assert _poly_str(Poly2({(1, 1): CyclotomicScalar(3, [6, 0], 4)})) == "3/2*z^1w^1"
    assert _poly_str(Poly2()) == "0"


@pytest.mark.parametrize("argv,content,key", [
    (("verify", "gluing", "--problem"), '{"eps1": true, "eps2": 1.5, "eps3": 2}', "eps1"),
    (("verify", "gluing", "--problem"), '{"a": true}', "a"),
    (("verify", "gluing", "--problem"), '{"a": "0.1"}', "a"),
    (("verify", "gluing", "--problem"), '{"eps2": false}', "eps2"),
    (("verify", "gluing", "--problem"), '{"eps3": [1.0]}', "eps3"),
    (("verify", "gluing", "--problem"), '{"eps1": null}', "eps1"),
    (("verify", "tameness", "--model"), '{"m": 2, "a": true}', "a"),
    (("verify", "tameness", "--model"), '{"m": 2, "a": "0.1"}', "a"),
    (("verify", "tameness", "--model"), '{"delta0": true}', "delta0"),
    (("verify", "tameness", "--model"), '{"delta2": "0.25"}', "delta2"),
    (("verify", "tameness", "--model"), '{"kappa": false}', "kappa"),
    (("verify", "tameness", "--model"), '{"nu": [true, 0.0]}', "nu"),
    # several bad keys: the first in the record's field order is named, m
    # left to the record and nu last, whatever their order in the file
    (("verify", "tameness", "--model"), '{"nu": [true, 0.0], "kappa": "x", "a": null}', "a"),
    (("verify", "tameness", "--model"), '{"nu": [true, 0.0], "kappa": "x", "delta2": true}',
     "delta2"),
    (("verify", "tameness", "--model"), '{"nu": [0.0, "x"], "kappa": false}', "kappa"),
    (("verify", "gluing", "--problem"), '{"eps3": null, "eps1": true, "m": "2"}', "eps1"),
])
def test_a_boolean_or_non_number_parameter_exits_2_naming_its_key(capsys, tmp_path, argv,
                                                                  content, key):
    # a JSON true is not 1, and a string is not a number: refused like m,
    # with one error line that names the key
    path = tmp_path / "input.json"
    path.write_text(content)
    code, out, err = run(capsys, *argv, str(path), "--json")
    what = "model" if argv[1] == "tameness" else "problem file"
    assert (code, out, err) == (2, "", f"error: invalid {what}: {key} must be a real number\n")


@pytest.mark.parametrize("argv,content,fault", [
    (("verify", "tameness", "--model"), '{"nu": 3}', "nu must be a list of two real numbers"),
    (("verify", "tameness", "--model"), '{"nu": "ab"}', "nu must be a list of two real numbers"),
    (("verify", "tameness", "--model"), '{"nu": [0.1, 0.2, 0.3]}',
     "nu must be a list of two real numbers"),
    (("verify", "tameness", "--model"), '{"bogus": 1}', "unknown keys ['bogus']"),
    (("verify", "tameness", "--model"), '[1, 2]', "the top level must be a JSON object"),
    (("verify", "gluing", "--problem"), '[1, 2]', "the top level must be a JSON object"),
    (("verify", "gluing", "--problem"), '{"nu": [0.0, 0.0]}', "unknown keys ['nu']"),
])
def test_a_malformed_parameter_file_exits_2_naming_its_fault(capsys, tmp_path, argv, content,
                                                             fault):
    # a --model file is checked as a --problem file is, before any model is
    # built, so no message is Python's own text about a call's arguments
    path = tmp_path / "input.json"
    path.write_text(content)
    code, out, err = run(capsys, *argv, str(path), "--json")
    what = "model" if argv[1] == "tameness" else "problem file"
    assert (code, out, err) == (2, "", f"error: invalid {what}: {fault}\n")


def test_a_group_file_past_its_max_order_exits_2(capsys, tmp_path):
    from orbifold4.cyclotomic import CyclotomicScalar
    from orbifold4.unitary import UMat2

    # diag(zeta_17, 1) generates a group of order 17
    gen = UMat2.diagonal(CyclotomicScalar.zeta(17, 1), CyclotomicScalar.one())
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": [matrix_to_json(gen)], "max_order": 16}))
    code, out, err = run(capsys, "group", "classify", "--file", str(path), "--json")
    assert code == 2 and out == ""
    assert err == "error: invalid group file: closure exceeds max_order=16\n"


def test_group_classify_at_an_odd_conductor_logs_by_lookup(capsys, tmp_path):
    # Z_255 acting with weights (1, 7): conductor 255, order 255 and 510
    # root-of-unity logs.  Rebuilding and scanning the field's 510 roots in
    # every log takes about 24 s in all, far past the bound
    from orbifold4.cyclotomic import CyclotomicScalar
    from orbifold4.unitary import UMat2

    gen = UMat2.diagonal(CyclotomicScalar.zeta(255, 1), CyclotomicScalar.zeta(255, 7))
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": [matrix_to_json(gen)]}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "group", "classify", "--file", str(path), "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["results"]["induced_cyclic"] == {"m": 255, "q": 7}
    assert elapsed < 5.0


@pytest.mark.parametrize("argv,content,fault", [
    (("group", "classify", "--file"), _minus_identity("999", other="1000"),
     "invalid group file: conductor 999 is not an integer in [1, 256]"),
    (("group", "classify", "--file"), _minus_identity("255", other="256"),
     "invalid group file: the generators' conductors have lcm 65280, above 256"),
    (("orbifold", "resolve", "--spec"), _spec_of(_minus_identity("255", other="256")),
     "invalid spec file: the generators' conductors have lcm 65280, above 256"),
    (("group", "classify", "--file"), _minus_identity("64000"),
     "invalid group file: conductor 64000 is not an integer in [1, 256]"),
])
def test_a_field_past_max_conductor_exits_2_before_it_is_built(tmp_path, argv, content, fault):
    # Phi_N at the lcm 999,000 of the conductors 999 and 1000 did not finish
    # in 30 s: a fresh interpreter under a timeout, so a refusal that comes
    # too late fails instead of hanging the suite
    path = tmp_path / "input.json"
    path.write_text(content)
    proc = _cli_process(*argv, str(path), "--json", timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {fault}\n")


@pytest.mark.parametrize("orders", [("--m", "100000", "--m2", "3"),
                                    ("--m", "256", "--m2", "3"),
                                    ("--m", "17", "--m2", "17", "--symmetric"),
                                    ("--m", "100000", "--m2", "100000", "--symmetric")],
                         ids=["cyclic-pair-huge", "cyclic-pair-768", "swap-578", "swap-huge"])
def test_a_product_corner_past_max_order_exits_2_before_it_is_built(orders):
    # a corner group's order is known from its cone points: m m' for a pair
    # of cone points, 2 m^2 on the symmetric product's diagonal.  Building
    # the scalars first took time linear in m, 21 s at m = 20,000; a fresh
    # interpreter under a timeout, so a late refusal fails instead of hanging
    proc = _cli_process("orbifold", "resolve", "--example", "product", *orders, "--json",
                        timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: closure exceeds max_order=512\n")


@pytest.mark.parametrize("orders", [("--m", "128", "--m2", "3"), ("--m", "256", "--m2", "2"),
                                    ("--m", "16", "--m2", "16", "--symmetric")],
                         ids=["cyclic-pair-384", "cyclic-pair-512", "swap-512"])
def test_a_product_corner_at_most_max_order_resolves(capsys, orders):
    code, out, err = run(capsys, "orbifold", "resolve", "--example", "product", *orders, "--json")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv,content,fault", [
    (("group", "classify", "--file"), {"gens": []}, "invalid group file: missing key 'generators'"),
    (("orbifold", "resolve", "--spec"), {"name": "x"},
     "invalid spec file: missing key 'base_betti'"),
    (("orbifold", "resolve", "--spec"),
     {"base_betti": [1, 0, 2, 0, 1], "isolated_points": [{"label": "P", "group": "nope"}]},
     "invalid spec file: unknown built-in group 'nope'"),
], ids=["group-generators", "spec-base-betti", "spec-unknown-group"])
def test_a_file_without_a_required_key_exits_2_naming_the_key(capsys, tmp_path, argv, content,
                                                              fault):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *argv, str(path), "--json")
    assert (code, out, err) == (2, "", f"error: {fault}\n")


@pytest.mark.parametrize("degree", [1001, 10 ** 8])
def test_group_invariants_refuses_a_degree_past_max_degree(capsys, monkeypatch, degree):
    # the refusal comes before any group is built
    from orbifold4 import groups

    monkeypatch.setattr(groups, "builtin_group", None)
    code, out, err = run(capsys, "group", "invariants", "--builtin", "klein_four", "--degree",
                         str(degree), "--json")
    assert (code, out, err) == (2, "", "error: --degree must be at most 1000\n")


def test_group_invariants_reads_a_series_of_max_degree(capsys):
    from orbifold4.cli import MAX_DEGREE

    code, out, _ = run(capsys, "group", "invariants", "--builtin", "klein_four", "--degree",
                       str(MAX_DEGREE), "--json")
    assert code == 0 and len(json.loads(out)["results"]["molien"]) == MAX_DEGREE + 1 == 1001


# the named choices of the options that take a name rather than a file
NAMES = {"--model": ["flat"],
         "--builtin": ["klein_four", "minus_identity", "dihedral"],
         "--example": ["mapping-torus", "product", "klein"]}
INT_LIMITS = {"--grid": (-1, 6), "--degree": (-2, 8)}


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every command of the parser tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def _random_argv(rng, path, parser):
    paths = [str(p) for p in sorted(EXAMPLES.glob("*"))] + [str(EXAMPLES / "missing.json")]
    argv = list(path)
    for action in parser._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in (None, "--help") or rng.random() < (0.05 if action.required else 0.5):
            continue
        argv.append(flag)
        if action.nargs == 0:
            continue
        if action.type is int:
            value = rng.randint(*INT_LIMITS.get(flag, (-2, 8)))
        elif action.type is float:
            value = rng.choice([-1.0, -0.1, 0.0, 1e-300, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0,
                                1e200, 1e300])
        else:
            value = rng.choice(NAMES.get(flag, []) + paths)
        argv.append(str(value))
    return argv


def test_random_argv_exits_cleanly():
    # every input ends in exit 0, 2, 3 or 4, never in a traceback
    rng = random.Random(20201)
    commands = list(_leaf_parsers(build_parser()))
    for _ in range(200):
        argv = _random_argv(rng, *rng.choice(commands))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses malformed argv with exit 2
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"traceback for {argv}") from exc
        assert code in (0, 2, 3, 4), argv



def _count_calls(monkeypatch, module, name):
    """Wrap the function `name` of the orbifold4 module `module` wherever a
    module holds it; the returned list collects one entry per call.  The
    defining module is imported first, since the CLI imports it only when a
    command needs it."""
    calls = []
    fn = getattr(importlib.import_module(module), name)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "orbifold4"]
    for module in modules:
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_group_classify_classifies_each_element_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "orbifold4.groups", "classify_element")
    code, out, _ = run(capsys, "group", "classify", "--builtin", "klein_four", "--json")
    assert code == 0
    assert json.loads(out)["results"]["element_kinds"] == {"identity": 1, "reflection": 2,
                                                           "free": 1}
    assert len(calls) == 4


def test_orbifold_resolve_validates_the_spec_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "orbifold4.isotropy", "validate_spec")
    code, out, _ = run(capsys, "orbifold", "resolve", "--example", "mapping-torus", "--json")
    assert code == 0 and json.loads(out)["results"]["delta"] == []
    assert len(calls) == 1

def test_orbifold_resolve_invalid_spec_exits_2(capsys, tmp_path):
    from orbifold4 import builtin_mapping_torus
    obj = spec_to_json(builtin_mapping_torus())
    obj["surfaces"][0]["m"] = 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 2 and out == ""
    assert err == "error: spec invalid: surface 'S_phi': transverse isotropy order 1 < 2\n"


@pytest.mark.parametrize("field,value", [
    ("base_betti", "abcde"),
    ("base_betti", [1, 0, 2.5, 0, 1]),
    ("m", "2"),
    ("m", 2.5),
])
def test_orbifold_resolve_refuses_non_integer_spec_fields(capsys, tmp_path, field, value):
    from orbifold4 import builtin_mapping_torus
    obj = spec_to_json(builtin_mapping_torus())
    if field == "m":
        obj["surfaces"][0]["m"] = value
    else:
        obj[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 2 and out == ""
    assert err.startswith("error: spec invalid: ")


@pytest.mark.parametrize("key,value,message", [
    ("compact", "no", "compact 'no' is not a boolean"),
    ("genus", "x", "genus 'x' is not a nonnegative integer"),
    ("genus", -3, "genus -3 is not a nonnegative integer"),
], ids=["compact-string", "genus-string", "genus-negative"])
def test_orbifold_resolve_refuses_ill_typed_surface_fields(capsys, tmp_path, key, value, message):
    from orbifold4 import builtin_mapping_torus
    obj = spec_to_json(builtin_mapping_torus())
    obj["surfaces"][0][key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 2 and out == ""
    assert err == f"error: spec invalid: surface 'S_phi': {message}\n"


@pytest.mark.parametrize("value", ["S_phiS_xi_1", [["S_phi"]], {"S_phi": 1}],
                         ids=["string", "nested-list", "object"])
def test_orbifold_resolve_refuses_incident_surfaces_that_are_not_a_list_of_labels(
        capsys, tmp_path, value):
    # a string is not split into one-character labels, and an unhashable
    # label is refused instead of raising TypeError
    obj = json.loads((EXAMPLES / "orbifold-spec.json").read_text())
    obj["corner_points"][0]["incident_surfaces"] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 2 and out == ""
    assert err == ("error: spec invalid: corner 'A0': incident_surfaces must be a list"
                   " of surface labels\n")


@pytest.mark.parametrize("where,kind", [("isolated_points", "isolated point"),
                                        ("surfaces", "surface"),
                                        ("corner_points", "corner point")])
@pytest.mark.parametrize("label,text", [([1], "[1]"), (1, "1"), (None, "null"), (True, "true")],
                         ids=["list", "int", "null", "true"])
def test_orbifold_resolve_refuses_a_label_that_is_not_a_string(capsys, tmp_path, where, kind,
                                                               label, text):
    # a list label was a TypeError traceback in the duplicate check, and an
    # int, null or true label was accepted
    obj = json.loads((EXAMPLES / "orbifold-spec.json").read_text())
    obj[where][0]["label"] = label
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: spec invalid: {kind} 0: label {text} is not a string")


@pytest.mark.parametrize("argv", [
    ("group", "classify", "--builtin", "klein_four", "--file", "/nonexistent"),
    ("group", "invariants", "--file", str(EXAMPLES / "group.json"), "--builtin", "klein_four"),
    ("orbifold", "resolve", "--example", "mapping-torus", "--spec", "/nonexistent"),
])
def test_a_second_source_exits_2(capsys, argv):
    # a command reads one group or one spec: a second source is refused,
    # not ignored
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flags", [
    (("--spec", str(EXAMPLES / "orbifold-spec.json"), "--m", "5", "--symmetric"),
     "--m, --symmetric"),
    (("--example", "mapping-torus", "--m2", "0"), "--m2"),
    (("--example", "mapping_torus", "--m", "3", "--m2", "3"), "--m, --m2"),
])
def test_product_flags_with_another_source_exit_2_naming_them(capsys, argv, flags):
    # --m, --m2 and --symmetric describe --example product alone
    code, out, err = run(capsys, "orbifold", "resolve", *argv, "--json")
    assert (code, out, err) == (2, "", f"error: only --example product reads {flags}\n")


@pytest.mark.parametrize("argv,source", [
    (("group", "classify"), "--builtin or --file"),
    (("group", "invariants", "--degree", "4"), "--builtin or --file"),
    (("orbifold", "resolve"), "--example or --spec"),
    (("orbifold", "resolve", "--m", "3"), "--example or --spec"),
])
def test_a_command_without_a_source_exits_2_naming_the_choices(capsys, argv, source):
    assert run(capsys, *argv) == (2, "", f"error: need {source}\n")


@pytest.mark.parametrize("value,text", [
    (0.0, "0.0"), (-0.0, "-0.0"), (2.0, "2.0"), (-7.0, "-7.0"), (1e16, "1e+16"),
    (1e200, "9.9999999999999997e+199"), (0.1, "0.10000000000000001"), (1.5e-300, "1.5000000000000001e-300"),
    (float("inf"), "null"), (float("-inf"), "null"), (float("nan"), "null"),
    (3, "3"), (True, "true"),
])
def test_fmt_writes_json_numbers(value, text):
    # a float reads back as a float of the same value; a non-finite one is null
    assert _fmt(value) == text
    back = json.loads(text)
    if isinstance(value, float) and math.isfinite(value):
        assert type(back) is float and back == value
        assert math.copysign(1.0, back) == math.copysign(1.0, value)


def test_fmt_of_a_numpy_float_matches_the_float():
    import numpy as np
    for value in (0.0, 2.0, 0.25, 1e16, float("inf")):
        assert _fmt(np.float64(value)) == _fmt(value)
    assert _fmt({"a": [np.float64(1.0), None]}) == '{"a": [1.0, null]}'


def test_an_integral_min_quotient_prints_as_a_float(capsys):
    code, out, _ = run(capsys, "verify", "tameness", "--model", "flat", "--a", "1e200",
                       "--grid", "4", "--json")
    assert code == 4
    payload = json.loads(out)
    assert type(payload["results"]["certificate"]["min_quotient"]) is float
    assert payload["checks"][0]["min_quotient"] == 0.0


def test_a_lambda_that_overflows_the_blowup_model_is_refused(capsys):
    # refused with one error line, not certified on overflowed floats
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "blowup", "--lam", "1e308", "--grid", "4", "--json")
    assert code == 2 and out == "" and not caught
    assert err.startswith("error: the blow-up model overflows a double at m=2, lambda=1e+308")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,m,lam", [
    (("--m", "300"), 300, "0.1"),
    (("--lam", "5e307"), 2, "5e+307"),
], ids=["m", "lambda"])
def test_an_overflow_refusal_names_m_and_lambda(capsys, argv, m, lam):
    # m = 300 overflows T'' = p(p - 1) t^(p - 2) at the overlap's tiny
    # |u^m v|^2, lambda = 5e307 the potential lambda log1p(s) at the area's
    # last node; the refusal cannot tell which parameter to blame
    code, out, err = run(capsys, "verify", "blowup", *argv, "--grid", "4", "--json")
    assert code == 2 and out == ""
    assert err.startswith(f"error: the blow-up model overflows a double at m={m}, lambda={lam}:")


def test_a_large_lambda_below_overflow_is_certified(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "blowup", "--lam", "1e300", "--grid", "4", "--json")
    assert code == 0 and err == "" and not caught
    assert json.loads(out)["checks"][0]["status"] == "pass"


def _refused_spec(tmp_path):
    """A spec whose isolated point has Q8 x <zeta_3>: refused with exit 3."""
    from orbifold4 import CyclotomicScalar
    def z(k):
        return scalar_to_json(CyclotomicScalar.zeta(12, k))

    o = scalar_to_json(CyclotomicScalar.zero(12))
    group = {"generators": [[[o, z(6)], [z(0), o]], [[z(3), o], [o, z(9)]],
                            [[z(4), o], [o, z(4)]]]}
    path = tmp_path / "refused.json"
    path.write_text(json.dumps({
        "name": "refused", "base_betti": [1, 0, 2, 0, 1], "betti_provenance": ["asserted"] * 5,
        "isolated_points": [{"label": "R", "group": group}], "surfaces": [],
        "corner_points": []}))
    return path


def _cli_process(*argv, stdout=subprocess.PIPE, timeout=None):
    """`python -m orbifold4.cli` with argv, the way the script runs."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "orbifold4.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout)


@pytest.mark.parametrize("argv,code", [
    (("verify", "tameness", "--model", "flat", "--grid", "4", "--json"), 0),
    (("singularity", "resolve", "--m", "4", "--q", "2", "--json"), 2),
    (("orbifold", "resolve", "--spec", "REFUSED", "--json"), 3),
    (("verify", "tameness", "--model", str(UNTAMED), "--json"), 4),
], ids=["exit0", "exit2", "exit3", "exit4"])
def test_the_process_entry_point_matches_main(capsys, tmp_path, argv, code):
    # run() adds only the exit path to main(): the same output and status,
    # and an in-process main() leaves the garbage collector unfrozen
    argv = [str(_refused_spec(tmp_path)) if a == "REFUSED" else a for a in argv]
    frozen = gc.get_freeze_count()
    in_process = run(capsys, *argv)
    assert gc.get_freeze_count() == frozen
    assert in_process[0] == code
    proc = _cli_process(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process


@pytest.mark.parametrize("argv,code", [
    (("verify", "tameness", "--model", "flat", "--m", "2", "--a", "0.1898", "--delta2",
      "0.2246", "--grid", "21", "--json"), 4),
    # a report larger than the stdout buffer breaks the pipe inside emit
    (("singularity", "resolve", "--m", "200", "--q", "199", "--json"), 0),
], ids=["at-exit", "in-emit"])
def test_a_closed_stdout_ends_without_a_traceback(argv, code):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        proc = _cli_process(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")
