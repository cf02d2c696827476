"""Command-line interface: subcommands, exit codes, deterministic JSON."""

import json
import sys

import pytest

from orbifold4.cli import main


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


def test_singularity_resolve_invalid_input(capsys):
    code, _, err = run(capsys, "singularity", "resolve", "--m", "4", "--q", "2")
    assert code == 2 and "invalid" in err


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


def test_verify_tameness_flat_passes(capsys):
    code, out, _ = run(capsys, "verify", "tameness", "--model", "flat",
                       "--m", "2", "--a", "0.1", "--grid", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["certificate"]["tame"] is True


def test_verify_tameness_degenerate_fails_with_exit_4(capsys):
    code, out, _ = run(capsys, "verify", "tameness", "--model", "degenerate-fixture", "--json")
    assert code == 4
    payload = json.loads(out)
    assert payload["results"]["certificate"]["tame"] is False


def test_verify_tameness_model_file(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"m": 2, "a": 0.1, "delta0": 1.0, "delta2": 0.2}))
    # even grid: the odd one samples the fiber origin, where the smoothed
    # orbifold-side form is degenerate for m >= 2
    code, out, _ = run(capsys, "verify", "tameness", "--model", str(path),
                       "--grid", "6", "--json")
    assert code == 0
    assert json.loads(out)["results"]["certificate"]["tame"] is True


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


def test_verify_blowup_invalid(capsys):
    code, _, err = run(capsys, "verify", "blowup", "--m", "1")
    assert code == 2


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
    import orbifold4.cli as cli
    from orbifold4 import Unsupported, builtin_mapping_torus, spec_to_json

    def refuse(spec):
        raise Unsupported("deliberately refused in test")

    monkeypatch.setattr(cli, "resolution_betti", refuse)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json(builtin_mapping_torus())))
    code, _, err = run(capsys, "orbifold", "resolve", "--spec", str(path))
    assert code == 3 and "unsupported" in err


def test_spec_file_round_trip(capsys, tmp_path):
    from orbifold4 import builtin_mapping_torus, spec_to_json
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
])
def test_invalid_input_exits_2_with_error_line(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == "" and err.startswith("error: ")



def _count_calls(monkeypatch, name):
    """Wrap the orbifold4 function `name` wherever a module holds it; the
    returned list collects one entry per call."""
    calls = []
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "orbifold4"]
    fn = next(getattr(m, name) for m in modules if hasattr(m, name))
    for module in modules:
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_group_classify_classifies_each_element_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "classify_element")
    code, out, _ = run(capsys, "group", "classify", "--builtin", "klein_four", "--json")
    assert code == 0
    assert json.loads(out)["results"]["element_kinds"] == {"identity": 1, "reflection": 2,
                                                           "free": 1}
    assert len(calls) == 4


def test_orbifold_resolve_validates_the_spec_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "validate_spec")
    code, out, _ = run(capsys, "orbifold", "resolve", "--example", "mapping-torus", "--json")
    assert code == 0 and json.loads(out)["results"]["delta"] == []
    assert len(calls) == 1

def test_orbifold_resolve_invalid_spec_exits_2(capsys, tmp_path):
    from orbifold4 import builtin_mapping_torus, spec_to_json
    obj = spec_to_json(builtin_mapping_torus())
    obj["surfaces"][0]["m"] = 1
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "orbifold", "resolve", "--spec", str(path), "--json")
    assert code == 2 and out == ""
    assert err == "error: spec invalid: surface 'S_phi': transverse isotropy order 1 < 2\n"
