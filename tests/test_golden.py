"""Exact CLI commands against recorded output: plain `--json` stdout, stderr
and exit code must match the fixtures in tests/golden byte for byte.

The `verify` commands are recorded too, but their float fields may move by
an ulp under a reordering of the arithmetic: their keys, exit code, stderr
and every non-float field must match exactly, and each float to a relative
1e-13.

To record the fixtures of a checkout, run `python tests/test_golden.py`.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "group-classify-file": ("group", "classify", "--file", "docs/examples/group.json"),
    "group-invariants-file": ("group", "invariants", "--file", "docs/examples/group.json"),
    "group-invariants-klein-four-deg8": ("group", "invariants", "--builtin", "klein_four",
                                         "--degree", "8"),
    "orbifold-resolve-spec": ("orbifold", "resolve", "--spec", "docs/examples/orbifold-spec.json"),
    "orbifold-resolve-mapping-torus": ("orbifold", "resolve", "--example", "mapping-torus"),
    "orbifold-resolve-product-2-3": ("orbifold", "resolve", "--example", "product",
                                     "--m", "2", "--m2", "3"),
    "singularity-resolve-12-7": ("singularity", "resolve", "--m", "12", "--q", "7"),
}

NUMERIC_CASES = {
    "verify-tameness-flat-8": ("verify", "tameness", "--model", "flat", "--grid", "8"),
    "verify-tameness-flat-8-resolved": ("verify", "tameness", "--model", "flat", "--grid", "8",
                                        "--resolved"),
    "verify-gluing-8": ("verify", "gluing", "--grid", "8"),
    "verify-blowup-8": ("verify", "blowup", "--grid", "8"),
}

FLOAT_RTOL = 1e-13


def _run(argv) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "orbifold4.cli", *argv, "--json"],
                          cwd=ROOT, env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in {**CASES, **NUMERIC_CASES}.items():
        out, err, code = _run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
        (GOLDEN / f"{name}.stderr").write_bytes(err)
        (GOLDEN / f"{name}.exit").write_text(f"{code}\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    out, err, code = _run(CASES[name])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()


def _assert_close(got, want, path="$"):
    """Equal JSON values, floats to FLOAT_RTOL relative and everything else exactly."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= FLOAT_RTOL * abs(want), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", sorted(NUMERIC_CASES))
def test_verify_output_matches_golden_to_rounding(name):
    out, err, code = _run(NUMERIC_CASES[name])
    assert code == int((GOLDEN / f"{name}.exit").read_text())
    assert err == (GOLDEN / f"{name}.stderr").read_bytes()
    _assert_close(json.loads(out), json.loads((GOLDEN / f"{name}.stdout").read_bytes()))


if __name__ == "__main__":
    _record()
