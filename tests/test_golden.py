"""Exact CLI commands against recorded output: plain `--json` stdout, stderr
and exit code must match the fixtures in tests/golden byte for byte.

Only exact commands are recorded; the float fields of the `verify` commands
may move by an ulp under a reordering of the arithmetic.

To record the fixtures of a checkout, run `python tests/test_golden.py`.
"""

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


def _run(argv) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "orbifold4.cli", *argv, "--json"],
                          cwd=ROOT, env=env, capture_output=True)
    return proc.stdout, proc.stderr, proc.returncode


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
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


if __name__ == "__main__":
    _record()
