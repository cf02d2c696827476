"""Source-tree rules: correctness gates that `python -O` cannot strip, and
an exact half that starts without numpy."""

import ast
import os
import pathlib
import subprocess
import sys

import orbifold4

SRC = pathlib.Path(orbifold4.__file__).parent


def _assertion_gates(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_assert_gates_in_library():
    # `python -O` strips assert statements, so gates must raise named errors
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) for line in _assertion_gates(path)]
    assert found == []


def test_exact_commands_start_without_numpy():
    # only orbifold4.sympverify imports numpy at module level
    code = "import sys, orbifold4.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
