"""Source-tree rules that keep correctness gates from being stripped."""

import ast
import pathlib

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
