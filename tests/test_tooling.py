"""Source-tree rules: correctness gates that `python -O` cannot strip, an
exact half that starts without numpy or dataclasses, commands that load only
the modules they use, public APIs that resolve lazily, and a benchmark
tracer that still wraps the program."""

import ast
import collections
import json
import os
import pathlib
import subprocess
import sys

import pytest

import orbifold4

SRC = pathlib.Path(orbifold4.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def _uses(path, name):
    """Lines of path that name `name`: a call, a reference or an import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (getattr(node, "id", None) == name or getattr(node, "attr", None) == name
                or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)):
            yield node.lineno


def test_only_taming_calls_circles():
    # every certificate reads its orbits from one taming.OrbitRegion
    found = [f"{path.relative_to(SRC)}:{line}" for path in sorted(SRC.rglob("*.py"))
             if path.name != "taming.py" for line in _uses(path, "circles")]
    assert found == []


def _names(tree):
    """Every name a tree's code gives: a reference, an attribute, an import,
    or a string that is exactly an identifier, as the lazy export tables,
    the tracer and monkeypatch.setattr name functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _unreferenced(library: dict, others: dict) -> list:
    """The `def` and `class` names of the library's trees, by path, that no
    tree names outside the definition itself; dunder methods are exempt."""
    uses = collections.Counter(name for tree in (*library.values(), *others.values())
                               for name in _names(tree))
    found = []
    for path, tree in library.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if uses[name] == sum(used == name for used in _names(node)):
                found.append(f"{path}:{node.lineno} {name}")
    return found


def test_every_library_definition_is_named_outside_itself():
    # ROADMAP aim 2: every definition has a caller, in the library, the
    # tests or the benchmark; a callee left behind by a deleted caller fails
    def trees(root):
        return {f"{root.name}/{path.relative_to(root)}": ast.parse(path.read_text())
                for path in sorted(root.rglob("*.py"))}

    others = {**trees(ROOT / "tests"), **trees(ROOT / "perfbench")}
    assert _unreferenced(trees(SRC), others) == []


def test_a_definition_that_only_names_itself_is_unreferenced():
    library = {"lib.py": ast.parse("def used():\n    return helper()\n\n"
                                   "def helper():\n    return 1\n\n"
                                   "def orphan(n):\n    return orphan(n - 1)\n\n"
                                   "class Unused:\n    def __init__(self):\n        pass\n")}
    others = {"test_lib.py": ast.parse("from lib import used\nassert used() == 1\n")}
    assert _unreferenced(library, others) == ["lib.py:7 orphan", "lib.py:10 Unused"]


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _type_tests(tree):
    """(function, class argument) of each isinstance call in a function."""
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                    yield fn.name, ast.unparse(node.args[1])


@pytest.mark.parametrize("name", ["jet.py", "profiles.py"])
def test_the_jet_takes_any_scalar(name):
    # one jet over any scalar with the arithmetic operators: no numpy, and
    # no type test but for a jet, and the smoothstep's test for a float,
    # whose other scalars it clamps by their own clip
    tree = ast.parse((SRC / "sympverify" / name).read_text())
    assert [m for m in _imported_modules(tree) if m.split(".")[0] == "numpy"] == []
    assert {(fn, cls) for fn, cls in _type_tests(tree) if cls != "Jet"} <= {
        ("smoothstep_rule", "float")}


def test_no_module_imports_numpy_at_module_level():
    # numpy is a test dependency only: the library computes in Python floats,
    # and its array references live in the tests, so no import statement of
    # src/, at module level or inside a function, names numpy
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if any(name.split(".")[0] == "numpy"
                    for name in _imported_modules(ast.parse(path.read_text())))]
    assert found == []


def test_exact_commands_start_without_numpy():
    # no module of the library imports numpy, so no command start loads it
    code = "import sys, orbifold4.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


EXACT_HALF = {"orbifold4." + name for name in
              ("cyclotomic", "unitary", "groups", "invariants", "isotropy", "resolution")}

# the names `orbifold4` exported when its __init__ imported them eagerly,
# but GroupElement, since removed: a group's elements are its UMat2s
PUBLIC_NAMES = """
    CyclotomicScalar cyclotomic_polynomial root_of_unity_log UMat2 NotUnitaryError
    UnitaryGroup CosetGroup Unsupported NotFiniteWithinBound builtin_group
    classify_element generate_group group_from_json induced_cyclic_data stratum_class
    InvariantBasis MolienSeries NotReflectionGroup Poly2 embedding_basis
    fundamental_invariants h_map_eval molien reynolds
    CornerPoint DeltaSet IsolatedPoint OrbifoldSpec Surface builtin_mapping_torus
    builtin_product delta_set load_spec spec_from_json spec_to_json validate_spec
    AbelianInvariants CohomologyProfile GroupPresentation HJChain Incomplete abelianize
    euler_characteristic exceptional_betti hj_resolve mapping_torus_pi1 resolution_betti
    smith_normal_form __version__
""".split()


def _modules_after(code, *argv) -> set:
    """The modules an interpreter holds after running `code` with argv."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code + "; print(' '.join(sys.modules))", *argv],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def _loaded_modules(argv) -> set:
    """The modules an interpreter holds after running one CLI command."""
    return _modules_after("import sys; from orbifold4.cli import main; main(sys.argv[1:])",
                          *argv, "--quiet")


@pytest.mark.parametrize("argv", [
    ("verify", "tameness", "--model", "flat", "--grid", "4"),
    ("verify", "gluing", "--grid", "8"),
    ("verify", "blowup", "--grid", "4"),
], ids=["tameness", "gluing", "blowup"])
def test_verify_commands_load_none_of_the_exact_half(argv):
    # a verify job pays for sympverify only
    loaded = _loaded_modules(argv)
    assert "orbifold4.sympverify.taming" in loaded
    assert loaded & EXACT_HALF == set()


TAMENESS_MODULES = {"taming", "localmodel", "profiles", "jet"}
GLUING_MODULES = {"forms", "taming", "jet", "fixtures", "profiles"}


@pytest.mark.parametrize("argv,modules", [
    (("verify", "tameness", "--model", "flat", "--grid", "4"), TAMENESS_MODULES),
    (("verify", "tameness", "--model", "flat", "--grid", "4", "--resolved"),
     TAMENESS_MODULES),
    (("verify", "tameness", "--model", str(ROOT / "docs" / "examples" / "model.json")),
     TAMENESS_MODULES),
    (("verify", "tameness", "--model", "degenerate-fixture"), {"taming"}),
    (("verify", "gluing", "--grid", "8"), GLUING_MODULES),
    (("verify", "blowup", "--grid", "4"), {"taming", "jet", "blowup"}),
], ids=["tameness-flat", "tameness-resolved", "tameness-model", "tameness-degenerate",
        "gluing", "blowup"])
def test_verify_commands_load_only_what_they_run(argv, modules):
    # sympverify resolves its names lazily: a verify job compiles only the
    # submodules it runs (never pushforward, which no command calls), draws
    # no random points and builds its records without the dataclass
    # generator; every certificate runs in floats, so no command loads numpy
    loaded = _loaded_modules(argv)
    assert {m for m in loaded if m.startswith("orbifold4.sympverify.")} == {
        f"orbifold4.sympverify.{name}" for name in modules}
    assert loaded & {"numpy", "dataclasses", "orbifold4.sympverify.pushforward"} == set()


def _cli(argv, block_numpy: bool):
    """(exit code, stdout) of one CLI command in a fresh interpreter; with
    block_numpy, `import numpy` raises ImportError there."""
    block = "sys.modules['numpy'] = None; " if block_numpy else ""
    code = f"import sys; {block}from orbifold4.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--json"], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [
    ("verify", "tameness", "--model", "flat", "--grid", "6"),
    ("verify", "tameness", "--model", "flat", "--grid", "6", "--resolved"),
    ("verify", "tameness", "--model", str(ROOT / "docs" / "examples" / "model.json")),
    ("verify", "tameness", "--model", "degenerate-fixture"),
    ("verify", "gluing", "--grid", "8"),
    ("verify", "gluing", "--problem", str(ROOT / "docs" / "examples" / "problem.json"),
     "--grid", "9"),
    ("verify", "gluing", "--eps1", "1.5", "--eps2", "2.4", "--eps3", "3"),
    ("verify", "blowup", "--grid", "6"),
    ("orbifold", "resolve", "--example", "mapping-torus"),
], ids=["tameness-flat", "tameness-resolved", "tameness-model", "tameness-degenerate",
        "gluing", "gluing-problem", "gluing-refused", "blowup", "orbifold-resolve"])
def test_commands_run_without_numpy(argv):
    # numpy is a test dependency only: every command keeps its exit code and
    # its report in an interpreter where numpy cannot be imported
    assert _cli(argv, block_numpy=True) == _cli(argv, block_numpy=False)


def test_pushforward_check_runs_without_numpy():
    # the fiber-power check runs in floats: the same report in an interpreter
    # where `import numpy` fails
    code = ("import sys; {block}from orbifold4.sympverify import LocalModel, pushforward_check; "
            "model = LocalModel(m=3, a=0.1, kappa=0.3, nu=(0.1, -0.2)); "
            "print(repr(pushforward_check(3, model, samples=200, seed=5)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = [subprocess.run([sys.executable, "-c", code.format(block=block)], env=env,
                          capture_output=True, text=True, check=True).stdout
           for block in ("sys.modules['numpy'] = None; ", "")]
    assert out[0] == out[1] and "radial_exact=True" in out[0]


def test_singularity_resolve_loads_only_integer_code():
    # a chain job needs no group, spec or invariant code
    loaded = _loaded_modules(("singularity", "resolve", "--m", "12", "--q", "7"))
    assert {m for m in loaded if m.startswith("orbifold4")} == {
        "orbifold4", "orbifold4.cli", "orbifold4.cyclotomic", "orbifold4.resolution"}


@pytest.mark.parametrize("argv", [
    ("group", "classify", "--builtin", "klein_four"),
    ("group", "invariants", "--builtin", "klein_four"),
    ("orbifold", "resolve", "--spec", str(ROOT / "docs" / "examples" / "orbifold-spec.json")),
], ids=["classify", "invariants", "resolve"])
def test_exact_commands_import_no_dataclasses(argv):
    # the exact half's records are namedtuples: `dataclasses` and the
    # `inspect` it imports would cost an exact job more than its arithmetic
    assert "dataclasses" not in _loaded_modules(argv) - _modules_after("import sys")


def test_every_public_name_still_imports_from_the_package():
    namespace = {}
    exec(f"from orbifold4 import {', '.join(PUBLIC_NAMES)}", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) - {"__version__"} <= set(orbifold4.__all__)
    with pytest.raises(AttributeError):
        orbifold4.no_such_name
    with pytest.raises(AttributeError):
        orbifold4.GroupElement


# the names `orbifold4.sympverify` exported when its __init__ imported them
# eagerly, but for the references that moved to the tests (the
# finite-difference oracles, exterior_derivative_fd, ball_grid, and the
# blow-up's numpy chart_potential and chart_grid), radial_potential_form,
# which only tests called, eval_omega0, which was eval_omega_a at a = 0, and
# NotAlmostComplexError, since J0 is the quotient's constant, not an argument,
# form_from_hermitian, which only the tests' array-jet oracle reads, and
# eval_omega_a, taming_quotients and tameness_min, the 4x4 array references
# the float certificates are compared against
SYMPVERIFY_NAMES = """
    RadialProfile f_smoothing f_resolved h_ramp rho_bump H_cutoff identity_profile
    LocalModel OutOfDomainError
    TamenessCertificate GluingProblem PreconditionFailure glue_forms
    PushforwardReport pushforward_check sample_points
    BlowupReport blowup_model_check chart_form exceptional_area transition
""".split()


def test_every_sympverify_name_still_imports_from_the_package():
    from orbifold4 import sympverify
    namespace = {}
    exec(f"from orbifold4.sympverify import {', '.join(SYMPVERIFY_NAMES)}", namespace)
    assert all(name in namespace for name in SYMPVERIFY_NAMES)
    assert sorted(sympverify.__all__) == sorted(SYMPVERIFY_NAMES)
    with pytest.raises(AttributeError):
        sympverify.ddbar_fd
    with pytest.raises(AttributeError):
        sympverify.tameness_min


def _trace(tmp_path, argv) -> dict:
    """Run one CLI command under perfbench/tracer.py; the trace it writes."""
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace),
                           *argv, "--json"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def _traced_calls(tmp_path, argv) -> dict:
    """The calls per span name of one traced CLI command."""
    return _trace(tmp_path, argv)["calls"]


@pytest.mark.parametrize("argv", [
    ("verify", "tameness", "--model", "flat", "--grid", "4"),
    ("verify", "gluing", "--problem", str(ROOT / "docs" / "examples" / "problem.json"),
     "--grid", "8"),
    ("verify", "blowup", "--grid", "4"),
])
def test_tracer_runs_verify_commands(tmp_path, argv):
    # the tracer wraps every layer and rebinds RadialProfile.value/d1/d2 per
    # instance; a profile whose derivatives it cannot rebind stops it
    calls = _traced_calls(tmp_path, argv)
    assert any(name.startswith("sympverify.jet.") for name in calls)
    if "blowup" not in argv:  # the chart potential uses no radial profile
        assert any(name.startswith("sympverify.profiles.") for name in calls)


def test_tracer_counts_the_resolve_commands(tmp_path):
    # resolution imports groups and isotropy inside its functions; the
    # benchmark's resolution, isotropy and groups counters must still see
    # every call through the names the tracer rebinds
    calls = _traced_calls(tmp_path, ("singularity", "resolve", "--m", "12", "--q", "7"))
    assert calls["resolution.hj_resolve"] == 1
    assert calls["resolution.HJChain.is_negative_definite"] == 2
    spec = str(ROOT / "docs" / "examples" / "orbifold-spec.json")
    calls = _traced_calls(tmp_path, ("orbifold", "resolve", "--spec", spec))
    assert calls["resolution.resolution_betti"] == 1
    assert calls["isotropy.validate_spec"] == 1
    for name in ("groups.induced_cyclic_data", "resolution.hj_resolve",
                 "resolution.exceptional_betti"):
        assert calls[name] == 5, name


def test_tracer_counts_scalars_on_exact_commands(tmp_path):
    # the benchmark's cyclotomic.scalars_built counts CyclotomicScalar.__init__
    # calls, so every scalar must be built through __init__
    calls = _traced_calls(tmp_path, ("group", "invariants", "--builtin", "klein_four"))
    assert calls.get("cyclotomic.CyclotomicScalar.__init__", 0) > 0


def test_traced_gluing_counts_no_tameness_min_points(tmp_path):
    # the gluing certifies from the taming data of its potentials on
    # (|z|^2, |w|^2) orbits, and tameness_min is the tests' reference, not a
    # library function, so the benchmark's point counter of forms reads 0 on
    # every workload
    trace = _trace(tmp_path, ("verify", "gluing", "--grid", "20"))
    assert trace["calls"]["sympverify.forms.glue_forms"] == 1
    assert "sympverify.forms.tameness_min" not in trace["calls"]
    assert "points.tameness_min" not in trace["counts"]


@pytest.mark.parametrize("argv,code", [
    (("verify", "blowup", "--grid", "4"), 0),
    (("verify", "blowup", "--m", "3", "--lam", "0.4322", "--grid", "6"), 0),
    (("verify", "blowup", "--lam", "5e306", "--grid", "4"), 0),
    # T'' overflows on the overlap: refused, naming m and lambda
    (("verify", "blowup", "--m", "300", "--grid", "4"), 2),
    (("verify", "tameness", "--model", "flat", "--grid", "4"), 0),
    (("verify", "tameness", "--model", "flat", "--grid", "4", "--resolved"), 0),
    (("verify", "tameness", "--model", "flat", "--grid", "4", "--a", "0"), 0),
    (("verify", "gluing", "--grid", "8"), 0),
    (("verify", "tameness", "--model", "degenerate-fixture"), 4),
    # a^2 underflows, and the grid meets r = 0, where 0.0 ** -p has no float
    (("verify", "tameness", "--model", "flat", "--a", "1e-200", "--grid", "21"), 4),
    (("verify", "tameness", "--model", "flat", "--a", "1e-200", "--grid", "21",
      "--resolved"), 4),
    # x ** m overflows on the cube
    (("verify", "tameness", "--model", "{huge}", "--grid", "6"), 4),
])
def test_verify_commands_write_no_warnings(argv, code, tmp_path):
    # under -W error a numpy or Python warning becomes a traceback on stderr;
    # a sample whose taming data float arithmetic cannot compute reads NaN,
    # and a refusal writes one error line and no report
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"m": 8, "a": 0.1, "delta0": 1e60, "delta2": 1e50}))
    argv = [str(huge) if arg == "{huge}" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "orbifold4.cli", *argv, "--json"],
                          env=env, capture_output=True, text=True)
    if code == 2:
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        return
    assert (proc.returncode, proc.stderr) == (code, "")
    assert json.loads(proc.stdout)["exit_status"] == code
