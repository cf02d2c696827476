"""Source-tree rules: correctness gates that `python -O` cannot strip, an
exact half that starts without numpy, dataclasses or fractions, commands
that load only the modules they use, public APIs that resolve lazily, and a
benchmark tracer that still wraps the program."""

import ast
import collections
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import orbifold4

SRC = pathlib.Path(orbifold4.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"
UNTAMED = EXAMPLES / "untamed-model.json"


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


def _integer_rules(tree):
    """The lines of tree where one boolean expression tests a value's type
    for both int and bool: the rule "an int that is not a bool" written out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp):
            classes = {ast.unparse(call.args[1]) for call in ast.walk(node)
                       if isinstance(call, ast.Call)
                       and getattr(call.func, "id", None) == "isinstance"}
            if "bool" in classes and any(re.search(r"\bint\b", cls) for cls in classes):
                yield node.lineno


def test_the_integer_rule_is_written_once():
    # every reader of an integer input calls orbifold4.is_int, so a JSON
    # true is refused as 1 everywhere or nowhere
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             for _ in _integer_rules(ast.parse(path.read_text()))]
    assert found == ["__init__.py"]
    values = (1, -3, 0, 2 ** 70, True, False, 1.0, "1", None)
    assert [orbifold4.is_int(v) for v in values] == [True] * 4 + [False] * 5


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


# the functions of src/ that no golden case, benchmark job or the symmetric
# product enters, each with why: the ROADMAP item that gives it a command
# (a criterion is a test of tests/test_acceptance.py that calls it
# meanwhile), or why no command runs it.  Dunder methods are protocol and
# exempt: the operators a command never applies (`__pow__`, `__rsub__`,
# `Jet.__truediv__`), the `__repr__`s, the packages' `__getattr__`
UNREACHED = {
    "cli.run": "process entry point",
    "groups.CosetGroup.abelian_invariants": "ROADMAP item 6",
    "groups.CosetGroup.element_order": "ROADMAP item 6",
    "invariants.Poly2.eval_complex": "ROADMAP items 5 and 7",
    "invariants.Poly2.eval_complex.embed": "ROADMAP items 5 and 7",
    "invariants.embedding_basis": "ROADMAP items 5 and 7",
    "invariants.h_map_eval": "ROADMAP items 5 and 7",
    "invariants.invariant_dimension_bruteforce": "ROADMAP item 19, criterion 5",
    "invariants.reynolds": "ROADMAP item 19",
    "presentation.abelianize": "ROADMAP items 11 and 6, criterion 6",
    "presentation.mapping_torus_pi1": "ROADMAP item 11, criterion 6",
    "presentation.mapping_torus_pi1.power": "ROADMAP item 11, criterion 6",
    "presentation.smith_normal_form": "ROADMAP items 11 and 6, criterion 6",
    "sympverify.localmodel.model_form": "ROADMAP item 7, criteria 7 and 10",
    "sympverify.localmodel.model_form.form": "ROADMAP item 7, criteria 7 and 10",
    "sympverify.profiles.RadialProfile.d1": "perfbench/tracer.py rebinds it; criterion 8",
    "sympverify.profiles.RadialProfile.d2": "perfbench/tracer.py rebinds it; criterion 8",
    "sympverify.profiles.RadialProfile.value": "perfbench/tracer.py rebinds it",
    "sympverify.pushforward.PushforwardReport.ok": "ROADMAP item 7, criterion 10",
    "sympverify.pushforward.pushforward_check": "ROADMAP item 7, criterion 10",
    "sympverify.pushforward.sample_points": "ROADMAP item 7, criteria 7 and 10",
}

# runs `main(argv + ["--json"])` of the package's cli for each [argv, exit
# code or null] of a JSON list on stdin, output captured, and prints the
# (path, first line) of every code object of the package that it entered
SCAN = """
import contextlib, io, json, os, sys
root, package = sys.argv[1:]
sys.path.insert(0, root)
main = __import__(package + ".cli", fromlist=["main"]).main
prefix = os.path.join(root, package, "")
entered = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(prefix):
        entered.add((code.co_filename[len(prefix):], code.co_firstlineno))
for argv, expect in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        code = main(argv + ["--json"])
        sys.setprofile(None)
    if expect is not None and code != expect:
        sys.exit(f"{argv} exited {code}, not {expect}")
print(json.dumps(sorted(entered)))
"""


def _functions(node, prefix):
    """(qualified name, first line) of every function under node, nested
    ones included, dunder methods left out; a decorated function's first
    line is its first decorator's, as in its code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            dunder = child.name.startswith("__") and child.name.endswith("__")
            if not (isinstance(child, ast.ClassDef) or dunder):
                yield name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _unreached_faults(package: pathlib.Path, argvs, allowed: dict) -> list:
    """Run argvs under SCAN in a fresh interpreter, so that no cache or
    import of this one hides a call, and list what the allow-list gets
    wrong: a function no argv entered that it does not name, a name it
    holds that an argv entered, and a name it holds that is not defined."""
    proc = subprocess.run([sys.executable, "-c", SCAN, str(package.parent), package.name],
                          input=json.dumps(argvs), cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    defined = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package)
        module = ".".join(rel.with_suffix("").parts)
        for name, line in _functions(ast.parse(path.read_text()), module):
            defined[name] = (str(rel), line) not in entered
    unreached = {name for name, missed in defined.items() if missed}
    return ([f"unreached, not listed: {name}" for name in sorted(unreached - allowed.keys())]
            + [f"listed, but reached: {name}" for name in sorted(allowed.keys() & defined.keys()
                                                                  - unreached)]
            + [f"listed, but not defined: {name}" for name in sorted(allowed.keys()
                                                                    - defined.keys())])


def test_every_library_function_runs_under_some_command(tmp_path, monkeypatch):
    # ROADMAP aim 2, with commands as the only callers: every golden case,
    # every job of the three workloads at seed 7, each exiting as the
    # benchmark expects, and the symmetric product enter every function of
    # src/ but those UNREACHED names
    from test_golden import CASES, NUMERIC_CASES

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass reads the module from sys.modules
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    argvs = [[list(argv), None] for argv in (*CASES.values(), *NUMERIC_CASES.values())]
    for name in ("exact-groups", "resolve-specs", "certify-grids"):
        (tmp_path / name).mkdir()
        argvs += [[job.argv, job.expect_exit]
                  for job in workloads.make_jobs(name, 7, str(tmp_path / name))]
    argvs.append([["orbifold", "resolve", "--example", "product", "--m", "3", "--m2", "3",
                   "--symmetric"], 0])
    assert _unreached_faults(SRC, argvs, UNREACHED) == []
    reasons = ("ROADMAP item", "error path, covered by test_cli.py", "process entry point",
               "perfbench/tracer.py rebinds it")
    assert [name for name, why in UNREACHED.items() if not why.startswith(reasons)] == []


def test_the_reachability_scan_names_what_the_list_gets_wrong(tmp_path):
    package = tmp_path / "lib"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import functools\n\n"
        "def main(argv):\n    return helper() if argv[0] == 'run' else 2\n\n"
        "@functools.lru_cache\ndef helper():\n    def inner():\n        return 0\n"
        "    return inner()\n\n"
        "def orphan():\n    return 1\n\n"
        "def waiting():\n    return 1\n\n"
        "class Record:\n    def __repr__(self):\n        return ''\n\n"
        "    def method(self):\n        return 1\n")
    allowed = {"cli.waiting": "an item", "cli.helper": "an item", "cli.gone": "an item"}
    assert _unreached_faults(package, [[["run"], 0]], allowed) == [
        "unreached, not listed: cli.Record.method", "unreached, not listed: cli.orphan",
        "listed, but reached: cli.helper", "listed, but not defined: cli.gone"]
    assert _unreached_faults(package, [[["run"], 0]], {
        "cli.waiting": "an item", "cli.orphan": "an item", "cli.Record.method": "an item"}) == []


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
    # src/, at module level or inside a function, names numpy; a scalar's
    # rationals are its integers num and den, so none names fractions or
    # decimal either.  cmath is Poly2.eval_complex's alone, the embedding
    # in C that ROADMAP items 5 and 7 will call
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    found = [f"{path} {name}" for path, tree in trees.items() for name in _imported_modules(tree)
             if name.split(".")[0] in ("numpy", "fractions", "decimal")]
    assert found == []

    def cmath_imports(tree):
        return sum(name == "cmath" for name in _imported_modules(tree))

    eval_complex = next(node for node in ast.walk(trees["invariants.py"])
                        if isinstance(node, ast.FunctionDef) and node.name == "eval_complex")
    assert {path: n for path, tree in trees.items() if (n := cmath_imports(tree))} == {
        "invariants.py": 1}
    assert cmath_imports(eval_complex) == 1


# the names `orbifold4` exported when its __init__ imported them eagerly,
# but GroupElement, since removed: a group's elements are its UMat2s;
# spec_to_json, which moved to the tests' references with the other JSON
# writers, since no command writes a spec; and load_spec, since the CLI's one
# reader opens a spec file and spec_from_json builds the spec
PUBLIC_NAMES = """
    CyclotomicScalar cyclotomic_polynomial root_of_unity_log UMat2 NotUnitaryError
    UnitaryGroup CosetGroup Unsupported NotFiniteWithinBound builtin_group
    classify_element generate_group group_from_json induced_cyclic_data stratum_class
    InvariantBasis MolienSeries NotReflectionGroup Poly2 embedding_basis
    fundamental_invariants h_map_eval molien reynolds
    CornerPoint DeltaSet IsolatedPoint OrbifoldSpec Surface builtin_mapping_torus
    builtin_product delta_set spec_from_json validate_spec
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


@pytest.fixture(scope="module")
def bare_modules() -> set:
    """The modules a bare interpreter holds, measured once."""
    return _modules_after("import sys")


# what no command loads beyond a bare interpreter: numpy is a test
# dependency only, the exact half's records are namedtuples and the
# sympverify ones are built without the dataclass generator (whose
# `inspect` would cost an exact job more than its arithmetic), a scalar's
# rationals are its integers num and den, no command embeds a scalar in C,
# presents a fundamental group or pushes a form forward
NEVER_LOADED = {"numpy", "dataclasses", "fractions", "decimal", "_decimal", "numbers", "cmath",
                "orbifold4.presentation", "orbifold4.sympverify.pushforward"}

# the modules of the package each command loads, past orbifold4 and
# orbifold4.cli: a verify job compiles only the sympverify modules it runs
# and none of the exact half, a chain job no field, group, spec or invariant
# code (the package, not cyclotomic, defines the SelfCheckFailed it may
# raise), and an exact job no sympverify module
TAMENESS = {"sympverify", "sympverify.taming", "sympverify.localmodel", "sympverify.profiles",
            "sympverify.jet"}
GLUING = {"sympverify", "sympverify.forms", "sympverify.taming", "sympverify.jet",
          "sympverify.fixtures", "sympverify.profiles"}
GROUP = {"cyclotomic", "unitary", "groups"}
SPEC = GROUP | {"isotropy", "resolution"}
COMMAND_MODULES = {
    "tameness-flat": (("verify", "tameness", "--model", "flat", "--grid", "4"), TAMENESS),
    "tameness-resolved": (("verify", "tameness", "--model", "flat", "--grid", "4", "--resolved"),
                          TAMENESS),
    "tameness-model": (("verify", "tameness", "--model", str(EXAMPLES / "model.json")), TAMENESS),
    "tameness-untamed": (("verify", "tameness", "--model", str(UNTAMED)), TAMENESS),
    "gluing": (("verify", "gluing", "--grid", "8"), GLUING),
    "gluing-problem": (("verify", "gluing", "--problem", str(EXAMPLES / "problem.json"),
                        "--grid", "9"), GLUING),
    "gluing-refused": (("verify", "gluing", "--eps1", "1.5", "--eps2", "2.4", "--eps3", "3"),
                       GLUING),
    "blowup": (("verify", "blowup", "--grid", "4"),
               {"sympverify", "sympverify.taming", "sympverify.jet", "sympverify.blowup"}),
    "singularity": (("singularity", "resolve", "--m", "12", "--q", "7"), {"resolution"}),
    "classify": (("group", "classify", "--builtin", "klein_four"), GROUP),
    "classify-file": (("group", "classify", "--file", str(EXAMPLES / "group.json")), GROUP),
    "invariants": (("group", "invariants", "--builtin", "klein_four"), GROUP | {"invariants"}),
    "resolve-spec": (("orbifold", "resolve", "--spec", str(EXAMPLES / "orbifold-spec.json")),
                     SPEC),
    "resolve-example": (("orbifold", "resolve", "--example", "mapping-torus"), SPEC),
}


@pytest.mark.parametrize("argv,modules", COMMAND_MODULES.values(), ids=COMMAND_MODULES.keys())
def test_each_command_loads_exactly_its_modules(argv, modules, bare_modules):
    # each command imports the modules it uses and no others; no module of
    # src/ imports numpy (test_no_module_imports_numpy_at_module_level), and
    # no command loads it, so every command runs where numpy is missing
    loaded = _modules_after("import sys; from orbifold4.cli import main; main(sys.argv[1:])",
                            *argv, "--quiet")
    assert {m for m in loaded if m.startswith("orbifold4")} == {
        "orbifold4", "orbifold4.cli", *(f"orbifold4.{name}" for name in modules)}
    assert (loaded - bare_modules) & NEVER_LOADED == set()


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


def test_every_public_name_still_imports_from_the_package():
    namespace = {}
    exec(f"from orbifold4 import {', '.join(PUBLIC_NAMES)}", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) - {"__version__"} <= set(orbifold4.__all__)
    with pytest.raises(AttributeError):
        orbifold4.no_such_name
    with pytest.raises(AttributeError):
        orbifold4.GroupElement
    with pytest.raises(AttributeError):
        orbifold4.spec_to_json
    with pytest.raises(AttributeError):
        orbifold4.load_spec
    # the mapping-torus code lives in a module no command loads
    assert {getattr(orbifold4, name).__module__ for name in (
        "AbelianInvariants", "GroupPresentation", "abelianize", "mapping_torus_pi1",
        "smith_normal_form")} == {"orbifold4.presentation"}
    # one exception class, bound in the field's module too
    from orbifold4.cyclotomic import SelfCheckFailed
    assert SelfCheckFailed is orbifold4.SelfCheckFailed


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
    ("verify", "gluing", "--problem", str(EXAMPLES / "problem.json"),
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
    spec = str(EXAMPLES / "orbifold-spec.json")
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
    (("verify", "tameness", "--model", str(UNTAMED)), 4),
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
