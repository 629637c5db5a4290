import ast
import dataclasses
import re
import types
from pathlib import Path

import rlelcs

ROOT = Path(__file__).resolve().parents[1]

# exports that only tests call, each with why it stays exported
TEST_ONLY = {
    "make_handles": "two handles on one ledger, the tests' usual solver setup",
    "pad_interleave": "the paper's incompressible padding, checked by test_reductions",
}

# defaulted parameters that no call in src/ or perfbench/ passes, each with why it stays
UNPASSED_DEFAULTS = {
    "qmodel.grover_search.unit_cost": "goes with the function itself, in ROADMAP item 1a",
    "qmodel.make_handles.ledger": "make_handles is a test-only export (TEST_ONLY)",
}

# names no solver code calls, kept only because perfbench/tracer.py patches
# them, each with the ROADMAP item that deletes it
TRACER_ONLY = {
    "DynArray": "criterion 4 checks it; structures.py goes in ROADMAP item 21, after item 1a",
    "RangeSum2D": "criterion 4 checks it; ROADMAP item 1a deletes it",
    "grover_search": "walk.py imports it for the tracer; ROADMAP item 1a deletes the import",
    "ldcp_runs": "walk.py imports it for the tracer; ROADMAP item 1a deletes the import",
    "lex_compare_runs": "walk.py imports it for the tracer; ROADMAP item 1a deletes the import",
}

# SolverConfig fields that no caller sets, each with why it stays
UNSET_FIELDS = {
    "truth_hint": "cost-only mode's trajectory input, which ROADMAP item 13 generalizes",
}


def test_every_export_has_a_caller():
    # each exported name occurs in the package or the benchmark harness
    # outside __init__.py and outside its own def/class line
    files = [p for p in sorted((ROOT / "src" / "rlelcs").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    lines = [line for p in files for line in p.read_text().splitlines()]
    names = [n for n in rlelcs.__all__ if not isinstance(getattr(rlelcs, n), types.ModuleType)]
    uncalled = []
    for name in names:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(TEST_ONLY)


def test_every_solver_helper_has_a_caller():
    # each module-level def or class of the package occurs in src/ outside its
    # own def/class line; reference.py is skipped, as its oracles and window
    # helpers serve the tests
    files = sorted((ROOT / "src" / "rlelcs").glob("*.py"))
    lines = [line for p in files for line in p.read_text().splitlines()]
    uncalled = []
    for path in files:
        if path.name == "reference.py":
            continue
        for name in re.findall(r"^(?:def|class) (\w+)", path.read_text(), re.M):
            word = re.compile(rf"\b{name}\b")
            own = re.compile(rf"\s*(def|class) {name}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                uncalled.append(f"{path.name}:{name}")
    assert uncalled == []


def test_every_solver_config_field_has_a_caller():
    # each SolverConfig field is set as a keyword in the CLI or the benchmark harness
    files = [ROOT / "src" / "rlelcs" / "cli.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(p.read_text() for p in files)
    fields = [f.name for f in dataclasses.fields(rlelcs.SolverConfig)]
    unset = [name for name in fields if not re.search(rf"\b{name}=", text)]
    assert sorted(unset) == sorted(UNSET_FIELDS)


def _defaulted_params(tree: ast.Module):
    """(callee name, parameter, position or None if keyword-only) per defaulted parameter.

    Positions count the arguments a call passes, so a method's self or cls is
    skipped; a class's __init__ goes by the class name, which its calls use.
    """
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        bound = id(node) in owner
        name = owner[id(node)] if node.name == "__init__" else node.name
        a = node.args
        positional = a.posonlyargs + a.args
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield name, positional[i].arg, i - bound
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passed(calls, name: str, param: str, position) -> bool:
    """Whether some call of name passes param by keyword or at its position."""
    for node in calls.get(name, ()):
        if any(kw.arg in (param, None) for kw in node.keywords):  # None: a ** splat
            return True
        if position is not None and (
            len(node.args) > position or any(isinstance(x, ast.Starred) for x in node.args)
        ):
            return True
    return False


def test_every_defaulted_parameter_has_a_caller():
    # each parameter with a default, of every function and method in the
    # package, is passed by keyword or by position at some call in src/ or
    # perfbench/ (a class call counts for its __init__); reference.py is
    # skipped, as in test_every_solver_helper_has_a_caller
    package = sorted((ROOT / "src" / "rlelcs").glob("*.py"))
    calls = {}
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [
        f"{path.stem}.{name}.{param}"
        for path in package
        if path.name != "reference.py"
        for name, param, position in _defaulted_params(ast.parse(path.read_text()))
        if not _passed(calls, name, param, position)
    ]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS)


def test_tracer_only_names_have_no_solver_caller():
    # the structures classes occur in no solver module, and walk.py names the
    # functions it imports for the tracer in its import statement alone
    structures = {"DynArray", "RangeSum2D"}
    assert structures | {"grover_search", "ldcp_runs", "lex_compare_runs"} == set(TRACER_ONLY)
    for path in sorted((ROOT / "src" / "rlelcs").glob("*.py")):
        if path.name not in ("structures.py", "__init__.py"):
            text = path.read_text()
            assert not [n for n in structures if re.search(rf"\b{n}\b", text)], path.name
    tree = ast.parse((ROOT / "src" / "rlelcs" / "walk.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    names = set(TRACER_ONLY) - structures
    assert names <= imported and not names & used
