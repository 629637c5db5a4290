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
