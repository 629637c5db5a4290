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
