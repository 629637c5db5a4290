import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_records_how_and_where_it_was_measured(path):
    # every committed benchmark record parses and names its command, its
    # host, the commit it compares against and a non-empty set of run pairs
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("command", "host", "parent_commit", "pairs"):
        assert record.get(key), key
