"""Smoke test of the benchmark itself, on tiny versions of every workload.

    python3 perfbench/smoke.py

For each workload, runs the benchmark twice untraced and twice traced with
one seed, and checks that every metric in BENCHMARK.json appears with its
unit, that no solve failed, and that the counts (charged cost, ledger
counters, per-layer counts, per-instance records) repeat exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path
from unittest import mock

import run
from workloads import WORKLOADS

TINY = {
    "lcs-exhaustive": dict(n_instances=2, n_runs=24, block_runs=8, block_chars=(24,)),
    "lcs-minimizer-large": dict(n_instances=2, n_runs=64, block_runs=16, block_chars=(48,)),
    "walk-small": dict(n_instances=2, block_chars=(16,)),
    "lrs-repetitive": dict(n_instances=2, n_runs=28),
}


def bench_run(name: str, trace: int) -> tuple[dict, list[dict]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert code == 0, f"{name}: exit code {code}"
    lines = out.getvalue().splitlines()
    records = [json.loads(line) for line in lines if line.startswith('{"instance"')]
    return json.loads(lines[-1]), records


def main() -> int:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    tiny = {name: dataclasses.replace(WORKLOADS[name], **TINY[name]) for name in WORKLOADS}
    with mock.patch.dict(run.WORKLOADS, tiny):
        for name in tiny:
            for trace in (0, 1):
                (first, rec1), (second, rec2) = bench_run(name, trace), bench_run(name, trace)
                for result in (first, second):
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    assert got == units[trace], f"{name} trace={trace}: metrics {got}"
                    assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
                    assert result["attempted"] >= 1
                counts = [
                    k
                    for k, unit in units[trace].items()
                    if unit in ("count", "units") or k in ("walk.probe_hit_ratio", "qmodel.grover_hit_ratio")
                ]
                for k in counts:
                    a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
                    assert a == b, f"{name} trace={trace}: {k} {a} != {b}"
                assert rec1 == rec2 and len(rec1) == TINY[name]["n_instances"], name
            print(f"smoke {name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
