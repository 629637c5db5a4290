"""Golden corpus: the benchmark's per-instance records, re-solved through the library.

``golden/<workload>-seed<N>.jsonl`` holds the per-instance lines that

    python3 perfbench/run.py --workload <workload> --seed <N> --seconds 0 --trace 0

printed for seeds 1 and 2.  The test rebuilds the same instances with
``perfbench/workloads.make_instances`` (read only), solves each one as the
benchmark does, and demands the recorded answer, charged cost, ledger
counters and anchor-set sizes per scale exactly.  A refactor or speed-up
that keeps the solver's work keeps every record; a change that moves a
charge or an answer must regenerate the corpus and say why.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import rlelcs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
ANSWER_KEYS = ("d_tilde", "i_A", "i_B", "ell", "decoded_start_A", "decoded_start_B")


def _perfbench_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()
CORPUS = sorted(GOLDEN.glob("*-seed*.jsonl"))


def _solve(w, inst):
    """One solve as perfbench/run.py's Bench.solve makes it: (answer, ledger)."""
    ledger = rlelcs.QueryLedger()
    config = rlelcs.SolverConfig(
        seed=inst.solver_seed,
        mode=rlelcs.WalkMode(w.mode),
        anchors=rlelcs.AnchorScheme(w.anchors),
    )
    ha = rlelcs.OracleHandle(inst.a, ledger)
    if inst.b is None:
        ans = rlelcs.solve_lrs(ha, config)
    else:
        ans = rlelcs.solve_lcs_rle_p(ha, rlelcs.OracleHandle(inst.b, ledger), config)
    return ans, ledger


def _logged(build, sizes):
    """build, recording each anchor set's size by its scale as anchors_per_scale does."""

    def wrapper(s, d, *args, **kwargs):
        anchors = build(s, d, *args, **kwargs)
        sizes[str(d)] = anchors.m
        return anchors

    return wrapper


def test_corpus_covers_every_workload_on_two_seeds():
    assert [p.stem for p in CORPUS] == sorted(
        f"{name}-seed{seed}" for name in WORKLOADS.WORKLOADS for seed in (1, 2)
    )


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_golden_records_resolve_exactly(path, monkeypatch):
    name, seed = path.stem.rsplit("-seed", 1)
    w = WORKLOADS.WORKLOADS[name]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    instances = WORKLOADS.make_instances(rlelcs, w, int(seed))
    assert [r["instance"] for r in records] == list(range(len(instances)))
    sizes = {}
    for build in ("build_exhaustive", "build_minimizer"):
        monkeypatch.setattr(rlelcs.walk, build, _logged(getattr(rlelcs.walk, build), sizes))
    for record, inst in zip(records, instances):
        sizes.clear()
        ans, ledger = _solve(w, inst)
        where = (path.stem, record["instance"])
        got = None if ans is None else {k: getattr(ans, k) for k in ANSWER_KEYS}
        assert got == record["answer"], where
        assert (ledger.charged_cost, ledger.run_queries, ledger.prefix_queries) == (
            record["charged_cost"],
            record["run_queries"],
            record["prefix_queries"],
        ), where
        assert sizes == record["anchors_per_scale"], where
