"""Multi-scale walk-mode records, re-solved exactly.

``walk_records.json`` holds planted random-walk solves,
``plant_instance(n, n // 8, 3 * (n // 8), seed)`` with n runs per side:
LCS of the pair and LRS of A $ B, with exhaustive and minimizer anchors,
n from 40 to 160.  Each record is the answer and the ledger counters of
one solve with ``SolverConfig(mode=RANDOMWALK, anchors=..., seed=seed)``.
Those strings span several scales, so the walk's scale ceiling, its
unmarked searches and the RNG stream they leave all shape the records;
the golden corpus's walk workload searches one scale only.  A change that
moves an answer, a charge, a query counter or a random draw fails here.
"""

import json
from pathlib import Path

import pytest

import rlelcs
from rlelcs.reference import plant_instance
from rlelcs.rle import concat_sep

RECORDS = json.loads((Path(__file__).resolve().parent / "walk_records.json").read_text())


def _case_id(record):
    return f"{record['kind']}-{record['anchors']}-{record['n_runs']}-seed{record['seed']}"


@pytest.mark.parametrize("record", RECORDS, ids=[_case_id(r) for r in RECORDS])
def test_walk_record_resolves_exactly(record):
    n, seed = record["n_runs"], record["seed"]
    inst = plant_instance(n, n // 8, 3 * (n // 8), seed, verify=False)
    ledger = rlelcs.QueryLedger()
    config = rlelcs.SolverConfig(
        mode=rlelcs.WalkMode.RANDOMWALK, anchors=rlelcs.AnchorScheme(record["anchors"]), seed=seed
    )
    if record["kind"] == "lcs":
        ha, hb = rlelcs.OracleHandle(inst.a, ledger), rlelcs.OracleHandle(inst.b, ledger)
        ans = rlelcs.solve_lcs_rle_p(ha, hb, config)
    else:
        joined, _ = concat_sep(inst.a, inst.b)
        ans = rlelcs.solve_lrs(rlelcs.OracleHandle(joined, ledger), config)
    assert ans is not None and ans.as_json() == record["answer"]
    assert ledger.as_dict() == {
        key: record[key] for key in ("run_queries", "prefix_queries", "charged_cost")
    }


def test_records_cover_both_problems_and_schemes():
    cells = {(r["kind"], r["anchors"]) for r in RECORDS}
    assert cells == {(k, a) for k in ("lcs", "lrs") for a in ("exhaustive", "minimizer")}
    assert len(RECORDS) >= 24 and {40, 160} <= {r["n_runs"] for r in RECORDS}
