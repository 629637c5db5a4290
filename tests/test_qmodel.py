import math

import pytest

from rlelcs.qmodel import (
    CostModel,
    OracleHandle,
    QueryLedger,
    WalkHooks,
    WalkMode,
    ceil_sqrt,
    grover_search,
    make_handles,
    walk_search,
)
from rlelcs.rle import RleString, encode


def handle(data=b"aaabcccdd"):
    return OracleHandle(encode(data), QueryLedger())


def test_query_run_worked_example():
    h = handle()
    assert h.query_run(3) == (ord("c"), 3)
    assert h.query_run(1) == (ord("a"), 3)


def test_query_run_single_run():
    h = OracleHandle(encode(b"xxxxx"), QueryLedger())
    assert h.query_run(1) == (ord("x"), 5)


def test_query_run_counting_contract():
    h = handle()
    before = h.ledger.run_queries
    h.query_run(2)
    h.query_run(2)
    assert h.ledger.run_queries == before + 2


def test_query_run_purity_and_range():
    h = handle()
    assert h.query_run(2) == h.query_run(2)
    with pytest.raises(IndexError):
        h.query_run(0)
    with pytest.raises(IndexError):
        h.query_run(5)


def test_query_prefix_examples():
    h = handle()
    assert h.query_prefix(2) == 4
    assert h.query_prefix(0) == 0
    assert h.query_prefix(h.n) == h.total
    assert h.ledger.prefix_queries == 3
    with pytest.raises(IndexError):
        h.query_prefix(5)


def test_handle_inverse_prefix_counts_probes():
    h = handle()
    before = h.ledger.prefix_queries
    assert h.inverse_prefix(5) == 3
    probes = h.ledger.prefix_queries - before
    assert 1 <= probes <= math.ceil(math.log2(h.n)) + 1


def test_grover_search_examples():
    model = CostModel()
    ledger = QueryLedger()
    idx = grover_search(8, lambda i: i == 5, ledger=ledger, model=model)
    assert idx == 5
    assert ledger.charged_cost == pytest.approx(ceil_sqrt(8))  # 3T with T=1
    ledger2 = QueryLedger()
    assert grover_search(8, lambda i: False, ledger=ledger2, model=model) is None
    assert ledger2.charged_cost == ledger.charged_cost  # independent of outcome
    ledger3 = QueryLedger()
    grover_search(1, lambda i: True, ledger=ledger3, model=model, unit_cost=2.5)
    assert ledger3.charged_cost == pytest.approx(2.5)


def test_ledger_monotone_and_dump():
    ledger = QueryLedger()
    ledger.charge(1.5)
    ledger.charge(0)
    with pytest.raises(ValueError):
        ledger.charge(-1)
    assert ledger.as_dict() == {"run_queries": 0, "prefix_queries": 0, "charged_cost": 1.5}


def test_cost_model_file_roundtrip(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("grover_factor = 2.0\nd_min=16  # comment\n\n# full line comment\n")
    model = CostModel.from_file(cfg)
    assert model.grover_factor == 2.0
    assert model.d_min == 16
    assert model.minfind_factor == 1.0
    with pytest.raises(KeyError):
        CostModel.from_items({"bogus": "1"})


def _marking_hooks(marked: set[int], setup_cost=1.0, update_cost=1.0, check_cost=1.0):
    def setup(subset):
        return set(subset)

    def update(state, removed, added):
        state.discard(removed)
        state.add(added)

    def check(state):
        hit = sorted(state & marked)
        return hit if hit else None

    return WalkHooks(setup_cost, update_cost, check_cost, setup=setup, update=update, check=check)


def test_walk_search_costonly_formula():
    # declared s=8, u=2, c=3 with delta=1/4, r=4 charges 8 + 2*(2*2+3) = 22
    ledger = QueryLedger()
    hooks = WalkHooks(setup_cost=8, update_cost=2, check_cost=3)
    out = walk_search(
        16, 4, 0.25, hooks, mode=WalkMode.COSTONLY, ledger=ledger, model=CostModel()
    )
    assert out is None
    assert ledger.charged_cost == pytest.approx(22.0)
    # executing modes charge the same declared formula, hit or miss
    for mode in WalkMode:
        for marked in (set(), {3}):
            ledger = QueryLedger()
            walk_search(
                16, 4, 0.25, _marking_hooks(marked, 8, 2, 3), mode=mode, ledger=ledger,
                model=CostModel(),
            )
            assert ledger.charged_cost == pytest.approx(22.0), (mode, marked)


def test_walk_search_rejects_bad_parameters():
    args = dict(ledger=QueryLedger(), model=CostModel())
    with pytest.raises(ValueError):
        walk_search(4, 5, 0.5, WalkHooks(0, 0, 0), mode=WalkMode.COSTONLY, **args)
    with pytest.raises(ValueError):
        walk_search(4, 2, 0.5, WalkHooks(0, 0, 0), mode=WalkMode.FULLSET, **args)
    hooks = _marking_hooks(set())
    hooks.update = None
    with pytest.raises(ValueError):
        walk_search(4, 2, 0.5, hooks, mode=WalkMode.RANDOMWALK, **args)
    assert args["ledger"].charged_cost == 0


def test_walk_search_fullset_complete_and_sound():
    # cross-check against exhaustive predicate evaluation at small m
    for m in (1, 3, 8, 64):
        for marked in (set(), {1}, {m}, {2, 5} & set(range(1, m + 1))):
            hooks = _marking_hooks(marked)
            ledger = QueryLedger()
            report = walk_search(
                m, max(1, m // 2), 0.5, hooks, mode=WalkMode.FULLSET, ledger=ledger, model=CostModel()
            )
            if marked:
                assert report == sorted(marked)
            else:
                assert report is None


def test_walk_search_randomwalk_modes():
    import random

    hooks = _marking_hooks({3})
    report = walk_search(
        6,
        2,
        (2 / 6) ** 2,
        hooks,
        mode=WalkMode.RANDOMWALK,
        ledger=QueryLedger(),
        model=CostModel(),
        rng=random.Random(1),
    )
    assert report == [3]
    hooks = _marking_hooks(set())
    report = walk_search(
        6,
        2,
        (2 / 6) ** 2,
        hooks,
        mode=WalkMode.RANDOMWALK,
        ledger=QueryLedger(),
        model=CostModel(),
        rng=random.Random(1),
    )
    assert report is None
    # with r = m no swap exists: one check over the whole set decides
    report = walk_search(
        3, 3, 1.0, hooks, mode=WalkMode.RANDOMWALK, ledger=QueryLedger(), model=CostModel()
    )
    assert report is None


def test_make_handles_share_ledger():
    ha, hb, ledger = make_handles(encode(b"ab"), encode(b"cd"))
    ha.query_run(1)
    hb.query_run(1)
    assert ledger.run_queries == 2

