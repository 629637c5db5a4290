import dataclasses
import inspect
import math
import random

import pytest

from rlelcs.qmodel import (
    CostModel,
    OracleHandle,
    QueryLedger,
    WalkHooks,
    ceil_sqrt,
    grover_search,
    make_handles,
    walk_search,
    walk_search_charge,
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


def test_query_runs_counting_contract():
    # one bulk read counts as n run queries and returns what n query_run calls return
    for data in (b"aaabcccdd", b"x", bytes(range(256)) * 2):
        h = handle(data)
        before = h.ledger.run_queries
        runs = h.query_runs()
        assert h.ledger.run_queries == before + h.n
        assert runs == tuple(h.query_run(i) for i in range(1, h.n + 1))
        assert h.ledger.run_queries == before + 2 * h.n
    ha, hb, ledger = make_handles(encode(b"aab"), encode(b"cdde"))
    ha.query_runs()
    hb.query_runs()
    hb.query_run(1)
    assert ledger.run_queries == 2 + 3 + 1


def test_query_runs_range_counts_its_runs():
    # a ranged read of runs lo..hi (1-based, inclusive) counts hi - lo + 1; an
    # empty range counts 0, and a range outside 1..n raises and counts nothing
    h = handle(b"aaabcccdd")
    runs = h.string.runs
    assert h.query_runs(2, 3) == runs[1:3] and h.ledger.run_queries == 2
    assert h.query_runs(h.n, h.n) == runs[-1:] and h.query_runs(3, 2) == ()
    assert h.query_runs() is runs and h.ledger.run_queries == 3 + h.n
    for lo, hi in ((0, 2), (2, h.n + 1), (3, 1)):
        with pytest.raises(IndexError):
            h.query_runs(lo, hi)
    assert h.ledger.run_queries == 3 + h.n


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


def test_string_tables_prefix_sums_on_first_query(monkeypatch):
    # the string builds its prefix table on the first query_prefix, once;
    # construction and query_runs leave it unbuilt, and every handle of the
    # string reads the same table
    import rlelcs.rle as rle

    built = []
    accumulate = rle.accumulate
    monkeypatch.setattr(rle, "accumulate", lambda *a, **k: built.append(a) or accumulate(*a, **k))
    s = encode(b"aaabcccddeeeee")
    h, other = OracleHandle(s, QueryLedger()), OracleHandle(s, QueryLedger())
    h.query_runs()
    assert built == [] and "prefix" not in vars(s)
    assert h.query_prefix(0) == 0 and len(built) == 1
    table = s.prefix
    assert [h.query_prefix(i) for i in range(h.n + 1)] == [0, 3, 4, 7, 9, 14]
    assert [h.inverse_prefix(p) for p in range(1, h.total + 1)] == [
        1, 1, 1, 2, 3, 3, 3, 4, 4, 5, 5, 5, 5, 5,
    ]
    assert [other.query_prefix(i) for i in range(other.n + 1)] == list(table)
    assert len(built) == 1
    assert h.ledger.run_queries == h.n and other.ledger.prefix_queries == h.n + 1


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


def _marking_hooks(marked: set[int]):
    def setup(subset):
        return set(subset)

    def update(state, removed, added):
        state.discard(removed)
        state.add(added)

    def check(state):
        hit = sorted(state & marked)
        return hit if hit else None

    return WalkHooks(setup, update, check)


def test_walk_search_costonly_formula():
    # declared s=8, u=2, c=3 with delta=1/4, r=4 charges 8 + 2*(2*2+3) = 22
    assert walk_search_charge(8, 2, 3, 4, 0.25) == pytest.approx(22.0)
    # walk.inner_search adds that charge in walk and cost-only mode alike: the
    # walk driver takes no ledger and no mode, and cost-only mode never calls it
    params = inspect.signature(walk_search).parameters
    assert list(params) == ["m", "r", "delta_bound", "hooks", "model", "rng"]


def test_walk_search_rejects_bad_parameters():
    hooks = _marking_hooks(set())
    for m, r, delta in ((4, 5, 0.5), (4, 0, 0.5), (4, 2, 0.0), (4, 2, 1.5)):
        with pytest.raises(ValueError):
            walk_search(m, r, delta, hooks, model=CostModel())
    # the hooks are exactly the walk's three vertex operations
    assert [f.name for f in dataclasses.fields(WalkHooks)] == ["setup", "update", "check"]


def test_walk_search_randomwalk_modes():
    hooks = _marking_hooks({3})
    report = walk_search(6, 2, (2 / 6) ** 2, hooks, model=CostModel(), rng=random.Random(1))
    assert report == [3]
    hooks = _marking_hooks(set())
    report = walk_search(6, 2, (2 / 6) ** 2, hooks, model=CostModel(), rng=random.Random(1))
    assert report is None
    # with r = m no swap exists: one check over the whole set decides
    assert walk_search(3, 3, 1.0, hooks, model=CostModel()) is None
    assert walk_search(3, 3, 1.0, _marking_hooks({2}), model=CostModel()) == [2]


def _sorted_set_walk(m, r, delta_bound, model, rng):
    """walk_search's random walk with the subset kept as a set and sorted on
    every swap: the oracle for its setup subset and its (removed, added) swaps
    when no check reports."""
    inside = set(rng.sample(range(1, m + 1), r))
    outside = [i for i in range(1, m + 1) if i not in inside]
    setup = tuple(sorted(inside))
    budget = int(
        model.step_budget_factor * math.ceil(m / r) * math.ceil(1.0 / math.sqrt(delta_bound))
    )
    per_round = math.isqrt(r - 1) + 1 if r > 1 else 1
    swaps = []
    for _ in range(max(1, budget)):
        if not outside:
            break
        for _ in range(per_round):
            out_pos = rng.randrange(len(outside))
            removed = rng.choice(sorted(inside))
            added = outside[out_pos]
            swaps.append((removed, added))
            inside.discard(removed)
            inside.add(added)
            outside[out_pos] = removed
    return setup, swaps


def test_walk_search_swaps_match_sorted_set_oracle():
    # the sorted subset list draws the ids the set sorted on every swap drew:
    # same setup subset, same swap stream, so the same RNG state afterwards.
    # A setup that returns None (no vertex is marked) makes the same draws,
    # and calls no update and no check
    model = CostModel(step_budget_factor=2.0)
    rng = random.Random(17)
    for _ in range(12):
        m, seed, delta = rng.randint(1, 30), rng.randrange(10**6), rng.choice([1.0, 0.3])
        for r in range(1, m + 1):
            oracle_rng = random.Random(seed)
            setup_subset, swaps = _sorted_set_walk(m, r, delta, model, oracle_rng)
            for unmarked in (False, True):
                seen = []

                def setup(subset):
                    seen.append(subset)
                    return None if unmarked else seen

                hooks = WalkHooks(
                    setup,
                    lambda state, removed, added: seen.append((removed, added)),
                    lambda state: seen.append("check"),
                )
                walk_rng = random.Random(seed)
                report = walk_search(m, r, delta, hooks, model=model, rng=walk_rng)
                assert report is None
                if unmarked:
                    assert seen == [setup_subset], (m, r, seed)
                else:
                    assert "check" in seen
                    assert [x for x in seen if x != "check"] == [setup_subset] + swaps, (m, r, seed)
                assert walk_rng.getstate() == oracle_rng.getstate(), (m, r, seed, unmarked)


# sizes at and next to powers of two: bit_length changes between 2^j - 1 and 2^j
_EDGE_SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)


def _inline_randbelow(rng, n):
    """walk_search's inline draw: getrandbits(n.bit_length()) until below n."""
    k = n.bit_length()
    x = rng.getrandbits(k)
    while x >= n:
        x = rng.getrandbits(k)
    return x


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inline_draw_matches_randrange_and_choice(seed):
    # the stream contract walk_search's swaps rely on: randrange(n) and
    # choice(seq) of length n are both Random._randbelow(n), rejection over
    # getrandbits(n.bit_length())
    contract = (
        "stream contract broken: Random.randrange(n) / Random.choice(range(n)) no longer "
        "draw getrandbits(n.bit_length()) until below n; walk_search's inline swap draws "
        "must follow this interpreter's Random._randbelow"
    )
    for n in _EDGE_SIZES + (1023, 1024, 1025):
        for reference in (lambda g: g.randrange(n), lambda g: g.choice(range(n))):
            inline, ref = random.Random(seed), random.Random(seed)
            drawn = [_inline_randbelow(inline, n) for _ in range(64)]
            assert drawn == [reference(ref) for _ in range(64)], (contract, n)
            assert inline.getstate() == ref.getstate(), (contract, n)


@pytest.mark.parametrize("r", _EDGE_SIZES)
def test_walk_search_swaps_match_oracle_at_power_of_two_sizes(r):
    # r = |inside| and m - r = |outside| at and next to powers of two, and
    # r = m: the swaps, the setup subset and the RNG state afterwards are those
    # of the randrange/choice oracle, with a marking setup and with one that
    # marks nothing
    model = CostModel(step_budget_factor=1.0)
    for gap in (0,) + _EDGE_SIZES:
        m = r + gap
        for seed in (3, 4):
            oracle_rng = random.Random(seed)
            setup_subset, swaps = _sorted_set_walk(m, r, 1.0, model, oracle_rng)
            assert len(swaps) == (0 if gap == 0 else math.ceil(m / r) * (math.isqrt(r - 1) + 1))
            for unmarked in (False, True):
                seen = []

                def setup(subset):
                    seen.append(subset)
                    return None if unmarked else seen

                hooks = WalkHooks(
                    setup,
                    lambda state, removed, added: seen.append((removed, added)),
                    lambda state: seen.append("check"),
                )
                walk_rng = random.Random(seed)
                report = walk_search(m, r, 1.0, hooks, model=model, rng=walk_rng)
                assert report is None
                if unmarked:
                    assert seen == [setup_subset], (m, r, seed)
                else:
                    assert [x for x in seen if x != "check"] == [setup_subset] + swaps, (m, r)
                    assert seen.count("check") == (1 if gap == 0 else math.ceil(m / r))
                assert walk_rng.getstate() == oracle_rng.getstate(), (m, r, seed, unmarked)


def test_make_handles_share_ledger():
    ha, hb, ledger = make_handles(encode(b"ab"), encode(b"cd"))
    ha.query_run(1)
    hb.query_run(1)
    assert ledger.run_queries == 2

