import collections
import functools
import importlib.util
import itertools
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rlelcs
from rlelcs.anchors import AnchorScheme, AnchorSet, build_exhaustive, build_minimizer
from rlelcs.qmodel import (
    CostModel,
    OracleHandle,
    QueryLedger,
    WalkMode,
    make_handles,
    walk_search,
    walk_search_charge,
)
from rlelcs.reference import (
    brute_lcs,
    brute_lrs,
    plant_instance,
    prefix_window,
    random_rle,
    suffix_window,
)
from rlelcs.rle import (
    NoSeparatorError,
    RleString,
    concat_sep,
    decode,
    encode,
    ldcp_runs,
    lex_compare_runs,
)
from rlelcs.walk import (
    _PAIR_BATCH,
    _SELF,
    WALK_RUN_BOUND,
    _RunTokens,
    _ScaleBound,
    _TokenRanks,
    _d_values,
    _dense_ranks,
    _pair_table,
    _reach,
    _row_agreements,
    _row_bounds,
    _score_rows,
    _sides,
    _snap,
    _small_fallback,
    CollisionIndex,
    InternalInconsistencyError,
    LcsAnswer,
    SolverConfig,
    WalkSizeError,
    WalkVertex,
    best_certificate,
    check_charge,
    finalize_answer,
    inner_search,
    make_context,
    setup_charge,
    solve_lcs_rle_p,
    solve_lrs,
    subset_size,
    update_charge,
    verify_candidate,
)

MODEL = CostModel()


def walk_charge(model: CostModel, d: int, r: int, m: int, delta: float) -> float:
    """Full search charge: setup + (1/sqrt(delta)) (sqrt(r) update + check).

    The oracle for what walk_search adds to the ledger in walk and cost-only mode.
    """
    return setup_charge(model, d, r) + (1.0 / math.sqrt(delta)) * (
        math.sqrt(r) * update_charge(model, d) + check_charge(model, d, r)
    )


def _context(a: bytes, b: bytes, d: int):
    s, sep = concat_sep(encode(a), encode(b))
    return make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, d), sep, MODEL)


def _full_vertex(ctx):
    v = WalkVertex(ctx)
    for k in range(1, ctx.anchors.m + 1):
        v.insert(k)
    return v


def _random_ops(rng, v, steps):
    """Random inserts (while room, 60%) and deletes on vertex v: its stored ids after each."""
    m = v.ctx.anchors.m
    stored = set()
    for _ in range(steps):
        if not stored or (len(stored) < m and rng.random() < 0.6):
            k = rng.choice([k for k in range(1, m + 1) if k not in stored])
            v.insert(k)
            stored.add(k)
        else:
            k = rng.choice(sorted(stored))
            v.delete(k)
            stored.discard(k)
        yield stored


def test_window_worked_examples():
    s = RleString.from_pairs(
        [("a", 2), ("b", 3), ("c", 1), ("$", 1), ("d", 1), ("b", 3), ("c", 2)]
    )
    x = build_exhaustive(s, 2)
    assert decode(prefix_window(s, x, 2)) == b"bbbc$dbbb"
    assert decode(suffix_window(s, x, 2)) == b"bbbaa"  # backward text, reversed
    assert decode(suffix_window(s, build_exhaustive(s, 5), 1)) == b"aa"  # left clamp: first run


def test_window_decoded_oracle_random():
    rng = random.Random(0)
    for _ in range(30):
        a = random_rle(rng, rng.randint(1, 10))
        b = random_rle(rng, rng.randint(1, 10))
        s, _ = concat_sep(a, b)
        d = rng.randint(1, 6)
        x = build_exhaustive(s, d)
        full = decode(s)
        pt = s.prefix
        for k in range(1, x.m + 1):
            lo = pt[k - 1]
            hi = pt[min(k + 2 * d, s.n)]
            assert decode(prefix_window(s, x, k)) == full[lo:hi]
            lo_b = pt[max(k - 2 * d - 1, 0)]
            assert decode(suffix_window(s, x, k)) == full[lo_b : pt[k]][::-1]


def test_vertex_insert_into_empty_then_orders_match_oracle():
    ctx = _context(b"aabbbc", b"dbbbcc", 2)
    v = WalkVertex(ctx)
    v.insert(3)
    assert v.by_key.items() == [(3, 3)]
    assert len(v.fwd_lcp) == 0 and len(v.bwd_lcp) == 0
    v.insert(6)
    v.insert(1)
    s = ctx.handle.string
    x = ctx.anchors

    def fwd_key(k):
        return decode(prefix_window(s, x, k))

    stored = [k for k, _ in v.by_key.items()]
    assert stored == [1, 3, 6]
    expected = sorted(stored, key=lambda k: (fwd_key(k), k))
    assert [k for k, _ in v.fwd_order.items()] == expected
    # adjacent agreement lengths match the pairwise decoded oracle
    items = [k for k, _ in v.fwd_order.items()]
    for i in range(len(items) - 1):
        wa, wb = fwd_key(items[i]), fwd_key(items[i + 1])
        expect = len(next(iter([wa[: j] for j in range(min(len(wa), len(wb)), -1, -1) if wa[:j] == wb[:j]])))
        assert v.fwd_lcp.items()[i][1] == expect


def test_vertex_delete_from_singleton():
    ctx = _context(b"ab", b"ba", 2)
    v = WalkVertex(ctx)
    v.insert(2)
    v.delete(2)
    assert len(v.by_key) == 0
    assert len(v.fwd_order) == 0


def test_vertex_coherence_after_random_ops():
    # the views hold the stored anchors by id and in decoded window order,
    # ties by id; adjacent stored agreements equal the decoded oracle, and
    # interval range-min equals the endpoint pair's agreement.  One LCS
    # context, then random LCS and LRS, periodic motifs and minimizer anchors
    rng = random.Random(11)
    ctx = _context(b"aabbacbbacccab", b"bbacbbacaab", 3)
    for trial in range(9):
        if trial:
            ctx = _kind_context(rng, trial)
        s, x = ctx.handle.string, ctx.anchors
        v = WalkVertex(ctx)
        for step, stored in enumerate(_random_ops(rng, v, 200)):
            if len(stored) < 2 or step % 10 != 9:
                continue
            assert v.by_key.items() == [(k, x.entries[k - 1]) for k in sorted(stored)]
            for order, lcp, win in (
                (v.fwd_order, v.fwd_lcp, lambda k: prefix_window(s, x, k)),
                (v.bwd_order, v.bwd_lcp, lambda k: suffix_window(s, x, k)),
            ):
                assert sorted(order.items()) == v.by_key.items()
                keys = [k for k, _ in order.items()]
                hvals = [h for _, h in lcp.items()]
                for i in range(len(keys) - 1):
                    w1, w2 = win(keys[i]), win(keys[i + 1])
                    assert (lex_compare_runs(w1, w2), keys[i]) < (0, keys[i + 1])
                    assert hvals[i] == ldcp_runs(w1, w2)
                a = rng.randint(1, len(keys))
                b = rng.randint(a, len(keys))
                if a < b:
                    want = ldcp_runs(win(keys[a - 1]), win(keys[b - 1]))
                    assert lcp.range_min(a, b - 1) == want


def test_vertex_check_worked_example():
    ctx = _context(b"aabbbc", b"dbbbcc", 2)
    v = _full_vertex(ctx)
    assert v.check(4) == (2, 6)  # "bbbc": red run 2 flagged, blue run 6
    assert v.check(5) is None  # longer than any common decoded substring


def test_vertex_check_disjoint_alphabets():
    ctx = _context(b"aa", b"bb", 2)
    v = _full_vertex(ctx)
    assert v.check(1) is None


def _brute_shift_certs(ctx, k_a, k_b):
    """Length flagged anchor k_a and partner k_b certify at each shift 0..2d, from decoded windows."""
    s, x, d = ctx.handle.string, ctx.anchors, ctx.d
    pt = s.prefix
    x_a = x.entries[k_a - 1]
    rho = pt[x_a] - pt[x_a - 1]
    p = ldcp_runs(prefix_window(s, x, k_a), prefix_window(s, x, k_b))
    q = ldcp_runs(suffix_window(s, x, k_a), suffix_window(s, x, k_b))
    certs = []
    for shift in range(2 * d + 1):
        big_l = pt[x_a] - pt[max(x_a - shift - 1, 0)]
        certs.append(p + big_l - rho if big_l <= q else 0)
    return certs


def _brute_best(ctx, stored):
    side = _sides(np.array(ctx.anchors.entries), ctx.sep_index)
    best = 0
    for k_a in stored:
        for k_b in stored:
            if k_a == k_b or (side is not None and side[k_a - 1] + side[k_b - 1] != 1):
                continue  # the anchor itself, a white anchor, or the same side
            best = max(best, *_brute_shift_certs(ctx, k_a, k_b))
    return best


def _assert_witness(ctx, hit, d_tilde):
    """A hit's (flagged, partner) runs: opposite sides for LCS, certifying d_tilde."""
    if ctx.sep_index is not None:
        assert min(hit) < ctx.sep_index < max(hit)
    flagged, partner = (ctx.anchors.entries.index(x) + 1 for x in hit)
    assert max(_brute_shift_certs(ctx, flagged, partner)) >= d_tilde


def _check_certificates_against_brute(ctx, rng, steps):
    """Full-set index and walk-vertex check on random stored subsets vs the brute oracle."""
    m = ctx.anchors.m
    idx = CollisionIndex(ctx)
    assert idx.best == _brute_best(ctx, range(1, m + 1))
    if idx.best:
        _assert_witness(ctx, idx.query(idx.best), idx.best)
    assert idx.query(idx.best + 1) is None
    v = WalkVertex(ctx)
    for stored in _random_ops(rng, v, steps):
        if len(stored) == m:
            continue
        truth = _brute_best(ctx, sorted(stored))
        for d_tilde in range(1, truth + 2):
            cand = v.check(d_tilde)
            assert (cand is not None) == (d_tilde <= truth), (sorted(stored), d_tilde)
            if cand is not None:
                _assert_witness(ctx, cand, d_tilde)


def test_certificate_matches_brute_oracle_lcs():
    rng = random.Random(21)
    for _ in range(15):
        a = random_rle(rng, rng.randint(1, 12), max_len=4)
        b = random_rle(rng, rng.randint(1, 12), max_len=4)
        d = rng.choice([1, 2, 3, 4, 8])
        s, sep = concat_sep(a, b)
        ctx = make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, d), sep, MODEL)
        _check_certificates_against_brute(ctx, rng, 25)


def test_certificate_matches_brute_oracle_lrs():
    rng = random.Random(33)
    for _ in range(10):
        a = random_rle(rng, rng.randint(2, 12), max_len=4)
        d = rng.choice([1, 2, 4, 8])
        ctx = make_context(OracleHandle(a, QueryLedger()), build_exhaustive(a, d), None, MODEL)
        _check_certificates_against_brute(ctx, rng, 25)


def _comparator_order(wins):
    """Decoded window order by comparator sort, ties by index, with adjacent ldcp: the oracle."""

    def cmp(i, j):
        c = lex_compare_runs(wins[i], wins[j])
        return c if c else (i > j) - (i < j)

    m = len(wins)
    order = sorted(range(m), key=functools.cmp_to_key(cmp))
    pos = np.empty(m, dtype=np.int64)
    pos[order] = np.arange(m)
    h = [ldcp_runs(wins[order[i]], wins[order[i + 1]]) for i in range(m - 1)]
    return pos.tolist(), h


def _random_context(rng, lrs, n_runs, d, subset, alphabet=b"abc"):
    """Context over a random string (small alphabet, short runs, so windows often tie)."""
    alphabet = tuple(alphabet)
    a = random_rle(rng, n_runs, alphabet=alphabet, max_len=3)
    if lrs:
        s, sep = a, None
    else:
        s, sep = concat_sep(a, random_rle(rng, n_runs, alphabet=alphabet, max_len=3))
    entries = list(range(1, s.n + 1))
    if subset:
        entries = sorted(rng.sample(entries, rng.randint(1, s.n)))
    anchors = AnchorSet(tuple(entries), d, AnchorScheme.EXHAUSTIVE)
    return make_context(OracleHandle(s, QueryLedger()), anchors, sep, MODEL)


def _assert_window_orders_match_comparator(ctx):
    s, x = ctx.handle.string, ctx.anchors
    for (pos, h), win in zip(ctx.window_order[1:], (prefix_window, suffix_window)):
        wins = [win(s, x, k) for k in range(1, x.m + 1)]
        assert (pos.tolist(), h.tolist()) == _comparator_order(wins), (s, x.d)


def test_window_order_matches_comparator_oracle():
    # d not a power of two, 2d >= n (every window clamped), windows clamped
    # at both ends, LCS and LRS, full and random anchor subsets; then unary
    # text, period-2 runs (tied up to the last level), planted strings of 64
    # runs and pairs of 65, each with every run as an anchor
    rng = random.Random(51)
    for trial in range(48):
        lrs, subset = trial % 2 == 1, trial % 4 >= 2
        n_runs = rng.randint(1, 16)
        for d in (1, 2, 3, 5, 6, 8, 2 * n_runs + 1):
            _assert_window_orders_match_comparator(_random_context(rng, lrs, n_runs, d, subset))
    strings = [(encode(b"aaaaa"), None)]
    strings += [(RleString.from_pairs([("a", 2), ("b", 1)] * k), None) for k in (2, 7, 32)]
    for seed in (0, 2):
        inst = plant_instance(32, 8, 24, seed, verify=False)
        strings += [(plant_instance(64, 10, 30, seed, verify=False).a, None)]
        strings.append(concat_sep(inst.a, inst.b))
    for s, sep in strings:
        for d in (1, 2, 3, 5, 16, s.n):
            anchors = build_exhaustive(s, d)
            _assert_window_orders_match_comparator(
                make_context(OracleHandle(s, QueryLedger()), anchors, sep, MODEL)
            )


def _two_key_token_ranks(chars, lens):
    """Token-rank levels as built before the one-key doubling: every level
    dense-ranks the two keys (levels[k][i], levels[k][i + 2**k]), none stops early."""
    n = len(chars)
    rising = np.zeros(n, dtype=np.int64)
    rising[:-1] = chars[1:] > chars[:-1]
    tokens = _dense_ranks(
        np.concatenate((np.where(rising == 1, -lens, lens), lens)),
        np.concatenate((rising, np.zeros(n, dtype=np.int64))),
        np.concatenate((chars, chars)),
    )
    level = np.zeros(n + 2, dtype=np.int32)
    level[1 : n + 1] = tokens[:n]
    end = np.zeros(n + 2, dtype=np.int32)
    end[1 : n + 1] = tokens[n:]
    levels, runs, half = [level], np.arange(1, n + 1), 1
    while 2 * half <= n:
        nxt = np.zeros(n + 2, dtype=np.int32)
        nxt[1 : n + 1] = _dense_ranks(level[np.minimum(runs + half, n + 1)], level[1 : n + 1])
        levels.append(nxt)
        level = nxt
        half *= 2
    return levels, end


def _run_arrays(s):
    chars = np.array([r.char for r in s.runs], dtype=np.int64)
    return chars, np.array([r.length for r in s.runs], dtype=np.int64)


def test_token_ranks_match_two_key_oracle():
    # n of 1..3 and at and one past powers of two; period-1..8 text, whose
    # block ranks never become distinct; period-7 runs; random text, distinct
    # after a few levels; LCS pairs joined at the separator; each forward and
    # reversed.  tied is the first level past 0 of n distinct ranks that a
    # later level reuses, else the number of levels
    rng = random.Random(91)
    strings = [random_rle(rng, n, alphabet=(97, 98), max_len=3) for n in (1, 2, 3) * 4]
    for p in range(1, 9):
        strings.append(encode(bytes(rng.choices(b"ab", k=p)) * rng.randint(20, 60)))
        runs = [("w", rng.randint(1, 4))]  # period p in runs, for p >= 2
        for i in range(1, p):
            taboo = {runs[-1][0], "w" if i == p - 1 else ""}
            runs.append((rng.choice([c for c in "wxyz" if c not in taboo]), rng.randint(1, 4)))
        if p > 1:
            strings.append(RleString.from_pairs(runs * rng.randint(20, 40)))
    strings += [random_rle(rng, rng.randint(40, 300), max_len=6) for _ in range(8)]
    for seed in range(6):
        inst = plant_instance(rng.randint(30, 120), 12, 20, seed)
        strings += [concat_sep(inst.a, inst.b)[0], concat_sep(inst.b, inst.a)[0]]
    strings += [random_rle(rng, n) for n in (4, 5, 64, 65, 256, 257)]
    strings += [RleString.from_pairs(_periodic_runs(rng, 7, k)) for k in (63, 64, 65, 129)]
    distinct_early = 0
    for s in strings:
        chars, lens = _run_arrays(s)
        for c, ln in ((chars, lens), (chars[::-1], lens[::-1])):
            levels, end = _two_key_token_ranks(c, ln)
            ranks = _TokenRanks(c, ln)
            assert len(ranks.levels) == len(levels)
            for got, want in zip(ranks.levels, levels):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert ranks.end.dtype == end.dtype and np.array_equal(ranks.end, end)
            n = len(c)
            tied = next((k for k in range(1, len(levels) - 1) if levels[k].max() == n), len(levels))
            assert ranks.tied == tied, s
            # a level of n distinct ranks is appended again, not re-sorted
            sorted_levels = len({id(level) for level in ranks.levels})
            assert sorted_levels == min(tied + 1, len(levels)), s
            distinct_early += sorted_levels < len(levels)
    assert distinct_early >= 16


def _lifting_window_order(ranks, starts, width):
    """_TokenRanks.window_order with its binary lifting over every level up to
    the width, including those of n distinct ranks: the reference for its cap."""
    n, m = ranks.n, len(starts)
    span = min(width - 1, n)
    k = span.bit_length() - 1
    order = np.lexsort(
        (
            ranks.end[np.minimum(starts + width - 1, n + 1)],
            ranks.levels[k][np.minimum(starts + span - (1 << k), n + 1)],
            ranks.levels[k][starts],
        )
    )
    pos = np.empty(m, dtype=np.int64)
    pos[order] = np.arange(m)
    u, w = starts[order[:-1]], starts[order[1:]]
    cap = np.minimum(n + 1 - np.maximum(u, w), width)
    same = np.zeros(len(u), dtype=np.int64)
    for k in reversed(range(min(width, n).bit_length())):
        level = ranks.levels[k]
        step = same + (1 << k)
        same = np.where((step <= cap) & (level[u + same] == level[w + same]), step, same)
    h = ranks.prefix[u + same - 1] - ranks.prefix[u - 1]
    cu, cw = u + same, w + same
    tail = (same < cap) & (ranks.chars[cu] == ranks.chars[cw])
    return pos, h + np.where(tail, np.minimum(ranks.lens[cu], ranks.lens[cw]), 0)


def test_token_layer_calls_no_lexsort(monkeypatch):
    # token-rank builds and window orders of a planted LCS solve with
    # exhaustive anchors, one with minimizer anchors and a periodic LRS solve
    # make no np.lexsort call: every level and window key is one sort
    calls, lexsort = collections.Counter(), np.lexsort

    def counted(*args, **kwargs):
        calls["lexsort"] += calls["inside"] > 0
        return lexsort(*args, **kwargs)

    def inside(fn):
        def wrapper(*args, **kwargs):
            calls["inside"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                calls["inside"] -= 1

        return wrapper

    window_order = _TokenRanks.window_order

    def counted_order(self, starts, width):
        calls["top" if width > self.n else "below top"] += 1
        return window_order(self, starts, width)

    monkeypatch.setattr(np, "lexsort", counted)
    monkeypatch.setattr(_TokenRanks, "__init__", inside(_TokenRanks.__init__))
    monkeypatch.setattr(_TokenRanks, "window_order", inside(counted_order))
    inst = plant_instance(300, 24, 80, 5, verify=False)
    periodic = RleString.from_pairs(_periodic_runs(random.Random(317), 7, 192))
    for a, b, scheme in (
        (inst.a, inst.b, AnchorScheme.EXHAUSTIVE),
        (inst.a, inst.b, AnchorScheme.MINIMIZER),
        (periodic, None, AnchorScheme.EXHAUSTIVE),
    ):
        ans, _ = _solve_case(a, b, SolverConfig(anchors=scheme, seed=7))
        assert ans is not None and ans.d_tilde > 0, scheme
    assert calls["lexsort"] == 0 and calls["top"] >= 6 and calls["below top"] >= 6
    # the count sees a lexsort inside the layer: a scale whose span 2d is not
    # a power of two, which no solve has but `rlelcs bench --d-list 3` orders
    _TokenRanks(*_run_arrays(inst.a)).window_order(np.arange(1, 41), 7)
    assert calls["lexsort"] == 1


def test_token_layer_keys_past_int32_match_oracles():
    # a planted pair of 50 001 runs in A $ B: doubling keys reach n(2n + 2),
    # top-scale window keys (n + 2)**2 and lifting steps 2**15, all past int32,
    # so each product is built in int64 whatever numpy's promotion rules; the
    # levels match the two-key oracle and the window orders the capped lifting
    inst = plant_instance(25_000, 3_000, 9_000, 3, verify=False)
    s, _ = concat_sep(inst.a, inst.b)
    chars, lens = _run_arrays(s)
    n = len(chars)
    assert n * (2 * n + 2) >= 2**32 and (n + 2) ** 2 >= 2**31
    ranks = _TokenRanks(chars, lens)
    levels, end = _two_key_token_ranks(chars, lens)
    assert ranks.tied >= 9 and np.array_equal(ranks.end, end)
    for got, want in zip(ranks.levels, levels):
        assert np.array_equal(got, want)
    starts = np.arange(1, n + 1)
    for width in (17, 1025, 2 * n + 3):  # d = 8, d = 512, the top scale
        pos, h = ranks.window_order(starts, width)
        want_pos, want_h = _lifting_window_order(ranks, starts, width)
        assert np.array_equal(pos, want_pos) and np.array_equal(h, want_h), width
        # runs hold at most 9 chars: past 9 * 2**8 chars, steps of 2**8 runs and up
        assert h.max() > 9 * 2**8 or width == 17


def test_token_agreement_is_the_range_minimum_of_window_order():
    # random pairs of starts, not only neighbours in an order: the pairwise
    # agreement of two windows equals the minimum of window_order's h between
    # their ranks, forward and reversed, for every odd width 3..33 and the top
    # scale, on tie-heavy random text, period-7 runs and, at widths 3, 17, 33
    # and the top scale, the 50 001-run planted A $ B of the int32 test
    rng = random.Random(233)
    strings = [random_rle(rng, rng.randint(2, 70), alphabet=b"ab", max_len=3) for _ in range(10)]
    strings += [RleString.from_pairs(_periodic_runs(rng, 7, k)) for k in (40, 129)]
    inst = plant_instance(25_000, 3_000, 9_000, 3, verify=False)
    strings.append(concat_sep(inst.a, inst.b)[0])
    compared = 0
    for s in strings:
        chars, lens = _run_arrays(s)
        n = len(chars)
        widths = range(3, 34, 2) if n < 1000 else (3, 17, 33)
        for c, ln in ((chars, lens), (chars[::-1], lens[::-1])):
            ranks = _TokenRanks(c, ln)
            starts = np.arange(1, n + 1)
            for width in (*widths, 2 * n + 1):
                pos, h = ranks.window_order(starts, width)
                i = np.array([rng.randrange(n) for _ in range(300)])
                j = (i + np.array([rng.randrange(1, n) for _ in range(300)])) % n
                lo, hi = np.minimum(pos[i], pos[j]), np.maximum(pos[i], pos[j])
                want = [int(h[a:b].min()) for a, b in zip(lo, hi)]
                assert ranks.agreement(starts[i], starts[j], width).tolist() == want, (n, width)
                compared += len(want)
    assert compared > 100_000


# Range minima over sparse tables, independent of the solver's running
# minima: the oracles' agreement reads and the all-partners row bound.


def _sparse_tables(h):
    """Row k holds the minimum of h over the 2**k entries from each start (row tails unused)."""
    tables = np.zeros((max(1, len(h).bit_length()), len(h)), dtype=np.int64)
    tables[0] = h
    for k in range(1, len(tables)):
        half = 1 << (k - 1)
        tables[k, :-half] = np.minimum(tables[k - 1, :-half], tables[k - 1, half:])
    return tables


def _rmq_vec(tables, lo, hi):
    """Vectorized min over h[lo..hi] (inclusive, 0-based, lengths >= 1)."""
    k = np.frexp(hi - lo + 1)[1] - 1  # floor(log2), exact below 2**53
    return np.minimum(tables[k, lo], tables[k, hi + 1 - (1 << k)])


def _all_partners_row_bounds(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged):
    """_row_bounds by its definition, the oracle for its running minima: each
    flagged anchor's largest agreement with any admissible partner in each
    order, and p + gain(q) at those maxima; -1 where no partner or span fits."""
    m = len(xs)
    partner = ~np.eye(m, dtype=bool) if side is None else side[:, None] + side == 1
    most = []
    for pos, h in ((fwd_pos, h_f), (bwd_pos, h_b)):
        hi = np.maximum.outer(pos, pos) - 1  # ranks r < s agree for min(h[r..s-1])
        lo = np.minimum(np.minimum.outer(pos, pos), hi)  # the diagonal reads one entry
        agree = _rmq_vec(_sparse_tables(h), lo, hi) if m > 1 else hi
        most.append(np.where(partner, agree, -1).max(axis=1))
    ok, gain = _snap(pv, d, xs[flagged], most[1][flagged])
    upper = np.full(m, -1)
    upper[flagged] = np.where(ok, most[0][flagged] + gain, -1)
    return upper


def _per_anchor_best_certificate(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, sep_index):
    """best_certificate as one numpy pass per flagged anchor: the reference for its batches."""
    best, best_args = 0, None
    m = len(xs)
    if m < 2:
        return best, best_args
    t_f, t_b = _sparse_tables(h_f), _sparse_tables(h_b)
    if sep_index is None:
        everyone = np.arange(m)
        sides = [(everyone, everyone)]
    else:
        sides = [
            (np.flatnonzero(xs < sep_index), np.flatnonzero(xs > sep_index)),
            (np.flatnonzero(xs > sep_index), np.flatnonzero(xs < sep_index)),
        ]
    for a_idx, b_idx in sides:
        for a in a_idx:
            a = int(a)
            partners = b_idx[b_idx != a] if sep_index is None else b_idx
            if len(partners) == 0:
                continue
            pf, pb = fwd_pos[partners], bwd_pos[partners]
            p = _rmq_vec(t_f, np.minimum(fwd_pos[a], pf), np.maximum(fwd_pos[a], pf) - 1)
            q = _rmq_vec(t_b, np.minimum(bwd_pos[a], pb), np.maximum(bwd_pos[a], pb) - 1)
            x_a = int(xs[a])
            p_xa = int(pv[x_a])
            rho = p_xa - int(pv[x_a - 1])
            v = np.maximum(np.searchsorted(pv, p_xa - q, side="left"), max(x_a - 2 * d - 1, 0))
            ok = v <= x_a - 1
            cert = np.where(ok, p + p_xa - pv[np.minimum(v, x_a - 1)] - rho, 0)
            j = int(np.argmax(cert))
            if int(cert[j]) > best:
                best = int(cert[j])
                best_args = (a, int(partners[j]))
    return best, best_args


def _kernel_args(ctx):
    xs, (fwd_pos, h_f), (bwd_pos, h_b) = ctx.window_order
    return xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index


def _kernel(ctx):
    """best_certificate over a context's anchors, with its backward token ranks."""
    return best_certificate(*_kernel_args(ctx), ctx.tokens.tables[1])


def _spy(monkeypatch, name):
    """Record the arguments of every call to a rlelcs.walk function."""
    calls, fn = [], getattr(rlelcs.walk, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(rlelcs.walk, name, wrapper)
    return calls


def _spy_cells(monkeypatch):
    """Record the size of every block the kernel's candidate pass yields (_interval_cells)."""
    sizes, fn = [], rlelcs.walk._interval_cells

    def wrapper(*args):
        for block in fn(*args):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(rlelcs.walk, "_interval_cells", wrapper)
    return sizes


def test_best_certificate_batches_match_per_anchor_loop(monkeypatch):
    # one LCS context with more admissible pairs than one batch holds; a
    # periodic text makes many pairs tie, so the first-maximum rule decides
    motif = [("a", 2), ("b", 1), ("c", 3), ("b", 2)]
    a = RleString.from_pairs(motif * 17 + [("a", 1)])
    b = RleString.from_pairs([("c", 1)] + motif * 16 + [("a", 2), ("b", 1), ("c", 2)])
    s, sep = concat_sep(a, b)
    ctx = make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, 5), sep, MODEL)
    assert 2 * a.n * b.n > _PAIR_BATCH
    args = _kernel_args(ctx)
    bounds, blocks = _spy(monkeypatch, "_row_bounds"), _spy(monkeypatch, "_row_agreements")
    cells = _spy_cells(monkeypatch)
    best, witness = _kernel(ctx)
    assert best > 0
    assert (best, witness) == _per_anchor_best_certificate(*args)
    # one dense row (one _row_agreements call per order); a candidate pass
    # holds far fewer cells than the other flagged rows
    m = len(args[0])
    assert len(bounds) == 1 and [len(call[2]) for call in blocks] == [1, 1]
    assert sum(cells) < (m - 2) * m
    # batch boundaries inside and between flagged anchors, LCS and LRS, subsets
    rng = random.Random(62)
    for batch in (7, 1):
        monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", batch)
        del bounds[:], blocks[:]
        for trial in range(24):
            n_runs, d = rng.randint(1, 12), rng.choice([1, 2, 3, 4])
            ctx = _random_context(rng, trial % 2 == 1, n_runs, d, trial % 3 == 0)
            args = _kernel_args(ctx)
            assert _kernel(ctx) == _per_anchor_best_certificate(*args)
        # both paths ran: the row bounds, and blocks of several rows when m <= 3
        assert bounds
        assert (max(len(call[2]) for call in blocks) > 1) == (batch == 7)


def _periodic_context(rng, lrs, d, subset, alphabet=b"abc"):
    """Context over a motif repeated to up to 40 runs, one run length redrawn half the time."""
    motif = [(alphabet[i % 3], rng.randint(1, 3)) for i in range(rng.choice([2, 3, 4, 6]))]
    if len(motif) == 4:
        motif[3] = (alphabet[1], motif[3][1])  # a b c b: chars repeat inside the motif
    runs = [motif[i % len(motif)] for i in range(rng.randint(2, 40))]
    if rng.random() < 0.5:
        i = rng.randrange(len(runs))
        runs[i] = (runs[i][0], rng.randint(1, 3))
    a = RleString.from_pairs(runs)
    b = RleString.from_pairs(runs[rng.randrange(len(runs)) :])  # a suffix of a
    s, sep = (a, None) if lrs else concat_sep(a, b)
    entries = list(range(1, s.n + 1))
    if subset:
        entries = sorted(rng.sample(entries, rng.randint(1, s.n)))
    anchors = AnchorSet(tuple(entries), d, AnchorScheme.EXHAUSTIVE)
    return make_context(OracleHandle(s, QueryLedger()), anchors, sep, MODEL)


def _white_between_partners(ctx, pos):
    """Whether the white anchor sits between a red and a blue anchor in a decoded order."""
    xs = np.array(ctx.anchors.entries)
    at = np.empty(len(xs), dtype=np.int64)
    at[pos] = np.arange(len(xs))
    sides = _sides(xs, ctx.sep_index)[at]
    return any(
        sides[r] == 2 and {sides[r - 1], sides[r + 1]} == {0, 1} for r in range(1, len(sides) - 1)
    )


def test_best_certificate_row_bounds_match_per_anchor_loop(monkeypatch):
    # bounds forced on small anchor sets (one row per pass): LCS and LRS,
    # random and periodic texts, full sets and subsets, d from 1 to past 2n;
    # "!" sorts before the separator "$" and "a" after it, so the white
    # anchor can sit between a red and a blue anchor in a decoded order
    monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", 1)
    scored = _spy(monkeypatch, "_score_rows")
    rng = random.Random(83)
    seen = {
        "white between partners": 0,
        "witness row bound at LB": 0,
        "rows skipped": 0,
        "tie kept for an earlier row": 0,
    }
    for trial in range(240):
        lrs, subset, periodic = trial % 2 == 1, trial % 3 == 0, trial % 4 >= 2
        d = rng.choice([1, 2, 3, 4, 5, 8, 16, 81])
        alphabet = b"!ab" if trial % 8 < 4 else b"abc"
        if periodic:
            ctx = _periodic_context(rng, lrs, d, subset, alphabet)
        else:
            ctx = _random_context(rng, lrs, rng.randint(1, 20), d, subset, alphabet)
        args = _kernel_args(ctx)
        del scored[:]
        got = _kernel(ctx)
        want = _per_anchor_best_certificate(*args)
        assert got == want, (trial, ctx.handle.string, d)
        xs, fwd_pos, _, bwd_pos = args[:4]
        side = _sides(xs, ctx.sep_index)
        flagged = np.arange(len(xs)) if lrs else np.flatnonzero(side < 2)
        upper, _ = _row_bounds(*args[:7], side, flagged)
        assert np.array_equal(upper, _all_partners_row_bounds(*args[:7], side, flagged)), trial
        if not lrs:
            seen["white between partners"] += any(
                _white_between_partners(ctx, pos) for pos in (fwd_pos, bwd_pos)
            )
        if want[1] is None:
            continue
        # rows are scored highest bound first: the first pass's exact best,
        # that of the row with the highest bound, is a lower bound
        lower = int(_score_rows(*args[:7], side, flagged[[np.argmax(upper[flagged])]]).max())
        witness = want[1][0]
        assert lower <= want[0] <= upper[witness]
        seen["witness row bound at LB"] += int(upper[witness]) == lower
        seen["rows skipped"] += sum(len(call[-1]) for call in scored) < len(flagged)
        # a row later in scan order reached the best first, with a higher bound
        reach_best = flagged[_score_rows(*args[:7], side, flagged).max(axis=1) == want[0]]
        seen["tie kept for an earlier row"] += bool((upper[reach_best] > upper[witness]).any())
    assert all(seen.values()), seen


@pytest.mark.parametrize("batch", [1, 7, 64])
def test_candidate_pass_matches_per_anchor_loop(monkeypatch, batch):
    # small batches force several passes, so one dense row, then the
    # candidate pass: periodic and tie-heavy texts, LCS over "!ab" (the white
    # anchor can sit between partners) and over "abc", LRS, anchor subsets,
    # and d from 1 to past 2n; the same pair as the per-anchor loop, every
    # candidate block within the batch
    monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", batch)
    cells = _spy_cells(monkeypatch)
    rng = random.Random(400 + batch)
    ran = white = 0
    for trial in range(240):
        lrs, subset = trial % 2 == 1, trial % 3 == 0
        d = rng.choice([1, 2, 3, 4, 5, 8, 16, 81])
        alphabet = b"!ab" if trial % 8 < 4 else b"abc"
        if trial % 4 >= 2:
            ctx = _periodic_context(rng, lrs, d, subset, alphabet)
        else:
            ctx = _random_context(rng, lrs, rng.randint(1, 20), d, subset, alphabet)
        del cells[:]
        assert _kernel(ctx) == _per_anchor_best_certificate(*_kernel_args(ctx)), trial
        assert max(cells, default=0) <= batch
        ran += sum(cells) > 0
        if not lrs and sum(cells):
            white += any(_white_between_partners(ctx, pos) for pos in (ctx.window_order[1][0],))
    assert ran >= 50 and white >= 5, (ran, white)


def _near_periodic_lrs(n_runs):
    """A period-7 motif over "abc" with run lengths from random.Random(1) in 1..9,
    repeated to n_runs runs, its middle run 3 longer."""
    rng = random.Random(1)
    motif = [(c, rng.randint(1, 9)) for c in "abcabac"]
    runs = [motif[i % 7] for i in range(n_runs)]
    c, length = runs[n_runs // 2]
    runs[n_runs // 2] = (c, length + 3)
    return RleString.from_pairs(runs)


def test_near_periodic_lrs_solves_exactly(monkeypatch):
    # periodic text keeps row bounds loose: at 512 runs every scale that
    # builds an index takes the candidate pass, and the exhaustive full-set
    # answer is the brute oracle's
    s = _near_periodic_lrs(512)
    cells = _spy_cells(monkeypatch)
    ans, _ = _solve_case(s, None, SolverConfig())
    assert s.n == 512 and ans.d_tilde == brute_lrs(s).length
    assert sum(cells) > 0


def test_candidate_pass_memory_stays_linear(monkeypatch):
    # a full-set LRS context of 65 537 anchors over two letters: one row a
    # pass, then a candidate pass of dozens of blocks.  The traced peak inside
    # the kernel, given its row bounds as CollisionIndex gives them, stays
    # within 72 bytes an anchor plus 256 a block cell: 5.8 MB here, where a
    # sparse table over h alone (8 m log2(m) bytes) takes 8.4 MB and an
    # m x m block 34 GB
    s = random_rle(random.Random(0), 65_537, alphabet=b"ab", max_len=3)
    ctx = make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, 8), None, MODEL)
    args, bounds = _kernel_args(ctx), ctx.row_bounds
    m = len(args[0])
    assert m == 65_537 and bounds is not None
    cells = _spy_cells(monkeypatch)
    tracemalloc.start()
    try:
        best, _ = best_certificate(*args, ctx.tokens.tables[1], bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < best <= bounds[0].max()
    assert len(cells) > 20 and max(cells) <= _PAIR_BATCH
    assert peak < 72 * m + 256 * _PAIR_BATCH < 8 * m * math.log2(m), peak


def test_row_agreements_fill_one_array():
    # each row reads the minimum of h between its rank and each column's
    # (_SELF on its own column), and one row over 20 001 anchors peaks below
    # 32 bytes an anchor under tracemalloc: the by-rank array, one temporary
    # and the gather, where two padded copies took 41
    rng = np.random.default_rng(1)
    for m in (1, 2, 3, 5, 13, 64):
        pos, h = rng.permutation(m), rng.integers(0, 9, m - 1)
        rows = rng.choice(m, min(m, 4), replace=False)
        got = _row_agreements(pos, h, rows)
        for row, a in zip(got, rows):
            lo_hi = [sorted((pos[a], pos[b])) for b in range(m)]
            want = [h[lo:hi].min() if lo < hi else _SELF for lo, hi in lo_hi]
            assert row.tolist() == want, (m, a)
    m = 20_001
    pos, h = rng.permutation(m), rng.integers(0, 1 << 40, m - 1)
    tracemalloc.start()
    try:
        _row_agreements(pos, h, np.array([m // 2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * m, peak / m


def _bound_case(lens, xs, orders, d, sep_index):
    """_row_bounds on hand-made (pos, h) forward and backward orders, checked against the
    all-partners oracle and against each flagged row's scored best."""
    xs = np.array(xs, dtype=np.int64)
    pv = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    (fwd_pos, h_f), (bwd_pos, h_b) = (
        (np.array(pos), np.array(h, dtype=np.int64)) for pos, h in orders
    )
    side = _sides(xs, sep_index)
    flagged = np.arange(len(xs)) if side is None else np.flatnonzero(side < 2)
    args = (xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged)
    upper, gain = _row_bounds(*args)
    assert np.array_equal(upper, _all_partners_row_bounds(*args)), args
    for a in flagged:
        cert = _score_rows(*args[:8], np.array([a]))[0]
        assert max(upper[a], 0) >= cert.max(), (args, a)
        # every pair of the row gains at most the row's gain over its p
        assert (cert <= _row_agreements(fwd_pos, h_f, np.array([a]))[0] + gain[a]).all()
    assert (gain[np.setdiff1d(np.arange(len(xs)), flagged)] == 0).all()
    return upper


def test_row_bounds_edge_cases():
    # m = 2, one colour with no anchor, the white anchor between partners,
    # all-equal h and h near 2**62: equal to the all-partners bound, and at
    # or above every row's best
    two = [([0, 1], [5]), ([1, 0], [4])]
    assert _bound_case([2, 1, 3], [1, 3], two, 1, 2).tolist() == [5, 6]
    assert _bound_case([2, 1, 3], [1, 3], two, 1, None).tolist() == [5, 6]
    red = [([2, 0, 1], [9, 4]), ([0, 1, 2], [3, 3])]
    assert _bound_case([1] * 6, [1, 2, 3], red, 2, 5).tolist() == [-1] * 3
    blue = [([3, 0, 1, 2], [9, 4, 7]), ([0, 1, 2, 3], [3, 3, 3])]
    assert _bound_case([1] * 6, [2, 3, 4, 5], blue, 2, 2).tolist() == [-1] * 4
    # red x2 at rank 0, white x3 at 1, blue x4 at 2: their agreement runs
    # through the white anchor's
    xs, sep = np.arange(1, 6), 3
    five = [([3, 0, 1, 2, 4], [9, 4, 7, 6]), ([0, 1, 2, 3, 4], [3, 3, 3, 3])]
    p = _reach(np.array(five[0][0]), np.array(five[0][1]), _sides(xs, sep))
    assert p[[0, 1, 3, 4]].tolist() == [7, 4, 7, 6]
    _bound_case([2, 1, 1, 3, 2, 1], xs, five, 2, sep)
    rng = random.Random(29)
    for trial in range(400):
        n = rng.randint(2, 14)
        xs = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        sep = rng.choice([None, None, rng.randint(1, n)])
        base = rng.choice([0, (1 << 62) - 64])
        orders = []
        for _ in "fb":
            pos = list(range(len(xs)))
            rng.shuffle(pos)
            # all equal a fifth of the time
            h = [base + (9 if trial % 5 == 0 else rng.randint(0, 4)) for _ in xs[1:]]
            orders.append((pos, h))
        lens = [rng.choice([1, 2, 3, 40]) for _ in range(n)]
        _bound_case(lens, xs, orders, rng.randint(1, 5), sep)


def _ranked(order, lcp, slot):
    """Each stored anchor's position in a decoded order, and the adjacent agreements."""
    pos = np.empty(len(slot), dtype=np.int64)
    pos[[slot[k] for k in order.keys()]] = np.arange(len(slot))
    h = np.fromiter((h for _, h in lcp.items()), dtype=np.int64, count=len(lcp))
    return pos, h


def _kernel_best(vertex):
    """best_certificate on the vertex's stored subset and maintained orders: the
    oracle for WalkVertex.best, which reads the scale's pair table instead."""
    ctx = vertex.ctx
    stored = vertex.by_key.items()
    if not stored:
        return 0, None
    slot = {k: i for i, (k, _) in enumerate(stored)}
    xs = np.array([x for _, x in stored], dtype=np.int64)
    fwd_pos, h_f = _ranked(vertex.fwd_order, vertex.fwd_lcp, slot)
    bwd_pos, h_b = _ranked(vertex.bwd_order, vertex.bwd_lcp, slot)
    bwd = ctx.tokens.tables[1]
    best, args = best_certificate(
        xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index, bwd
    )
    if args is None:
        return best, None
    a, b = args
    return best, (stored[a][1], stored[b][1])


def _kernel_check(vertex, d_tilde):
    best, hit = _kernel_best(vertex)
    if d_tilde < 1 or best < d_tilde:
        return None
    return hit


def _minimizer_context(rng, lrs):
    """Context with minimizer anchors over a planted pair, or over its first string."""
    d = rng.choice([8, 16])
    inst = plant_instance(rng.randint(d, 3 * d), d, d, rng.randrange(1000), verify=False)
    s, sep = (inst.a, None) if lrs else concat_sep(inst.a, inst.b)
    anchors = build_minimizer(s, d, rng.randrange(1000), d_min=MODEL.d_min)
    return make_context(OracleHandle(s, QueryLedger()), anchors, sep, MODEL)


def _kind_context(rng, trial):
    """One of four context kinds by trial: random LCS with "!" below the separator,
    random, periodic motifs and minimizer anchors, each LCS or LRS, full set or subset."""
    lrs, subset, kind = trial % 2 == 1, trial % 3 == 0, trial % 4
    d = rng.choice([1, 2, 3, 4, 8])
    if kind == 0:
        return _random_context(rng, lrs, rng.randint(1, 14), d, subset, b"!ab")
    if kind == 1:
        return _random_context(rng, lrs, rng.randint(1, 14), d, subset)
    if kind == 2:
        return _periodic_context(rng, lrs, d, subset)
    return _minimizer_context(rng, lrs)


def test_vertex_check_matches_kernel_on_stored_subset(monkeypatch):
    # random insert/delete/check sequences: the pair-table scan gives the
    # kernel's best and run pair, and its check, on every stored subset; LCS
    # with "!" so the white anchor can sit between partners, LRS, periodic
    # motifs, minimizer anchors, and batches small enough for the kernel's
    # row bounds.  Checks also run at the table's maximum and just above it,
    # where a stored subset's best often falls short
    tables = _spy(monkeypatch, "_pair_table")
    rng = random.Random(97)
    contexts = nonzero = short = 0
    for trial in range(96):
        monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", 7 if trial % 5 == 0 else _PAIR_BATCH)
        ctx = _kind_context(rng, trial)
        m = ctx.anchors.m
        table_max = int(_pair_table(*_kernel_args(ctx)).max())
        top = max(1, table_max)
        v = WalkVertex(ctx)
        for stored in _random_ops(rng, v, 30):
            want = _kernel_best(v)
            assert v.best() == want, (trial, sorted(stored))
            nonzero += want[0] > 0
            short += 0 < want[0] < top
            edges = {top, top + 1, table_max}
            for d_tilde in {0, 1, want[0], want[0] + 1, rng.randint(1, want[0] + 1)} | edges:
                assert v.check(d_tilde) == _kernel_check(v, d_tilde)
        contexts += m > 1
        # built once per context, on the first check with two anchors stored
        assert len(tables) == contexts
    assert nonzero > 100 and short > 100


def test_walk_check_returns_best_pair_exactly_when_it_reaches_the_target(monkeypatch):
    # in walk-mode LCS and LRS solves every check returns best()'s pair when
    # best() reaches d_tilde and None otherwise; each walk search stops at
    # its first hit and returns it; each scale builds its pair table at most
    # once per solve
    searches = []
    check = WalkVertex.check

    def spy_check(vertex, d_tilde):
        best, pair = vertex.best()
        out = check(vertex, d_tilde)
        assert out == (pair if best >= d_tilde else None), (best, d_tilde)
        searches[-1][0].append(out)
        return out

    def spy_walk_search(*args, **kwargs):
        searches.append([[], None])
        searches[-1][1] = walk_search(*args, **kwargs)
        return searches[-1][1]

    monkeypatch.setattr(WalkVertex, "check", spy_check)
    monkeypatch.setattr(rlelcs.walk, "walk_search", spy_walk_search)
    tables = _spy(monkeypatch, "_pair_table")
    inst = plant_instance(40, 5, 15, 3)
    joined, _ = concat_sep(inst.a, inst.b)
    for a, b in ((inst.a, inst.b), (joined, None)):
        del tables[:]
        ha, hb, _ = make_handles(a, b or encode(b""))
        if b is None:
            ans = solve_lrs(ha, SolverConfig(mode=WalkMode.RANDOMWALK))
        else:
            ans = solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.RANDOMWALK))
        assert ans is not None and ans.d_tilde >= inst.d_tilde
        scales = [args[6] for args in tables]
        assert 1 <= len(scales) == len(set(scales)) <= len(_d_values(joined.n, MODEL.d_min))
    for outs, result in searches:
        assert all(out is None for out in outs[:-1])
        assert result == (outs[-1] if outs else None)
    hits = sum(result is not None for _, result in searches)
    # a walk search with no pair at its target builds no vertex and checks
    # nothing; those that build one miss on most checks
    built = [outs for outs, _ in searches if outs]
    assert hits > 4 and sum(map(len, built)) > 5 * hits and len(built) < len(searches)


def test_pair_table_only_in_walk_mode(monkeypatch):
    # full-set and cost-only solves never build a pair table; a walk-mode
    # solve builds at most one per scale
    tables = _spy(monkeypatch, "_pair_table")
    inst = plant_instance(12, 4, 12, 5)
    for mode in (WalkMode.FULLSET, WalkMode.COSTONLY):
        ha, hb, _ = make_handles(inst.a, inst.b)
        solve_lcs_rle_p(ha, hb, SolverConfig(mode=mode))
        ha, _, _ = make_handles(inst.a, encode(b""))
        solve_lrs(ha, SolverConfig(mode=mode))
    assert tables == []
    ha, hb, _ = make_handles(inst.a, inst.b)
    assert solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.RANDOMWALK)) is not None
    assert 1 <= len(tables) <= len(_d_values(inst.a.n + 1 + inst.b.n, MODEL.d_min))


def _views(v):
    views = ("by_key", "fwd_order", "fwd_lcp", "bwd_order", "bwd_lcp")
    return {name: (getattr(v, name).items(), getattr(v, name).serialize()) for name in views}


def test_vertex_error_contract_leaves_views_unchanged():
    ctx = _context(b"aabbbc", b"dbbbcc", 2)
    m = ctx.anchors.m
    v = WalkVertex(ctx)
    with pytest.raises(KeyError):
        v.delete(1)
    for k in (2, 5, 7):
        v.insert(k)
    before = _views(v)
    for op, k, error in (
        (v.insert, 0, IndexError),
        (v.insert, m + 1, IndexError),
        (v.insert, 5, ValueError),
        (v.delete, 3, KeyError),
        (v.delete, m + 1, KeyError),
    ):
        with pytest.raises(error):
            op(k)
        assert _views(v) == before, (op.__name__, k)
    # the failed calls left the vertex usable: 5 is stored once, 3 is not
    v.delete(5)
    with pytest.raises(KeyError):
        v.delete(5)
    v.insert(3)
    assert [k for k, _ in v.by_key.items()] == [2, 3, 7]


def test_walk_mode_never_builds_range_minimum_rows(monkeypatch):
    # walk-mode LCS and LRS solves build pair tables but compute no row
    # bounds; at 7 pairs a pass the kernel takes one row a pass, so full-set
    # solves of the same instance do compute them, the LCS and the LRS one
    monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", 7)
    bounds = _spy(monkeypatch, "_row_bounds")
    pairs = _spy(monkeypatch, "_pair_table")
    inst = plant_instance(12, 4, 12, 5)
    counts = []
    for mode in (WalkMode.RANDOMWALK, WalkMode.FULLSET):
        ha, hb, _ = make_handles(inst.a, inst.b)
        assert solve_lcs_rle_p(ha, hb, SolverConfig(mode=mode)) is not None
        counts.append(len(bounds))
        ha, _, _ = make_handles(inst.a, encode(b""))
        assert solve_lrs(ha, SolverConfig(mode=mode)) is not None
        counts.append(len(bounds))
    assert pairs and counts[:2] == [0, 0] and 0 < counts[2] < counts[3]


def _arrays(value):
    """The numpy arrays in a value, through nested tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


def test_walk_mode_scale_caches_one_pair_table(monkeypatch):
    # every context of walk-mode LCS and LRS solves holds at most one m x m
    # int64 array, its pair table, and no other array of m * m entries or
    # more; with exhaustive anchors over several scales, a scale that a
    # larger one rules out builds none
    contexts, make = [], rlelcs.walk.make_context

    def recorded(*args, **kwargs):
        contexts.append(make(*args, **kwargs))
        return contexts[-1]

    monkeypatch.setattr(rlelcs.walk, "make_context", recorded)
    inst = plant_instance(30, 5, 15, 4)
    ha, hb, _ = make_handles(inst.a, inst.b)
    assert solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.RANDOMWALK)) is not None
    ha, _, _ = make_handles(inst.a, encode(b""))
    solve_lrs(ha, SolverConfig(mode=WalkMode.RANDOMWALK))
    assert len(contexts) > 2
    tables = 0
    for ctx in contexts:
        m = ctx.anchors.m
        large = [a for value in vars(ctx).values() for a in _arrays(value) if a.size >= m * m]
        assert m > 1 and len(large) <= 1
        for table in large:
            assert table is vars(ctx)["pair_table"]
            assert table.shape == (m, m) and table.dtype == np.int64
        tables += len(large)
    assert 0 < tables < len(contexts)


def test_walk_mode_run_bound_fires_at_once():
    # one run past the bound: walk mode raises within milliseconds, full-set
    # and cost-only solves of the same input are unaffected
    inst = plant_instance(WALK_RUN_BOUND // 2, 8, 24, 1, verify=False)
    joined, _ = concat_sep(inst.a, inst.b)
    assert joined.n == WALK_RUN_BOUND + 1
    for solve, a, b in ((solve_lcs_rle_p, inst.a, inst.b), (solve_lrs, joined, None)):
        ha, hb, ledger = make_handles(a, b or encode(b""))
        handles = (ha,) if b is None else (ha, hb)
        start = time.perf_counter()
        with pytest.raises(WalkSizeError, match=str(WALK_RUN_BOUND)):
            solve(*handles, SolverConfig(mode=WalkMode.RANDOMWALK))
        assert time.perf_counter() - start < 0.05
        assert (ledger.charged_cost, ledger.run_queries, ledger.prefix_queries) == (0, 0, 0)
        ans = solve(*handles, SolverConfig(mode=WalkMode.FULLSET))
        assert ans is not None and ans.d_tilde >= 24
        assert solve(*handles, SolverConfig(mode=WalkMode.COSTONLY)) is None
        assert ledger.charged_cost > 0


def _loop_boundary_map(s):
    """Per char pair, in order of first occurrence: each boundary's run lengths and first end."""
    prefix = s.prefix
    out = {}
    for i in range(s.n - 1):
        r1, r2 = s.runs[i], s.runs[i + 1]
        out.setdefault((r1.char, r2.char), []).append((r1.length, r2.length, prefix[i + 1]))
    return out


def _loop_double_run_best(bmap_a, bmap_b, distinct):
    """The two-run rule as a pair-by-pair loop: the reference for the fallback's numpy blocks."""
    best = None
    for key, items_a in bmap_a.items():
        for xa, ya, ea in items_a:
            for xb, yb, eb in bmap_b.get(key, ()):
                if distinct and ea == eb:
                    continue
                val = min(xa, xb) + min(ya, yb)
                if best is None or val > best[0]:
                    best = (val, ea, eb)
    return best


def _loop_by_char(s):
    """Per char, in order of first occurrence: (length, 1-based index) of each of its runs."""
    out = {}
    for i, r in enumerate(s.runs):
        out.setdefault(r.char, []).append((r.length, i + 1))
    return out


def _loop_single_run_best(a, b):
    """The single-run rules as per-char loops: LCS of a and b, or LRS of a when b is None."""
    pa = a.prefix
    best = None

    def offer(val, end_a, end_b):
        nonlocal best
        if val >= 1 and (best is None or val > best[0]):
            best = (val, end_a, end_b)

    if b is None:
        for items in _loop_by_char(a).values():
            items.sort(reverse=True)
            (l1, i1), (l2, i2) = items[0], items[1] if len(items) > 1 else (0, 0)
            offer(l1 - 1, pa[i1] - 1, pa[i1])  # the longest run against itself, shifted
            offer(min(l1, l2), pa[i1], pa[i2])
        return best
    by_b, pb = _loop_by_char(b), b.prefix
    for c, items in _loop_by_char(a).items():
        if c in by_b:
            (la, ia), (lb, ib) = max(items), max(by_b[c])
            offer(min(la, lb), pa[ia], pb[ib])
    return best


def _loop_fallback(a, b=None):
    """Single-run hit, else a strictly longer two-run hit, as (value, end_a, end_b) or None."""
    best = _loop_single_run_best(a, b)
    bmap_a = _loop_boundary_map(a)
    two = _loop_double_run_best(bmap_a, _loop_boundary_map(b) if b else bmap_a, b is None)
    return two if two is not None and (best is None or two[0] > best[0]) else best


def _fallback(a, b=None):
    """The solver's fallback on a (LRS) or on a $ b, from the one run read of the string."""
    s, sep = (a, None) if b is None else concat_sep(a, b)
    return _small_fallback(_RunTokens(OracleHandle(s, QueryLedger())).runs, sep)


_FREE_BYTES = tuple(c for c in range(256) if c not in b"$@#")  # random_rle refuses these


def _distinct_adjacent(rng, alphabet, max_runs):
    """1 to max_runs chars of alphabet, no two neighbours equal."""
    chars = [rng.choice(alphabet)]
    for _ in range(rng.randint(0, max_runs - 1)):
        chars.append(rng.choice([c for c in alphabet if c != chars[-1]]))
    return [chr(c) for c in chars]


@pytest.mark.parametrize("seed", [72, 76, 4167])
def test_small_fallback_matches_loops(seed):
    # value and both ends equal the loop rules' on random pairs and strings,
    # where short runs make ties common, then on pairs and strings over 2-5
    # chars whose run lengths repeat from {1, 2, 3, 9, 30}
    rng = random.Random(seed)
    for _ in range(150):
        alphabet = tuple(rng.sample(_FREE_BYTES, rng.randint(2, 10)))
        max_len = rng.choice((1, 2, 3, 30))
        a, b = (
            random_rle(rng, rng.randint(1, 40), alphabet=alphabet, max_len=max_len) for _ in "ab"
        )
        assert _fallback(a, b) == _loop_fallback(a, b), (a, b)
        assert _fallback(a) == _loop_fallback(a), a
    for _ in range(350):
        alphabet = b"abcde"[: rng.randint(2, 5)]
        a, b = (
            RleString.from_pairs(
                (c, rng.choice((1, 2, 3, 9, 30))) for c in _distinct_adjacent(rng, alphabet, 60)
            )
            for _ in "ab"
        )
        assert _fallback(a, b) == _loop_fallback(a, b), (a, b)
        assert _fallback(a) == _loop_fallback(a), a


@pytest.mark.parametrize("scale", [1, 5, 4096])
def test_small_fallback_matches_loops_on_one_large_key(scale):
    # alternating two-char strings: every boundary is in char pair ab or
    # ba, each with about a hundred boundaries, and every length repeats.
    # Lengths times scale: at 1 the LRS rule l1 - 1 often ties a second
    # run's length, at 5 and 4096 it never does
    a = RleString.from_pairs([("ab"[i % 2], scale * (1 + i % 3 + i // 97)) for i in range(200)])
    b = RleString.from_pairs([("ba"[i % 2], scale * (1 + i % 4)) for i in range(150)])
    assert len(_loop_boundary_map(a)[(ord("a"), ord("b"))]) == 100
    for args in ((a,), (a, b), (b, a), (b,)):
        assert _fallback(*args) == _loop_fallback(*args), args


def test_small_fallback_on_tied_antichains():
    # first lengths rising while second lengths fall, in steps that repeat,
    # over 2-4 chars: most inputs tie several rows at the best two-run
    # value.  Value and both ends equal the loop rules', LCS both ways and LRS
    rng = random.Random(307)
    for _ in range(350):
        alphabet = b"abcd"[: rng.randint(2, 4)]
        step = rng.randint(1, 4)
        a, b = (
            RleString.from_pairs(
                (c, (1 + i // 2 // step if i % 2 == 0 else 30 - i // 2 // step) + shift)
                for i, c in enumerate(_distinct_adjacent(rng, alphabet, 24))
            )
            for shift in (0, rng.choice((0, 1, 3)))
        )
        for args in ((a, b), (b, a), (a,)):
            assert _fallback(*args) == _loop_fallback(*args), args


def test_small_fallback_edge_cases():
    # a side with no boundary, every boundary in one char pair (two runs a
    # side: a third would add the pair ba), and run lengths near 2**61 (A $ B
    # and the LRS string stay below 2**62): each as LCS and as LRS, equal to
    # the loop rules
    big = 1 << 61

    def ab(*lengths):
        return RleString.from_pairs(zip("abab", lengths))

    cases = [
        (ab(5), ab(2, 7, 3)),
        (ab(2, 7, 3), ab(5)),
        (ab(4), ab(4)),
        (ab(3, 9), ab(4, 2)),
        (ab(9, 3), ab(9, 3)),
        (ab(big - 100, 30, 20), ab(big - 200, 40)),
        (ab(big - 50, (big >> 1) - 7, (big >> 1) - 9, 5), ab(1)),
    ]
    for a, b in cases:
        assert a.total + 1 + b.total < 1 << 62
        for args in ((a, b), (b, a), (a,), (b,)):
            assert _fallback(*args) == _loop_fallback(*args), args
    # the two-run hit of the large pair: boundary (big - 100, 30) with (big - 200, 40)
    assert _fallback(*cases[5]) == (big - 170, big - 100, big - 200)


def test_small_fallback_matches_loops_on_a_large_planted_pair():
    # on 2 048 runs per side, LCS and LRS, the sorted pass agrees with the loop rules
    inst = plant_instance(2_048, 256, 768, 1, verify=False)
    for args in ((inst.a, inst.b), (inst.a,)):
        assert _fallback(*args) == _loop_fallback(*args)


def test_fallback_adds_no_oracle_reads(monkeypatch):
    # the fallback reads the solve's one run read: with a planted answer of
    # at least 3 runs, executed solves count the same queries with it or
    # with it finding nothing, and a cost-only solve reads no run
    for seed in range(4):
        inst = plant_instance(48, 6 + seed, 30, seed)
        joined, _ = concat_sep(inst.a, inst.b)
        for solve, strings in ((solve_lcs_rle_p, (inst.a, inst.b)), (solve_lrs, (joined,))):
            counts = []
            for fallback in (_small_fallback, lambda runs, sep_index: None):
                monkeypatch.setattr(rlelcs.walk, "_small_fallback", fallback)
                ha, hb, ledger = make_handles(strings[0], strings[-1])
                ans = solve(*(ha, hb)[: len(strings)], SolverConfig())
                assert ans.ell >= 3
                counts.append((ans, ledger.run_queries, ledger.prefix_queries))
            assert counts[0] == counts[1], (seed, solve.__name__)
            ha, hb, ledger = make_handles(strings[0], strings[-1])
            solve(*(ha, hb)[: len(strings)], SolverConfig(mode=WalkMode.COSTONLY))
            assert ledger.run_queries == 0 and ledger.charged_cost > 0


def test_index_builds_read_each_run_once_per_solve():
    # the contexts of one solve share their run-token ranks: every scale's
    # index together reads the n runs once, as n run queries
    inst = plant_instance(40, 6, 18, 2)
    s, sep = concat_sep(inst.a, inst.b)
    ledger = QueryLedger()
    hs = OracleHandle(s, ledger)
    tokens = _RunTokens(hs)
    scales = _d_values(hs.n, 1)
    assert len(scales) > 1
    for d in scales:
        CollisionIndex(make_context(hs, build_exhaustive(s, d), sep, MODEL, tokens))
    assert ledger.run_queries == hs.n


def test_walk_vertices_read_each_run_once_per_solve():
    # walk vertices place anchors and take agreements from the scale's window
    # order, so inserts, deletes and checks at every scale add no run query
    # to the n that the shared run-token ranks read
    inst = plant_instance(40, 6, 18, 2)
    s, sep = concat_sep(inst.a, inst.b)
    ledger = QueryLedger()
    hs = OracleHandle(s, ledger)
    tokens = _RunTokens(hs)
    rng = random.Random(12)
    checks = 0
    for d in _d_values(hs.n, 1):
        ctx = make_context(hs, build_exhaustive(s, d), sep, MODEL, tokens)
        v = WalkVertex(ctx)
        for _ in _random_ops(rng, v, 60):
            checks += v.check(inst.d_tilde) is not None
    assert checks > 0
    assert ledger.run_queries == hs.n


def test_check_soundness_certified_length_genuine():
    # every candidate the check returns implies a genuine common substring
    rng = random.Random(8)
    for trial in range(60):
        a = random_rle(rng, rng.randint(1, 14), max_len=5)
        b = random_rle(rng, rng.randint(1, 14), max_len=5)
        d = rng.choice([2, 4, 8])
        s, sep = concat_sep(a, b)
        hs = OracleHandle(s, QueryLedger())
        ctx = make_context(hs, build_exhaustive(s, d), sep, MODEL)
        idx = CollisionIndex(ctx)
        truth = brute_lcs(a, b).length
        assert idx.best <= truth


def test_check_completeness_planted_window_range():
    # a common substring with encoded length in [max(3, d), 2d] and decoded
    # length >= d_tilde is always found over the full anchor set
    rng = random.Random(9)
    for trial in range(50):
        d = rng.choice([3, 4, 6, 8])
        enc = rng.randint(max(3, d), 2 * d)
        n = rng.randint(enc, enc + 10)
        inst = plant_instance(n, enc, rng.randint(enc, enc * 4), 1000 + trial)
        s, sep = concat_sep(inst.a, inst.b)
        hs = OracleHandle(s, QueryLedger())
        ctx = make_context(hs, build_exhaustive(s, d), sep, MODEL)
        idx = CollisionIndex(ctx)
        assert idx.best >= inst.d_tilde


def test_white_anchor_never_in_candidates():
    rng = random.Random(14)
    for trial in range(30):
        a = random_rle(rng, rng.randint(1, 10))
        b = random_rle(rng, rng.randint(1, 10))
        s, sep = concat_sep(a, b)
        hs = OracleHandle(s, QueryLedger())
        ctx = make_context(hs, build_exhaustive(s, 4), sep, MODEL)
        idx = CollisionIndex(ctx)
        hit = idx.query(1)
        if hit is not None:
            assert min(hit) < sep < max(hit)


def _model_for_r(m, r):
    """A cost model whose subset_size over m anchors is r."""
    model = CostModel(r_const=(r - 0.5) / m ** (2 / 3))
    assert subset_size(model, m) == r
    return model


def test_inner_search_planted_hit_and_miss():
    inst = plant_instance(24, 6, 18, 3)
    s, sep = concat_sep(inst.a, inst.b)
    ctx = make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, 8), sep, MODEL)
    cand = inner_search(ctx, inst.d_tilde, mode=WalkMode.FULLSET)
    assert cand is not None
    miss = inner_search(ctx, inst.d_tilde + 50, mode=WalkMode.FULLSET)
    assert miss is None


def _fullset_charge(ctx):
    """What a full-set search adds to the ledger: the walk formula over all m anchors."""
    model, d, m = ctx.model, ctx.d, ctx.anchors.m
    delta = (subset_size(model, m) / m) ** 2
    return walk_search_charge(setup_charge(model, d, m), 0.0, check_charge(model, d, m), m, delta)


def test_inner_search_charge_identity():
    # the ledger delta matches the walk formula instantiation exactly
    inst = plant_instance(20, 5, 12, 4)
    s, sep = concat_sep(inst.a, inst.b)
    deltas = {}
    for mode in (WalkMode.COSTONLY, WalkMode.FULLSET, WalkMode.RANDOMWALK):
        ledger = QueryLedger()
        hs = OracleHandle(s, ledger)
        x = build_exhaustive(s, 8)
        ctx = make_context(hs, x, sep, MODEL)
        m = x.m
        r = max(1, min(m, math.ceil(m ** (2 / 3))))
        before = ledger.charged_cost
        inner_search(ctx, 5, mode=mode)
        delta = ledger.charged_cost - before
        deltas[mode] = delta
        if mode is not WalkMode.FULLSET:
            # the walk declares the cost-only triple, so both charge walk_charge
            assert delta == walk_charge(MODEL, 8, r, m, (r / m) ** 2)
        else:
            # the walk formula over all m anchors with no swap: setup + (m / r) check
            assert delta == _fullset_charge(ctx)
            expected = setup_charge(MODEL, 8, m) + (m / r) * check_charge(MODEL, 8, m)
            assert delta == pytest.approx(expected)
    assert deltas[WalkMode.RANDOMWALK] == deltas[WalkMode.COSTONLY]


def _fullset_scales(monkeypatch):
    """Scales 16 and 8 over one planted A $ B's exhaustive anchors, with row bounds."""
    monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", 7)  # the kernel's rows take many passes
    inst = plant_instance(40, 6, 18, 2)
    s, sep = concat_sep(inst.a, inst.b)
    hs = OracleHandle(s, QueryLedger())
    tokens = _RunTokens(hs)
    wide, narrow = (make_context(hs, build_exhaustive(s, d), sep, MODEL, tokens) for d in (16, 8))
    assert wide.row_bounds is not None
    return wide, narrow


def _charged_search(ctx, d_tilde, index_cache):
    """A full-set search's hit and charge, the charge read from zero, exactly."""
    ledger = ctx.handle.ledger
    ledger.charged_cost = 0.0
    hit = inner_search(ctx, d_tilde, mode=WalkMode.FULLSET, index_cache=index_cache)
    return hit, ledger.charged_cost


def test_inner_search_fullset_charges_its_scale_amount_in_every_state(monkeypatch):
    # whatever its scale holds, a full-set search adds exactly the walk formula
    # over all m anchors: a row bound short of the probe (_ScaleBound), a larger
    # scale's best that rules the scale out, an index that hits, one that misses
    wide, narrow = _fullset_scales(monkeypatch)
    cache = {}
    bound = int(wide.row_bounds[0].max())
    assert _charged_search(wide, bound + 1, cache) == (None, _fullset_charge(wide))
    assert isinstance(cache[16], _ScaleBound) and cache[16].best == bound
    assert _charged_search(narrow, bound + 1, cache) == (None, _fullset_charge(narrow))
    assert list(cache) == [16]
    hit, charge = _charged_search(wide, 1, cache)
    index = cache[16]
    assert isinstance(index, CollisionIndex) and hit == index.query(1) is not None
    assert charge == _fullset_charge(wide)
    assert _charged_search(wide, index.best + 1, cache) == (None, _fullset_charge(wide))
    assert cache[16] is index and _fullset_charge(wide) != _fullset_charge(narrow)


def test_inner_search_fullset_reads_a_cached_row_bound(monkeypatch):
    # a scale's row bound is computed once: a later probe above the cached
    # _ScaleBound misses on it as it stands, and one it admits builds the
    # index from it, each at the full charge
    wide, _ = _fullset_scales(monkeypatch)
    bounds, scale_bound = [], rlelcs.walk._scale_bound

    def counted(ctx):
        bounds.append(scale_bound(ctx))
        return bounds[-1]

    monkeypatch.setattr(rlelcs.walk, "_scale_bound", counted)
    cache = {}
    bound = int(wide.row_bounds[0].max())
    for d_tilde in (bound + 1, bound + 2, bound + 1):
        assert _charged_search(wide, d_tilde, cache) == (None, _fullset_charge(wide))
        assert isinstance(cache[16], _ScaleBound) and cache[16].best == bound
    assert bounds == [bound]
    hit, charge = _charged_search(wide, 1, cache)
    assert isinstance(cache[16], CollisionIndex) and hit is not None
    assert charge == _fullset_charge(wide) and bounds == [bound]


def test_inner_search_fullset_scale_without_index_charges_as_one_with(monkeypatch):
    # a full-set scale that builds no index, by its row bounds or by a larger
    # scale's best, reports None at the charge of a search that builds its
    # index and reads it
    builds, init = [], CollisionIndex.__init__

    def spy_init(index, ctx):
        builds.append(ctx)
        init(index, ctx)

    monkeypatch.setattr(CollisionIndex, "__init__", spy_init)
    wide, narrow = _fullset_scales(monkeypatch)
    cache = {}
    bound = int(wide.row_bounds[0].max())
    skipped = [_charged_search(wide, bound + 1, cache), _charged_search(narrow, bound + 1, cache)]
    assert builds == [] and [hit for hit, _ in skipped] == [None, None]
    built = [_charged_search(wide, 1, None), _charged_search(narrow, 1, None)]
    assert len(builds) == 2 and None not in [hit for hit, _ in built]
    assert [charge for _, charge in skipped] == [charge for _, charge in built]


@pytest.mark.parametrize("batch", [7, 4096])
def test_inner_search_fullset_hits_exactly_when_the_scale_best_reaches_the_target(
    monkeypatch, batch
):
    # at every scale of a planted A $ B and of A alone, a full-set search hits
    # exactly when the scale's pair table (every pair scored densely) holds a
    # certificate at its target, and its hit is such a pair; each probe runs
    # on a fresh cache and on one shared cache, so both fresh and cached states
    # answer it
    monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", batch)
    inst = plant_instance(40, 6, 18, 2)
    joined, sep = concat_sep(inst.a, inst.b)
    for s, sep_index in ((joined, sep), (inst.a, None)):
        hs = OracleHandle(s, QueryLedger())
        tokens, cache = _RunTokens(hs), {}
        for d in _d_values(s.n, MODEL.d_min):
            ctx = make_context(hs, build_exhaustive(s, d), sep_index, MODEL, tokens)
            table = _pair_table(*_kernel_args(ctx))
            runs = list(ctx.window_order[0])
            best = int(table.max())
            for d_tilde in sorted({1, best // 2, best - 1, best, best + 1, best + 7} - {0}):
                for index_cache in (None, cache):
                    hit = inner_search(ctx, d_tilde, mode=WalkMode.FULLSET, index_cache=index_cache)
                    assert (hit is not None) == (best >= d_tilde), (d, d_tilde)
                    if hit is not None:
                        a, b = (runs.index(x) for x in hit)
                        assert table[a, b] >= d_tilde, (d, d_tilde, hit)


def test_fullset_solves_skip_the_walk_driver(monkeypatch):
    # full-set LCS and LRS solves, with either anchor scheme, never call
    # walk_search, and each inner_search call charges the ledger exactly once
    driven, per_search, inside = [], [], []
    search, charge = rlelcs.walk.inner_search, QueryLedger.charge

    def spy_search(*args, **kwargs):
        inside.append(0)
        try:
            return search(*args, **kwargs)
        finally:
            per_search.append(inside.pop())

    def spy_charge(ledger, amount):
        if inside:
            inside[-1] += 1
        charge(ledger, amount)

    monkeypatch.setattr(rlelcs.walk, "walk_search", lambda *args, **kwargs: driven.append(args))
    monkeypatch.setattr(rlelcs.walk, "inner_search", spy_search)
    monkeypatch.setattr(QueryLedger, "charge", spy_charge)
    inst = plant_instance(64, 8, 24, 1)
    joined, _ = concat_sep(inst.a, inst.b)
    for scheme in AnchorScheme:
        config = SolverConfig(anchors=scheme, seed=1)
        ha, hb, _ = make_handles(inst.a, inst.b)
        assert solve_lcs_rle_p(ha, hb, config).d_tilde >= inst.d_tilde
        ha, _, _ = make_handles(joined, encode(b""))
        assert solve_lrs(ha, config).d_tilde >= inst.d_tilde
    assert driven == [] and len(per_search) > 20 and set(per_search) == {1}


def test_inner_search_randomwalk_mode():
    inst = plant_instance(12, 5, 15, 7)
    s, sep = concat_sep(inst.a, inst.b)
    hs = OracleHandle(s, QueryLedger())
    x = build_exhaustive(s, 8)
    # full-size subset makes the random walk deterministic for the hit case
    ctx = make_context(hs, x, sep, _model_for_r(x.m, x.m))
    cand = inner_search(ctx, inst.d_tilde, mode=WalkMode.RANDOMWALK, rng=random.Random(0))
    assert cand is not None
    ctx = make_context(hs, x, sep, _model_for_r(x.m, max(1, x.m // 2)))
    miss = inner_search(ctx, inst.d_tilde + 99, mode=WalkMode.RANDOMWALK, rng=random.Random(0))
    assert miss is None


def _scale_contexts(s, sep):
    """Exhaustive-anchor contexts of s at every scale of _d_values(n, 1), largest first."""
    hs = OracleHandle(s, QueryLedger())
    tokens = _RunTokens(hs)
    return [
        make_context(hs, build_exhaustive(s, d), sep, MODEL, tokens) for d in _d_values(s.n, 1)
    ]


def _periodic_runs(rng, period, n_runs):
    """A motif of period runs over "abc" repeated to n_runs runs, one length redrawn half the time.

    The motif's first and last chars differ, so its repeats never merge.
    """
    while True:
        chars = [rng.choice(b"abc")]
        for _ in range(period - 1):
            chars.append(rng.choice([c for c in b"abc" if c != chars[-1]]))
        if chars[-1] != chars[0]:
            break
    lens = [rng.randint(1, 3) for _ in range(period)]
    runs = [(chars[i % period], lens[i % period]) for i in range(n_runs)]
    if rng.random() < 0.5:
        i = rng.randrange(n_runs)
        runs[i] = (runs[i][0], rng.randint(1, 3))
    return runs


def _byte_rle(rng, n_chars, alphabet):
    """encode() of n_chars bytes drawn from alphabet, which may hold "$" and "!"."""
    return encode(bytes(rng.choice(alphabet) for _ in range(n_chars)))


def test_certificates_never_rise_as_scale_falls():
    # the invariant the full-set scale ceiling rests on: over the same
    # anchors, every pair's certificate at d is at most the one at 2d, so the
    # kernel's best never rises as d falls.  LCS with "!" (and "$") in the
    # alphabet, LRS, and run-periodic strings of period 2-8, alone and paired
    rng = random.Random(131)
    cases = []
    for trial in range(16):
        alphabet = b"!ab" if trial % 2 else b"$!ab"
        a, b = (_byte_rle(rng, rng.randint(1, 40), alphabet) for _ in range(2))
        cases += [concat_sep(a, b), (a, None)]
    for period in range(2, 9):
        for _ in range(2):
            runs = _periodic_runs(rng, period, rng.randint(2 * period, 40))
            a = RleString.from_pairs(runs)
            b = RleString.from_pairs(runs[rng.randrange(len(runs)) :])
            cases += [concat_sep(a, b), (a, None)]
    falls = drops = 0
    for s, sep in cases:
        contexts = _scale_contexts(s, sep)
        tables = [_pair_table(*_kernel_args(ctx)) for ctx in contexts]
        bests = [_kernel(ctx)[0] for ctx in contexts]
        for ctx, wide, narrow in zip(contexts[1:], tables, tables[1:]):
            assert (narrow <= wide).all(), (s, sep, ctx.d)
            falls += int((narrow < wide).sum())
        assert bests == sorted(bests, reverse=True), (s, sep, bests)
        drops += bests[0] > bests[-1]
    assert falls > 1000 and drops > 20


def _with_and_without_ceiling(a, b, config):
    """(answer, ledger counters, index builds) of one solve with the scale ceiling,
    then of the same solve with no ceiling (the lookup returns inf): the oracle.
    b None solves the LRS of a."""
    builds, init, out = [], CollisionIndex.__init__, []

    def counted_init(self, ctx):
        builds.append(ctx.d)
        init(self, ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CollisionIndex, "__init__", counted_init)
        for lookup in (rlelcs.walk._ceiling, lambda index_cache, ctx: math.inf):
            patch.setattr(rlelcs.walk, "_ceiling", lookup)
            builds.clear()
            if b is None:
                ha, _, ledger = make_handles(a, RleString(()))
                ans = solve_lrs(ha, config)
            else:
                ha, hb, ledger = make_handles(a, b)
                ans = solve_lcs_rle_p(ha, hb, config)
            counters = (ledger.charged_cost, ledger.run_queries, ledger.prefix_queries)
            out.append((ans, counters, len(builds)))
    return out


def test_inner_search_ceiling_rules_out_only_longer_probes():
    # a cached index at a larger scale over the same entries skips a scale
    # for probes above its best, at the charge of a scale that builds, and
    # not for probes it could still answer
    inst = plant_instance(40, 6, 18, 2)
    s, sep = concat_sep(inst.a, inst.b)
    hs = OracleHandle(s, QueryLedger())
    tokens, model = _RunTokens(hs), _model_for_r(s.n, s.n)
    scales = [make_context(hs, build_exhaustive(s, d), sep, model, tokens) for d in (16, 8)]
    wide, narrow = scales
    cache = {}

    def search(ctx, d_tilde, index_cache):
        ledger = ctx.handle.ledger
        ledger.charged_cost = 0.0  # each search's charge is read from zero, exactly
        cand = inner_search(ctx, d_tilde, mode=WalkMode.FULLSET, index_cache=index_cache)
        return cand, ledger.charged_cost

    assert search(wide, 1, cache)[0] is not None
    ceiling, truth = cache[16].best, CollisionIndex(narrow).best
    assert 1 <= truth <= ceiling
    assert search(narrow, ceiling + 1, cache) == (None, search(narrow, ceiling + 1, None)[1])
    assert list(cache) == [16]
    got = search(narrow, truth, cache)
    assert got == (CollisionIndex(narrow).query(truth), search(narrow, truth, None)[1])
    assert list(cache) == [16, 8]


def test_scale_ceiling_exhaustive_builds_one_index_per_solve():
    # exhaustive anchors keep the same entries at every scale, so a full-set
    # solve builds only its top scale's index; answers, charges and both
    # query counters equal the solve that builds every scale it visits
    rng = random.Random(151)
    plants = [plant_instance(rng.randint(8, 60), 6, 20, seed) for seed in range(8)]
    pairs = [(inst.a, inst.b) for inst in plants]
    for trial in range(16):
        alphabet = b"!ab" if trial % 2 else b"$!abc"
        a, b = (_byte_rle(rng, rng.randint(2, 80), alphabet) for _ in range(2))
        pairs += [(a, b), (a, None)]
    for period in range(2, 9):
        runs = _periodic_runs(rng, period, rng.randint(20, 60))
        pairs.append((RleString.from_pairs(runs), None))
    skipped = 0
    for a, b in pairs:
        got, want = _with_and_without_ceiling(a, b, SolverConfig())
        assert got[:2] == want[:2], (a, b)
        assert got[2] == 1, (a, b)
        skipped += want[2] - got[2]
    assert skipped > 50


def test_scale_ceiling_minimizer_builds_as_many_as_oracle():
    # minimizer anchor sets differ from scale to scale: nothing is skipped
    rng = random.Random(157)
    config = SolverConfig(anchors=AnchorScheme.MINIMIZER)
    for seed in range(6):
        inst = plant_instance(rng.randint(64, 200), 24, 60, seed, verify=False)
        config.seed = seed
        for b in (inst.b, None):
            got, want = _with_and_without_ceiling(inst.a, b, config)
            assert got == want and got[2] > 1, seed


def test_string_settings_solve_as_their_members(monkeypatch):
    # mode and anchors given as their members' string values solve with the
    # same answer, ledger and minimizer builds; unknown strings raise
    builds, build = [], rlelcs.walk.build_minimizer

    def counted_build(*args, **kwargs):
        builds.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(rlelcs.walk, "build_minimizer", counted_build)
    inst = plant_instance(64, 16, 40, 3, verify=False)
    for mode, scheme in itertools.product(WalkMode, AnchorScheme):
        solves = []
        for config in (
            SolverConfig(mode=mode, anchors=scheme),
            SolverConfig(mode=mode.value, anchors=scheme.value),
        ):
            builds.clear()
            ha, hb, ledger = make_handles(inst.a, inst.b)
            ans = solve_lcs_rle_p(ha, hb, config)
            solves.append((ans, ledger.as_dict(), len(builds)))
        assert solves[0] == solves[1], (mode, scheme)
        assert (solves[1][2] > 0) == (scheme is AnchorScheme.MINIMIZER), (mode, scheme)
    for bad in ({"mode": "bogus"}, {"anchors": "bogus"}, {"mode": "minimizer"}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


def test_scale_ceiling_anchor_overrides(monkeypatch):
    # per-scale anchor sets substituted for scale_anchors' (and, on odd seeds,
    # a fallback finding nothing): scales whose entries equal a larger scale's
    # are skipped once it rules a probe out, scales with their own entries
    # still build; either way answers and counters equal the oracle's
    rng = random.Random(163)
    shared = differing = 0
    for seed in range(12):
        a = random_rle(rng, rng.randint(10, 40), max_len=4)
        b = random_rle(rng, rng.randint(10, 40), max_len=4)
        s, _ = concat_sep(a, b)
        scales = _d_values(s.n, MODEL.d_min)
        all_runs = range(1, s.n + 1)
        keep = tuple(sorted(rng.sample(all_runs, s.n // 2)))
        # the same entries at every scale, then a different number at each
        same = {d: keep for d in scales}
        own = {d: tuple(sorted(rng.sample(all_runs, s.n - i))) for i, d in enumerate(scales)}
        for entries in (same, own):
            sets = {d: AnchorSet(e, d, AnchorScheme.EXHAUSTIVE) for d, e in entries.items()}
            monkeypatch.setattr(rlelcs.walk, "scale_anchors", lambda s, d, *_: sets[d])
            fallback = _small_fallback if seed % 2 == 0 else lambda runs, sep_index: None
            monkeypatch.setattr(rlelcs.walk, "_small_fallback", fallback)
            got, want = _with_and_without_ceiling(a, b, SolverConfig(seed=seed))
            assert got[:2] == want[:2], seed
            if entries is same:
                assert got[2] == 1, seed
                shared += want[2] > 1
            else:
                assert got[2] == want[2], seed
                differing += got[2] > 1
    assert shared > 3 and differing > 3


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _with_and_without_bounds(a, b, config):
    """(answer, ledger counters, calls) of one solve, then of the same solve with
    the small-run fallback's bound and every full-set scale's bound patched to
    inf: the reference, which runs the fallback on the first probe that every
    scale misses and builds every index the ceiling allows.  calls counts
    index builds, fallback runs and window orders.  b None solves the LRS of a."""
    walk, calls, out = rlelcs.walk, collections.Counter(), []
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, key in (
            (CollisionIndex, "__init__", "builds"),
            (walk, "_small_fallback", "fallbacks"),
            (_TokenRanks, "window_order", "orders"),
        ):
            patch.setattr(owner, name, _counted(calls, key, getattr(owner, name)))
        for fallback_bound, scale_bound in (
            (walk._fallback_bound, walk._scale_bound),
            (lambda lens: math.inf, lambda ctx: math.inf),
        ):
            patch.setattr(walk, "_fallback_bound", fallback_bound)
            patch.setattr(walk, "_scale_bound", scale_bound)
            calls.clear()
            ans, ledger = _solve_case(a, b, config)
            counters = (ledger.charged_cost, ledger.run_queries, ledger.prefix_queries)
            out.append((ans, counters, calls.copy()))
    return out


def _solve_case(a, b, config):
    """(answer, ledger) of the LCS of a and b, or of the LRS of a when b is None."""
    if b is None:
        ha, _, ledger = make_handles(a, RleString(()))
        return solve_lrs(ha, config), ledger
    ha, hb, ledger = make_handles(a, b)
    return solve_lcs_rle_p(ha, hb, config), ledger


def _bound_cases(rng):
    """(a, b) pairs, b None for LRS: planted, random over "$" and "!", periodic,
    no shared char, and answers of one run, of two runs and of exactly the
    fallback's bound (4 + 4 = 8 in "aaaabbbb" against "ccaaaabbbbcc")."""
    cases = [
        (encode(b"aaaabbbb"), encode(b"ccaaaabbbbcc")),
        (encode(b"xaaaay"), encode(b"zaaaaw")),
        (encode(b"abbbbbc"), encode(b"dbbbe")),
        (encode(b"aaaabbbbaaaabbb"), None),
        (encode(b"aaaabbbbcaaaabbbb"), None),
        (encode(b"ab" * 30), encode(b"cd" * 40)),
        (encode(b"aab" * 30), None),
    ]
    for seed in range(6):
        inst = plant_instance(rng.randint(8, 200), 6 + seed, 40, seed, verify=False)
        cases += [(inst.a, inst.b), (concat_sep(inst.a, inst.b)[0], None)]
    for trial in range(8):
        alphabet = b"!ab" if trial % 2 else b"$!abc"
        a, b = (_byte_rle(rng, rng.randint(2, 150), alphabet) for _ in range(2))
        cases += [(a, b), (a, None)]
    for period in (2, 3, 5, 8):
        runs = _periodic_runs(rng, period, rng.randint(20, 120))
        a, b = RleString.from_pairs(runs), RleString.from_pairs(runs[rng.randrange(len(runs)) :])
        cases += [(a, None), (a, b)]
    return cases


def test_bounds_change_no_answer_charge_or_query_count():
    # a probe above the fallback's bound or a full-set scale's row bounds
    # skips that work with the same answer, charge and query counts as the
    # reference; no solve builds more indexes, and with exhaustive anchors
    # none orders more windows
    rng = random.Random(229)
    skipped = collections.Counter()
    for a, b in _bound_cases(rng):
        for scheme in AnchorScheme:
            got, want = _with_and_without_bounds(a, b, SolverConfig(anchors=scheme, seed=7))
            assert got[:2] == want[:2], (a, b, scheme)
            assert got[2]["builds"] <= want[2]["builds"], (a, b, scheme)
            assert got[2]["fallbacks"] <= want[2]["fallbacks"] <= 1, (a, b, scheme)
            if scheme is AnchorScheme.EXHAUSTIVE:
                assert got[2]["orders"] <= want[2]["orders"], (a, b)
            skipped.update(want[2] - got[2])
    assert skipped["fallbacks"] > 20 and skipped["builds"] > 5


def test_bounds_keep_the_fallback_answer_when_every_scale_misses(monkeypatch):
    # one anchor per scale certifies nothing, so every answer is the
    # fallback's, of one or two runs; some reach its bound exactly
    def one_anchor(s, d, *_):
        return AnchorSet((1,), d, AnchorScheme.EXHAUSTIVE)

    monkeypatch.setattr(rlelcs.walk, "scale_anchors", one_anchor)
    at_bound = 0
    for a, b in _bound_cases(random.Random(239)):
        got, want = _with_and_without_bounds(a, b, SolverConfig())
        assert got[:2] == want[:2], (a, b)
        assert got[2]["fallbacks"] <= want[2]["fallbacks"] <= 1, (a, b)
        lens = _run_arrays(a if b is None else concat_sep(a, b)[0])[1]
        at_bound += got[0] is not None and got[0].d_tilde == rlelcs.walk._fallback_bound(lens)
    assert at_bound >= 2


def test_inner_search_row_bounds_rule_out_only_longer_probes():
    # a full-set scale whose largest row bound is below a probe builds no
    # index and keeps that bound as its best, at the charge of a scale that
    # builds; a later probe within the bound builds the index and answers
    # as a fresh one does, whether the bound is tight or not
    tight = loose = 0

    def search(ctx, d_tilde, index_cache):
        ledger = ctx.handle.ledger
        ledger.charged_cost = 0.0  # each search's charge is read from zero, exactly
        cand = inner_search(ctx, d_tilde, mode=WalkMode.FULLSET, index_cache=index_cache)
        return cand, ledger.charged_cost

    for seed in range(4):
        inst = plant_instance(60 + 10 * seed, 6, 18, seed, verify=False)
        for s, sep in (concat_sep(inst.a, inst.b), (inst.a, None)):
            hs = OracleHandle(s, QueryLedger())
            tokens = _RunTokens(hs)
            for d in _d_values(s.n, 1):
                ctx = make_context(hs, build_exhaustive(s, d), sep, MODEL, tokens)
                if ctx.row_bounds is None:
                    continue  # the kernel's rows take one pass: it has no bounds
                bound, fresh, cache = int(ctx.row_bounds[0].max()), CollisionIndex(ctx), {}
                above = search(ctx, bound + 1, cache)
                assert above == (None, search(ctx, bound + 1, None)[1]), (s, d)
                assert type(cache[d]) is _ScaleBound and cache[d].best == bound
                within = search(ctx, bound, cache)
                assert within == (fresh.query(bound), search(ctx, bound, None)[1]), (s, d)
                assert isinstance(cache[d], CollisionIndex) and cache[d].best == fresh.best
                tight += fresh.best == bound
                loose += fresh.best < bound
    assert tight > 5 and loose > 5


def test_small_fallback_runs_once_on_the_first_missing_probe_its_bound_admits(monkeypatch):
    # a probe that every scale misses runs the fallback only when its target
    # is within the longest run or adjacent run pair: once per solve at
    # most, and never when every missing probe is above that bound
    walk, calls = rlelcs.walk, collections.Counter()
    searches, reach, bound = [], [], walk._fallback_bound

    def spy_search(ctx, d_tilde, **kwargs):
        hit = inner_search(ctx, d_tilde, **kwargs)
        searches.append((d_tilde, hit is not None))
        return hit

    def spy_bound(lens):
        reach.append(bound(lens))
        return reach[-1]

    monkeypatch.setattr(walk, "inner_search", spy_search)
    monkeypatch.setattr(walk, "_fallback_bound", spy_bound)
    monkeypatch.setattr(walk, "_small_fallback", _counted(calls, "runs", walk._small_fallback))
    rng = random.Random(233)
    runs = collections.Counter()
    for a, b in _bound_cases(rng):
        for mode in WalkMode:
            for spied in (searches, reach, calls):
                spied.clear()
            _solve_case(a, b, SolverConfig(mode=mode))
            if mode is WalkMode.COSTONLY:
                assert calls["runs"] == 0, (a, b)
                continue
            hits = collections.defaultdict(bool)  # per probe: whether some scale hit
            for d_tilde, hit in searches:
                hits[d_tilde] |= hit
            admitted = any(not hit and d_tilde <= reach[0] for d_tilde, hit in hits.items())
            assert calls["runs"] == admitted, (a, b, mode)
            runs[calls["runs"], not all(hits.values())] += 1
    # solves that ran it, and solves with missing probes that never did
    assert runs[1, True] > 3 and runs[0, True] > 20


def test_planted_minimizer_solve_builds_fewer_indexes():
    # minimizer entries differ from scale to scale, so the ceiling rules
    # none out; a scale's own row bounds still do, for the probes above them
    inst = plant_instance(512, 32, 160, 1, verify=False)
    config = SolverConfig(anchors=AnchorScheme.MINIMIZER, seed=1)
    got, want = _with_and_without_bounds(inst.a, inst.b, config)
    assert got[:2] == want[:2]
    assert 0 < got[2]["builds"] < want[2]["builds"]


def test_walk_search_builds_a_vertex_exactly_when_its_table_reaches_the_target(monkeypatch):
    # differential: in planted multi-scale walk solves (LCS and LRS, both
    # anchor schemes), a walk search builds no vertex exactly when the pair
    # table of its scale, computed here, holds no certificate at its target;
    # those searches only draw.  With exhaustive anchors the ceiling also
    # leaves some scales without a table of their own
    searches, vertices = [], []
    search, init = rlelcs.walk.inner_search, WalkVertex.__init__

    def spy_search(ctx, d_tilde, *args, **kwargs):
        start = len(vertices)
        out = search(ctx, d_tilde, *args, **kwargs)
        searches.append((ctx, d_tilde, len(vertices) > start))
        return out

    def spy_init(vertex, ctx):
        vertices.append(ctx)
        init(vertex, ctx)

    monkeypatch.setattr(rlelcs.walk, "inner_search", spy_search)
    monkeypatch.setattr(WalkVertex, "__init__", spy_init)
    for seed, n in ((1, 40), (2, 64)):
        inst = plant_instance(n, n // 8, 3 * (n // 8), seed, verify=False)
        joined, _ = concat_sep(inst.a, inst.b)
        for scheme in AnchorScheme:
            config = SolverConfig(mode=WalkMode.RANDOMWALK, anchors=scheme, seed=seed)
            ha, hb, _ = make_handles(inst.a, inst.b)
            assert solve_lcs_rle_p(ha, hb, config) is not None
            ha, _, _ = make_handles(joined, encode(b""))
            assert solve_lrs(ha, config) is not None
    maxima = {}
    for ctx, d_tilde, built in searches:
        if id(ctx) not in maxima:
            maxima[id(ctx)] = int(_pair_table(*_kernel_args(ctx)).max())
        assert built == (maxima[id(ctx)] >= d_tilde), (ctx.d, d_tilde)
    drawn = sum(not built for _, _, built in searches)
    untabled = {id(ctx) for ctx, _, _ in searches if "pair_table" not in vars(ctx)}
    assert drawn > 100 and len(searches) - drawn > 20 and len(untabled) > 5


def test_finalize_and_verify_worked_example():
    a, b = encode(b"aabbbc"), encode(b"dbbbcc")
    ha, hb, ledger = make_handles(a, b)
    ans = solve_lcs_rle_p(ha, hb)
    assert ans == LcsAnswer(2, 2, 2, 4, 3, 2)
    assert verify_candidate(ans, ha, hb)


def test_verify_rejects_tampering():
    a, b = encode(b"aabbbc"), encode(b"dbbbcc")
    ha, hb, _ = make_handles(a, b)
    ans = solve_lcs_rle_p(ha, hb)
    import dataclasses

    assert not verify_candidate(dataclasses.replace(ans, ell=ans.ell + 1), ha, hb)
    assert not verify_candidate(dataclasses.replace(ans, decoded_start_A=ans.decoded_start_A + 1), ha, hb)
    assert not verify_candidate(dataclasses.replace(ans, d_tilde=ans.d_tilde + 3), ha, hb)


def test_verify_rejects_out_of_range_run_indices():
    # run indices outside 1..n fail the check without raising, including the
    # negative ones that would index a real run's prefix sums from the end
    import dataclasses

    lcs = make_handles(encode(b"aabbbc"), encode(b"dbbbcc"))[:2]
    h = OracleHandle(encode(b"abcabcab"), QueryLedger())
    for ha, hb, ans in (
        (*lcs, solve_lcs_rle_p(*lcs)),
        (h, h, solve_lrs(h)),
    ):
        assert verify_candidate(ans, ha, hb)
        for i in (0, -1, ha.n + 1):
            assert not verify_candidate(dataclasses.replace(ans, i_A=i), ha, hb)
        for i in (0, -1, hb.n + 1):
            assert not verify_candidate(dataclasses.replace(ans, i_B=i), ha, hb)
        aliased_b = dataclasses.replace(ans, i_B=ans.i_B - (hb.n + 1))
        aliased_a = dataclasses.replace(ans, i_A=ans.i_A - (ha.n + 1), ell=ans.ell + ha.n + 1)
        assert not verify_candidate(aliased_b, ha, hb)
        assert not verify_candidate(aliased_a, ha, hb)


def test_finalize_identical_singletons():
    ha, hb, _ = make_handles(encode(b"a"), encode(b"a"))
    ans = solve_lcs_rle_p(ha, hb)
    assert (ans.i_A, ans.i_B, ans.d_tilde, ans.ell) == (1, 1, 1, 1)


def test_solve_worked_example():
    ha, hb, _ = make_handles(encode(b"abcdbbbbccccc"), encode(b"abcd@bbbbcc"))
    ans = solve_lcs_rle_p(ha, hb)
    assert ans.d_tilde == 6
    sub = decode(encode(b"abcdbbbbccccc"))[ans.decoded_start_A - 1 :][: ans.d_tilde]
    assert sub == b"bbbbcc"
    assert ans.ell == 2


def test_solve_trivial_cases():
    ha, hb, _ = make_handles(encode(b"aaaaa"), encode(b"aaaaa"))
    ans = solve_lcs_rle_p(ha, hb)
    assert (ans.d_tilde, ans.ell) == (5, 1)
    ha, hb, _ = make_handles(encode(b"aaab"), encode(b"cc"))
    assert solve_lcs_rle_p(ha, hb) is None
    ha, hb, _ = make_handles(encode(b""), encode(b"cc"))
    assert solve_lcs_rle_p(ha, hb) is None


def test_solve_absent_iff_no_common_character():
    rng = random.Random(2)
    for _ in range(40):
        a = random_rle(rng, rng.randint(1, 10))
        b = random_rle(rng, rng.randint(1, 10))
        ha, hb, _ = make_handles(a, b)
        ans = solve_lcs_rle_p(ha, hb)
        common_chars = {r.char for r in a.runs} & {r.char for r in b.runs}
        assert (ans is None) == (not common_chars)


def test_probe_predicate_monotone():
    # if a common substring of decoded length t exists, one exists for
    # every smaller positive t; the index/fallback probes respect that
    rng = random.Random(4)
    for _ in range(25):
        a = random_rle(rng, rng.randint(2, 16))
        b = random_rle(rng, rng.randint(2, 16))
        s, sep = concat_sep(a, b)
        hs = OracleHandle(s, QueryLedger())
        ctx = make_context(hs, build_exhaustive(s, 8), sep, MODEL)
        idx = CollisionIndex(ctx)
        hits = [idx.query(t) is not None for t in range(1, min(a.total, b.total) + 1)]
        # directly: no True after a False
        seen_false = False
        for h in hits:
            if not h:
                seen_false = True
            assert not (seen_false and h)


def test_solve_matches_brute_on_random_sample():
    rng = random.Random(99)
    for _ in range(60):
        a = random_rle(rng, rng.randint(1, 40))
        b = random_rle(rng, rng.randint(1, 40))
        ha, hb, _ = make_handles(a, b)
        ans = solve_lcs_rle_p(ha, hb)
        got = ans.d_tilde if ans else 0
        assert got == brute_lcs(a, b).length
        if ans:
            assert verify_candidate(ans, ha, hb)


_SEPARATOR_BYTES = st.sampled_from(b"$@#a")


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(_SEPARATOR_BYTES, st.integers(0, 255)), min_size=1, max_size=24).map(bytes),
    st.lists(st.one_of(_SEPARATOR_BYTES, st.integers(0, 255)), min_size=1, max_size=24).map(bytes),
)
def test_solve_matches_brute_over_all_byte_values(raw_a, raw_b):
    # any byte can be solved, the old separators included
    a, b = encode(raw_a), encode(raw_b)
    ha, hb, _ = make_handles(a, b)
    ans = solve_lcs_rle_p(ha, hb)
    assert (ans.d_tilde if ans else 0) == brute_lcs(a, b).length
    if ans:
        assert verify_candidate(ans, ha, hb)


def test_separator_is_dollar_unless_an_input_uses_it():
    def separator(a, b):
        s, sep = concat_sep(a, b)
        return s[sep - 1].char

    assert separator(encode(b"ab"), encode(b"a@#")) == ord("$")
    assert separator(encode(b"a$\x00"), encode(b"\x01b")) == 2
    with pytest.raises(NoSeparatorError):
        concat_sep(encode(bytes(range(256))), encode(b""))
    ha, hb, _ = make_handles(encode(bytes(range(0, 256, 2))), encode(bytes(range(1, 256, 2))))
    with pytest.raises(NoSeparatorError):
        solve_lcs_rle_p(ha, hb)


def test_solve_hashes_each_minimizer_span_once(monkeypatch):
    # one hashing pass per solve, made inside its first minimizer build, over
    # exactly the spans of its minimizer scales; every solve turns runs into
    # arrays once and hashes those: executed solves their counted run read,
    # a cost-only solve, which counts no read, the string's own runs
    import rlelcs.anchors as anchors

    walk = rlelcs.walk
    inst = plant_instance(300, 40, 120, 9)
    joined, _ = concat_sep(inst.a, inst.b)
    scales = [d for d in _d_values(joined.n, MODEL.d_min) if d >= MODEL.d_min]
    spans = sorted({min(8, max(1, math.ceil(d / 2) // 2)) for d in scales})
    passes, builds, converted = [], [], []
    hash_spans, build, run_arrays = anchors.hash_spans, walk.build_minimizer, walk.run_arrays

    def counted_hash(chars, lens, spans, seed):
        passes.append((sorted(spans), len(builds), chars))
        return hash_spans(chars, lens, spans, seed)

    def counted_build(s, d, *args, **kwargs):
        anchor_set = build(s, d, *args, **kwargs)
        builds.append(d)
        return anchor_set

    def counted_arrays(runs):
        converted.append(run_arrays(runs))
        return converted[-1]

    monkeypatch.setattr(anchors, "hash_spans", counted_hash)
    monkeypatch.setattr(walk, "build_minimizer", counted_build)
    monkeypatch.setattr(walk, "run_arrays", counted_arrays)
    length = brute_lcs(inst.a, inst.b).length
    for mode in WalkMode:
        passes.clear(), builds.clear(), converted.clear()
        ha, hb, ledger = make_handles(inst.a, inst.b)
        ans = solve_lcs_rle_p(ha, hb, SolverConfig(mode=mode, anchors=AnchorScheme.MINIMIZER))
        assert spans == [2, 4, 8] and len(builds) > 1, mode
        assert [p[:2] for p in passes] == [(spans, 0)] and len(converted) == 1, mode
        assert passes[0][2] is converted[0][0], mode
        if mode is WalkMode.COSTONLY:
            assert ans is None and ledger.run_queries == 0
        else:
            assert ans.d_tilde == length and ledger.run_queries >= joined.n, mode


@pytest.mark.parametrize("mode", [WalkMode.FULLSET, WalkMode.RANDOMWALK])
def test_solve_minimizer_anchors_equal_the_joined_strings(monkeypatch, mode):
    # at every scale a planted minimizer solve builds, LCS and LRS, its
    # anchors, hashed in one pass from its run read, equal build_minimizer's
    # on the joined string alone
    built, build = {}, rlelcs.walk.build_minimizer

    def recording(s, d, *args, **kwargs):
        built[d] = build(s, d, *args, **kwargs)
        return built[d]

    monkeypatch.setattr(rlelcs.walk, "build_minimizer", recording)
    for seed in range(3):
        inst = plant_instance(150, 30, 90, seed)
        joined, _ = concat_sep(inst.a, inst.b)
        for solve, strings in ((solve_lcs_rle_p, (inst.a, inst.b)), (solve_lrs, (joined,))):
            built.clear()
            ha, hb, _ = make_handles(strings[0], strings[-1])
            config = SolverConfig(mode=mode, anchors=AnchorScheme.MINIMIZER, seed=seed)
            assert solve(*(ha, hb)[: len(strings)], config) is not None
            assert len(built) > 1, (seed, solve.__name__)
            for d, anchors in built.items():
                assert anchors == build_minimizer(joined, d, seed, d_min=MODEL.d_min), (seed, d)


def test_solve_lrs_examples_and_random():
    ha, _, _ = make_handles(encode(b"abcabc"), encode(b""))
    assert solve_lrs(ha).d_tilde == 3
    ha, _, _ = make_handles(encode(b"aaaa"), encode(b""))
    ans = solve_lrs(ha)
    assert ans.d_tilde == 3
    assert ans.decoded_start_A != ans.decoded_start_B
    ha, _, _ = make_handles(encode(b"ab"), encode(b""))
    assert solve_lrs(ha) is None
    rng = random.Random(77)
    for _ in range(40):
        a = random_rle(rng, rng.randint(2, 30))
        ha, _, _ = make_handles(a, encode(b""))
        ans = solve_lrs(ha)
        got = ans.d_tilde if ans else 0
        assert got == brute_lrs(a).length


def test_solve_randomwalk_mode_end_to_end():
    model = CostModel(step_budget_factor=6.0)
    hits = 0
    for seed in range(5):
        inst = plant_instance(10, 4, 12, seed)
        ha, hb, _ = make_handles(inst.a, inst.b)
        cfg = SolverConfig(mode=WalkMode.RANDOMWALK, seed=seed, model=model)
        ans = solve_lcs_rle_p(ha, hb, cfg)
        got = ans.d_tilde if ans else 0
        assert got <= inst.d_tilde  # sound even when the walk misses
        hits += got == inst.d_tilde
    assert hits >= 3  # the sampled walk finds the plant most of the time


def test_solve_randomwalk_charge_independent_of_seed():
    # walk mode charges declared formulas, so the walk's random path cannot move the charge
    inst = plant_instance(10, 4, 12, 3)
    charges = set()
    for seed in range(5):
        ha, hb, ledger = make_handles(inst.a, inst.b)
        solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.RANDOMWALK, seed=seed))
        charges.add(ledger.charged_cost)
    assert len(charges) == 1 and charges.pop() > 0


def test_solve_randomwalk_whole_anchor_set_miss():
    # three runs give r = m = 3: the walk has no swap to make after a miss
    ha, hb, _ = make_handles(encode(b"a"), encode(b"b"))
    assert solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.RANDOMWALK)) is None


def test_solve_costonly_deterministic_and_answerless():
    inst = plant_instance(32, 8, 24, 5)
    charges = set()
    for _ in range(3):
        ha, hb, ledger = make_handles(inst.a, inst.b)
        cfg = SolverConfig(mode=WalkMode.COSTONLY, truth_hint=(inst.d_tilde, inst.encoded_length))
        assert solve_lcs_rle_p(ha, hb, cfg) is None
        charges.add(ledger.charged_cost)
    assert len(charges) == 1
    assert charges.pop() > 0


def test_solve_charge_independent_of_answer_position():
    # same structure, plant at different offsets: identical charge trajectory
    base = None
    for seed in (100, 200):
        inst = plant_instance(24, 6, 18, seed)
        ha, hb, ledger = make_handles(inst.a, inst.b)
        cfg = SolverConfig(mode=WalkMode.COSTONLY, truth_hint=(18, 6))
        solve_lcs_rle_p(ha, hb, cfg)
        if base is None:
            base = ledger.charged_cost
    # anchor sets are content independent in exhaustive mode, so equal n
    # gives equal charges no matter where the plant sits
    inst2 = plant_instance(24, 6, 18, 300)
    ha, hb, ledger2 = make_handles(inst2.a, inst2.b)
    solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.COSTONLY, truth_hint=(18, 6)))
    assert ledger2.charged_cost == pytest.approx(base)


def test_soundness_decoupling_crippled_anchors(monkeypatch):
    # an invalid anchor set may miss answers but never inflates them, even
    # with the small-run fallback finding nothing; most crippled solves miss,
    # which shows the substitutes took effect
    rng = random.Random(6)
    monkeypatch.setattr(rlelcs.walk, "_small_fallback", lambda runs, sep_index: None)
    missed = 0
    for seed in range(40):
        a = random_rle(rng, rng.randint(4, 30))
        b = random_rle(rng, rng.randint(4, 30))
        s, sep = concat_sep(a, b)
        keep = sorted(random.Random(seed).sample(range(1, s.n + 1), max(1, s.n // 3)))
        sets = {
            d: AnchorSet(tuple(keep), d, AnchorScheme.EXHAUSTIVE)
            for d in (8, 16, 32, 64, 128)
        }
        monkeypatch.setattr(rlelcs.walk, "scale_anchors", lambda s, d, *_: sets[d])
        ha, hb, _ = make_handles(a, b)
        ans = solve_lcs_rle_p(ha, hb, SolverConfig(seed=seed))
        got, want = ans.d_tilde if ans else 0, brute_lcs(a, b).length
        assert got <= want
        missed += got < want
        if ans is not None:
            assert verify_candidate(ans, ha, hb)
    assert missed > 20


def test_solver_handles_64bit_run_lengths():
    # decoded lengths far beyond anything materializable
    big = 10**12
    a = RleString.from_pairs([("a", big), ("b", 5), ("c", big)])
    b = RleString.from_pairs([("d", 3), ("a", big), ("b", 5), ("c", 7)])
    ha, hb, _ = make_handles(a, b)
    ans = solve_lcs_rle_p(ha, hb)
    assert ans.d_tilde == big + 12
    assert verify_candidate(ans, ha, hb)
    s = RleString.from_pairs([("a", big), ("b", 2), ("a", big), ("b", 2), ("a", 3)])
    ha, _, _ = make_handles(s, RleString(()))
    ans = solve_lrs(ha)
    assert ans.d_tilde == big + 5


def _loop_forward_match(ha, pos_a, hb, pos_b):
    """The forward extension's oracle: decoded matching from two positions, a run at a time."""
    if pos_a < 1 or pos_b < 1 or pos_a > ha.total or pos_b > hb.total:
        return 0
    ia = ha.inverse_prefix(pos_a)
    ib = hb.inverse_prefix(pos_b)
    total = 0
    while True:
        ca, _ = ha.query_run(ia)
        cb, _ = hb.query_run(ib)
        if ca != cb:
            return total
        rem_a = ha.query_prefix(ia) - pos_a + 1
        rem_b = hb.query_prefix(ib) - pos_b + 1
        step = min(rem_a, rem_b)
        total += step
        pos_a += step
        pos_b += step
        if rem_a <= rem_b:
            ia += 1
            if ia > ha.n:
                return total
        if rem_b <= rem_a:
            ib += 1
            if ib > hb.n:
                return total


def _loop_backward_match(ha, pos_a, hb, pos_b):
    """The backward extension's oracle: decoded matching into two positions, a run at a time."""
    if pos_a < 1 or pos_b < 1 or pos_a > ha.total or pos_b > hb.total:
        return 0
    ia = ha.inverse_prefix(pos_a)
    ib = hb.inverse_prefix(pos_b)
    total = 0
    while True:
        ca, _ = ha.query_run(ia)
        cb, _ = hb.query_run(ib)
        if ca != cb:
            return total
        rem_a = pos_a - ha.query_prefix(ia - 1)
        rem_b = pos_b - hb.query_prefix(ib - 1)
        step = min(rem_a, rem_b)
        total += step
        pos_a -= step
        pos_b -= step
        if pos_a < 1 or pos_b < 1:
            return total
        if rem_a <= rem_b:
            ia -= 1
        if rem_b <= rem_a:
            ib -= 1


def test_token_rank_extension_equals_forward_and_backward_loops():
    # random pairs joined by the separator, one string alone (LRS), 10**12-long
    # runs: from every pair of run ends, across the separator and at both string
    # ends, the token-rank LCPs equal the loops' decoded matches on one handle
    rng = random.Random(167)
    cases = []
    for _ in range(60):
        a, b = (random_rle(rng, rng.randint(1, 12), max_len=4, alphabet=b"abc") for _ in range(2))
        cases += [concat_sep(a, b)[0], a]
    big = 10**12
    a = RleString.from_pairs([("a", big), ("b", 5), ("c", big), ("a", 3)])
    b = RleString.from_pairs([("c", 7), ("a", big), ("b", 5), ("c", big)])
    cases += [concat_sep(a, b)[0], concat_sep(b, a)[0], a]
    matched = collections.Counter()
    for s in cases:
        h = OracleHandle(s, QueryLedger())
        fwd, bwd = _RunTokens(h).tables
        ends, n = s.prefix, s.n
        for x, y in itertools.permutations(range(n + 1), 2):
            forward = fwd.lcp(x + 1, y + 1)
            assert forward == _loop_forward_match(h, ends[x] + 1, h, ends[y] + 1), (s, x, y)
            backward = bwd.lcp(n + 1 - x, n + 1 - y)
            assert backward == _loop_backward_match(h, ends[x], h, ends[y]), (s, x, y)
            assert type(forward) is int and type(backward) is int
            matched.update(forward=forward > 0, backward=backward > 0)
    assert min(matched.values()) > 3000


def test_finalize_rejects_mismatched_ends():
    s, sep = concat_sep(encode(b"aab"), encode(b"ccd"))
    tokens = _RunTokens(OracleHandle(s, QueryLedger()))
    with pytest.raises(InternalInconsistencyError):
        finalize_answer(2, 2, tokens, sep)
    s, sep = concat_sep(encode(b"aab"), encode(b"aab"))
    with pytest.raises(InternalInconsistencyError):  # 1 ends no run of A
        finalize_answer(1, 2, _RunTokens(OracleHandle(s, QueryLedger())), sep)


def test_finalize_lrs_one_run_closed_form():
    # the LRS one-run fallback hit (l - 1, e - 1, e), a run of l chars against
    # itself shifted by one, is l - 1 chars from the run's first two positions
    for data, hit, ans in (
        (b"aaaaa", (4, 4, 5), LcsAnswer(1, 1, 1, 4, 1, 2)),
        (b"abccccd", (3, 5, 6), LcsAnswer(3, 3, 1, 3, 3, 4)),
    ):
        h = OracleHandle(encode(data), QueryLedger())
        tokens = _RunTokens(h)
        assert _small_fallback(tokens.runs, None) == hit
        assert finalize_answer(*hit[1:], tokens, None) == ans
        assert solve_lrs(h) == ans and verify_candidate(ans, h, h)


def test_verify_rejects_unequal_occurrences():
    # each answer verifies on its pair and fails on a pair, or after an edit,
    # that differs in one place: an interior run of the same char but another
    # length, a first or last run of another char, a first clip off by one, a
    # B occurrence over another number of runs, an ell one too large, i_B +
    # ell - 1 past B's last run, and a one-run occurrence longer than B's run
    import dataclasses

    def handles(a, b):
        return OracleHandle(encode(a), QueryLedger()), OracleHandle(encode(b), QueryLedger())

    ans = LcsAnswer(2, 2, 3, 5, 2, 2)  # abbbc
    assert verify_candidate(ans, *handles(b"xabbbcy", b"zabbbcw"))
    for b in (b"zabbccw", b"zdbbbcw", b"zabbbdw"):
        assert not verify_candidate(ans, *handles(b"xabbbcy", b))
    ans, ha_hb = LcsAnswer(1, 1, 3, 7, 2, 1), handles(b"aaabbcccc", b"aabbcccc")  # aabbccc
    assert verify_candidate(ans, *ha_hb)
    for start in (1, 3):
        assert not verify_candidate(dataclasses.replace(ans, decoded_start_A=start), *ha_hb)
    ans = LcsAnswer(2, 1, 2, 4, 2, 1)  # aabb
    assert verify_candidate(ans, *handles(b"xaabby", b"aabbcb"))
    assert not verify_candidate(ans, *handles(b"xaabby", b"aabcb"))
    ans, ha_hb = LcsAnswer(1, 1, 2, 4, 1, 1), handles(b"aabbcx", b"aabbcy")  # aabb
    assert verify_candidate(ans, *ha_hb)
    assert not verify_candidate(dataclasses.replace(ans, ell=3), *ha_hb)
    ans, ha_hb = LcsAnswer(1, 2, 2, 4, 1, 2), handles(b"aabbc", b"xaabbbbb")  # aabb
    assert verify_candidate(ans, *ha_hb)
    assert not verify_candidate(dataclasses.replace(ans, ell=3, d_tilde=5), *ha_hb)
    ans = LcsAnswer(2, 2, 1, 3, 2, 2)  # aaa
    assert verify_candidate(ans, *handles(b"xaaay", b"zaaaw"))
    assert not verify_candidate(ans, *handles(b"xaaay", b"zaaw"))


class _RecordingHandle(OracleHandle):
    """A handle that tallies the runs and prefix entries its reads return."""

    reads = collections.Counter()

    def query_run(self, i):
        self.reads["run"] += 1
        return super().query_run(i)

    def query_runs(self, *bounds):
        runs = super().query_runs(*bounds)
        self.reads["run"] += len(runs)
        return runs

    def query_prefix(self, i):
        self.reads["prefix"] += 1
        return super().query_prefix(i)


def test_ledger_counts_the_handle_reads(monkeypatch):
    # run_queries is the query_run calls plus the runs of every ranged or
    # whole query_runs read, prefix_queries the query_prefix calls
    # (inverse_prefix probes included), for LCS and LRS in every mode and
    # anchor scheme; a cost-only solve reads no run and no prefix entry
    monkeypatch.setattr(rlelcs.walk, "OracleHandle", _RecordingHandle)  # A $ B's handle
    inst = plant_instance(40, 5, 15, 3, verify=False)
    joined, _ = concat_sep(inst.a, inst.b)
    for mode, scheme in itertools.product(WalkMode, AnchorScheme):
        config = SolverConfig(mode=mode, anchors=scheme, seed=1)
        for solve, strings in ((solve_lcs_rle_p, (inst.a, inst.b)), (solve_lrs, (joined,))):
            ledger, reads = QueryLedger(), _RecordingHandle.reads
            reads.clear()
            ans = solve(*(_RecordingHandle(s, ledger) for s in strings), config)
            assert (ledger.run_queries, ledger.prefix_queries) == (reads["run"], reads["prefix"])
            if mode is WalkMode.COSTONLY:
                assert ans is None and not reads and ledger.charged_cost > 0
            else:
                assert ans is not None and reads["run"] > joined.n // 2 and reads["prefix"] > 0


def test_benchmark_tracer_installs_and_restores():
    # the traced benchmark patches names in rlelcs.walk and DynArray's methods
    # in rlelcs.structures; a refactor that drops one of them fails here
    # rather than in the benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    walk = rlelcs.walk
    saved = dict(vars(walk))
    dyn = rlelcs.structures.DynArray
    methods = ("index", "insert", "delete", "locate", "range_min")
    saved_dyn = [vars(dyn)[name] for name in methods]
    a, b = encode(b"aabbbc"), encode(b"dbbbcc")
    with tracer.Tracer().installed(rlelcs) as tr:
        assert walk.grover_search is not saved["grover_search"]
        assert all(vars(dyn)[name] is not fn for name, fn in zip(methods, saved_dyn))
        for mode in (WalkMode.FULLSET, WalkMode.RANDOMWALK):
            ha, hb, _ = make_handles(a, b)
            ans = solve_lcs_rle_p(ha, hb, SolverConfig(mode=mode))
            assert ans.d_tilde == 4
    assert tr.layer_metrics()["walk.vertex_check_calls"] > 0
    assert dict(vars(walk)) == saved
    assert all(vars(dyn)[name] is fn for name, fn in zip(methods, saved_dyn))
