import functools
import importlib.util
import itertools
import math
import random
import time
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
    RleString,
    concat_sep,
    decode,
    encode,
    ldcp_runs,
    lex_compare_runs,
    prefix_table,
)
from rlelcs.structures import DynArray
from rlelcs.walk import (
    _PAIR_BATCH,
    WALK_RUN_BOUND,
    _RunTokens,
    _TokenRanks,
    _boundary_map,
    _candidate,
    _double_run_best,
    _d_values,
    _dense_ranks,
    _floor_log2,
    _pair_table,
    _rmq_vec,
    _row_bounds,
    _score_rows,
    _separator,
    _sides,
    _sparse_tables,
    _witness_run,
    Candidate,
    CollisionIndex,
    Color,
    InternalInconsistencyError,
    LcsAnswer,
    NoSeparatorError,
    SolverConfig,
    WalkSizeError,
    WalkVertex,
    best_certificate,
    color_of,
    check_charge,
    finalize_answer,
    inner_search,
    make_context,
    setup_charge,
    solve_lcs_rle_p,
    solve_lrs,
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
    return make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, d), d, sep, MODEL)


def _full_vertex(ctx):
    v = WalkVertex(ctx)
    for k in range(1, ctx.anchors.m + 1):
        v.insert(k)
    return v


def test_window_worked_examples():
    s = RleString.from_pairs(
        [("a", 2), ("b", 3), ("c", 1), ("$", 1), ("d", 1), ("b", 3), ("c", 2)]
    )
    x = build_exhaustive(s, 2)
    assert decode(prefix_window(s, x, 2, 2)) == b"bbbc$dbbb"
    assert decode(suffix_window(s, x, 2, 2)) == b"bbbaa"  # backward text, reversed
    assert decode(suffix_window(s, x, 1, 5)) == b"aa"  # left clamp: first run only


def test_window_decoded_oracle_random():
    rng = random.Random(0)
    for _ in range(30):
        a = random_rle(rng, rng.randint(1, 10))
        b = random_rle(rng, rng.randint(1, 10))
        s, _ = concat_sep(a, b)
        d = rng.randint(1, 6)
        x = build_exhaustive(s, d)
        full = decode(s)
        pt = prefix_table(s)
        for k in range(1, x.m + 1):
            lo = pt.clamped(k - 1)
            hi = pt.clamped(k + 2 * d)
            assert decode(prefix_window(s, x, k, d)) == full[lo:hi]
            lo_b = pt.clamped(k - 2 * d - 1)
            assert decode(suffix_window(s, x, k, d)) == full[lo_b : pt[k]][::-1]


def test_color_assignment():
    assert color_of(3, 4) is Color.RED
    assert color_of(4, 4) is Color.WHITE
    assert color_of(5, 4) is Color.BLUE
    assert color_of(7, None) is Color.RED  # single-string mode


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
        return decode(prefix_window(s, x, k, ctx.d))

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


def _vertex_state(v):
    return (
        v.by_key.serialize(),
        v.fwd_order.serialize(),
        v.fwd_lcp.serialize(),
        v.bwd_order.serialize(),
        v.bwd_lcp.serialize(),
    )


def test_vertex_insert_delete_restores_representation():
    ctx = _context(b"aabbbc", b"dbbbcc", 2)
    v = _full_vertex(ctx)
    before = _vertex_state(v)
    v.delete(4)
    v.insert(4)
    assert _vertex_state(v) == before
    v.delete(7)
    assert _vertex_state(v) != before
    v.insert(7)
    assert _vertex_state(v) == before


def test_vertex_delete_from_singleton():
    ctx = _context(b"ab", b"ba", 2)
    v = WalkVertex(ctx)
    v.insert(2)
    v.delete(2)
    assert len(v.by_key) == 0
    assert len(v.fwd_order) == 0


def test_vertex_random_ops_match_rebuild_oracle():
    rng = random.Random(5)
    ctx = _context(b"abbacccbbaabcab", b"bbaccabbbcaa", 3)
    m = ctx.anchors.m
    v = WalkVertex(ctx)
    stored = set()
    for step in range(300):
        if not stored or (len(stored) < m and rng.random() < 0.55):
            k = rng.choice([k for k in range(1, m + 1) if k not in stored])
            v.insert(k)
            stored.add(k)
        else:
            k = rng.choice(sorted(stored))
            v.delete(k)
            stored.discard(k)
        if step % 50 == 49:
            rebuilt = WalkVertex(ctx)
            for k in sorted(stored):
                rebuilt.insert(k)
            assert _vertex_state(v) == _vertex_state(rebuilt)


def test_vertex_coherence_after_random_ops():
    # adjacent stored agreement values always equal the decoded oracle, and
    # interval range-min equals the endpoint pair's agreement
    rng = random.Random(11)
    ctx = _context(b"aabbacbbacccab", b"bbacbbacaab", 3)
    s, x = ctx.handle.string, ctx.anchors
    m = x.m
    v = WalkVertex(ctx)
    stored = set()
    for step in range(200):
        if not stored or (len(stored) < m and rng.random() < 0.6):
            k = rng.choice([k for k in range(1, m + 1) if k not in stored])
            v.insert(k)
            stored.add(k)
        else:
            k = rng.choice(sorted(stored))
            v.delete(k)
            stored.discard(k)
        if len(stored) < 2 or step % 10 != 9:
            continue
        for order, lcp, win in (
            (v.fwd_order, v.fwd_lcp, lambda k: prefix_window(s, x, k, ctx.d)),
            (v.bwd_order, v.bwd_lcp, lambda k: suffix_window(s, x, k, ctx.d)),
        ):
            keys = [k for k, _ in order.items()]
            hvals = [h for _, h in lcp.items()]
            for i in range(len(keys) - 1):
                assert hvals[i] == ldcp_runs(win(keys[i]), win(keys[i + 1]))
            a = rng.randint(1, len(keys))
            b = rng.randint(a, len(keys))
            if a < b:
                assert lcp.range_min(a, b - 1) == ldcp_runs(win(keys[a - 1]), win(keys[b - 1]))


def test_vertex_check_worked_example():
    ctx = _context(b"aabbbc", b"dbbbcc", 2)
    v = _full_vertex(ctx)
    cand = v.check(4)
    assert cand == Candidate(2, 6, 0, 3, 4, True, 2, 6)
    assert v.check(5) is None  # longer than any common decoded substring


def test_vertex_check_disjoint_alphabets():
    ctx = _context(b"aa", b"bb", 2)
    v = _full_vertex(ctx)
    assert v.check(1) is None


def _brute_shift_certs(ctx, k_a, k_b):
    """Length flagged anchor k_a and partner k_b certify at each shift 0..2d, from decoded windows."""
    s, x, d = ctx.handle.string, ctx.anchors, ctx.d
    pt = prefix_table(s)
    x_a = x.entries[k_a - 1]
    rho = pt[x_a] - pt[x_a - 1]
    p = ldcp_runs(prefix_window(s, x, k_a, d), prefix_window(s, x, k_b, d))
    q = ldcp_runs(suffix_window(s, x, k_a, d), suffix_window(s, x, k_b, d))
    certs = []
    for shift in range(2 * d + 1):
        big_l = pt[x_a] - pt.clamped(x_a - shift - 1)
        certs.append(p + big_l - rho if big_l <= q else 0)
    return certs


def _brute_best(ctx, stored):
    best = 0
    for k_a in stored:
        c_a = ctx.color(ctx.anchors.entries[k_a - 1])
        for k_b in stored:
            c_b = ctx.color(ctx.anchors.entries[k_b - 1])
            if k_a == k_b or Color.WHITE in (c_a, c_b) or (not ctx.lrs and c_a is c_b):
                continue
            best = max(best, *_brute_shift_certs(ctx, k_a, k_b))
    return best


def _assert_witness(ctx, cand, d_tilde):
    entries = ctx.anchors.entries
    assert (entries[cand.k_red - 1], entries[cand.k_blue - 1]) == (cand.x_red, cand.x_blue)
    if not ctx.lrs:
        assert cand.x_red < ctx.sep_index < cand.x_blue
    flagged, partner = (cand.k_red, cand.k_blue) if cand.flag_red else (cand.k_blue, cand.k_red)
    x_a = entries[flagged - 1]
    pt = prefix_table(ctx.handle.string)
    assert cand.d_tilde == d_tilde
    assert cand.L == pt[x_a] - pt.clamped(x_a - cand.d_prime - 1)
    assert _brute_shift_certs(ctx, flagged, partner)[cand.d_prime] >= d_tilde


def _check_certificates_against_brute(ctx, rng, steps):
    """Full-set index and walk-vertex check on random stored subsets vs the brute oracle."""
    m = ctx.anchors.m
    everyone = list(range(1, m + 1))
    idx = CollisionIndex(ctx)
    assert idx.best == _brute_best(ctx, everyone)
    if idx.best:
        _assert_witness(ctx, idx.query(idx.best), idx.best)
    assert idx.query(idx.best + 1) is None
    v = WalkVertex(ctx)
    stored = set()
    for _ in range(steps):
        if not stored or (len(stored) < m and rng.random() < 0.6):
            k = rng.choice([k for k in everyone if k not in stored])
            v.insert(k)
            stored.add(k)
        else:
            k = rng.choice(sorted(stored))
            v.delete(k)
            stored.discard(k)
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
        ctx = make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, d), d, sep, MODEL)
        _check_certificates_against_brute(ctx, rng, 25)


def test_certificate_matches_brute_oracle_lrs():
    rng = random.Random(33)
    for _ in range(10):
        a = random_rle(rng, rng.randint(2, 12), max_len=4)
        d = rng.choice([1, 2, 4, 8])
        ctx = make_context(OracleHandle(a, QueryLedger()), build_exhaustive(a, d), d, None, MODEL)
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
    return make_context(OracleHandle(s, QueryLedger()), anchors, d, sep, MODEL)


def test_window_order_matches_comparator_oracle():
    # d not a power of two, 2d >= n (every window clamped), windows clamped
    # at both ends, LCS and LRS, full and random anchor subsets
    rng = random.Random(51)
    for trial in range(48):
        lrs, subset = trial % 2 == 1, trial % 4 >= 2
        n_runs = rng.randint(1, 16)
        for d in (1, 2, 3, 5, 6, 8, 2 * n_runs + 1):
            ctx = _random_context(rng, lrs, n_runs, d, subset)
            s, x = ctx.handle.string, ctx.anchors
            for (pos, h), win in zip(ctx.window_order[1:], (prefix_window, suffix_window)):
                wins = [win(s, x, k, d) for k in range(1, x.m + 1)]
                assert (pos.tolist(), h.tolist()) == _comparator_order(wins)


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
    # n of 1..3; period-1..8 text, whose block ranks never become distinct;
    # random text, distinct after a few levels; LCS pairs joined at the
    # separator; each forward and reversed
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
    distinct_early = 0
    for s in strings:
        chars, lens = _run_arrays(s)
        for c, ln in ((chars, lens), (chars[::-1], lens[::-1])):
            levels, end = _two_key_token_ranks(c, ln)
            ranks = _TokenRanks(c, ln)
            assert len(ranks.levels) == len(levels)
            for got, want in zip(ranks.levels, levels):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(ranks.end, end)
            # a level of n distinct ranks is appended again, not re-sorted
            sorted_levels = len({id(level) for level in ranks.levels})
            distinct_early += sorted_levels < len(levels)
    assert distinct_early >= 16


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
                best_args = (a, int(partners[j]), int(v[j]))
    return best, best_args


def _kernel_args(ctx):
    xs, (fwd_pos, h_f), (bwd_pos, h_b) = ctx.window_order
    return xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index


def _spy(monkeypatch, name):
    """Record the arguments of every call to a rlelcs.walk function."""
    calls, fn = [], getattr(rlelcs.walk, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(rlelcs.walk, name, wrapper)
    return calls


def test_best_certificate_batches_match_per_anchor_loop(monkeypatch):
    # one LCS context with more admissible pairs than one batch holds; a
    # periodic text makes many pairs tie, so the first-maximum rule decides
    motif = [("a", 2), ("b", 1), ("c", 3), ("b", 2)]
    a = RleString.from_pairs(motif * 17 + [("a", 1)])
    b = RleString.from_pairs([("c", 1)] + motif * 16 + [("a", 2), ("b", 1), ("c", 2)])
    s, sep = concat_sep(a, b)
    ctx = make_context(OracleHandle(s, QueryLedger()), build_exhaustive(s, 5), 5, sep, MODEL)
    assert 2 * a.n * b.n > _PAIR_BATCH
    args = _kernel_args(ctx)
    bounds, blocks = _spy(monkeypatch, "_row_bounds"), _spy(monkeypatch, "_row_agreements")
    best, witness = best_certificate(*args)
    assert best > 0
    assert (best, witness) == _per_anchor_best_certificate(*args)
    assert len(bounds) == 1 and max(len(call[2]) for call in blocks) > 1
    # batch boundaries inside and between flagged anchors, LCS and LRS, subsets
    rng = random.Random(62)
    for batch in (7, 1):
        monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", batch)
        del bounds[:], blocks[:]
        for trial in range(24):
            n_runs, d = rng.randint(1, 12), rng.choice([1, 2, 3, 4])
            ctx = _random_context(rng, trial % 2 == 1, n_runs, d, trial % 3 == 0)
            args = _kernel_args(ctx)
            assert best_certificate(*args) == _per_anchor_best_certificate(*args)
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
    return make_context(OracleHandle(s, QueryLedger()), anchors, d, sep, MODEL)


def _white_between_partners(ctx, pos):
    """Whether the white anchor sits between a red and a blue anchor in a decoded order."""
    xs = np.array(ctx.anchors.entries)
    at = np.empty(len(xs), dtype=np.int64)
    at[pos] = np.arange(len(xs))
    colours = [ctx.color(int(x)) for x in xs[at]]
    return any(
        colours[r] is Color.WHITE and {colours[r - 1], colours[r + 1]} == {Color.RED, Color.BLUE}
        for r in range(1, len(colours) - 1)
    )


def test_best_certificate_row_bounds_match_per_anchor_loop(monkeypatch):
    # bounds forced on small anchor sets (one row per pass): LCS and LRS,
    # random and periodic texts, full sets and subsets, d from 1 to past 2n;
    # "!" sorts before the separator "$" and "a" after it, so the white
    # anchor can sit between a red and a blue anchor in a decoded order
    monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", 1)
    blocks = _spy(monkeypatch, "_row_agreements")
    rng = random.Random(83)
    seen = {"white between partners": 0, "witness row bound at LB": 0, "rows skipped": 0}
    for trial in range(240):
        lrs, subset, periodic = trial % 2 == 1, trial % 3 == 0, trial % 4 >= 2
        d = rng.choice([1, 2, 3, 4, 5, 8, 16, 81])
        alphabet = b"!ab" if trial % 8 < 4 else b"abc"
        if periodic:
            ctx = _periodic_context(rng, lrs, d, subset, alphabet)
        else:
            ctx = _random_context(rng, lrs, rng.randint(1, 20), d, subset, alphabet)
        args = _kernel_args(ctx)
        del blocks[:]
        got = best_certificate(*args)
        want = _per_anchor_best_certificate(*args)
        assert got == want, (trial, ctx.handle.string, d)
        xs, fwd_pos, _, bwd_pos = args[:4]
        if not lrs:
            seen["white between partners"] += any(
                _white_between_partners(ctx, pos) for pos in (fwd_pos, bwd_pos)
            )
        if want[1] is None:
            continue
        side = None if lrs else np.where(xs < ctx.sep_index, 0, np.where(xs > ctx.sep_index, 1, 2))
        flagged = np.arange(len(xs)) if lrs else np.flatnonzero(side < 2)
        upper, lower = _row_bounds(*args[:7], side, flagged)
        assert lower <= want[0] <= upper[want[1][0]]
        seen["witness row bound at LB"] += int(upper[want[1][0]]) == lower
        seen["rows skipped"] += len(blocks) < len(flagged)
    assert all(seen.values()), seen


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
    best, args = best_certificate(xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index)
    if args is None:
        return best, None
    a, b, v = args
    return best, (stored[a], stored[b], v)


def _kernel_check(vertex, d_tilde):
    best, witness = _kernel_best(vertex)
    if d_tilde < 1 or best < d_tilde:
        return None
    return _candidate(vertex.ctx, *witness, d_tilde)


def _minimizer_context(rng, lrs):
    """Context with minimizer anchors over a planted pair, or over its first string."""
    d = rng.choice([8, 16])
    inst = plant_instance(rng.randint(d, 3 * d), d, d, rng.randrange(1000), verify=False)
    s, sep = (inst.a, None) if lrs else concat_sep(inst.a, inst.b)
    anchors = build_minimizer(s, d, rng.randrange(1000), d_min=MODEL.d_min)
    return make_context(OracleHandle(s, QueryLedger()), anchors, d, sep, MODEL)


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
    # kernel's (best, witness) and Candidate on every stored subset; LCS with
    # "!" so the white anchor can sit between partners, LRS, periodic motifs,
    # minimizer anchors, and batches small enough for the kernel's row bounds
    tables = _spy(monkeypatch, "_pair_table")
    rng = random.Random(97)
    contexts = nonzero = 0
    for trial in range(96):
        monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", 7 if trial % 5 == 0 else _PAIR_BATCH)
        ctx = _kind_context(rng, trial)
        m = ctx.anchors.m
        v = WalkVertex(ctx)
        stored = set()
        for _ in range(30):
            if not stored or (len(stored) < m and rng.random() < 0.6):
                k = rng.choice([k for k in range(1, m + 1) if k not in stored])
                v.insert(k)
                stored.add(k)
            else:
                k = rng.choice(sorted(stored))
                v.delete(k)
                stored.discard(k)
            want = _kernel_best(v)
            assert v.best() == want, (trial, sorted(stored))
            nonzero += want[0] > 0
            for d_tilde in {0, 1, want[0], want[0] + 1, rng.randint(1, want[0] + 1)}:
                assert v.check(d_tilde) == _kernel_check(v, d_tilde)
        contexts += m > 1
        # built once per context, on the first check with two anchors stored
        assert len(tables) == contexts
    assert nonzero > 100


def test_vertex_marked_count_matches_brute_count():
    # the context kinds above, vertices at random thresholds, random inserts
    # and deletes: after every step the count equals the stored pairs whose
    # certificate, with either anchor flagged, reaches the threshold, and
    # checks around the threshold and the best agree with the kernel
    rng = random.Random(113)
    marked = skipped = 0
    for trial in range(64):
        ctx = _kind_context(rng, trial)
        m = ctx.anchors.m
        cert = _pair_table(*_kernel_args(ctx)).tolist()
        top = max(1, max(map(max, cert)))
        threshold = rng.choice([1, top, top + 1, rng.randint(1, top)])
        v = WalkVertex(ctx, threshold)
        stored = set()
        for _ in range(30):
            if not stored or (len(stored) < m and rng.random() < 0.6):
                k = rng.choice([k for k in range(1, m + 1) if k not in stored])
                v.insert(k)
                stored.add(k)
            else:
                k = rng.choice(sorted(stored))
                v.delete(k)
                stored.discard(k)
            want = sum(
                max(cert[a - 1][b - 1], cert[b - 1][a - 1]) >= threshold
                for a, b in itertools.combinations(stored, 2)
            )
            assert v.marked_pairs == want, (trial, threshold, sorted(stored))
            marked += want > 0
            best = _kernel_best(v)
            skipped += want == 0 and len(stored) > 1 and best[0] > 0
            assert v.best() == best
            for d_tilde in {threshold - 1, threshold, threshold + 1, best[0] + 1}:
                assert v.check(d_tilde) == _kernel_check(v, d_tilde)
    # both sides of the count: marked pairs, and unmarked ones it skips
    assert marked > 300 and skipped > 100


def test_walk_check_runs_best_only_on_its_hit(monkeypatch):
    # in walk-mode LCS and LRS solves each walk search's vertex runs best() at
    # most once, on the check that returns its candidate: the marked-pair
    # count answers every other check; the pair table is built at most once
    # per scale
    checks, searches = [], []
    best, check = WalkVertex.best, WalkVertex.check

    def spy_best(vertex):
        checks[-1][0] += 1
        return best(vertex)

    def spy_check(vertex, d_tilde):
        checks.append([0, None])
        out = check(vertex, d_tilde)
        checks[-1][1] = out is not None
        return out

    def spy_walk_search(*args, **kwargs):
        start = len(checks)
        out = walk_search(*args, **kwargs)
        searches.append(checks[start:])
        return out

    monkeypatch.setattr(WalkVertex, "best", spy_best)
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
        assert 1 <= len(tables) <= len(_d_values(joined.n, MODEL.d_min))
    for search in searches:
        assert sum(runs for runs, _ in search) <= 1
        assert all(runs == hit for runs, hit in search)
    hits = sum(hit for search in searches for _, hit in search)
    assert hits > 4 and len(checks) > 100 * hits


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


def _oracle_agreement(ranked, k1, k2):
    """Decoded agreement of anchors k1 != k2: the minimum of h between their ranks."""
    rank, rows = ranked
    lo, hi = sorted((rank[k1 - 1], rank[k2 - 1]))
    level = (hi - lo).bit_length() - 1
    return min(rows[level][lo], rows[level][hi - (1 << level)])


def _order_insert(order, lcp, ranked, k, x):
    ranks = ranked[0]
    t = len(order)
    lo, hi = 1, t + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ranks[k - 1] < ranks[order.index(mid)[0] - 1]:
            hi = mid
        else:
            lo = mid + 1
    p = lo
    order.insert(p, k, x)
    if t == 0:
        return
    if 1 < p <= t:
        lcp.delete(p - 1)
    if p > 1:
        left = order.index(p - 1)[0]
        lcp.insert(p - 1, left, _oracle_agreement(ranked, left, k))
    if p <= t:
        right = order.index(p + 1)[0]
        lcp.insert(p, k, _oracle_agreement(ranked, k, right))


def _order_delete(order, lcp, ranked, k):
    p = order.locate(k)
    t = len(order)
    left = order.index(p - 1)[0] if p > 1 else None
    right = order.index(p + 1)[0] if p < t else None
    if p < t:
        lcp.delete(p)
    if p > 1:
        lcp.delete(p - 1)
    order.delete(p)
    if left is not None and right is not None:
        lcp.insert(p - 1, left, _oracle_agreement(ranked, left, right))


class _DynArrayVertex:
    """The rank-keyed vertex kept in five DynArrays updated in place: the
    oracle for WalkVertex's views, which it builds when read."""

    VIEWS = ("by_key", "fwd_order", "fwd_lcp", "bwd_order", "bwd_lcp")

    def __init__(self, ctx):
        self.ctx = ctx
        _, *orders = ctx.window_order
        self.fwd, self.bwd = ((pos.tolist(), _sparse_tables(h).tolist()) for pos, h in orders)
        for name in self.VIEWS:
            setattr(self, name, DynArray())

    def insert(self, k):
        x = self.ctx.anchors.entries[k - 1]
        lo, hi = 1, len(self.by_key) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.by_key.index(mid)[0] > k:
                hi = mid
            else:
                lo = mid + 1
        self.by_key.insert(lo, k, x)
        _order_insert(self.fwd_order, self.fwd_lcp, self.fwd, k, x)
        _order_insert(self.bwd_order, self.bwd_lcp, self.bwd, k, x)

    def delete(self, k):
        pos = self.by_key.locate(k)
        _order_delete(self.fwd_order, self.fwd_lcp, self.fwd, k)
        _order_delete(self.bwd_order, self.bwd_lcp, self.bwd, k)
        self.by_key.delete(pos)


def _views(v):
    views = {name: getattr(v, name) for name in _DynArrayVertex.VIEWS}
    return {name: (view.items(), view.serialize()) for name, view in views.items()}


def test_vertex_views_match_dynarray_oracle():
    # random insert/delete sequences on LCS, LRS, periodic motifs and
    # minimizer anchor sets: after every step each view of the vertex holds
    # the contents and serialized form of the in-place oracle
    rng = random.Random(83)
    steps = 0
    for trial in range(48):
        ctx = _kind_context(rng, trial)
        m = ctx.anchors.m
        v, oracle = WalkVertex(ctx), _DynArrayVertex(ctx)
        stored = set()
        for _ in range(40):
            if not stored or (len(stored) < m and rng.random() < 0.6):
                k = rng.choice([k for k in range(1, m + 1) if k not in stored])
                v.insert(k)
                oracle.insert(k)
                stored.add(k)
            else:
                k = rng.choice(sorted(stored))
                v.delete(k)
                oracle.delete(k)
                stored.discard(k)
            assert _views(v) == _views(oracle), (trial, sorted(stored))
            steps += len(stored) > 2
    assert steps > 500


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
    # walk-mode LCS and LRS solves build pair tables but no range-minimum rows
    tables = _spy(monkeypatch, "_sparse_tables")
    pairs = _spy(monkeypatch, "_pair_table")
    inst = plant_instance(12, 4, 12, 5)
    ha, hb, _ = make_handles(inst.a, inst.b)
    assert solve_lcs_rle_p(ha, hb, SolverConfig(mode=WalkMode.RANDOMWALK)) is not None
    ha, _, _ = make_handles(inst.a, encode(b""))
    solve_lrs(ha, SolverConfig(mode=WalkMode.RANDOMWALK))
    assert pairs and tables == []


def _arrays(value):
    """The numpy arrays in a value, through nested tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in _arrays(item)]
    return []


def test_walk_mode_scale_caches_one_pair_table(monkeypatch):
    # every context of walk-mode LCS and LRS solves holds one m x m int64
    # array, its pair table, and no other array of m * m entries or more
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
    assert contexts
    for ctx in contexts:
        m = ctx.anchors.m
        large = [a for value in vars(ctx).values() for a in _arrays(value) if a.size >= m * m]
        assert m > 1 and len(large) == 1 and large[0] is ctx.pair_table
        assert large[0].shape == (m, m) and large[0].dtype == np.int64


def test_witness_run_matches_score_rows():
    # the context kinds of the marked-count test: for every admissible pair,
    # the witness run derived from that pair alone is _score_rows' v
    rng = random.Random(127)
    pairs = 0
    for trial in range(64):
        ctx = _kind_context(rng, trial)
        xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, sep = _kernel_args(ctx)
        side = _sides(xs, sep)
        rows = np.arange(len(xs))
        _, v = _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, rows)
        for a, b in itertools.permutations(range(len(xs)), 2):
            if side is None or side[a] + side[b] == 1:
                assert _witness_run(ctx, a, b) == v[a, b], (trial, a, b)
                pairs += 1
    assert pairs > 2000


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


def _loop_double_run_best(bmap_a, bmap_b, distinct):
    """_double_run_best as a pair-by-pair loop: the reference for its numpy blocks."""
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


def test_double_run_best_matches_loop(monkeypatch):
    # LCS (two maps) and LRS (one map, no self-pairs); blocks of whole and partial rows
    rng = random.Random(71)
    for batch in (_PAIR_BATCH, 5, 1):
        monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", batch)
        for _ in range(30):
            a = random_rle(rng, rng.randint(1, 40), alphabet=tuple(b"abc"), max_len=4)
            b = random_rle(rng, rng.randint(1, 40), alphabet=tuple(b"abc"), max_len=4)
            map_a = _boundary_map(a, prefix_table(a).values)
            map_b = _boundary_map(b, prefix_table(b).values)
            for maps, distinct in (((map_a, map_b), False), ((map_a, map_a), True)):
                got = _double_run_best(*maps, distinct)
                want = _loop_double_run_best(*maps, distinct)
                assert (got and (got.value, got.end_a, got.end_b)) == want


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
        CollisionIndex(make_context(hs, build_exhaustive(s, d), d, sep, MODEL, tokens))
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
        ctx = make_context(hs, build_exhaustive(s, d), d, sep, MODEL, tokens)
        v = WalkVertex(ctx)
        stored = set()
        for _ in range(60):
            if not stored or (len(stored) < ctx.anchors.m and rng.random() < 0.6):
                k = rng.choice([k for k in range(1, ctx.anchors.m + 1) if k not in stored])
                v.insert(k)
                stored.add(k)
            else:
                k = rng.choice(sorted(stored))
                v.delete(k)
                stored.discard(k)
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
        ctx = make_context(hs, build_exhaustive(s, d), d, sep, MODEL)
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
        ctx = make_context(hs, build_exhaustive(s, d), d, sep, MODEL)
        idx = CollisionIndex(ctx)
        assert idx.best >= inst.d_tilde


def test_white_anchor_never_in_candidates():
    rng = random.Random(14)
    for trial in range(30):
        a = random_rle(rng, rng.randint(1, 10))
        b = random_rle(rng, rng.randint(1, 10))
        s, sep = concat_sep(a, b)
        hs = OracleHandle(s, QueryLedger())
        ctx = make_context(hs, build_exhaustive(s, 4), 4, sep, MODEL)
        idx = CollisionIndex(ctx)
        cand = idx.query(1)
        if cand is not None:
            assert cand.x_red != sep and cand.x_blue != sep
            assert cand.x_red < sep < cand.x_blue


def test_inner_search_planted_hit_and_miss():
    inst = plant_instance(24, 6, 18, 3)
    s, sep = concat_sep(inst.a, inst.b)
    ledger = QueryLedger()
    hs = OracleHandle(s, ledger)
    x = build_exhaustive(s, 8)
    ctx = make_context(hs, x, 8, sep, MODEL)
    r = max(1, math.ceil(x.m ** (2 / 3)))
    cand = inner_search(ctx, inst.d_tilde, r, mode=WalkMode.FULLSET, ledger=ledger)
    assert cand is not None
    miss = inner_search(ctx, inst.d_tilde + 50, r, mode=WalkMode.FULLSET, ledger=ledger)
    assert miss is None


def test_inner_search_charge_identity():
    # the ledger delta matches the walk formula instantiation exactly
    inst = plant_instance(20, 5, 12, 4)
    s, sep = concat_sep(inst.a, inst.b)
    deltas = {}
    for mode in (WalkMode.COSTONLY, WalkMode.FULLSET, WalkMode.RANDOMWALK):
        ledger = QueryLedger()
        hs = OracleHandle(s, ledger)
        x = build_exhaustive(s, 8)
        ctx = make_context(hs, x, 8, sep, MODEL)
        m = x.m
        r = max(1, min(m, math.ceil(m ** (2 / 3))))
        before = ledger.charged_cost
        inner_search(ctx, 5, r, mode=mode, ledger=ledger)
        delta = ledger.charged_cost - before
        deltas[mode] = delta
        if mode is not WalkMode.FULLSET:
            # the walk declares the cost-only triple, so both charge walk_charge
            assert delta == walk_charge(MODEL, 8, r, m, (r / m) ** 2)
        else:
            expected = setup_charge(MODEL, 8, m) + (m / r) * check_charge(MODEL, 8, m)
            assert delta == pytest.approx(expected)
    assert deltas[WalkMode.RANDOMWALK] == deltas[WalkMode.COSTONLY]


def test_inner_search_randomwalk_mode():
    inst = plant_instance(12, 5, 15, 7)
    s, sep = concat_sep(inst.a, inst.b)
    ledger = QueryLedger()
    hs = OracleHandle(s, ledger)
    x = build_exhaustive(s, 8)
    ctx = make_context(hs, x, 8, sep, MODEL)
    # full-size subset makes the random walk deterministic for the hit case
    cand = inner_search(
        ctx, inst.d_tilde, x.m, mode=WalkMode.RANDOMWALK, ledger=ledger, rng=random.Random(0)
    )
    assert cand is not None
    miss = inner_search(
        ctx, inst.d_tilde + 99, max(1, x.m // 2), mode=WalkMode.RANDOMWALK,
        ledger=ledger, rng=random.Random(0),
    )
    assert miss is None


def _scale_contexts(s, sep):
    """Exhaustive-anchor contexts of s at every scale of _d_values(n, 1), largest first."""
    hs = OracleHandle(s, QueryLedger())
    tokens = _RunTokens(hs)
    return [
        make_context(hs, build_exhaustive(s, d), d, sep, MODEL, tokens) for d in _d_values(s.n, 1)
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
        cases += [concat_sep(a, b, _separator(a, b)), (a, None)]
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
        bests = [best_certificate(*_kernel_args(ctx))[0] for ctx in contexts]
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
    tokens = _RunTokens(hs)
    scales = [make_context(hs, build_exhaustive(s, d), d, sep, MODEL, tokens) for d in (16, 8)]
    wide, narrow = scales
    m, cache = s.n, {}

    def search(ctx, d_tilde, index_cache):
        ledger, mode = QueryLedger(), WalkMode.FULLSET
        cand = inner_search(ctx, d_tilde, m, mode=mode, ledger=ledger, index_cache=index_cache)
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


def test_scale_ceiling_anchor_overrides():
    # per-scale anchor overrides: scales whose entries equal a larger scale's
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
            config = SolverConfig(anchor_sets=sets, seed=seed, use_fallback=seed % 2 == 0)
            got, want = _with_and_without_ceiling(a, b, config)
            assert got[:2] == want[:2], seed
            if entries is same:
                assert got[2] == 1, seed
                shared += want[2] > 1
            else:
                assert got[2] == want[2], seed
                differing += got[2] > 1
    assert shared > 3 and differing > 3


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
        ctx = make_context(hs, build_exhaustive(s, 8), 8, sep, MODEL)
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
    assert _separator(encode(b"ab"), encode(b"a@#")) == ord("$")
    assert _separator(encode(b"a$\x00"), encode(b"\x01b")) == 2
    with pytest.raises(NoSeparatorError):
        _separator(encode(bytes(range(256))), encode(b""))
    ha, hb, _ = make_handles(encode(bytes(range(0, 256, 2))), encode(bytes(range(1, 256, 2))))
    with pytest.raises(NoSeparatorError):
        solve_lcs_rle_p(ha, hb)


def test_solve_hashes_each_minimizer_span_once(monkeypatch):
    import rlelcs.anchors as anchors

    inst = plant_instance(300, 40, 120, 9)
    spans, real = [], anchors._span_hashes

    def counted(s, span, seed):
        spans.append(span)
        return real(s, span, seed)

    monkeypatch.setattr(anchors, "_span_hashes", counted)
    ha, hb, _ = make_handles(inst.a, inst.b)
    ans = solve_lcs_rle_p(ha, hb, SolverConfig(anchors=AnchorScheme.MINIMIZER))
    assert ans.d_tilde == brute_lcs(inst.a, inst.b).length
    assert len(spans) == len(set(spans)) and 8 in spans


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


def test_floor_log2_matches_bit_length():
    ns = list(range(1, 4097))
    ns += [(1 << k) + e for k in range(1, 41) for e in (-1, 0, 1)]
    got = _floor_log2(np.array(ns, dtype=np.int64))
    assert got.tolist() == [n.bit_length() - 1 for n in ns]


def test_rmq_vec_matches_slice_minimum():
    rng = np.random.default_rng(7)
    for n in range(1, 41):
        h = rng.integers(0, 9, size=n)
        lo, hi = np.triu_indices(n)
        want = [int(h[i : j + 1].min()) for i, j in zip(lo, hi)]
        assert _rmq_vec(_sparse_tables(h), lo, hi).tolist() == want


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


def test_soundness_decoupling_crippled_anchors():
    # an invalid anchor set may miss answers but never inflates them, even
    # with the small-run fallback disabled
    rng = random.Random(6)
    for seed in range(40):
        a = random_rle(rng, rng.randint(4, 30))
        b = random_rle(rng, rng.randint(4, 30))
        s, sep = concat_sep(a, b)
        keep = sorted(random.Random(seed).sample(range(1, s.n + 1), max(1, s.n // 3)))
        sets = {
            d: AnchorSet(tuple(keep), d, AnchorScheme.EXHAUSTIVE)
            for d in (8, 16, 32, 64, 128)
        }
        ha, hb, _ = make_handles(a, b)
        cfg = SolverConfig(use_fallback=False, anchor_sets=sets, seed=seed)
        ans = solve_lcs_rle_p(ha, hb, cfg)
        got = ans.d_tilde if ans else 0
        assert got <= brute_lcs(a, b).length
        if ans is not None:
            assert verify_candidate(ans, ha, hb)


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


def test_candidate_shift_always_in_range():
    # produced shifts stay in [0, 2d] and inside the backward clamp
    rng = random.Random(41)
    for _ in range(50):
        a = random_rle(rng, rng.randint(1, 16))
        b = random_rle(rng, rng.randint(1, 16))
        d = rng.choice([2, 4, 8])
        s, sep = concat_sep(a, b)
        hs = OracleHandle(s, QueryLedger())
        ctx = make_context(hs, build_exhaustive(s, d), d, sep, MODEL)
        idx = CollisionIndex(ctx)
        cand = idx.query(1)
        if cand is None:
            continue
        flagged_x = cand.x_red if cand.flag_red else cand.x_blue
        assert 0 <= cand.d_prime <= 2 * d
        assert cand.d_prime <= flagged_x - 1
        assert cand.L >= 1


def _loop_forward_match(ha, pos_a, hb, pos_b):
    """The forward matcher as its own loop: the oracle for _match(..., 1)."""
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
    """The backward matcher as its own loop: the oracle for _match(..., -1)."""
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


def test_match_equals_forward_and_backward_loops():
    # random handle pairs, one shared handle (LRS), 10**12-long runs: from
    # positions off both ends, at run boundaries and inside runs, the merged
    # matcher returns each loop's length with the same run and prefix queries
    rng = random.Random(167)
    cases = []
    for _ in range(60):
        a, b = (random_rle(rng, rng.randint(1, 12), max_len=4, alphabet=b"abc") for _ in range(2))
        cases += [(a, b), (a, None)]
    big = 10**12
    a = RleString.from_pairs([("a", big), ("b", 5), ("c", big), ("a", 3)])
    b = RleString.from_pairs([("c", 7), ("a", big), ("b", 5), ("c", big)])
    cases += [(a, b), (b, a), (a, None)]
    matched = 0
    for a, b in cases:
        ha, hb, _ = make_handles(a, a if b is None else b)
        hb = ha if b is None else hb
        spots_a, spots_b = (
            {0, h.total + 1}
            | {end + k for end in h.prefix.values for k in (0, 1)}
            | {rng.randint(1, h.total) for _ in range(4)}
            for h in (ha, hb)
        )
        for pos_a, pos_b in itertools.product(sorted(spots_a), sorted(spots_b)):
            for step, loop in ((1, _loop_forward_match), (-1, _loop_backward_match)):
                got, want = QueryLedger(), QueryLedger()
                ha.ledger = hb.ledger = got
                length = rlelcs.walk._match(ha, pos_a, hb, pos_b, step)
                ha.ledger = hb.ledger = want
                assert length == loop(ha, pos_a, hb, pos_b), (a, b, pos_a, pos_b, step)
                assert got.as_dict() == want.as_dict(), (a, b, pos_a, pos_b, step)
                matched += length > 0
    assert matched > 3000


def test_finalize_rejects_mismatched_ends():
    ha, hb, _ = make_handles(encode(b"aab"), encode(b"ccd"))
    with pytest.raises(InternalInconsistencyError):
        finalize_answer(2, 2, ha, hb)


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
