import functools
import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

import rlelcs
from rlelcs.anchors import AnchorScheme, AnchorSet, build_exhaustive
from rlelcs.qmodel import CostModel, OracleHandle, QueryLedger, WalkMode, make_handles
from rlelcs.reference import brute_lcs, brute_lrs, plant_instance, random_rle
from rlelcs.rle import (
    RleString,
    concat_sep,
    decode,
    encode,
    ldcp_runs,
    lex_compare_runs,
    prefix_table,
)
from rlelcs.walk import (
    _PAIR_BATCH,
    _RunTokens,
    _boundary_map,
    _double_run_best,
    _d_values,
    _floor_log2,
    _rmq_vec,
    _sparse_tables,
    Candidate,
    CollisionIndex,
    Color,
    InternalInconsistencyError,
    LcsAnswer,
    SolverConfig,
    WalkVertex,
    best_certificate,
    color_of,
    check_charge,
    finalize_answer,
    inner_search,
    make_context,
    prefix_window,
    setup_charge,
    solve_lcs_rle_p,
    solve_lrs,
    suffix_window,
    update_charge,
    verify_candidate,
    walk_charge,
)

MODEL = CostModel()


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


def _index_orders(ctx):
    """Forward and backward (pos, h) of the context's anchors, as the full-set index builds them."""
    xs = np.array(ctx.anchors.entries, dtype=np.int64)
    fwd, bwd = ctx.tokens.tables
    width = 2 * ctx.d + 1
    return fwd.window_order(xs, width), bwd.window_order(ctx.handle.n + 1 - xs, width)


def _random_context(rng, lrs, n_runs, d, subset):
    """Context over a random string (small alphabet, short runs, so windows often tie)."""
    alphabet = tuple(b"abc")
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
            xs = ctx.anchors.entries
            for (pos, h), win in zip(_index_orders(ctx), (ctx.fwd_win, ctx.bwd_win)):
                assert (pos.tolist(), h.tolist()) == _comparator_order([win(x) for x in xs])


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
    (fwd_pos, h_f), (bwd_pos, h_b) = _index_orders(ctx)
    xs = np.array(ctx.anchors.entries, dtype=np.int64)
    return xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index


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
    best, witness = best_certificate(*args)
    assert best > 0
    assert (best, witness) == _per_anchor_best_certificate(*args)
    # batch boundaries inside and between flagged anchors, LCS and LRS, subsets
    rng = random.Random(62)
    for batch in (7, 1):
        monkeypatch.setattr(rlelcs.walk, "_PAIR_BATCH", batch)
        for trial in range(24):
            n_runs, d = rng.randint(1, 12), rng.choice([1, 2, 3, 4])
            ctx = _random_context(rng, trial % 2 == 1, n_runs, d, trial % 3 == 0)
            args = _kernel_args(ctx)
            assert best_certificate(*args) == _per_anchor_best_certificate(*args)


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


def test_finalize_rejects_mismatched_ends():
    ha, hb, _ = make_handles(encode(b"aab"), encode(b"ccd"))
    with pytest.raises(InternalInconsistencyError):
        finalize_answer(2, 2, ha, hb)


def test_benchmark_tracer_installs_and_restores():
    # the traced benchmark patches names in rlelcs.walk and rlelcs.structures;
    # a refactor that drops one of them fails here rather than in the benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    walk = rlelcs.walk
    saved = dict(vars(walk))
    a, b = encode(b"aabbbc"), encode(b"dbbbcc")
    with tracer.Tracer().installed(rlelcs) as tr:
        assert walk.grover_search is not saved["grover_search"]
        for mode in (WalkMode.FULLSET, WalkMode.RANDOMWALK):
            ha, hb, _ = make_handles(a, b)
            ans = solve_lcs_rle_p(ha, hb, SolverConfig(mode=mode))
            assert ans.d_tilde == 4
    assert tr.counts["ldcp_calls"] > 0
    assert tr.layer_metrics()["walk.vertex_check_calls"] > 0
    assert dict(vars(walk)) == saved
