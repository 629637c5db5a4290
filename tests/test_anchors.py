import functools
import hashlib
import math
import random
import struct
from collections import deque

import pytest

from rlelcs.anchors import (
    AnchorScheme,
    AnchorSet,
    SpanOrders,
    build_exhaustive,
    build_minimizer,
    anchor_at,
    hash_spans,
    minimizer_spans,
    run_arrays,
    validate_anchor_set,
)
from rlelcs.qmodel import CostModel
from rlelcs.reference import plant_instance, random_rle
from rlelcs.rle import RleString, concat_sep, encode

D_MIN = CostModel().d_min


def test_exhaustive_covers_every_run():
    s = encode(b"aabbccdabc")
    x = build_exhaustive(s)
    assert x.entries == range(1, s.n + 1)
    assert x.m == s.n
    single = build_exhaustive(encode(b"zzz"))
    assert single.entries == range(1, 2)


def test_anchor_entries_range_skips_the_check_and_invalid_entries_raise():
    # exhaustive entries are one range, taken unchecked; tuples that are not
    # strictly increasing from 1, a range from 0 and an empty set still raise
    for n in (1, 2, 7, 131_072):
        s = RleString.from_pairs([("ab"[i % 2], 1) for i in range(n)])
        entries = build_exhaustive(s).entries
        assert type(entries) is range and entries == range(1, n + 1)
    assert AnchorSet((1, 3, 4), 8, AnchorScheme.MINIMIZER).m == 3
    bad_entries = ((1, 3, 3), (2, 1), (0, 1, 2), (-1,), range(0, 5), range(5, 0, -1))
    for bad in bad_entries + ((), range(1, 1)):
        with pytest.raises(ValueError):
            AnchorSet(bad, 8, AnchorScheme.EXHAUSTIVE)


def test_anchor_at_lookup_and_charge():
    s = encode(b"aabbccddee")
    x = build_exhaustive(s, d=9)
    assert anchor_at(x, 5) == 5
    assert anchor_at(x, x.m) == x.entries[-1]
    with pytest.raises(IndexError):
        anchor_at(x, 0)
    with pytest.raises(IndexError):
        anchor_at(x, x.m + 1)


def test_minimizer_determinism_and_parameter_error():
    s = encode(bytes(random.Random(5).choices(b"abcd", k=200)))
    x1 = build_minimizer(s, 16, seed=42, d_min=D_MIN)
    x2 = build_minimizer(s, 16, seed=42, d_min=D_MIN)
    assert x1.entries == x2.entries
    x3 = build_minimizer(s, 16, seed=43, d_min=D_MIN)
    assert x1.entries != x3.entries or x1.m == x3.m  # usually differs; never invalid
    with pytest.raises(ValueError):
        build_minimizer(s, 4, seed=0, d_min=D_MIN)


def test_minimizer_periodic_alignment():
    # periodic run structure selects positions congruent modulo the period
    s = RleString.from_pairs([("a", 1), ("b", 1)] * 16)
    x = build_minimizer(s, 8, seed=9, d_min=D_MIN)
    residues = {e % 2 for e in x.entries}
    assert len(residues) == 1


def test_minimizer_planted_alignment():
    # the same run block planted in two places selects the same interior offsets
    block = [
        ("a", 3), ("c", 2), ("b", 5), ("a", 1), ("c", 4), ("b", 2),
        ("a", 2), ("c", 1), ("b", 3), ("a", 5), ("c", 3), ("b", 1),
    ]
    left = [("b", 2), ("d", 1), ("b", 3)]
    mid = [("d", 2), ("a", 4), ("d", 3)]
    pairs = left + block + mid + block + [("d", 4)]
    s = RleString.from_pairs(pairs)
    d = 8
    w = math.ceil(d / 2)
    span = min(8, max(1, w // 2))
    x = build_minimizer(s, d, seed=1, d_min=D_MIN)
    first_start = len(left) + 1
    second_start = len(left) + len(block) + len(mid) + 1
    lo_off, hi_off = w - 1, len(block) - w - span + 1

    def interior(start):
        return {e - start for e in x.entries if lo_off <= e - start <= hi_off}

    inside = interior(first_start)
    assert inside == interior(second_start)
    assert inside  # the fully interior window always selects something


def test_minimizer_degenerate_short_string():
    s = encode(b"ab")
    x = build_minimizer(s, 8, seed=0, d_min=D_MIN)
    assert x.entries == (1,)


def test_validate_exhaustive_always_true():
    inst = plant_instance(16, 6, 10, 0)
    s, sep = concat_sep(inst.a, inst.b)
    x = build_exhaustive(s, 6)
    ok, witness = validate_anchor_set(x, s, sep)
    assert ok and witness is None


def test_validate_no_common_block_vacuous():
    s, sep = concat_sep(encode(b"aaab"), encode(b"cdcd"))
    x = build_exhaustive(s, 3)
    ok, _ = validate_anchor_set(x, s, sep)
    assert ok


def test_validate_catches_missing_anchors():
    inst = plant_instance(20, 8, 10, 1)
    s, sep = concat_sep(inst.a, inst.b)
    # anchor set with nothing in the B half can never anchor both sides
    from rlelcs.anchors import AnchorSet

    crippled = AnchorSet(tuple(range(1, sep)), 8, AnchorScheme.EXHAUSTIVE)
    ok, witness = validate_anchor_set(crippled, s, sep)
    assert not ok and witness is not None


def test_validate_minimizer_planted_instances():
    valid = 0
    trials = 30
    for seed in range(trials):
        inst = plant_instance(24, 10, 12, seed)
        s, sep = concat_sep(inst.a, inst.b)
        x = build_minimizer(s, 10, seed=seed, d_min=D_MIN)
        ok, _ = validate_anchor_set(x, s, sep)
        valid += ok
    assert valid >= int(0.9 * trials)


def test_minimizer_shared_span_hashes(monkeypatch):
    # a solve's scales share one SpanOrders: the first build hashes spans 2,
    # 4 and 8 in one pass and the rest hash nothing; the anchor sets do not
    # change, and a span or a seed the orders do not hold raises
    import rlelcs.anchors as anchors

    s = encode(bytes(random.Random(5).choices(b"abcd", k=2000)))
    ds = (8, 16, 32, 64, 128, 256)
    alone = [build_minimizer(s, d, 3, d_min=D_MIN) for d in ds]
    passes, real = [], anchors.hash_spans

    def counted(chars, lens, spans, seed):
        passes.append(sorted(spans))
        return real(chars, lens, spans, seed)

    monkeypatch.setattr(anchors, "hash_spans", counted)
    orders = SpanOrders(functools.partial(run_arrays, s.runs), minimizer_spans(s.n, ds, D_MIN), 3)
    assert orders.spans == {2, 4, 8}
    assert [build_minimizer(s, d, 3, d_min=D_MIN, orders=orders) for d in ds] == alone
    assert passes == [[2, 4, 8]] and sorted(orders.by_span) == [2, 4, 8]
    with pytest.raises(ValueError):
        build_minimizer(s, 8, 4, d_min=D_MIN, orders=orders)
    with pytest.raises(ValueError):
        build_minimizer(s, 8, 3, d_min=D_MIN, orders=SpanOrders(orders.runs, frozenset({4, 8}), 3))
    assert passes == [[2, 4, 8]]


def test_minimizer_spans_are_the_builds_spans():
    # a scale hashes span min(8, ceil(d/2) // 2), at least 1; scales below
    # d_min and scales whose window is longer than the string hash none
    assert minimizer_spans(2000, (8, 16, 32, 64, 2000), D_MIN) == {2, 4, 8}
    assert minimizer_spans(2000, (2, 3, 4, 5, 6, 7), D_MIN) == set()
    assert minimizer_spans(9, (8, 16, 17, 18, 19), D_MIN) == {2, 4}
    assert minimizer_spans(9, (18, 19), 1) == {4}
    assert minimizer_spans(1, (1, 2, 3), 1) == {1}


def _oracle_span_hashes(s, span, seed):
    """Position hashes as ints, one blob per position: the list build_minimizer once read."""
    packed = [struct.pack("<Bq", r.char, r.length) for r in s.runs]
    prefix = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    out = []
    for i in range(len(packed)):
        blob = prefix + b"".join(packed[i : i + span])
        out.append(int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little"))
    return out


def _oracle_minimizer(s, d, seed):
    """Window minima by a monotone deque, ties to the leftmost position."""
    w = math.ceil(d / 2)
    if s.n < w:
        return AnchorSet((1,), d, AnchorScheme.MINIMIZER)
    hashes = _oracle_span_hashes(s, min(8, max(1, w // 2)), seed)
    selected: set[int] = set()
    window: deque[tuple[int, int]] = deque()  # (hash, 0-based position)
    for i, h in enumerate(hashes):
        while window and window[-1][0] > h:
            window.pop()
        window.append((h, i))
        lo = i - w + 1
        while window[0][1] < lo:
            window.popleft()
        if lo >= 0:
            selected.add(window[0][1] + 1)
    return AnchorSet(tuple(sorted(selected)), d, AnchorScheme.MINIMIZER)


def _periodic(rng, p, reps):
    """p runs repeated: equal run tuples hash equal, so window minima tie."""
    runs = [("a", rng.randint(1, 3))]
    for i in range(1, p):
        taboo = {runs[-1][0], "a" if i == p - 1 else ""}
        runs.append((rng.choice([c for c in "abcd" if c not in taboo]), rng.randint(1, 3)))
    return RleString.from_pairs(runs * reps)


def _assert_hashes_match_oracle(s, seed):
    """hash_spans over every span set a solve can hash equals the per-span oracle."""
    chars, lens = run_arrays(s.runs)
    for spans in ({1}, {8}, {4, 8}, {2, 4, 8}, {1, 2, 4, 8}):
        got = hash_spans(chars, lens, spans, seed)
        assert sorted(got) == sorted(spans)
        for span in spans:
            assert got[span].tolist() == _oracle_span_hashes(s, span, seed), (s.n, spans, seed)


def test_hash_spans_match_the_per_span_oracle():
    # one pass over several spans gives each span the oracle's hashes: on
    # random strings, on tails shorter than a span (n = 1 and n < 8), and on
    # the packing's edges: byte 255, lengths up to the solver's decoded
    # bound 2^62 and the seeds 0, -1 and 2^63
    rng = random.Random(23)
    for n in (1, 2, 3, 5, 7, 8, 9, 40, 300):
        s = encode(bytes(rng.choices(b"abc", k=4 * n)))
        s = RleString(s.runs[:n])
        assert s.n == n
        _assert_hashes_match_oracle(s, 7)
    top = 1 << 62
    edge = RleString.from_pairs(
        [(255, top - 1), (0, 1), (255, rng.randrange(top // 2, top)), (254, top - 2), (255, 1)]
    )
    for seed in (0, -1, 1 << 63):
        for k in (1, 3, edge.n):
            _assert_hashes_match_oracle(RleString(edge.runs[:k]), seed)


def test_minimizer_matches_deque_oracle():
    rng = random.Random(23)
    cases = []  # (string, d): ties, clamped spans, n < w, n == w, odd d
    for p in range(2, 9):
        s = _periodic(rng, p, rng.randint(8, 40))
        cases += [(s, d) for d in (8, 9, 13, 16, 31, 64)]
    for n in (1, 4, 5, 6, 12, 13, 40):
        s = encode(bytes(rng.choices(b"abcd", k=3 * n)))
        cases += [(s, d) for d in (8, 9, 2 * s.n - 1, 2 * s.n, 2 * s.n + 1, 2 * s.n + 2) if d >= 8]
    for seed in range(4):
        inst = plant_instance(150, 40, 60, seed)
        cases += [(concat_sep(inst.a, inst.b)[0], d) for d in (8, 11, 17, 25, 33)]
    for k, (s, d) in enumerate(cases):
        assert build_minimizer(s, d, k, d_min=D_MIN) == _oracle_minimizer(s, d, k), (s.n, d)
    # one SpanOrders across a solve's scales, every span shared with odd d
    for s in (_periodic(rng, 7, 300), random_rle(rng, 2000, max_len=5)):
        ds = [2**k for k in range(3, 10)] + [9, 17, 33, 65, 129, 257, 511]
        orders = SpanOrders(functools.partial(run_arrays, s.runs), minimizer_spans(s.n, ds, D_MIN), 11)
        for d in ds:
            got = build_minimizer(s, d, 11, d_min=D_MIN, orders=orders)
            assert got == _oracle_minimizer(s, d, 11)
        assert sorted(orders.by_span) == [2, 4, 8]


def test_minimizer_size_reported():
    # size tracks the window density; reported, not asserted as a bound
    rng = random.Random(17)
    ratios = []
    for seed in range(20):
        s = encode(bytes(rng.choices(b"abcd", k=600)))
        d = rng.choice([8, 16, 32])
        x = build_minimizer(s, d, seed, d_min=D_MIN)
        w = math.ceil(d / 2)
        ratios.append(x.m / (s.n / w))
    print(f"minimizer size ratio m/(n/w): min={min(ratios):.2f} max={max(ratios):.2f}")
    assert all(r > 0 for r in ratios)
