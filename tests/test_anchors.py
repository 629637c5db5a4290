import math
import random

import pytest

from rlelcs.anchors import (
    AnchorScheme,
    build_exhaustive,
    build_minimizer,
    anchor_at,
    validate_anchor_set,
)
from rlelcs.reference import plant_instance
from rlelcs.rle import RleString, concat_sep, encode


def test_exhaustive_covers_every_run():
    s = encode(b"aabbccdabc")
    x = build_exhaustive(s)
    assert x.entries == tuple(range(1, s.n + 1))
    assert x.m == s.n
    single = build_exhaustive(encode(b"zzz"))
    assert single.entries == (1,)


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
    x1 = build_minimizer(s, 16, seed=42)
    x2 = build_minimizer(s, 16, seed=42)
    assert x1.entries == x2.entries
    x3 = build_minimizer(s, 16, seed=43)
    assert x1.entries != x3.entries or x1.m == x3.m  # usually differs; never invalid
    with pytest.raises(ValueError):
        build_minimizer(s, 4, seed=0)


def test_minimizer_periodic_alignment():
    # periodic run structure selects positions congruent modulo the period
    s = RleString.from_pairs([("a", 1), ("b", 1)] * 16)
    x = build_minimizer(s, 8, seed=9)
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
    x = build_minimizer(s, d, seed=1)
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
    x = build_minimizer(s, 8, seed=0)
    assert x.entries == (1,)


def test_validate_exhaustive_always_true():
    inst = plant_instance(16, 6, 10, 0)
    s, sep = concat_sep(inst.a, inst.b)
    x = build_exhaustive(s)
    ok, witness = validate_anchor_set(x, s, sep, 6)
    assert ok and witness is None


def test_validate_no_common_block_vacuous():
    s, sep = concat_sep(encode(b"aaab"), encode(b"cdcd"))
    x = build_exhaustive(s)
    ok, _ = validate_anchor_set(x, s, sep, 3)
    assert ok


def test_validate_catches_missing_anchors():
    inst = plant_instance(20, 8, 10, 1)
    s, sep = concat_sep(inst.a, inst.b)
    # anchor set with nothing in the B half can never anchor both sides
    from rlelcs.anchors import AnchorSet

    crippled = AnchorSet(tuple(range(1, sep)), 8, AnchorScheme.EXHAUSTIVE)
    ok, witness = validate_anchor_set(crippled, s, sep, 8)
    assert not ok and witness is not None


def test_validate_minimizer_planted_instances():
    valid = 0
    trials = 30
    for seed in range(trials):
        inst = plant_instance(24, 10, 12, seed)
        s, sep = concat_sep(inst.a, inst.b)
        x = build_minimizer(s, 10, seed=seed)
        ok, _ = validate_anchor_set(x, s, sep, 10)
        valid += ok
    assert valid >= int(0.9 * trials)


def test_minimizer_size_reported():
    # size tracks the window density; reported, not asserted as a bound
    rng = random.Random(17)
    ratios = []
    for seed in range(20):
        s = encode(bytes(rng.choices(b"abcd", k=600)))
        d = rng.choice([8, 16, 32])
        x = build_minimizer(s, d, seed)
        w = math.ceil(d / 2)
        ratios.append(x.m / (s.n / w))
    print(f"minimizer size ratio m/(n/w): min={min(ratios):.2f} max={max(ratios):.2f}")
    assert all(r > 0 for r in ratios)


def test_anchor_set_json_dump():
    s = encode(b"aabbcc")
    x = build_exhaustive(s, 3)
    assert x.as_json() == {"scheme": "exhaustive", "d": 3, "entries": [1, 2, 3]}
