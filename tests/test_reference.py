import random
from dataclasses import astuple

import numpy as np
import pytest

from rlelcs import reference
from rlelcs.reference import (
    ParameterError,
    ResourceLimitError,
    brute_lcs,
    brute_lrs,
    plant_instance,
    random_rle,
)
from rlelcs.rle import RleString, Run, decode, encode


def row_loop_lcs(a, b):
    """Reference brute LCS: one fresh DP row per decoded char of A."""
    da, db = decode(a), decode(b)
    if not da or not db:
        return (0, 0, 0, 0)
    xa = np.frombuffer(da, dtype=np.uint8)
    xb = np.frombuffer(db, dtype=np.uint8)
    prev = np.zeros(len(xb) + 1, dtype=np.int64)
    best_len, best_end_a, best_end_b = 0, 0, 0
    for i in range(1, len(xa) + 1):
        cur = np.zeros(len(xb) + 1, dtype=np.int64)
        match = xb == xa[i - 1]
        cur[1:][match] = prev[:-1][match] + 1
        j = int(np.argmax(cur))
        if cur[j] > best_len:
            best_len, best_end_a, best_end_b = int(cur[j]), i, j
        prev = cur
    if best_len == 0:
        return (0, 0, 0, 0)
    start_a = best_end_a - best_len + 1
    start_b = best_end_b - best_len + 1
    return (best_len, start_a, start_b, encode(da[start_a - 1 : best_end_a]).n)


def shift_loop_lrs(a):
    """Reference brute LRS: the longest equal run at each shift, one shift at a time."""
    data = decode(a)
    n = len(data)
    if n < 2:
        return (0, 0, 0)
    x = np.frombuffer(data, dtype=np.uint8)
    best_len, best_1, best_2 = 0, 0, 0
    for shift in range(1, n):
        eq = x[: n - shift] == x[shift:]
        if not eq.any():
            continue
        starts = np.flatnonzero(np.concatenate(([True], ~eq[:-1])) & eq)
        ends = np.flatnonzero(eq & np.concatenate((~eq[1:], [True])))
        lengths = ends - starts + 1
        j = int(np.argmax(lengths))
        if lengths[j] > best_len:
            best_len = int(lengths[j])
            best_1 = int(ends[j]) - best_len + 2
            best_2 = best_1 + shift
    return (best_len, best_1, best_2)


# bytes 0, 255 and "$" next to the oracles' int16 fill values; random_rle
# refuses "$" (a reserved separator), so random_case draws its own runs
ALPHABETS = ((0, 255, ord("$")), (0, 1), (ord("a"), ord("b")), (97, 98, 99, 100), (36, 255, 0, 7))


def random_case(rng, max_runs):
    alphabet = rng.choice(ALPHABETS)
    runs, prev = [], -1
    for _ in range(rng.randint(1, max_runs)):
        c = rng.choice([c for c in alphabet if c != prev])
        runs.append(Run(c, rng.randint(1, rng.choice((1, 2, 9)))))
        prev = c
    return RleString(tuple(runs))


# many equally long common or repeated substrings, one-char and one-run inputs
TIE_STRINGS = [
    b"a",
    b"\x00",
    b"\xff" * 7,
    b"$" * 40,
    b"ab" * 20,
    b"ba" * 19,
    b"abc" * 9,
    b"aab" * 11,
    b"ab$ab$ba$ba$",
    b"\x00\xff" * 12 + b"\xff\x00" * 12,
    b"xyxxyxxyyx" * 3,
    b"$a$b$a$b$",
]


def test_brute_lcs_worked_example():
    res = brute_lcs(encode(b"abcdbbbbccccc"), encode(b"abcd@bbbbcc"))
    assert res.length == 6
    a = decode(encode(b"abcdbbbbccccc"))
    assert a[res.start_a - 1 : res.start_a - 1 + 6] == b"bbbbcc"
    assert res.encoded_length == 2


def test_brute_lcs_identical_and_disjoint():
    s = encode(b"aabbacc")
    same = brute_lcs(s, s)
    assert same.length == s.total
    assert brute_lcs(encode(b"aaab"), encode(b"cc")).length == 0


def test_brute_lcs_symmetry():
    rng = random.Random(0)
    for _ in range(25):
        a = random_rle(rng, rng.randint(0, 12) or 1)
        b = random_rle(rng, rng.randint(0, 12) or 1)
        assert brute_lcs(a, b).length == brute_lcs(b, a).length


def test_brute_lcs_matches_naive_scan():
    rng = random.Random(1)
    for _ in range(40):
        a = decode(random_rle(rng, rng.randint(1, 6), max_len=4))
        b = decode(random_rle(rng, rng.randint(1, 6), max_len=4))
        naive = 0
        for i in range(len(a)):
            for j in range(i, len(a)):
                if a[i : j + 1] in b:
                    naive = max(naive, j - i + 1)
        assert brute_lcs(encode(a), encode(b)).length == naive


@pytest.mark.parametrize("block", [0, reference._BRUTE_BLOCK], ids=["row-loop", "default"])
def test_brute_lcs_equals_row_loop_random(monkeypatch, block):
    # block 0 sends every pair to the suffix array; the default sends pairs
    # of up to about 250 decoded chars to the one-pass skewed array
    monkeypatch.setattr(reference, "_BRUTE_BLOCK", block)
    rng = random.Random(14)
    for _ in range(1000):
        a, b = random_case(rng, 20), random_case(rng, 20)
        assert astuple(brute_lcs(a, b)) == row_loop_lcs(a, b), (a, b)


def test_brute_lcs_equals_row_loop_on_ties():
    strings = [encode(t) for t in TIE_STRINGS]
    for a in strings:
        for b in strings:
            assert astuple(brute_lcs(a, b)) == row_loop_lcs(a, b), (a, b)


def test_brute_lcs_suffix_array_on_ties_and_periodic_text(monkeypatch):
    # every pair through the suffix array: the tie strings, long unary and
    # periodic pairs, where prefix doubling runs until the block is longer
    # than the shorter side, and text over bytes 0, 255 and "$"
    monkeypatch.setattr(reference, "_BRUTE_BLOCK", 0)
    strings = [encode(t) for t in TIE_STRINGS]
    for a in strings:
        for b in strings:
            assert astuple(brute_lcs(a, b)) == row_loop_lcs(a, b), (a, b)
    pairs = [
        (b"a" * 3000, b"a" * 2000),
        (b"ab" * 1500, b"ba" * 1600),
        (b"\x00\xff$" * 200, b"$\x00\xff" * 150 + b"\x00" * 9),
        (b"\xff" * 300 + b"$" * 5, b"\x00" + b"\xff" * 200 + b"$" * 9),
    ]
    for x, y in pairs:
        a, b = encode(x), encode(y)
        assert astuple(brute_lcs(a, b)) == row_loop_lcs(a, b), (x[:6], y[:6])
        assert astuple(brute_lcs(b, a)) == row_loop_lcs(b, a), (y[:6], x[:6])


def test_brute_lcs_suffix_array_at_benchmark_scale_and_skewed():
    # two planted pairs the size of the benchmark's large LCS workload
    # (about 5 000 decoded chars a side), and a skewed pair both ways
    for seed in (1, 2):
        inst = plant_instance(1024, 32, 128, seed, verify=False)
        assert astuple(brute_lcs(inst.a, inst.b, bound=10**9)) == row_loop_lcs(inst.a, inst.b)
    rng = random.Random(40)
    short = random_rle(rng, 13, max_len=5)
    long = random_rle(rng, 4000, max_len=9)
    assert (short.total, long.total) == (39, 20_061)
    assert astuple(brute_lcs(short, long)) == row_loop_lcs(short, long)
    assert astuple(brute_lcs(long, short)) == row_loop_lcs(long, short)


@pytest.mark.parametrize("nb", [384, 385, 386], ids=["below", "at", "above"])
def test_brute_lcs_equals_row_loop_at_one_pass_cut(nb):
    na = 127  # (na + nb) * (na + 1) == 2^16 at nb = 385
    assert ((na + nb) * (na + 1) <= reference._BRUTE_BLOCK) == (nb <= 385)
    rng = random.Random(nb)
    for _ in range(6):
        alphabet = rng.choice(ALPHABETS)
        a = encode(bytes(rng.choice(alphabet) for _ in range(na)))
        b = encode(bytes(rng.choice(alphabet) for _ in range(nb)))
        assert astuple(brute_lcs(a, b)) == row_loop_lcs(a, b)
        assert astuple(brute_lcs(b, a)) == row_loop_lcs(b, a)


def test_brute_lcs_resource_bound():
    big = encode(bytes([97 + (i % 2) for i in range(4000)]))
    with pytest.raises(ResourceLimitError):
        brute_lcs(big, big, bound=10_000)


def test_brute_lrs_resource_bound(monkeypatch):
    with pytest.raises(ResourceLimitError):
        brute_lrs(encode(bytes([97 + (i % 2) for i in range(4000)])), bound=10_000)
    assert brute_lrs(encode(b"abab"), bound=16).length == 2  # at the bound
    with pytest.raises(ResourceLimitError):
        brute_lrs(encode(b"ababa"), bound=16)

    def no_decode(s):
        raise AssertionError("decoded past the bound")

    monkeypatch.setattr(reference, "decode", no_decode)
    huge = RleString((Run(ord("a"), 10**12),))
    with pytest.raises(ResourceLimitError):
        brute_lrs(huge)
    with pytest.raises(ResourceLimitError):
        brute_lcs(huge, encode(b"a"))


def test_brute_lrs_examples():
    assert brute_lrs(encode(b"abcabc")).length == 3
    res = brute_lrs(encode(b"aaaa"))
    assert res.length == 3
    assert (res.start_1, res.start_2) == (1, 2)
    assert brute_lrs(encode(b"ab")).length == 0


def test_brute_lrs_matches_naive():
    rng = random.Random(2)
    for _ in range(40):
        s = decode(random_rle(rng, rng.randint(1, 7), max_len=3))
        naive = 0
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                l = 0
                while j + l < len(s) and s[i + l] == s[j + l]:
                    l += 1
                naive = max(naive, l)
        assert brute_lrs(encode(s)).length == naive


@pytest.mark.parametrize("block", [0, reference._BRUTE_BLOCK], ids=["one-shift", "default"])
def test_brute_lrs_equals_shift_loop_random(monkeypatch, block):
    # block 0 takes one shift per pass; the default up to 2^16 // (n + 1)
    monkeypatch.setattr(reference, "_BRUTE_BLOCK", block)
    rng = random.Random(15)
    for _ in range(1000):
        a = random_case(rng, 30)
        assert astuple(brute_lrs(a)) == shift_loop_lrs(a), a
    for t in TIE_STRINGS:
        assert astuple(brute_lrs(encode(t))) == shift_loop_lrs(encode(t)), t


def test_brute_lrs_equals_shift_loop_across_blocks():
    rng = random.Random(16)

    def chars(k):
        return bytes(rng.choice(b"ab$\x00\xff") for _ in range(k))

    for case in range(16):
        if case % 2:
            # a repeated motif with a few changed chars: long runs at many shifts
            motif = chars(rng.randint(2, 9))
            text = bytearray(motif * (rng.randint(600, 900) // len(motif)))
            for i in rng.sample(range(len(text)), 4):
                text[i] = rng.choice(b"\x00\xffab")
        else:
            # one copy of a block far ahead: the answer's shift is past the first block
            block = chars(rng.randint(40, 120))
            text = block + chars(rng.randint(500, 700)) + block
        a = encode(bytes(text))
        assert len(text) - 1 > 3 * (reference._BRUTE_BLOCK // (len(text) + 1))  # several blocks
        assert astuple(brute_lrs(a)) == shift_loop_lrs(a)


def test_plant_instance_reconfirmed_by_brute():
    for seed in range(20):
        inst = plant_instance(20, 6, 15, seed)
        assert inst.verified
        assert inst.d_tilde >= 15
        assert brute_lcs(inst.a, inst.b).length == inst.d_tilde


def test_plant_instance_degenerate_and_deterministic():
    inst = plant_instance(6, 6, 6, 3)
    assert inst.d_tilde >= 6
    again = plant_instance(20, 6, 15, 11)
    twice = plant_instance(20, 6, 15, 11)
    assert again.a == twice.a and again.b == twice.b


def test_plant_instance_parameter_errors():
    with pytest.raises(ParameterError):
        plant_instance(5, 6, 3, 0)
    with pytest.raises(ParameterError):
        plant_instance(8, 2, 100, 0)
