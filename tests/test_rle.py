import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlelcs.qmodel import OracleHandle, QueryLedger
from rlelcs.reference import random_rle
from rlelcs.rle import (
    ParseError,
    RleString,
    Run,
    concat_sep,
    decode,
    encode,
    format_rle,
    ldcp_runs,
    lex_compare_runs,
    parse_rle,
)


def rle(*pairs):
    return RleString.from_pairs(pairs)


def test_encode_worked_example():
    s = encode(b"aaabcccdd")
    assert s.runs == (Run(ord("a"), 3), Run(ord("b"), 1), Run(ord("c"), 3), Run(ord("d"), 2))
    assert s.n == 4
    assert s.total == 9


def test_encode_empty_and_incompressible():
    assert encode(b"").runs == ()
    assert encode(b"abc").runs == (Run(ord("a"), 1), Run(ord("b"), 1), Run(ord("c"), 1))


def test_decode_examples():
    assert decode(rle(("a", 3), ("b", 1), ("c", 3), ("d", 2))) == b"aaabcccdd"
    assert decode(RleString(())) == b""
    assert decode(rle(("x", 5))) == b"xxxxx"


@given(st.binary(max_size=200))
def test_roundtrip(data):
    assert decode(encode(data)) == data


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 12)),
        max_size=30,
    )
)
def test_encode_decode_canonical(pairs):
    # squash adjacent duplicates to build a valid run list, then roundtrip
    runs = []
    for c, l in pairs:
        if runs and runs[-1][0] == c:
            runs[-1] = (c, runs[-1][1] + l)
        else:
            runs.append((c, l))
    s = RleString.from_pairs(runs)
    assert encode(decode(s)) == s


def test_invariants_rejected():
    with pytest.raises(ValueError):
        RleString((Run(97, 0),))
    with pytest.raises(ValueError):
        RleString((Run(97, 2), Run(97, 3)))
    with pytest.raises(ValueError):
        RleString((Run(300, 1),))


def test_prefix_table_examples():
    assert rle(("a", 3), ("b", 1), ("c", 3), ("d", 2)).prefix == (0, 3, 4, 7, 9)
    assert RleString(()).prefix == (0,)
    assert rle(("x", 5)).prefix == (0, 5)
    big = 2**61 - 1
    s = rle(("a", big), ("b", 2**61), ("a", big))
    assert s.prefix == (0, big, big + 2**61, 2 * big + 2**61) and s.prefix[-1] == s.total


def test_inverse_prefix_examples():
    h = OracleHandle(rle(("a", 3), ("b", 1), ("c", 3), ("d", 2)), QueryLedger())
    assert h.inverse_prefix(5) == 3
    assert h.inverse_prefix(3) == 1
    assert OracleHandle(rle(("x", 5)), QueryLedger()).inverse_prefix(1) == 1
    with pytest.raises(IndexError):
        h.inverse_prefix(0)
    with pytest.raises(IndexError):
        h.inverse_prefix(10)


def test_inverse_prefix_is_inverse():
    s = rle(("a", 4), ("b", 2), ("a", 7))
    h = OracleHandle(s, QueryLedger())
    for i in range(1, s.n + 1):
        assert h.inverse_prefix(s.prefix[i]) == i


def test_ldcp_examples():
    s = rle(("a", 3), ("b", 2))
    t = rle(("a", 3), ("b", 1), ("c", 1))
    assert ldcp_runs(s, t) == 4
    assert ldcp_runs(s, s) == s.total
    assert ldcp_runs(rle(("a", 1)), rle(("b", 1))) == 0


def test_lex_compare_examples():
    s = rle(("a", 3), ("b", 2))
    t = rle(("a", 3), ("b", 1), ("c", 1))
    assert lex_compare_runs(s, t) == -1
    assert lex_compare_runs(s, s) == 0
    assert lex_compare_runs(rle(("a", 1)), rle(("a", 2))) == -1


def _random_rle_strategy(max_runs=8, alphabet=3, max_len=5):
    pair = st.tuples(st.integers(97, 97 + alphabet - 1), st.integers(1, max_len))
    return st.lists(pair, max_size=max_runs).map(
        lambda pairs: encode(b"".join(bytes([c]) * l for c, l in pairs))
    )


@given(_random_rle_strategy(), _random_rle_strategy())
def test_ldcp_matches_decoded_oracle(s, t):
    ds, dt = decode(s), decode(t)
    expected = 0
    for a, b in zip(ds, dt):
        if a != b:
            break
        expected += 1
    assert ldcp_runs(s, t) == expected


@given(_random_rle_strategy(), _random_rle_strategy())
def test_lex_matches_decoded_oracle(s, t):
    ds, dt = decode(s), decode(t)
    expected = 0 if ds == dt else (-1 if ds < dt else 1)
    assert lex_compare_runs(s, t) == expected


@given(_random_rle_strategy(), _random_rle_strategy())
def test_lex_consistent_with_ldcp(s, t):
    order = lex_compare_runs(s, t)
    common = ldcp_runs(s, t)
    ds, dt = decode(s), decode(t)
    if order == -1 and common < len(ds) and common < len(dt):
        assert ds[common] < dt[common]
    if order == 0:
        assert ds == dt


@given(st.lists(_random_rle_strategy(), min_size=2, max_size=6))
def test_sorted_ldcp_law(strings):
    import functools

    strings.sort(key=functools.cmp_to_key(lex_compare_runs))
    adjacent = [ldcp_runs(strings[i], strings[i + 1]) for i in range(len(strings) - 1)]
    assert ldcp_runs(strings[0], strings[-1]) == min(adjacent)


def test_concat_sep():
    s, sep_idx = concat_sep(rle(("a", 2)), rle(("b", 3)))
    assert s.runs == (Run(97, 2), Run(ord("$"), 1), Run(98, 3))
    assert sep_idx == 2
    s, sep_idx = concat_sep(RleString(()), rle(("b", 3)))
    assert s.runs == (Run(ord("$"), 1), Run(98, 3))
    assert sep_idx == 1
    s, _ = concat_sep(rle(("a", 2)), rle(("a", 2)))
    assert s.n == 3  # no merge across the separator


def test_concat_sep_equals_checked_construction():
    # the joined string skips the run checks: it equals RleString(runs) built
    # the checked way, total and prefix sums included, on random pairs (empty
    # sides too) and on run lengths near 2**61; the separator takes both byte
    # extremes: 0 when an input uses "$", 255 when the inputs use every other byte
    rng = random.Random(11)
    big = 1 << 61
    cases = [
        (random_rle(rng, rng.randint(0, 12)), random_rle(rng, rng.randint(0, 12)))
        for _ in range(200)
    ]
    cases += [
        (rle(("a", big - 3), ("b", big - 5)), rle(("b", big - 7))),
        (rle(("a", big)), RleString(())),
        (RleString(()), rle(("c", big - 1), ("a", 2))),
    ]
    # no input ends in "$" or byte 254, so appending a pad keeps its runs maximal
    pads = (((), ord("$")), ((ord("$"),), 0), (tuple(range(254, -1, -1)), 255))
    for a, b in cases:
        for pad, sep in pads:
            padded = RleString(a.runs + tuple(Run(c, 1) for c in pad))
            joined, sep_idx = concat_sep(padded, b)
            checked = RleString(padded.runs + (Run(sep, 1),) + b.runs)
            assert joined == checked and sep_idx == padded.n + 1
            assert joined.total == checked.total == padded.total + 1 + b.total
            assert joined.prefix == checked.prefix and hash(joined) == hash(checked)


def test_text_format_roundtrip():
    s = rle(("a", 3), ("b", 1), ("c", 3), ("d", 2))
    assert format_rle(s) == "a:3,b:1,c:3,d:2"
    assert parse_rle("a:3,b:1,c:3,d:2") == s
    assert parse_rle("") == RleString(())
    weird = RleString((Run(0, 2), Run(255, 1)))
    assert parse_rle(format_rle(weird)) == weird


def test_text_format_errors():
    # escapes take exactly two hex digits and counts only ASCII decimal
    # digits: int() would also take a sign, spaces, _ and other digits, and
    # refuses more than its digit limit
    escapes = ["\\x+f:3", "\\x f:2", "\\xf :2", "\\x-0:1"]
    counts = ["a:1_0", "a:+3", "a: 3", "a:\u0663", "a:1_0,b:+2", "a:" + "9" * 5000]
    for bad in ["a3", "a:0", "ab:2", "a:x", "a:2,a:3", "\\xzz:1"] + escapes + counts:
        with pytest.raises(ParseError):
            parse_rle(bad)


def test_random_rle_refuses_an_alphabet_too_small_before_drawing():
    # one symbol cannot make two adjacent runs, and no symbol makes any run
    for alphabet, n_runs in (((97,), 2), ((97, 97), 5), ((), 1)):
        rng = random.Random(3)
        with pytest.raises(ValueError, match="symbols"):
            random_rle(rng, n_runs, alphabet=alphabet)
        assert rng.random() == random.Random(3).random()
    assert random_rle(random.Random(3), 1, alphabet=(97,)).n == 1
    assert random_rle(random.Random(3), 0, alphabet=()).n == 0
