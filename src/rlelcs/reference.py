"""Brute-force ground-truth oracles and instance generators.

The only module allowed to materialize decoded strings.  The oracles are
exact scans over decoded bytes, simple enough to serve as trustworthy
expectations for everything else, and they share no code with the solver;
each one's tie rule is part of its result.  A common or repeated substring
is a run of True in an equality array, which numpy takes in blocks of at
most _BRUTE_BLOCK = 2^16 cells, so the numpy calls scale with blocks, not
with decoded rows or shifts.  The exception is brute_lcs past its one-pass
cut, which ranks the decoded suffixes of A and B together instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .anchors import AnchorSet, anchor_at
from .rle import RESERVED_SEPARATORS, RleString, Run, decode


class ResourceLimitError(RuntimeError):
    """Decoded size exceeds the desk-scale bound for brute oracles."""


DESK_BOUND = 10_000_000


@dataclass(frozen=True)
class BruteLcs:
    length: int
    start_a: int  # 1-based decoded start, 0 when length == 0
    start_b: int
    encoded_length: int


@dataclass(frozen=True)
class BruteLrs:
    length: int
    start_1: int
    start_2: int


# cells of one numpy pass over an oracle's equality array (at least one row)
_BRUTE_BLOCK = 1 << 16
# int16 fill values no byte takes: _LEFT heads each row of an equality
# array, _PAD stands past the ends of the other string
_LEFT, _PAD = -1, -2


def _windows(x: np.ndarray, w: int) -> np.ndarray:
    """Read-only view of x's len(x) - w + 1 windows of length w, one per row:
    sliding_window_view's result for a 1-D array, without its argument checks."""
    step = x.strides[0]
    return np.lib.stride_tricks.as_strided(
        x, shape=(len(x) - w + 1, w), strides=(step, step), writeable=False
    )


def _runs(eq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the runs of True in eq, flattened in row-major order.

    The first and last cells of eq must be False.
    """
    step = np.diff(eq.view(np.int8).ravel())
    starts = np.flatnonzero(step > 0)
    return starts + 1, np.flatnonzero(step < 0) - starts


def _suffix_array_lcs(xa: np.ndarray, xb: np.ndarray) -> tuple[int, int, int]:
    """(length, 1-based end in A, 1-based end in B) of brute_lcs's answer, from
    the suffix array of A . 256 . B; (0, 0, 0) when no char is common."""
    na, nb = len(xa), len(xb)
    n = na + 1 + nb
    # levels[t][i]: dense rank of the 2^t chars from i, 0 past the end
    rank = np.zeros(n + 1, dtype=np.int32)
    rank[:n] = np.concatenate((xa, [256], xb)) + 1
    levels = [rank]
    width, k = max(n, 257) + 1, 1
    while True:
        after = np.zeros(n, dtype=np.int64)
        after[: max(n - k, 0)] = rank[k:n]
        key = np.multiply(rank[:n], width, dtype=np.int64) + after
        order = np.argsort(key)
        sorted_key = key[order]
        rank = np.zeros(n + 1, dtype=np.int32)
        rank[order] = np.cumsum(np.concatenate(([1], sorted_key[1:] != sorted_key[:-1])))
        levels.append(rank)
        k *= 2
        if rank[order[-1]] == n or k > min(na, nb):
            break
    # adjacent LCPs by binary lifting: exact below 2k, and no A/B pair
    # shares more than min(na, nb) < k chars
    p, q = order[:-1], order[1:]
    lcp = np.zeros(n - 1, dtype=np.int64)
    for t in range(len(levels) - 1, -1, -1):
        level = levels[t]
        lcp[level[np.minimum(p + lcp, n)] == level[np.minimum(q + lcp, n)]] += 1 << t
    in_a, in_b = order < na, order > na
    best = int(lcp[(in_a[:-1] & in_b[1:]) | (in_b[:-1] & in_a[1:])].max(initial=0))
    if best == 0:
        return 0, 0, 0
    block = np.concatenate(([0], np.cumsum(lcp < best)))
    both = np.bincount(block[in_a], minlength=block[-1] + 1) > 0
    both &= np.bincount(block[in_b], minlength=block[-1] + 1) > 0
    start_a = int(order[in_a & both[block]].min())
    own = block == block[np.flatnonzero(order == start_a)[0]]
    start_b = int(order[in_b & own].min()) - na - 1
    return best, start_a + best, start_b + best


def brute_lcs(a: RleString, b: RleString, *, bound: int = DESK_BOUND) -> BruteLcs:
    """Exact decoded LCS over decoded bytes.

    The answer is the longest common substring, ties broken by least end in
    A, then least end in B.  When the skewed (|A|+|B|) x (|A|+1) equality
    array fits in one block of _BRUTE_BLOCK cells (the one-pass cut), one
    numpy pass builds it: row r is A against B's diagonal of offset
    r - |A| + 1, padded where that runs off B (the last row is all
    padding), column 0 is a False separator, and each common substring is
    one run of True.

    Longer inputs take the suffix array of the ints A . 256 . B (Manber and
    Myers 1993).  Code 256 sits above every byte and occurs once, so no
    common prefix of two suffixes crosses it, and rank 0 pads past the end.
    Prefix doubling ranks the blocks of 2^t chars from every position with
    one argsort a level; dense ranks ignore tie order, so a plain argsort
    serves.  It stops once all ranks differ or the block is longer than the
    shorter side, which bounds every common substring.  Binary lifting over
    the kept levels gives the LCP of each adjacent pair of the final order,
    and the length L is the largest LCP of an adjacent A/B pair.  Suffixes
    that share their first L chars sit in one block of the order whose
    adjacent LCPs are all at least L, so the A starts of an L-long common
    substring are the A suffixes of the blocks that also hold a B suffix.
    With L fixed, least end means least start: the least such A start, then
    the least B start in its block, follows the same tie rule.  Time and
    memory are O((|A|+|B|) log min(|A|, |B|)), times the sorts' log factor
    in time.  Very skewed pairs pay for that: where a row DP over the
    shorter side would take min(|A|, |B|) passes over the longer one, this
    takes about log min(|A|, |B|) sorts of all |A|+|B| chars, so a
    10 x 10^6-char pair runs about 1.7 times as long as such a DP.
    """
    if a.total * b.total > bound:
        raise ResourceLimitError(f"decoded product {a.total * b.total} exceeds bound {bound}")
    da, db = decode(a), decode(b)
    if not da or not db:
        return BruteLcs(0, 0, 0, 0)
    xa = np.frombuffer(da, dtype=np.uint8)
    xb = np.frombuffer(db, dtype=np.uint8)
    na, nb = len(xa), len(xb)
    if (na + nb) * (na + 1) <= _BRUTE_BLOCK:
        left = np.concatenate(([_LEFT], xa)).astype(np.int16)
        right = np.full(2 * na + nb, _PAD, dtype=np.int16)
        right[na : na + nb] = xb
        starts, lengths = _runs(_windows(right, na + 1) == left)
        if not lengths.size:
            return BruteLcs(0, 0, 0, 0)
        best_len = int(lengths.max())
        row, col = np.divmod(starts[lengths == best_len] + best_len - 1, na + 1)
        ends_b = col + row - na + 1
        k = int(np.argmin(col * (nb + 1) + ends_b))
        best_end_a, best_end_b = int(col[k]), int(ends_b[k])
    else:
        best_len, best_end_a, best_end_b = _suffix_array_lcs(xa, xb)
        if best_len == 0:
            return BruteLcs(0, 0, 0, 0)
    start_a = best_end_a - best_len + 1
    start_b = best_end_b - best_len + 1
    sub = xa[start_a - 1 : best_end_a]  # its runs: one more than its char changes
    return BruteLcs(best_len, start_a, start_b, 1 + int(np.count_nonzero(sub[1:] != sub[:-1])))


def brute_lrs(a: RleString, *, bound: int = DESK_BOUND) -> BruteLrs:
    """Exact longest repeated substring (occurrences may overlap).

    Compares the string with itself at every shift 1 .. n-1; the answer is
    the longest run of positional equality, ties broken by least shift, then
    least start.  One numpy pass takes a block of _BRUTE_BLOCK // (n+1)
    shifts (at least one), in increasing order: the row of shift s is the
    string against a sliding window of itself s ahead, padded past the end,
    with a False separator in column 0, and the first longest run in
    row-major order is the block's answer.  The scan stops at the first
    shift whose overlap is no longer than the best run.  Working memory is
    O(n) plus at most max(_BRUTE_BLOCK, n+1) cells.
    """
    if a.total * a.total > bound:
        raise ResourceLimitError(f"decoded square {a.total ** 2} exceeds bound {bound}")
    data = decode(a)
    n = len(data)
    if n < 2:
        return BruteLrs(0, 0, 0)
    x = np.frombuffer(data, dtype=np.uint8)
    left = np.concatenate(([_LEFT], x)).astype(np.int16)
    right = np.full(2 * n - 1, _PAD, dtype=np.int16)
    right[:n] = x
    # window w of right, against left, compares x[i] with x[i + w + 1]
    windows = _windows(right, n + 1)
    rows = max(1, _BRUTE_BLOCK // (n + 1))
    best_len, best_1, best_2 = 0, 0, 0
    for w0 in range(0, n - 1, rows):
        if best_len >= n - 1 - w0:
            break  # no run at shift w0 + 1 or beyond can be longer
        starts, lengths = _runs(windows[w0 : w0 + rows] == left)
        if lengths.size:
            j = int(lengths.argmax())
            if lengths[j] > best_len:
                best_len = int(lengths[j])
                row, best_1 = divmod(int(starts[j]), n + 1)
                best_2 = best_1 + w0 + row + 1
    return BruteLrs(best_len, best_1, best_2)


def prefix_window(s: RleString, anchors: AnchorSet, k: int) -> RleString:
    """Runs from anchor k forward, 2d runs past it at the set's scale d, clamped at the end."""
    x = anchor_at(anchors, k)
    hi = min(s.n, x + 2 * anchors.d)
    return RleString(s.runs[x - 1 : hi])


def suffix_window(s: RleString, anchors: AnchorSet, k: int) -> RleString:
    """Runs from 2d before anchor k up to it at the set's scale d, reversed, clamped at 1."""
    x = anchor_at(anchors, k)
    lo = max(1, x - 2 * anchors.d)
    return RleString(tuple(reversed(s.runs[lo - 1 : x])))


DEFAULT_ALPHABET = (ord("a"), ord("b"), ord("c"), ord("d"))


def random_rle(
    rng: random.Random,
    n_runs: int,
    *,
    alphabet: tuple[int, ...] = DEFAULT_ALPHABET,
    max_len: int = 9,
) -> RleString:
    """Random RLE string drawn run by run (adjacent chars kept distinct)."""
    if any(c in RESERVED_SEPARATORS for c in alphabet):
        raise ValueError("alphabet may not contain reserved separators")
    if len(set(alphabet)) < min(n_runs, 2):  # adjacent runs need distinct chars
        raise ValueError(f"{n_runs} runs need 2 symbols (1 for one run), got {len(set(alphabet))}")
    runs: list[Run] = []
    prev = -1
    for _ in range(n_runs):
        choices = [c for c in alphabet if c != prev]
        c = rng.choice(choices)
        runs.append(Run(c, rng.randint(1, max_len)))
        prev = c
    return RleString(tuple(runs))


@dataclass(frozen=True)
class PlantedInstance:
    a: RleString
    b: RleString
    d_tilde: int  # decoded LCS length (verified when verify=True)
    encoded_length: int
    verified: bool


class ParameterError(ValueError):
    """Infeasible generator parameters."""


def plant_instance(
    n_runs: int,
    d_runs: int,
    d_tilde: int,
    seed: int,
    *,
    alphabet: tuple[int, ...] = DEFAULT_ALPHABET,
    max_len: int = 9,
    verify: bool = True,
    bound: int = DESK_BOUND,
) -> PlantedInstance:
    """Two random strings sharing a planted block of d_runs runs.

    The block's decoded length is at least d_tilde (run-length cap
    permitting); the junction chars next to the block differ between the
    two strings, so the planted occurrences cannot extend.  With
    verify=True the ground truth is re-derived with the brute oracle
    (mandatory before the truth is used in any assertion); at benchmark
    scale callers pass verify=False and use the constructed values.
    """
    if d_runs > n_runs:
        raise ParameterError("d_runs cannot exceed n_runs")
    if d_runs < 1 or n_runs < 1:
        raise ParameterError("n_runs and d_runs must be positive")
    if d_tilde > d_runs * max_len:
        raise ParameterError("d_tilde unreachable with this run-length cap")
    if len(alphabet) < 3:
        raise ParameterError("need at least 3 symbols to isolate the plant")
    rng = random.Random(seed)

    lengths = [rng.randint(1, max_len) for _ in range(d_runs)]
    deficit = d_tilde - sum(lengths)
    while deficit > 0:
        i = rng.randrange(d_runs)
        bump = min(max_len - lengths[i], deficit)
        lengths[i] += bump
        deficit -= bump
    block: list[Run] = []
    prev = -1
    for length in lengths:
        c = rng.choice([c for c in alphabet if c != prev])
        block.append(Run(c, length))
        prev = c

    # distinct junction chars on each side stop both-sided extension
    junctions = {}
    left_pair = rng.sample([c for c in alphabet if c != block[0].char], 2)
    right_pair = rng.sample([c for c in alphabet if c != block[-1].char], 2)
    junctions["a"] = (left_pair[0], right_pair[0])
    junctions["b"] = (left_pair[1], right_pair[1])

    def embed(which: str) -> RleString:
        jl, jr = junctions[which]
        spare = n_runs - d_runs
        use_left = spare >= 1
        use_right = spare >= 2
        flank_budget = spare - int(use_left) - int(use_right)
        left_n = rng.randint(0, flank_budget)
        right_n = flank_budget - left_n
        runs: list[Run] = []
        if left_n:
            runs.extend(random_rle(rng, left_n, alphabet=alphabet, max_len=max_len).runs)
        if use_left:
            if runs and runs[-1].char == jl:
                alt = rng.choice([c for c in alphabet if c not in (jl,)])
                runs[-1] = Run(alt, runs[-1].length)
            runs.append(Run(jl, rng.randint(1, max_len)))
        runs.extend(block)
        if use_right:
            runs.append(Run(jr, rng.randint(1, max_len)))
        if right_n:
            tail = list(random_rle(rng, right_n, alphabet=alphabet, max_len=max_len).runs)
            if tail[0].char == runs[-1].char:
                alt = rng.choice([c for c in alphabet if c != runs[-1].char])
                tail[0] = Run(alt, tail[0].length)
            runs.extend(tail)
        merged: list[Run] = []
        for r in runs:
            if merged and merged[-1].char == r.char:
                merged[-1] = Run(r.char, merged[-1].length + r.length)
            else:
                merged.append(r)
        return RleString(tuple(merged))

    a = embed("a")
    b = embed("b")
    planted_decoded = sum(lengths)
    if verify:
        truth = brute_lcs(a, b, bound=bound)
        if truth.length < planted_decoded:
            raise AssertionError("planted block lost; generator bug")
        return PlantedInstance(a, b, truth.length, truth.encoded_length, True)
    return PlantedInstance(a, b, planted_decoded, d_runs, False)
