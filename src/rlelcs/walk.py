"""Anchored walk search for the longest common decoded substring.

The solver nests a binary search on the decoded answer length inside a
halving sweep over encoded window scales d.  At each scale it walks over
r-subsets of an anchor set on the concatenation A $ B; a vertex keeps the
chosen anchor ids, and a check reads the stored anchors' block of the
scale's pair table, as the declared Grover check models.  Its stored ids in
the order of the text read forward from each anchor and of the text read
backward into it, with adjacent decoded-common-prefix lengths, are computed
when read from the scale's window order (WalkVertex.order); no solve reads
them.  Every search charges the declared formulas below once, executed or
not, at an amount its scale caches.  Then a full-set search reads its
scale's index, a cost-only search stops, and a walk runs the walk driver,
which only walks.

A candidate pair certifies a target length t via two agreement conditions
anchored at the pair's run ends: the backward windows agree for at least L
decoded chars (L spans the shift runs, anchor run included) and the forward
windows agree for at least t - L + rho chars, where rho is the flagged
anchor's run length.  The forward and backward windows both cover the
anchor run, so the forward threshold re-counts it; the rho term compensates
and makes the certificate exact (t agreed chars, stitched at the shared
run boundary).  One row scorer, :func:`_score_rows`, evaluates this for a
flagged anchor against every anchor.  The kernel :func:`best_certificate`
runs it for the full-set index on all anchors at a scale, or, when they take
more than one pass, on the row of highest bound, and then scores only the
pairs that can reach that row's best; a walk vertex reads the scale's pair
table, one m x m table of certificates filled once.
Both read one window order per scale, ranked from the solve's run tokens.
A search's hit is the run pair of its best (flagged, partner) anchors.

A scale whose best certificate is below a search's target builds no vertex.
Over the same anchors no certificate rises as d falls, so a larger scale's
best bounds a smaller one's: a solve keeps each scale's best, and a scale
that a larger one rules out builds no index or pair table.  A full-set scale
also builds no index while its row bounds, which its kernel would compute
anyway, all fall short of a search's target; it keeps their largest as its
best.  A walk search with no pair at its target only makes its random draws.

A solve reads its n runs once, by one counted bulk read, as arrays: every
scale's window order and prefix sums, the small-run fallback (answers of
one or two runs, below the anchor regime, found in one pass over the
boundaries sorted by char pair and first length), the final extension,
two token-rank LCPs, and minimizer anchors, which hash every span their
scales use in one pass on the first build, read them.  A cost-only solve
reads no run; its minimizers hash the string's runs, uncounted.  No
fallback hit is longer than the longest run or adjacent run pair, so the
fallback runs at most once, on the first probe within that bound that
every scale misses.  The answer's check reads its runs again through the
handles, one counted ranged read a side.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .anchors import (
    AnchorScheme,
    AnchorSet,
    SpanOrders,
    build_exhaustive,
    build_minimizer,
    minimizer_spans,
    run_arrays,
)
from .qmodel import (
    CostModel,
    OracleHandle,
    WalkHooks,
    WalkMode,
    ceil_sqrt,
    grover_search,  # not called here; perfbench/tracer.py patches rlelcs.walk.grover_search
    walk_search,
    walk_search_charge,
)
from .rle import (
    RleString,
    concat_sep,
    ldcp_runs,  # not called here; perfbench/tracer.py patches rlelcs.walk.ldcp_runs
    lex_compare_runs,  # not called here; perfbench/tracer.py patches it likewise
)


# Decoded lengths stay below this, so the kernel's sum of two fits int64.
DECODED_LENGTH_BOUND = 1 << 62

# Walk mode solves strings (A $ B, or the LRS string) of at most this many
# runs.  Memory binds, not time: a solve keeps one 8 * m**2-byte pair table
# per scale that no larger scale rules out, 19.5 MiB each at this bound.
# Planted walk-mode solves (plant_instance(n, n // 8, 3 * (n // 8), seed) per
# side) with exhaustive anchors build one table, at the top scale, and on a
# shared 2-vCPU x86-64 VM with Python 3.11 took 0.65 s at 799 runs per side
# (1 599 in all), 3.0-3.3 s at 2 048 and 7.1-8.5 s at 4 096, at a peak RSS
# of 55, 164 and 550 MiB (BENCH_vertex_scan.json).  The bound still allows
# for the worst case: a solve whose top-scale walk misses every pair at its
# target, or one with minimizer anchors, builds a table at every scale it
# visits, up to 8 here, 156 MiB of tables at this bound.
WALK_RUN_BOUND = 1600


class InternalInconsistencyError(RuntimeError):
    """A produced answer failed verification; signals an anchor/check bug."""


class DecodedLengthError(ValueError):
    """The string to solve decodes to DECODED_LENGTH_BOUND or more."""


class WalkSizeError(ValueError):
    """A walk-mode solve's string has more than WALK_RUN_BOUND runs."""


@dataclass(frozen=True)
class LcsAnswer:
    i_A: int
    i_B: int
    ell: int
    d_tilde: int
    decoded_start_A: int
    decoded_start_B: int

    def as_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# declared charge formulas (leading powers; log/o(1) factors are the
# configurable constants of the cost model)


def minfind_charge(model: CostModel, *sizes: int) -> float:
    """Minimum finding over each of the given search-space sizes."""
    return model.minfind_factor * sum(ceil_sqrt(size) for size in sizes)


def grover_charge(model: CostModel, space: int) -> float:
    """One Grover search over a space of the given size."""
    return model.grover_factor * ceil_sqrt(space)


def comparison_charge(model: CostModel, d: int) -> float:
    """One lexicographic window comparison: minimum finding over 2d+1 runs."""
    return minfind_charge(model, 2 * d + 1)


def insert_charge(model: CostModel, d: int) -> float:
    return model.anchor_factor * math.sqrt(d) + model.insert_comp_factor * comparison_charge(
        model, d
    )


def setup_charge(model: CostModel, d: int, r: int) -> float:
    return r * insert_charge(model, d) + model.setup_sort_factor * r * comparison_charge(model, d)


def update_charge(model: CostModel, d: int) -> float:
    return 2 * insert_charge(model, d)


def check_charge(model: CostModel, d: int, stored: int) -> float:
    space = (2 * d + 1) * max(1, stored)
    return grover_charge(model, space) * model.check_unit


# ---------------------------------------------------------------------------
# run-token ranks: each scale's window order without a comparator


def _sorted_ranks(first: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """1-based dense ranks of the rows of the keys, which hold them sorted."""
    new = np.concatenate(([True], first[1:] != first[:-1]))
    for key in rest:
        new[1:] |= key[1:] != key[:-1]
    return np.cumsum(new)


def _dense_ranks(*keys: np.ndarray) -> np.ndarray:
    """1-based dense ranks of the rows of keys, the last key primary (as np.lexsort)."""
    order = keys[0].argsort()  # quicksort: ranks ignore tie order
    for key in keys[1:]:  # one stable pass per more significant key
        order = order[key[order].argsort(kind="stable")]
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = _sorted_ranks(*(key[order] for key in keys))
    return ranks


class _TokenRanks:
    """Prefix-doubling ranks of one run sequence's tokens (Manber & Myers).

    A run (c, len) is the token (c, 0, len) when the next char is smaller or
    absent and (c, 1, -len) when it is larger, so the decoded order of run
    sequences is the lexicographic order of their tokens.  A window's last
    run has no next char inside the window: its end token is (c, 0, len).
    Runs are 1-based; ``levels[k][i]`` ranks tokens i..i + 2**k - 1 among
    all such blocks, ``end[i]`` ranks run i's end token among the tokens.
    Rank 0 pads past the end (index n + 1), so a window cut short by the
    end of the string sorts before its extensions.  Level 0 sorts the signed
    lengths, then makes one stable (radix) pass over the int16 key 2c + rising.
    Level k + 1 argsorts ``levels[k][i] * (2n + 2) + levels[k][i + 2**k]`` in
    int64 (level-0 ranks reach 2n: end tokens are ranked too), adding the block
    ahead as a slice: past run n it is the pad, rank 0.  Once the last rank is
    n, every later level is that array again, unsorted.  ``tied`` is the first
    level that a later one reuses, else len(levels): below it two starts may tie.
    """

    def __init__(self, chars: np.ndarray, lens: np.ndarray):
        n = self.n = len(chars)
        self.chars = np.concatenate(([-1], chars, [-1]))
        self.lens = np.concatenate(([0], lens, [0]))
        self.prefix = np.concatenate(([0], np.cumsum(lens)))
        rising = np.zeros(n, dtype=np.int64)
        rising[:-1] = chars[1:] > chars[:-1]
        tokens = _dense_ranks(
            np.concatenate((np.where(rising == 1, -lens, lens), lens)),
            np.concatenate((2 * chars + rising, 2 * chars)).astype(np.int16),
        )
        level = np.zeros(n + 2, dtype=np.int32)
        level[1 : n + 1] = tokens[:n]
        self.end = np.zeros(n + 2, dtype=np.int32)
        self.end[1 : n + 1] = tokens[n:]
        self.levels = [level]
        self.tied = n.bit_length()
        for k in range(1, n.bit_length()):
            if k == 1 or ranks[-1] < n:
                half = 1 << (k - 1)
                key = np.multiply(level[1 : n + 1], 2 * n + 2, dtype=np.int64)
                key[: n - half] += level[1 + half : n + 1]
                order = key.argsort()
                key = key[order]  # sorted
                ranks = _sorted_ranks(key)
                level = np.zeros(n + 2, dtype=np.int32)
                level[1 + order] = ranks
            else:
                self.tied = min(self.tied, k - 1)
            self.levels.append(level)

    def window_order(self, starts: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """Sort the windows of ``width`` runs from each start, clamped at run n.

        Returns each window's 0-based rank in decoded order, ties broken by
        its index in starts, and the decoded common-prefix length of each
        adjacent pair in that order.
        """
        n, m = self.n, len(starts)
        span = min(width - 1, n)  # token positions that can hold a run
        k = span.bit_length() - 1
        # one int64 key, sorted stably (ties keep index order): level ranks reach n
        # (widths are odd), end ranks 2n; keys stay below (n + 1)(2n + 2) < 2**63 for n < 2**31
        one_block = span == 1 << k and width <= n  # a level-k block, then the end token
        key = np.multiply(self.levels[k][starts], 2 * n + 2 if one_block else n + 2, dtype=np.int64)
        if one_block:
            key += self.end[np.minimum(starts + width - 1, n + 1)]
        else:  # two level-k blocks
            key += self.levels[k][np.minimum(starts + span - (1 << k), n + 1)]
        if width > n or one_block:  # at the top scale every end is the pad, past run n
            order = key.argsort(kind="stable")
        else:  # span 2d not a power of two, ends that vary: no solve's scale (powers of two
            # below the top), but `rlelcs bench --d-list 3` orders width-7 windows this way
            order = np.lexsort((self.end[np.minimum(starts + width - 1, n + 1)], key))
        del key  # not held through the lifting
        pos = np.empty(m, dtype=np.int64)
        pos[order] = np.arange(m)
        return pos, self.agreement(starts[order[:-1]], starts[order[1:]], width)

    def agreement(self, u: np.ndarray, w: np.ndarray, width: int) -> np.ndarray:
        """Decoded common prefix of the windows of ``width`` runs from u and from w, pairwise.

        Windows are clamped at run n, as in window_order, and u != w.  Any two
        windows are compared, not only neighbours in an order: in decoded order
        this is the minimum of window_order's h between their ranks.
        """
        n = self.n
        # equal leading runs by binary lifting, uncapped: equal blocks end before
        # the pad (rank 0, at another offset per start), and a monotone lift clipped
        # once to the shorter window is the capped one; from level tied up none advances
        same = np.zeros(len(u), dtype=np.int64)
        for k in reversed(range(min(min(width, n).bit_length(), self.tied))):
            same += (self.levels[k][u + same] == self.levels[k][w + same]) * (1 << k)
        cap = np.minimum(n + 1 - np.maximum(u, w), width)
        same = np.minimum(same, cap)
        h = self.prefix[u + same - 1] - self.prefix[u - 1]
        # the first unequal token adds its shorter run when the chars match:
        # lengths differ, or only the chars after the run do
        cu, cw = u + same, w + same
        tail = (same < cap) & (self.chars[cu] == self.chars[cw])
        return h + np.where(tail, np.minimum(self.lens[cu], self.lens[cw]), 0)

    def lcp(self, i: int, j: int) -> int:
        """Decoded common prefix of the runs from i and from j (i != j, 1..n + 1).

        agreement's lifting and tail rule for one pair, uncapped, in Python ints:
        for finalize_answer's two calls, where numpy's per-call cost would dominate.
        """
        same = 0
        for k in reversed(range(self.tied)):
            if self.levels[k][i + same] == self.levels[k][j + same]:
                same += 1 << k
        i, j = i + same, j + same
        h = int(self.prefix[i - 1] - self.prefix[i - 1 - same])
        return h + (int(min(self.lens[i], self.lens[j])) if self.chars[i] == self.chars[j] else 0)


class _RunTokens:
    """A solve's one read of its runs, and their token ranks forward and reversed.

    One solve shares one instance across its scales, its small-run fallback
    and its final positions, so the runs are read once, by one bulk read
    counted as n run queries, by whichever reads them first.
    """

    def __init__(self, handle: OracleHandle):
        self.handle = handle

    @cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chars, lengths and prefix sums (prefix[0] = 0) as int64 arrays."""
        chars, lens = run_arrays(self.handle.query_runs())
        return chars, lens, np.concatenate(([0], np.cumsum(lens)))

    @cached_property
    def tables(self) -> tuple[_TokenRanks, _TokenRanks]:
        chars, lens, _ = self.runs
        return _TokenRanks(chars, lens), _TokenRanks(chars[::-1], lens[::-1])


# ---------------------------------------------------------------------------
# shared context


@dataclass
class _WalkContext:
    handle: OracleHandle
    anchors: AnchorSet
    sep_index: Optional[int]
    model: CostModel
    tokens: _RunTokens

    @property
    def d(self) -> int:
        """The scale: the one its anchors were built for."""
        return self.anchors.d

    @property
    def pv(self) -> np.ndarray:
        """Prefix sums as int64, from the solve's one read of its runs."""
        return self.tokens.runs[2]

    @cached_property
    def window_order(self) -> tuple[np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The anchors' run indices, and their forward and backward (pos, h) window orders.

        Ranks are 0-based in decoded order, ties broken by anchor index, and
        h holds the agreement of adjacent entries, from the solve's token ranks.
        """
        xs = np.fromiter(self.anchors.entries, dtype=np.int64, count=self.anchors.m)
        fwd, bwd = self.tokens.tables
        width = 2 * self.d + 1
        return xs, fwd.window_order(xs, width), bwd.window_order(self.handle.n + 1 - xs, width)

    @cached_property
    def row_bounds(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Each anchor's bound on its row's certificates and its gain (_row_bounds), or None.

        Only full-set mode reads it, and only where best_certificate would
        compute it: when the kernel's rows take more than one pass.
        """
        xs, (fwd_pos, h_f), (bwd_pos, h_b) = self.window_order
        side, flagged = _flagged(xs, self.sep_index)
        if _one_pass(flagged, len(xs)):
            return None
        return _row_bounds(xs, fwd_pos, h_f, bwd_pos, h_b, self.pv, self.d, side, flagged)

    @cached_property
    def pair_table(self) -> np.ndarray:
        """Certificate of every ordered anchor pair (see _pair_table).

        Only walk mode reads it: its maximum is the scale's best
        (_ScaleBound), and a vertex's best() reads the stored anchors' block.
        It holds 8 m^2 bytes, the one m x m table a walk-mode scale keeps.
        """
        xs, (fwd_pos, h_f), (bwd_pos, h_b) = self.window_order
        return _pair_table(xs, fwd_pos, h_f, bwd_pos, h_b, self.pv, self.d, self.sep_index)

    @cached_property
    def fullset_charge(self) -> float:
        """A full-set search's charge here: the walk formula over all m anchors, no swap."""
        model, d, m = self.model, self.d, self.anchors.m
        setup, check = setup_charge(model, d, m), check_charge(model, d, m)
        return walk_search_charge(setup, 0.0, check, m, (subset_size(model, m) / m) ** 2)

    @cached_property
    def walk_charge(self) -> float:
        """A walk or cost-only search's charge here: the walk formula over its r-subsets."""
        model, d, m = self.model, self.d, self.anchors.m
        r = subset_size(model, m)
        declared = setup_charge(model, d, r), update_charge(model, d), check_charge(model, d, r)
        return walk_search_charge(*declared, r, (r / m) ** 2)


def make_context(
    handle: OracleHandle,
    anchors: AnchorSet,
    sep_index: Optional[int],
    model: CostModel,
    tokens: Optional[_RunTokens] = None,
) -> _WalkContext:
    """Context for the scale ``anchors`` were built for; it charges ``handle``'s ledger.

    The contexts of one solve pass one shared ``tokens``.
    """
    return _WalkContext(handle, anchors, sep_index, model, tokens or _RunTokens(handle))


# ---------------------------------------------------------------------------
# literal walk-vertex structure


class WalkVertex:
    """Stored-anchor state for one walk: the ids of the stored anchors.

    A check reads the stored anchors' block of the scale's pair table
    (best()), the pairs that the declared check, a Grover search over the
    stored anchors' windows, searches.  order() reads the stored ids in
    either window order; no solve calls it.
    """

    def __init__(self, ctx: _WalkContext):
        self.ctx = ctx
        self._ids: set[int] = set()

    # mutation ----------------------------------------------------------

    def insert(self, k: int) -> None:
        if not 1 <= k <= self.ctx.anchors.m:
            raise IndexError(f"anchor id {k} out of range")
        if k in self._ids:
            raise ValueError(f"anchor {k} already stored")
        self._ids.add(k)

    def delete(self, k: int) -> None:
        if k not in self._ids:
            raise KeyError(k)
        self._ids.remove(k)

    # reading -------------------------------------------------------------

    def order(self, side: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored ids in the forward (0) or backward (1) window order, and their agreements.

        The order is the context's window order, ties by id.  Entry i of the
        agreements is that of ids i and i + 1: the minimum of h between
        their ranks.
        """
        pos, h = self.ctx.window_order[1 + side]
        ids = np.array(sorted(self._ids, key=lambda k: pos[k - 1]), dtype=np.int64)
        ranks = pos[ids - 1]
        return ids, np.minimum.reduceat(h[: ranks[-1] if len(ids) else 0], ranks[:-1])

    def best(self) -> tuple[int, Optional[tuple[int, int]]]:
        """The stored anchors' best certificate and its (flagged, partner) runs, or (0, None).

        Reads the stored anchors' block of the scale's pair table in the
        kernel's scan order: red flagged anchors first, then flagged anchor
        by id, then partner by id; ties keep the first pair, as in
        best_certificate.  Run indices increase with anchor id, so id order
        puts red anchors first; the white anchor's row is all 0.
        """
        ids = sorted(self._ids)
        if len(ids) < 2:
            return 0, None
        at = np.array(ids) - 1
        block = self.ctx.pair_table[np.ix_(at, at)]
        i, j = divmod(int(np.argmax(block)), len(ids))
        best = int(block[i, j])
        if best == 0:
            return 0, None
        xs = self.ctx.window_order[0]
        return best, (int(xs[at[i]]), int(xs[at[j]]))

    def check(self, d_tilde: int) -> Optional[tuple[int, int]]:
        """The runs of the stored anchors' best certified pair, if it reaches d_tilde."""
        best, hit = self.best()
        return hit if best >= d_tilde >= 1 else None


# ---------------------------------------------------------------------------
# certificate kernel, shared by the full-set index and the walk vertex


# Pairs the kernel evaluates per numpy pass: large enough to amortize the
# per-pass overhead, small enough that the pass's temporaries stay near 1 MiB.
# A dense pass scores a block of flagged anchors against every anchor, so it
# holds _PAIR_BATCH // m rows (at least one); when the rows need more than one
# such pass, the kernel's candidate pass scores blocks of at most _PAIR_BATCH
# (flagged, partner) cells.
_PAIR_BATCH = 4096

# An anchor's agreement with itself: above every decoded length, and a
# decoded length added to it still fits int64.
_SELF = DECODED_LENGTH_BOUND


def _one_pass(flagged: np.ndarray, m: int) -> bool:
    """Whether the kernel scores the rows of the flagged anchors, of m, in one dense pass."""
    return len(flagged) <= max(1, _PAIR_BATCH // m)


def _row_agreements(pos: np.ndarray, h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Agreement of each row's anchor with every anchor, columns in anchor order.

    In a decoded order with ranks pos and adjacent agreements h, ranks r < s
    agree for min(h[r..s-1]): a row is the cumulative minimum of h rightward
    from its own rank and leftward over the reversed prefix before it.  The
    row's own column reads _SELF.
    """
    right_side = np.arange(len(h)) >= pos[rows][:, None]
    # by rank, in place: rank s above the row's reads right[s - 1], below it left[s]
    by_rank = np.full((len(rows), len(h) + 1), _SELF)
    np.minimum.accumulate(np.where(right_side, h, _SELF), axis=1, out=by_rank[:, 1:])
    left = np.where(right_side, _SELF, h)[:, ::-1]
    np.minimum.accumulate(left, axis=1, out=left)
    np.minimum(by_rank[:, :-1], left[:, ::-1], out=by_rank[:, :-1])
    return by_rank[:, pos]


def _snap(pv: np.ndarray, d: int, x_a: np.ndarray, q: np.ndarray):
    """The longest whole-run backward span ending at run x_a that fits in q.

    The span covers at most 2d + 1 runs.  Returns whether it holds the
    anchor run at least, and max_l - rho, its length beyond that run.  The
    gain never falls as q grows.
    """
    v = np.searchsorted(pv, pv[x_a] - q, side="left")
    v = np.maximum(v, np.maximum(x_a - 2 * d - 1, 0))
    return v <= x_a - 1, pv[x_a - 1] - pv[np.minimum(v, x_a - 1)]


def _reach(pos: np.ndarray, h: np.ndarray, side: Optional[np.ndarray]) -> np.ndarray:
    """Each anchor's largest agreement with a partner in one decoded order, or -1.

    pos holds the anchors' ranks, h the agreements of adjacent ranks and
    side is as in _sides.  Agreement only falls with distance, so the
    largest is with the nearest partner before or after.  In a single
    string that is an adjacent rank.  Between two strings, the nearest
    partner before a rank is the last red or blue rank before it whose
    colour turns at the next red or blue rank: a running minimum of h that
    restarts at each turn, from a virtual partner before rank 0 that agrees
    for -1, and the same leftward.  It runs over each entry's place in
    sorted order less m per turn passed, so no earlier segment's minimum
    reaches a later one and every value stays below m**2, whatever h holds.
    The white anchor's entry is never read.
    """
    if side is None:
        return np.concatenate(([-1], h, [-1]))[[pos, pos + 1]].max(axis=0)
    m = len(pos)
    colour = np.empty_like(side)
    colour[pos] = side
    at = np.flatnonzero(colour < 2)  # red and blue ranks
    turn = colour[at[1:]] != colour[at[:-1]]
    # row 0 runs rightward over [-1, h], row 1 leftward; column 0 holds the -1
    starts = np.zeros((2, m), dtype=bool)
    starts[:, 0] = True
    starts[0, at[:-1][turn] + 1] = starts[1, m - at[1:][turn]] = True
    key = np.append(-1, h)
    order = key.argsort()  # ties in any order: equal keys read the same value
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(m)  # ranks[0] = 0: the -1 sorts first
    seg = np.cumsum(starts, axis=1) * m
    run = np.vstack((ranks, np.append(0, ranks[:0:-1]))) - seg
    np.minimum.accumulate(run, axis=1, out=run)
    run += seg
    reach = key[order][run]
    return np.maximum(reach[0, pos], reach[1, m - 1 - pos])


def _row_bounds(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged):
    """Per-anchor bound on its row's certificates, and the gain that bound adds to p.

    An anchor's largest p is its largest forward agreement with a partner,
    its largest q the same backward (_reach), and the bound is p + gain(q)
    at those maxima: -1 off flagged and where no span fits.  The gain at
    that q, 0 off flagged, bounds the gain of every pair in the row, so a
    partner reaches a value t only if its p is at least t - gain.  O(m)
    memory, with no range-minimum query.
    """
    p, q = (_reach(pos, h, side) for pos, h in ((fwd_pos, h_f), (bwd_pos, h_b)))
    ok, gain = _snap(pv, d, xs[flagged], q[flagged])
    upper, gains = np.full(len(xs), -1), np.zeros(len(xs), dtype=np.int64)
    upper[flagged] = np.where(ok, p[flagged] + gain, -1)
    gains[flagged] = gain
    return upper, gains


def _sides(xs: np.ndarray, sep_index: Optional[int]) -> Optional[np.ndarray]:
    """0 (red), 1 (blue) or 2 (white) per anchor, or None for a single string."""
    if sep_index is None:
        return None
    return np.where(xs < sep_index, 0, np.where(xs > sep_index, 1, 2))


def _flagged(xs: np.ndarray, sep_index: Optional[int]) -> tuple[Optional[np.ndarray], np.ndarray]:
    """The anchors' sides (_sides) and the flagged anchors in scan order, red before blue."""
    side = _sides(xs, sep_index)
    if side is None:
        return side, np.arange(len(xs))
    return side, np.concatenate((np.flatnonzero(side == 0), np.flatnonzero(side == 1)))


def _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, rows):
    """Certificate of each row's anchor, flagged, with every partner.

    The one home of the certificate arithmetic: a row of cumulative-minimum
    agreements p and q per decoded order, q snapped to whole runs, and 0
    where the pair is not admissible (the anchor itself, same colour, white).
    """
    p = _row_agreements(fwd_pos, h_f, rows)
    q = _row_agreements(bwd_pos, h_b, rows)
    ok, gain = _snap(pv, d, xs[rows][:, None], q)
    if side is None:
        ok &= np.arange(len(xs)) != rows[:, None]
    else:
        ok &= side == 1 - side[rows][:, None]
    return np.where(ok, p + gain, 0)


def _gallop(rank: np.ndarray, t: np.ndarray, padded: np.ndarray):
    """Walk both sides of each row's rank while the running minimum of h stays >= t.

    padded is h with -1 before and after it, so padded[s] is the agreement
    of ranks s - 1 and s, and -1 past either end.  Each side of a row is a
    line; a round reads the same number of ranks on every line still open,
    enough to fill one block of _PAIR_BATCH cells and at least twice the
    last round's, so a line reads at most twice the ranks it keeps besides
    one block's share.  Yields (row, rank, agreement) of the ranks kept, at
    most _PAIR_BATCH a chunk of lines.
    """
    m = len(padded) - 1
    row = np.tile(np.arange(len(rank)), 2)
    left = np.repeat([False, True], len(rank))  # rightward lines, then leftward
    base = rank[row] + left  # a line reads padded[base + step], or base - step leftward
    need, run = t[row], np.full(len(row), _SELF)  # and its running minimum
    done = width = 0
    while len(row):
        width = min(max(2 * width, _PAIR_BATCH // len(row), 1), _PAIR_BATCH, m - 1)
        steps, per = np.arange(done + 1, done + width + 1), max(1, _PAIR_BATCH // width)
        go = np.zeros(len(row), dtype=bool)
        for lo in range(0, len(row), per):
            at = slice(lo, lo + per)
            idx = base[at, None] + np.where(left[at, None], -steps, steps)
            agree = np.take(padded, idx, mode="clip")
            agree[:, 0] = np.minimum(agree[:, 0], run[at])
            np.minimum.accumulate(agree, axis=1, out=agree)
            keep = agree >= need[at, None]  # a prefix of each line: agreement only falls
            go[at], run[at] = keep[:, -1], agree[:, -1]
            i, j = np.nonzero(keep)
            yield row[at][i], idx[i, j] - left[at][i], agree[i, j]
        row, left, base, need, run = row[go], left[go], base[go], need[go], run[go]
        done += width


def _interval_cells(rank: np.ndarray, t: np.ndarray, h: np.ndarray):
    """The ranks that agree with each row's rank for at least the row's t, in blocks.

    In a decoded order with adjacent agreements h, ranks agree for the
    minimum of h between them, which only falls with distance, so those
    ranks form one interval around rank[i], walked by _gallop.  Yields
    (row, rank, agreement) arrays of at most _PAIR_BATCH cells.  Rows are
    walked _PAIR_BATCH // 4 at a time, so the lines' state stays
    O(_PAIR_BATCH) too.
    """
    padded = np.concatenate(([-1], h, [-1]))
    held, size, rows = [], 0, max(1, _PAIR_BATCH // 4)
    for first in range(0, len(rank), rows):
        group = slice(first, first + rows)
        for row, partner, agree in _gallop(rank[group], t[group], padded):
            if size + len(row) > _PAIR_BATCH:
                yield tuple(map(np.concatenate, zip(*held)))
                held, size = [], 0
            held.append((row + first, partner, agree))
            size += len(row)
    if size:
        yield tuple(map(np.concatenate, zip(*held)))


def best_certificate(
    xs: np.ndarray,
    fwd_pos: np.ndarray,
    h_f: np.ndarray,
    bwd_pos: np.ndarray,
    h_b: np.ndarray,
    pv: np.ndarray,
    d: int,
    sep_index: Optional[int],
    bwd: _TokenRanks,
    bounds: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[int, Optional[tuple[int, int]]]:
    """Largest target length any admissible pair of the given anchors certifies.

    xs holds the anchors' run indices; fwd_pos/bwd_pos their 0-based ranks
    in the forward and backward decoded orders, h_f/h_b the agreement of
    adjacent entries in those orders, pv the prefix sums, and bwd the
    reversed token ranks those backward windows were ordered by.  A flagged
    anchor a and an opposite-colour partner (any other anchor for a single
    string) with forward agreement p and backward agreement q certify
    p + max_l - rho: max_l is the longest whole-run backward span ending at
    a's run, at most 2d + 1 runs, that fits in q, and rho is a's run length.
    Returns (best, (a, partner)) with indices into xs, or (0, None).  Pairs
    are scanned by side (red flagged first), then flagged anchor, then
    partner; ties keep the first pair scanned.

    Rows that fit in one numpy pass are scored densely (_score_rows).
    Otherwise only the row with the highest bound (_row_bounds, or the given
    ``bounds`` that it returned), the first in scan order among equals, is
    scored densely; its best LB is a lower bound.  Then one candidate pass
    scores the rows whose bound beats LB, or ties it earlier in scan order,
    on only the partners that can reach LB: a pair's certificate is at most
    p + gain_a, so p is at least LB - gain_a, a forward-rank interval around
    a (_interval_cells).  There q is the two backward windows' agreement,
    read from bwd (_TokenRanks.agreement).  Memory stays O(m) besides blocks
    of at most _PAIR_BATCH cells.
    """
    m = len(xs)
    if m < 2:
        return 0, None
    side, flagged = _flagged(xs, sep_index)
    if _one_pass(flagged, m):  # rows in scan order
        cert = _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged)
        i, j = divmod(int(np.argmax(cert)), m)
        return (0, None) if cert[i, j] == 0 else (int(cert[i, j]), (int(flagged[i]), j))
    upper, gain = bounds or _row_bounds(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged)
    upper = upper[flagged]  # by scan index
    top = int(np.argmax(upper))
    if upper[top] < 1:
        return 0, None
    cert = _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged[[top]])[0]
    j = int(np.argmax(cert))
    lower = int(cert[j])
    best = (-lower, top, j)  # (-certificate, scan index, partner): the least wins
    # the rows that could beat it, or tie it earlier in scan order
    rows = upper > lower
    rows[:top] |= upper[:top] == lower
    rows &= upper >= 1
    rows[top] = False
    rows = np.flatnonzero(rows)
    at_rank = np.empty(m, dtype=np.int64)
    at_rank[fwd_pos] = np.arange(m)
    threshold = np.maximum(lower - gain[flagged[rows]], 0)
    for i, s, p in _interval_cells(fwd_pos[flagged[rows]], threshold, h_f):
        c, a, b = rows[i], flagged[rows[i]], at_rank[s]
        ok = slice(None) if side is None else side[b] == 1 - side[a]
        c, a, b, p = c[ok], a[ok], b[ok], p[ok]
        if len(c):
            q = bwd.agreement(bwd.n + 1 - xs[a], bwd.n + 1 - xs[b], 2 * d + 1)
            fits, g = _snap(pv, d, xs[a], q)
            cert = np.where(fits, p + g, 0)
            k = np.lexsort((b, c, -cert))[0]
            best = min(best, (-int(cert[k]), int(c[k]), int(b[k])))
    return (0, None) if best[0] == 0 else (-best[0], (int(flagged[best[1]]), best[2]))


def _pair_table(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, sep_index):
    """Every ordered anchor pair's certificate, as one m x m array.

    Row a, column b is what flagged anchor a certifies with partner b, 0
    where the pair is not admissible.  A pair's certificate depends on its
    two anchors only, so a walk vertex reads any stored subset's pairs here.
    Rows are scored _PAIR_BATCH pairs per numpy pass, as in best_certificate.
    """
    m = len(xs)
    cert = np.zeros((m, m), dtype=np.int64)
    side = _sides(xs, sep_index)
    rows_per_pass = max(1, _PAIR_BATCH // m)
    for lo in range(0, m, rows_per_pass):
        rows = np.arange(lo, min(lo + rows_per_pass, m))
        cert[rows] = _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, rows)
    return cert


class CollisionIndex:
    """Best certified length over the full anchor set at one scale d.

    Runs the certificate kernel over all anchors in the context's window
    order, with the context's row bounds, so one (length, anchor pair)
    answers every probe at this scale.  Over the same anchors, best never
    rises as d falls: a narrower window never agrees for longer, _snap's
    span floor x_a - 2d - 1 only rises and admissibility ignores d, so no
    pair's certificate grows (_ceiling uses this).  A scale whose row
    bounds all fall short of a probe builds none (see inner_search).
    """

    def __init__(self, ctx: _WalkContext):
        self.ctx = ctx
        self.xs, (fwd_pos, h_f), (bwd_pos, h_b) = ctx.window_order
        bwd = ctx.tokens.tables[1]
        self.best, self.best_args = best_certificate(
            self.xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index, bwd, ctx.row_bounds
        )

    def query(self, d_tilde: int) -> Optional[tuple[int, int]]:
        """The best pair's (flagged, partner) runs, if it reaches d_tilde."""
        if d_tilde < 1 or self.best < d_tilde:
            return None
        a, b = self.best_args
        return int(self.xs[a]), int(self.xs[b])


@dataclass
class _ScaleBound:
    """A scale's best certificate, or a bound above it, where it builds no index.

    It serves _ceiling as CollisionIndex.best does.  A walk-mode scale holds
    its pair table's maximum; a full-set scale that no probe so far could
    reach holds its largest row bound.
    """

    ctx: _WalkContext
    best: int


def _scale_bound(ctx: _WalkContext) -> float:
    """Bound on a full-set scale's best certificate: its largest row bound, else inf."""
    bounds = ctx.row_bounds
    return math.inf if bounds is None else int(bounds[0].max())


def _ceiling(index_cache: dict[int, CollisionIndex | _ScaleBound], ctx: _WalkContext) -> float:
    """Least best of the cached scales above ctx.d over the same anchor entries, else inf.

    It bounds this scale's best from above: with the same anchors each
    pair's certificate never falls as d grows (see CollisionIndex).
    """
    entries = ctx.anchors.entries
    return min(
        (
            scale.best
            for d, scale in index_cache.items()
            if d > ctx.d and scale.ctx.anchors.entries == entries
        ),
        default=math.inf,
    )


# ---------------------------------------------------------------------------
# one anchored search at a fixed scale


def inner_search(
    ctx: _WalkContext,
    d_tilde: int,
    *,
    mode: WalkMode,
    rng: Optional[random.Random] = None,
    index_cache: Optional[dict[int, CollisionIndex | _ScaleBound]] = None,
) -> Optional[tuple[int, int]]:
    """Walk search over r-subsets of the anchor set for one (d, d_tilde).

    The scale d is the anchors', r = subset_size(model, m) for their size m,
    and every charge goes to the context handle's ledger, where its reads
    are counted.  A hit is the (flagged, partner) runs of the best pair it
    finds.

    Each search makes one charge, an amount its scale caches: the walk
    formula over all m anchors in full-set mode (_WalkContext.fullset_charge),
    over r-subsets in walk and cost-only mode (_WalkContext.walk_charge).
    Then the full-set mode decides the existence question exactly from its
    scale's cached state, the cost-only mode returns None, and the random
    walk runs the walk driver (walk_search), which samples subsets up to a
    step budget.

    ``index_cache`` holds one solve's scale bests by scale: the full-set
    mode's indexes, or the largest row bound of a full-set scale that builds
    none, and the random walk's pair-table maxima.  A scale whose anchor
    entries equal those of a cached larger scale whose best is below d_tilde
    builds no index or pair table and reports None: narrowing the windows
    over the same anchors never raises a certificate (see CollisionIndex).
    A full-set scale also builds no index while its row bounds are all below
    d_tilde, and a later probe they admit builds it.  The random walk also
    builds no vertex when its own table's maximum is below d_tilde: its setup
    returns None, so the walk only makes its draws.  Otherwise each check
    reads the stored anchors' block of the table (WalkVertex.check), and the
    walk stops at its first hit.  Charges are those of a scale that builds.
    """
    d, ledger = ctx.d, ctx.handle.ledger
    bests = {} if index_cache is None else index_cache

    if mode is WalkMode.FULLSET:
        index = bests.get(d)
        # a row bound cached below d_tilde is a miss as it stands: recomputed, it is the same
        undecided = index is None or isinstance(index, _ScaleBound) and index.best >= d_tilde
        if undecided and _ceiling(bests, ctx) >= d_tilde:
            bound = _scale_bound(ctx) if index is None else index.best
            index = bests[d] = CollisionIndex(ctx) if bound >= d_tilde else _ScaleBound(ctx, bound)
        ledger.charge(ctx.fullset_charge)
        return index.query(d_tilde) if isinstance(index, CollisionIndex) else None

    ledger.charge(ctx.walk_charge)
    if mode is WalkMode.COSTONLY:
        return None

    def setup(subset):
        if d not in bests and _ceiling(bests, ctx) >= d_tilde:
            bests[d] = _ScaleBound(ctx, int(ctx.pair_table.max()))
        if d not in bests or bests[d].best < d_tilde:
            return None  # no pair at this scale reaches d_tilde
        vertex = WalkVertex(ctx)
        for k in subset:
            vertex.insert(k)
        return vertex

    def update(vertex, removed, added):
        vertex.delete(removed)
        vertex.insert(added)

    hooks = WalkHooks(setup, update, lambda vertex: vertex.check(d_tilde))
    m, r = ctx.anchors.m, subset_size(ctx.model, ctx.anchors.m)
    return walk_search(m, r, (r / m) ** 2, hooks, model=ctx.model, rng=rng)


# ---------------------------------------------------------------------------
# decoded-domain extension and verification


def _small_fallback(
    runs: tuple[np.ndarray, np.ndarray, np.ndarray], sep_index: Optional[int]
) -> Optional[tuple[int, int, int]]:
    """Best single- or two-run collision as (value, end_a, end_b), or None.

    Anchor alignment needs an interior run, so answers of one or two runs
    are found directly from the solve's run arrays: A $ B split at
    sep_index, or the one string on both sides for LRS.  A single-run hit
    is a char's longest run on each side, the last among equals; for LRS
    the longest run l1 against itself shifted by one (l1 - 1) comes before
    it against the second-longest.  A two-run hit is min(xa, xb) +
    min(ya, yb) over two boundaries with the same char pair, never a
    boundary with itself.  Ends are decoded ends in A and in B.  Ties keep
    the first hit: chars and char pairs by first occurrence in A, then A's
    boundary, then B's, and a single-run hit before a two-run hit.

    One sorted pass finds the best two-run hit, in O(n log n).  With the
    boundaries of a char pair sorted by first length x, a pair scores the
    earlier one's x + min(y, y'), so the best value is the largest own
    term x + min(y, M), M the largest second length y among a boundary's
    partners after it (B's boundaries for one of A's and the reverse; for
    LRS every other boundary).  The first char pair with an own term at
    that value holds the hit.  Its row is the first whose y is at least
    value - x for some boundary at or before it with an own term at the
    value, and its column is that row's first reaching the value.
    """
    chars, lens, prefix = runs
    ends = prefix[1:]
    lrs = sep_index is None
    if lrs:
        (ca, la, ea), (cb, lb, eb) = [(chars, lens, ends)] * 2
    else:
        ca, la, ea = chars[: sep_index - 1], lens[: sep_index - 1], ends[: sep_index - 1]
        cb, lb, eb = chars[sep_index:], lens[sep_index:], ends[sep_index:] - prefix[sep_index]

    def longest(c, l):
        """Runs by (char, length, index), and where each char's last (longest) one sits."""
        order = np.lexsort((l, c))  # stable: ties keep index order
        return order, np.flatnonzero(np.append(c[order][1:] != c[order][:-1], True))

    first = np.unique(ca, return_index=True)[1]  # per char of A, ascending
    oa, at = longest(ca, la)
    i1 = oa[at]
    if lrs:
        i2 = oa[at - 1]  # the second-longest, where the char has one
        second = np.where((at > 0) & (ca[i2] == ca[i1]), la[i2], 0)
        value = np.concatenate((la[i1] - 1, second))
        hit_a, hit_b = np.concatenate((ea[i1] - 1, ea[i1])), np.concatenate((ea[i1], ea[i2]))
        rank = np.concatenate((2 * first, 2 * first + 1))
    else:
        ob, bt = longest(cb, lb)
        _, xa, xb = np.intersect1d(ca[i1], cb[ob[bt]], assume_unique=True, return_indices=True)
        ia, ib = i1[xa], ob[bt][xb]
        value, hit_a, hit_b, rank = np.minimum(la[ia], lb[ib]), ea[ia], eb[ib], first[xa]
    best = None
    if value.max(initial=0) > 0:
        j = np.lexsort((rank, -value))[0]
        best = (int(value[j]), int(hit_a[j]), int(hit_b[j]))

    # boundary k joins runs k and k + 1 of A $ B (or of the LRS string); its
    # key is their char pair.  The two at the separator share no key, and
    # side 1 (B) starts at the second of them.
    n = len(lens) - 1
    key = chars[:-1] * 256 + chars[1:]
    order = np.lexsort((lens[:-1], key))  # by (key, x), then index
    ks, xs, ys = key[order], lens[order], lens[1:][order]
    side = np.zeros(n, np.int8) if lrs else (order >= sep_index - 1).view(np.int8)
    look = side if lrs else side ^ 1  # the side of a boundary's partners
    start = ks.searchsorted(ks)  # where each boundary's key starts
    pos = np.arange(n)
    # the largest partner y after each boundary: a suffix maximum of y's
    # rank less an offset that grows with the key, so no later key's reaches it
    by_y = ys.argsort()
    off = start * n
    tags = np.full((n + 1, 2), -DECODED_LENGTH_BOUND)
    tags[pos, side] = by_y.argsort() - off
    after = np.maximum.accumulate(tags[::-1], axis=0)[::-1][1:][pos, look] + off
    term = xs + np.minimum(ys, np.take(ys[by_y], after, mode="clip"))
    term[after < 0] = 0
    top = int(term.max(initial=0))
    if top <= (0 if best is None else best[0]):
        return best
    # a char pair has one of A's rows reaching top where one of its
    # boundaries' own term is top; A's boundaries come before B's, so the
    # first boundary among such char pairs, and then the first row reaching
    # top in it, is A's
    own = term == top
    marked = np.zeros(n, bool)
    marked[start[own]] = True
    lo = start[np.where(marked[start], order, n).argmin()]
    grp = slice(lo, int(ks.searchsorted(ks[lo], "right")))
    # a boundary reaches top when one at or before it whose own term is top
    # has x at least top - y: that one, or its partner after it that reaches
    # top, pairs with the boundary at top
    before = np.maximum.accumulate(np.where(own[grp], xs[grp], -DECODED_LENGTH_BOUND))
    row = order[grp][before >= top - ys[grp]].min()
    cols = order[grp][np.minimum(xs[grp], lens[row]) + np.minimum(ys[grp], lens[row + 1]) == top]
    col = cols[cols != row].min() if lrs else cols[cols >= sep_index].min()
    return top, int(ends[row]), int(ends[col] - (0 if lrs else prefix[sep_index]))


def _fallback_bound(lens: np.ndarray) -> int:
    """Bound on every _small_fallback hit: the longest run or adjacent run pair."""
    return int(np.max(lens[:-1] + lens[1:], initial=lens.max()))


def finalize_answer(
    ends_a: int, ends_b: int, tokens: _RunTokens, sep_index: Optional[int]
) -> LcsAnswer:
    """Extend a collision, given by its decoded ends in A and in B, to its maximal occurrence.

    Both ends are run ends of the solve's string (A $ B split at sep_index,
    or the LRS string), so the extension is two token-rank LCPs: backward
    from runs x_a and x_b, forward from the runs after them.  The LRS
    one-run fallback hit, a run of l chars against itself shifted by one
    (ends e - 1 and e), takes its closed form: l - 1 chars from the run's
    first two positions.
    """
    fwd, bwd = tokens.tables
    prefix = tokens.runs[2]
    offset = 0 if sep_index is None else int(prefix[sep_index])
    x_a, x_b = prefix.searchsorted((ends_a, ends_b + offset)).tolist()
    if sep_index is None and ends_b == ends_a + 1 == prefix[x_a]:
        s = int(prefix[x_a - 1]) + 1
        return LcsAnswer(x_a, x_a, 1, ends_b - s, s, s + 1)
    if prefix[x_a] != ends_a or prefix[x_b] != ends_b + offset:
        raise InternalInconsistencyError("collision ends are not run ends")
    q = bwd.lcp(fwd.n + 1 - x_a, fwd.n + 1 - x_b)
    if q == 0:
        raise InternalInconsistencyError("collision ends do not match backward")
    total = q + fwd.lcp(x_a + 1, x_b + 1)
    start_a, start_b = ends_a - q + 1, ends_b - q + 1
    firsts_and_last = (start_a, start_b + offset, start_a + total - 1)
    i_a, i_b, last = prefix.searchsorted(firsts_and_last).tolist()
    return LcsAnswer(i_a, i_b - (sep_index or 0), last - i_a + 1, total, start_a, start_b)


def verify_candidate(ans: LcsAnswer, ha: OracleHandle, hb: OracleHandle) -> bool:
    """Soundness gate: decoded equality, runs containing the starts, run count.

    Independent of the solve's token ranks: it reads each side's ell runs
    from i_A and i_B with one counted ranged read, and the prefix sums that
    bound each start's run through the handle.  The occurrences are equal
    when their chars agree, their interior runs are equal, and the first
    and last runs clipped to the occurrence agree.
    """
    t, ell = ans.d_tilde, ans.ell
    if t < 1 or ell < 1:
        return False
    if ans.decoded_start_A < 1 or ans.decoded_start_A + t - 1 > ha.total:
        return False
    if ans.decoded_start_B < 1 or ans.decoded_start_B + t - 1 > hb.total:
        return False
    if ha is hb and ans.decoded_start_A == ans.decoded_start_B:
        return False
    # range first, as a negative index would alias a real run
    if not 1 <= ans.i_A <= ha.n + 1 - ell or not 1 <= ans.i_B <= hb.n + 1 - ell:
        return False
    sides = []
    for h, i, start in ((ha, ans.i_A, ans.decoded_start_A), (hb, ans.i_B, ans.decoded_start_B)):
        end = h.query_prefix(i)
        if not h.query_prefix(i - 1) < start <= end:
            return False
        sides.append((end - start + 1, h.query_runs(i, i + ell - 1)))
    (first_a, runs_a), (first_b, runs_b) = sides
    outer_a, outer_b = ((runs[0].char, runs[-1].char) for runs in (runs_a, runs_b))
    if outer_a != outer_b or runs_a[1:-1] != runs_b[1:-1]:  # chars of the clipped runs, interior
        return False
    if ell == 1:
        return t <= min(first_a, first_b)
    last = t - first_a - sum(r.length for r in runs_a[1:-1])
    return first_a == first_b and 1 <= last <= min(runs_a[-1].length, runs_b[-1].length)


# ---------------------------------------------------------------------------
# the solver


@dataclass
class SolverConfig:
    mode: WalkMode = WalkMode.FULLSET
    anchors: AnchorScheme = AnchorScheme.EXHAUSTIVE
    seed: int = 0
    model: CostModel = field(default_factory=CostModel)
    # cost-only trajectories branch on (decoded, encoded) answer lengths;
    # without a hint the worst-case trajectory is charged
    truth_hint: Optional[tuple[int, int]] = None

    def __post_init__(self):
        # the solver compares members by identity; an unknown string raises ValueError
        self.mode, self.anchors = WalkMode(self.mode), AnchorScheme(self.anchors)


def scale_anchors(
    s: RleString,
    d: int,
    scheme: AnchorScheme,
    seed: int,
    model: CostModel,
    orders: Optional[SpanOrders] = None,
) -> AnchorSet:
    """Scale d's anchors: minimizers when the scheme asks and d >= d_min, else every run.

    The scales of one solve share ``orders``, which hashes every span they use.
    """
    if scheme is AnchorScheme.MINIMIZER and d >= model.d_min:
        return build_minimizer(s, d, seed, d_min=model.d_min, orders=orders)
    return build_exhaustive(s, d)


def subset_size(model: CostModel, m: int) -> int:
    """The walk's subset size r = ceil(r_const * m^(2/3)), clamped to 1..m."""
    return max(1, min(m, math.ceil(model.r_const * m ** (2.0 / 3.0))))


# a cost-only probe's hit: it reports that the hinted answer reaches d_tilde, with no ends
_HINT = object()


def _d_values(n: int, d_min: int) -> list[int]:
    """Halving scales from 2^floor(log2 n) down to d_min.

    Strings shorter than d_min runs still search once at d_min: windows
    then cover the whole string, which is what makes three-run-and-longer
    substrings reachable below the anchor regime.
    """
    if n < 1:
        return []
    out = []
    d = 1 << (n.bit_length() - 1)
    while d >= d_min:
        out.append(d)
        d //= 2
    if not out:
        out.append(d_min)
    return out


def _solve(
    hs: OracleHandle,
    sep_index: Optional[int],
    ha: OracleHandle,
    hb: OracleHandle,
    config: SolverConfig,
) -> Optional[LcsAnswer]:
    check_walk_size(config.mode, hs.n)
    model = config.model
    lrs = sep_index is None
    rng = random.Random(config.seed)
    hi = (ha.total - 1) if lrs else min(ha.total, hb.total)
    if hi < 1:
        return None
    d_values = _d_values(hs.n, model.d_min)
    cost_only = config.mode is WalkMode.COSTONLY

    ctx_cache: dict[int, _WalkContext] = {}
    tokens = _RunTokens(hs)
    # minimizer spans hash the solve's one run read; cost-only solves read no run
    runs = (lambda: run_arrays(hs.string.runs)) if cost_only else (lambda: tokens.runs[:2])
    orders = SpanOrders(runs, minimizer_spans(hs.n, d_values, model.d_min), config.seed)

    def ctx_for(d: int) -> _WalkContext:
        if d not in ctx_cache:
            anchors = scale_anchors(hs.string, d, config.anchors, config.seed, model, orders)
            ctx_cache[d] = make_context(hs, anchors, sep_index, model, tokens)
        return ctx_cache[d]

    index_cache: dict[int, CollisionIndex | _ScaleBound] = {}
    # minimum finding over each side's runs, Grover over boundary pairs
    runs_charge = minfind_charge(model, max(1, ha.n), max(1, hb.n))
    hs.ledger.charge(runs_charge + grover_charge(model, max(1, (ha.n - 1) * (hb.n - 1))))
    # the small-run fallback runs once, on the first missing probe its bound admits
    reach = 0 if cost_only else _fallback_bound(tokens.runs[1])
    fallback = cache(lambda: _small_fallback(tokens.runs, sep_index))
    hint = config.truth_hint if config.truth_hint is not None else (hi, 1)
    offset = 0 if lrs else ha.total + 1  # B's decoded positions in A $ B

    def probe(d_tilde: int):
        """Ends in A and in B of a collision reaching d_tilde; _HINT in cost-only mode; or None."""
        for d in d_values:
            hit = inner_search(
                ctx_for(d), d_tilde, mode=config.mode, rng=rng, index_cache=index_cache
            )
            if cost_only:
                if d_tilde <= hint[0] and d <= max(hint[1], model.d_min):
                    return _HINT
                continue
            if hit is not None:
                x_a, x_b = hit if lrs or hit[0] < sep_index else hit[::-1]
                pv = tokens.runs[2]
                return int(pv[x_a]), int(pv[x_b]) - offset
        if cost_only:
            return _HINT if d_tilde <= hint[0] else None
        hit = fallback() if d_tilde <= reach else None
        return hit[1:] if hit is not None and hit[0] >= d_tilde else None

    best_hit = probe(1)
    if best_hit is None:
        return None
    lo, hi_bound = 1, hi
    while lo < hi_bound:
        mid = (lo + hi_bound + 1) // 2
        hit = probe(mid)
        if hit is not None:
            lo = mid
            best_hit = hit
        else:
            hi_bound = mid - 1
    if cost_only:
        return None

    answer = finalize_answer(*best_hit, tokens, sep_index)
    if not verify_candidate(answer, ha, hb):
        raise InternalInconsistencyError(f"answer failed verification: {answer}")
    if answer.d_tilde < lo:
        # the recorded collision certified lo, so its extension cannot be
        # shorter; longer is possible when an anchor scheme missed a probe
        raise InternalInconsistencyError(
            f"extension length {answer.d_tilde} below search result {lo}"
        )
    return answer


def _check_decoded_length(total: int) -> None:
    if total >= DECODED_LENGTH_BOUND:
        raise DecodedLengthError(f"decoded length {total} is not below 2**62")


def check_walk_size(mode: WalkMode, n: int) -> None:
    """Raise WalkSizeError when a walk-mode search gets a string of more than WALK_RUN_BOUND runs."""
    if mode is WalkMode.RANDOMWALK and n > WALK_RUN_BOUND:
        raise WalkSizeError(f"walk mode takes at most {WALK_RUN_BOUND} runs, got {n}")


def solve_lcs_rle_p(
    ha: OracleHandle, hb: OracleHandle, config: Optional[SolverConfig] = None
) -> Optional[LcsAnswer]:
    """Longest common decoded substring of two oracle-backed RLE strings.

    Returns None exactly when the inputs share no character.  The two
    handles should share one ledger; all charges go to the first handle's.
    The solver searches A $ B, with ``$`` replaced by the smallest byte
    absent from both inputs when they contain it.  Raises DecodedLengthError
    when A $ B decodes to DECODED_LENGTH_BOUND or more, NoSeparatorError
    when no byte is absent, and WalkSizeError when a walk-mode A $ B has
    more than WALK_RUN_BOUND runs.
    """
    config = config or SolverConfig()
    _check_decoded_length(ha.total + 1 + hb.total)
    if ha.total == 0 or hb.total == 0:
        return None
    s, sep_index = concat_sep(ha.string, hb.string)
    hs = OracleHandle(s, ha.ledger)
    return _solve(hs, sep_index, ha, hb, config)


def solve_lrs(ha: OracleHandle, config: Optional[SolverConfig] = None) -> Optional[LcsAnswer]:
    """Longest repeated decoded substring of one oracle-backed RLE string.

    Raises DecodedLengthError when it decodes to DECODED_LENGTH_BOUND or more,
    and WalkSizeError when a walk-mode solve gets more than WALK_RUN_BOUND runs.
    """
    config = config or SolverConfig()
    _check_decoded_length(ha.total)
    if ha.total < 2:
        return None
    return _solve(ha, None, ha, ha, config)
