"""Anchored walk search for the longest common decoded substring.

The solver nests a binary search on the decoded answer length inside a
halving sweep over encoded window scales d.  At each scale it walks over
r-subsets of an anchor set on the concatenation A $ B; a vertex keeps the
chosen anchor ids and the count of stored pairs that certify the walk's
target, so a check with no such pair reads one number.  Its orders, by id
and by rank in the order of the text read forward from each anchor and of
the text read backward into it, with adjacent decoded-common-prefix lengths,
are views built on read from the scale's window order.  Every mode charges
the declared formulas below, whether it executes or not.

A candidate pair certifies a target length t via two agreement conditions
anchored at the pair's run ends: the backward windows agree for at least L
decoded chars (L spans the shift runs, anchor run included) and the forward
windows agree for at least t - L + rho chars, where rho is the flagged
anchor's run length.  The forward and backward windows both cover the
anchor run, so the forward threshold re-counts it; the rho term compensates
and makes the certificate exact (t agreed chars, stitched at the shared
run boundary).  One row scorer, :func:`_score_rows`, evaluates this for a
flagged anchor against every anchor.  The kernel :func:`best_certificate`
runs it for the full-set index on all anchors at a scale; a walk vertex
reads the scale's pair table, one m x m table of certificates filled once,
and derives the winning pair's witness run again from that pair.  Both read
one window order per scale, ranked from the solve's run tokens.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .anchors import AnchorScheme, AnchorSet, anchor_at, build_exhaustive, build_minimizer
from .qmodel import (
    CostModel,
    OracleHandle,
    QueryLedger,
    WalkHooks,
    WalkMode,
    ceil_sqrt,
    grover_search,  # not called here; perfbench/tracer.py patches rlelcs.walk.grover_search
    walk_search,
)
from .rle import (
    SEP_DOLLAR,
    RleString,
    concat_sep,
    ldcp_runs,  # not called here; perfbench/tracer.py patches rlelcs.walk.ldcp_runs
    lex_compare_runs,  # not called here; perfbench/tracer.py patches it likewise
)
from .structures import DynArray


# Decoded lengths stay below this, so the kernel's sum of two fits int64.
DECODED_LENGTH_BOUND = 1 << 62

# Walk mode solves strings (A $ B, or the LRS string) of at most this many
# runs: there a planted solve peaks just under 200 MiB.  Memory binds, not
# time: a solve keeps one 8 * m**2-byte pair table per scale it visits, so at
# this bound up to 8 tables of 19.5 MiB.  Planted walk-mode solves
# (plant_instance(n, n // 8, 3 * (n // 8), 1)) on a shared 2-vCPU x86-64 VM
# with Python 3.11 took 3.2 s at 769 runs, 7.0 s at 1 023, 13.7 s at 1 600
# and 17.0 s at 2 048, at a peak RSS of 68, 93, 197 and 332 MiB.
WALK_RUN_BOUND = 1600


class InternalInconsistencyError(RuntimeError):
    """A produced answer failed verification; signals an anchor/check bug."""


class DecodedLengthError(ValueError):
    """The string to solve decodes to DECODED_LENGTH_BOUND or more."""


class WalkSizeError(ValueError):
    """A walk-mode solve's string has more than WALK_RUN_BOUND runs."""


class NoSeparatorError(ValueError):
    """Two inputs together use all 256 byte values, so none can separate them."""


class Color(Enum):
    RED = 0
    BLUE = 1
    WHITE = 2


def color_of(x_run: int, sep_index: Optional[int]) -> Color:
    if sep_index is None:
        return Color.RED
    if x_run < sep_index:
        return Color.RED
    if x_run == sep_index:
        return Color.WHITE
    return Color.BLUE


@dataclass(frozen=True)
class Candidate:
    """A marked collision: two anchors, the backward shift, agreement data."""

    k_red: int
    k_blue: int
    d_prime: int
    L: int
    d_tilde: int
    flag_red: bool = True
    x_red: int = 0
    x_blue: int = 0


@dataclass(frozen=True)
class LcsAnswer:
    i_A: int
    i_B: int
    ell: int
    d_tilde: int
    decoded_start_A: int
    decoded_start_B: int

    def as_json(self) -> dict:
        return {
            "i_A": self.i_A,
            "i_B": self.i_B,
            "ell": self.ell,
            "d_tilde": self.d_tilde,
            "decoded_start_A": self.decoded_start_A,
            "decoded_start_B": self.decoded_start_B,
        }


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


def _dense_ranks(*keys: np.ndarray) -> np.ndarray:
    """1-based dense ranks of the rows of keys, the last key primary (as np.lexsort)."""
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = np.cumsum(new)
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
    end of the string sorts before its extensions.  Level k + 1 ranks one
    key, ``levels[k][i] * (2n + 2) + levels[k][i + 2**k]`` (level-0 ranks
    reach 2n: end tokens are ranked too); once a level holds n distinct
    ranks, every later level is that array again, unsorted.
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
            np.concatenate((rising, np.zeros(n, dtype=np.int64))),
            np.concatenate((chars, chars)),
        )
        level = np.zeros(n + 2, dtype=np.int32)
        level[1 : n + 1] = tokens[:n]
        self.end = np.zeros(n + 2, dtype=np.int32)
        self.end[1 : n + 1] = tokens[n:]
        self.levels = [level]
        for k in range(1, n.bit_length()):
            if k == 1 or level.max() < n:
                key = level[1 : n + 1].astype(np.int64) * (2 * n + 2)
                key += level[np.minimum(np.arange(1, n + 1) + (1 << (k - 1)), n + 1)]
                level = np.zeros(n + 2, dtype=np.int32)
                level[1 : n + 1] = _dense_ranks(key)
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
        order = np.lexsort(
            (
                np.arange(m),
                self.end[np.minimum(starts + width - 1, n + 1)],
                self.levels[k][np.minimum(starts + span - (1 << k), n + 1)],
                self.levels[k][starts],
            )
        )
        pos = np.empty(m, dtype=np.int64)
        pos[order] = np.arange(m)
        u, w = starts[order[:-1]], starts[order[1:]]
        # equal leading runs, by binary lifting, capped at the shorter window
        cap = np.minimum(n + 1 - np.maximum(u, w), width)
        same = np.zeros(len(u), dtype=np.int64)
        for k in reversed(range(min(width, n).bit_length())):
            level = self.levels[k]
            step = same + (1 << k)
            same = np.where((step <= cap) & (level[u + same] == level[w + same]), step, same)
        h = self.prefix[u + same - 1] - self.prefix[u - 1]
        # the first unequal token adds its shorter run when the chars match:
        # lengths differ, or only the chars after the run do
        cu, cw = u + same, w + same
        tail = (same < cap) & (self.chars[cu] == self.chars[cw])
        return pos, h + np.where(tail, np.minimum(self.lens[cu], self.lens[cw]), 0)


class _RunTokens:
    """Token ranks of a string's runs, forward and reversed, built on first use.

    One solve shares one instance across its scales, so the runs are read
    once, with n counted run queries, by the first scale that orders its
    windows.
    """

    def __init__(self, handle: OracleHandle):
        self.handle = handle

    @cached_property
    def tables(self) -> tuple[_TokenRanks, _TokenRanks]:
        runs = [self.handle.query_run(i) for i in range(1, self.handle.n + 1)]
        chars = np.array([c for c, _ in runs], dtype=np.int64)
        lens = np.array([length for _, length in runs], dtype=np.int64)
        return _TokenRanks(chars, lens), _TokenRanks(chars[::-1], lens[::-1])


# ---------------------------------------------------------------------------
# shared context


@dataclass
class _WalkContext:
    handle: OracleHandle
    anchors: AnchorSet
    d: int
    sep_index: Optional[int]
    model: CostModel
    tokens: _RunTokens

    @property
    def lrs(self) -> bool:
        return self.sep_index is None

    @cached_property
    def pv(self) -> np.ndarray:
        """Prefix sums as int64, built on first use: cost-only runs never need them."""
        values = self.handle.prefix.values
        return np.fromiter(values, dtype=np.int64, count=len(values))

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
    def pair_table(self) -> np.ndarray:
        """Certificate of every ordered anchor pair (see _pair_table).

        Only walk vertices read it: each walk search marks its pairs once,
        and a vertex's best() reads the stored anchors' block.  It holds
        8 m^2 bytes, the one m x m table a walk-mode scale keeps.
        """
        xs, (fwd_pos, h_f), (bwd_pos, h_b) = self.window_order
        return _pair_table(xs, fwd_pos, h_f, bwd_pos, h_b, self.pv, self.d, self.sep_index)

    def color(self, x: int) -> Color:
        return color_of(x, self.sep_index)


def make_context(
    handle: OracleHandle,
    anchors: AnchorSet,
    d: int,
    sep_index: Optional[int],
    model: CostModel,
    tokens: Optional[_RunTokens] = None,
) -> _WalkContext:
    """Context for one scale; the contexts of one solve pass one shared ``tokens``."""
    handle.ledger.prefix_queries += handle.n + 1
    return _WalkContext(handle, anchors, d, sep_index, model, tokens or _RunTokens(handle))


# ---------------------------------------------------------------------------
# literal walk-vertex structure


class WalkVertex:
    """Stored-anchor state for one walk: the ids, and the count of marked stored pairs.

    A walk search fixes its target length, the vertex's threshold.  A pair
    is marked when its pair-table certificate, with either anchor flagged,
    reaches the threshold; each anchor's marked partners are one bitmask
    row, built from the scale's pair table when the vertex is made.  An
    insert or delete adds or subtracts the marked pairs the anchor forms
    with the stored ids, so a check at or above the threshold with no
    marked pair returns None without reading a pair; any other check runs
    best().  The default threshold, inf, marks nothing and builds no rows.
    The read-only DynArray views, built when read from the context's window
    order: by_key, (anchor id, run index) by id; fwd_order/bwd_order, the
    same in the forward and backward window order; fwd_lcp/bwd_lcp, (anchor
    id, agreement with the next anchor) along each order, the minimum of h
    between their ranks.
    """

    def __init__(self, ctx: _WalkContext, threshold: float = math.inf):
        self.ctx = ctx
        self.threshold = threshold
        self.marked_pairs = 0
        self._ids: set[int] = set()
        self._mask = 0  # bit k - 1 set for each stored id k
        self._rows = (
            [0] * ctx.anchors.m if threshold == math.inf else _marked_rows(ctx, threshold)
        )

    # mutation ----------------------------------------------------------

    def insert(self, k: int) -> None:
        if not 1 <= k <= self.ctx.anchors.m:
            raise IndexError(f"anchor id {k} out of range")
        if k in self._ids:
            raise ValueError(f"anchor {k} already stored")
        self._ids.add(k)
        self.marked_pairs += (self._rows[k - 1] & self._mask).bit_count()
        self._mask |= 1 << (k - 1)

    def delete(self, k: int) -> None:
        if k not in self._ids:
            raise KeyError(k)
        self._ids.remove(k)
        self._mask ^= 1 << (k - 1)
        self.marked_pairs -= (self._rows[k - 1] & self._mask).bit_count()

    # read-only views -----------------------------------------------------

    @property
    def by_key(self) -> DynArray:
        return DynArray(self._entries(sorted(self._ids)))

    @property
    def fwd_order(self) -> DynArray:
        return self._order(self._ranked(0))

    @property
    def fwd_lcp(self) -> DynArray:
        return self._lcp(self._ranked(0), 0)

    @property
    def bwd_order(self) -> DynArray:
        return self._order(self._ranked(1))

    @property
    def bwd_lcp(self) -> DynArray:
        return self._lcp(self._ranked(1), 1)

    def _entries(self, ids: list[int]) -> list[tuple[int, int]]:
        return [(k, anchor_at(self.ctx.anchors, k)) for k in ids]

    def _ranked(self, side: int) -> list[tuple[int, int]]:
        """(rank, anchor id) of the stored anchors, sorted by rank in one window order."""
        ranks = self.ctx.window_order[1 + side][0]
        return sorted((int(ranks[k - 1]), k) for k in self._ids)

    def _order(self, ranked: list[tuple[int, int]]) -> DynArray:
        return DynArray(self._entries([k for _, k in ranked]))

    def _lcp(self, ranked: list[tuple[int, int]], side: int) -> DynArray:
        h = self.ctx.window_order[1 + side][1]
        return DynArray(
            (k, _agreement(h, lo, hi)) for (lo, k), (hi, _) in zip(ranked, ranked[1:])
        )

    # checking ------------------------------------------------------------

    def best(self) -> tuple[int, Optional[tuple[tuple[int, int], tuple[int, int], int]]]:
        """The stored anchors' best certificate and its witness, or (0, None).

        The witness is (flagged, partner, v), the first two as (anchor id,
        run index).  Reads the stored anchors' block of the scale's pair
        table in the kernel's scan order: red flagged anchors first, then
        flagged anchor by id, then partner by id; ties keep the first pair,
        as in best_certificate.  Run indices increase with anchor id, so
        id order puts red anchors first; the white anchor's row is all 0.
        The winning pair's v is derived again from that pair alone.
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
        flag, partner = self._entries([ids[i], ids[j]])
        return best, (flag, partner, _witness_run(self.ctx, at[i], at[j]))

    def check(self, d_tilde: int) -> Optional[Candidate]:
        """The stored anchors' best certified pair, if it reaches d_tilde."""
        if d_tilde < 1 or (self.marked_pairs == 0 and d_tilde >= self.threshold):
            return None
        best, witness = self.best()
        if best < d_tilde:
            return None
        return _candidate(self.ctx, *witness, d_tilde)


def _marked_rows(ctx: _WalkContext, threshold: float) -> list[int]:
    """Per anchor, a bitmask of the partners whose pair certifies threshold, either side flagged.

    Bit b - 1 of row a - 1 is set when the pair table's certificate of
    (a, b) or of (b, a) reaches threshold: one packbits over the m x m
    boolean, one int per row.
    """
    marked = ctx.pair_table >= threshold
    marked = marked | marked.T
    packed = np.packbits(marked, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _agreement(h: np.ndarray, lo: int, hi: int) -> int:
    """Decoded agreement of the anchors at ranks lo < hi: the minimum of h[lo:hi]."""
    return int(h[lo:hi].min())


def _witness_run(ctx: _WalkContext, a: int, b: int) -> int:
    """The witness run v that _score_rows gives flagged anchor a with partner b (0-based)."""
    xs, _, (bwd_pos, h_b) = ctx.window_order
    lo, hi = sorted((int(bwd_pos[a]), int(bwd_pos[b])))
    return int(_snap(ctx.pv, ctx.d, xs[a], _agreement(h_b, lo, hi))[0])


# ---------------------------------------------------------------------------
# certificate kernel, shared by the full-set index and the walk vertex


def _sparse_tables(h: np.ndarray) -> np.ndarray:
    """Row k holds the minimum of h over the 2**k entries from each start (row tails unused)."""
    tables = np.zeros((max(1, len(h).bit_length()), len(h)), dtype=np.int64)
    tables[0] = h
    for k in range(1, len(tables)):
        half = 1 << (k - 1)
        tables[k, :-half] = np.minimum(tables[k - 1, :-half], tables[k - 1, half:])
    return tables


def _floor_log2(n: np.ndarray) -> np.ndarray:
    """floor(log2 n) of positive integers, exact below 2**53."""
    return np.frexp(n)[1] - 1


def _rmq_vec(tables: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized min over h[lo..hi] (inclusive, 0-based, lengths >= 1)."""
    k = _floor_log2(hi - lo + 1)
    return np.minimum(tables[k, lo], tables[k, hi + 1 - (1 << k)])


# Pairs the kernel evaluates per numpy pass: large enough to amortize the
# per-pass overhead, small enough that the pass's temporaries stay near 1 MiB.
# A pass scores a block of flagged anchors against every anchor, so it holds
# _PAIR_BATCH // m rows (at least one).
_PAIR_BATCH = 4096

# An anchor's agreement with itself: above every decoded length, and a
# decoded length added to it still fits int64.
_SELF = DECODED_LENGTH_BOUND


def _row_agreements(pos: np.ndarray, h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Agreement of each row's anchor with every anchor, columns in anchor order.

    In a decoded order with ranks pos and adjacent agreements h, ranks r < s
    agree for min(h[r..s-1]): a row is the cumulative minimum of h rightward
    from its own rank and leftward over the reversed prefix before it.  The
    row's own column reads _SELF.
    """
    right_side = np.arange(len(h)) >= pos[rows][:, None]
    right = np.minimum.accumulate(np.where(right_side, h, _SELF), axis=1)
    left = np.minimum.accumulate(np.where(right_side, _SELF, h)[:, ::-1], axis=1)[:, ::-1]
    # rank s above the row's rank reads right[s - 1], rank s below it left[s]
    pad = np.full((len(rows), 1), _SELF)
    by_rank = np.minimum(np.hstack((pad, right)), np.hstack((left, pad)))
    return by_rank[:, pos]


def _snap(pv: np.ndarray, d: int, x_a: np.ndarray, q: np.ndarray):
    """The longest whole-run backward span ending at run x_a that fits in q.

    Returns v, the run before the span (at most 2d + 1 runs back); whether
    the span holds the anchor run at least; and max_l - rho, the span's
    length beyond that run.  The gain never falls as q grows.
    """
    v = np.searchsorted(pv, pv[x_a] - q, side="left")
    v = np.maximum(v, np.maximum(x_a - 2 * d - 1, 0))
    return v, v <= x_a - 1, pv[x_a - 1] - pv[np.minimum(v, x_a - 1)]


def _nearest(is_partner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per rank, the nearest rank before and after it whose anchor is_partner (-1 / m if none)."""
    m = len(is_partner)
    ranks = np.arange(m)
    before = np.maximum.accumulate(np.where(is_partner, ranks, -1))
    after = np.minimum.accumulate(np.where(is_partner, ranks, m)[::-1])[::-1]
    return np.concatenate(([-1], before[:-1])), np.concatenate((after[1:], [m]))


def _neighbours(pos: np.ndarray, side: Optional[np.ndarray]) -> list[np.ndarray]:
    """Each anchor's nearest partners before and after it in one decoded order.

    side is 0 (red), 1 (blue) or 2 (white) per anchor, or None for a single
    string, where every other anchor is a partner.  Anchor indices, -1 where
    there is none; the entries of the white anchor are never read.
    """
    m = len(pos)
    at = np.empty(m, dtype=np.int64)
    at[pos] = np.arange(m)
    if side is None:
        ranks = [pos - 1, pos + 1]
    else:
        of_red, of_blue = _nearest(side[at] == 0), _nearest(side[at] == 1)
        ranks = [np.where(side == 0, of_blue[k][pos], of_red[k][pos]) for k in (0, 1)]
    return [np.where((r >= 0) & (r < m), at[np.clip(r, 0, m - 1)], -1) for r in ranks]


def _row_bounds(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged):
    """Per-anchor bound on its row's certificates, and a certificate some pair reaches.

    Agreement only falls with distance in a decoded order, so an anchor's
    nearest partners in the forward order give its largest p and those in
    the backward order its largest q; the row bound is p + gain(q) at those
    maxima, or -1 where no span fits.  The lower bound is the best exact
    certificate among these at most 4 pairs per flagged anchor.
    """
    t_f, t_b = _sparse_tables(h_f), _sparse_tables(h_b)
    nearest = _neighbours(fwd_pos, side) + _neighbours(bwd_pos, side)
    partners = np.stack([n[flagged] for n in nearest])
    has = partners >= 0
    a = np.broadcast_to(flagged, partners.shape)[has]
    b = partners[has]
    p_f, p_b = fwd_pos[a], fwd_pos[b]
    p = _rmq_vec(t_f, np.minimum(p_f, p_b), np.maximum(p_f, p_b) - 1)
    q_f, q_b = bwd_pos[a], bwd_pos[b]
    q = _rmq_vec(t_b, np.minimum(q_f, q_b), np.maximum(q_f, q_b) - 1)
    _, ok, gain = _snap(pv, d, xs[a], q)
    lower = int(np.max(np.where(ok, p + gain, 0), initial=0))
    p_max, q_max = np.full(partners.shape, -1), np.full(partners.shape, -1)
    p_max[has], q_max[has] = p, q
    p_max, q_max = p_max.max(axis=0), q_max.max(axis=0)
    _, ok, gain = _snap(pv, d, xs[flagged], q_max)
    upper = np.full(len(xs), -1)
    upper[flagged] = np.where(ok, p_max + gain, -1)
    return upper, lower


def _sides(xs: np.ndarray, sep_index: Optional[int]) -> Optional[np.ndarray]:
    """0 (red), 1 (blue) or 2 (white) per anchor, or None for a single string."""
    if sep_index is None:
        return None
    return np.where(xs < sep_index, 0, np.where(xs > sep_index, 1, 2))


def _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, rows):
    """Certificate and witness run v of each row's anchor, flagged, with every partner.

    The one home of the certificate arithmetic: a row of cumulative-minimum
    agreements p and q per decoded order, q snapped to whole runs, and 0
    where the pair is not admissible (the anchor itself, same colour, white).
    """
    p = _row_agreements(fwd_pos, h_f, rows)
    q = _row_agreements(bwd_pos, h_b, rows)
    v, ok, gain = _snap(pv, d, xs[rows][:, None], q)
    if side is None:
        ok &= np.arange(len(xs)) != rows[:, None]
    else:
        ok &= side == 1 - side[rows][:, None]
    return np.where(ok, p + gain, 0), v


def best_certificate(
    xs: np.ndarray,
    fwd_pos: np.ndarray,
    h_f: np.ndarray,
    bwd_pos: np.ndarray,
    h_b: np.ndarray,
    pv: np.ndarray,
    d: int,
    sep_index: Optional[int],
) -> tuple[int, Optional[tuple[int, int, int]]]:
    """Largest target length any admissible pair of the given anchors certifies.

    xs holds the anchors' run indices; fwd_pos/bwd_pos their 0-based ranks
    in the forward and backward decoded orders, h_f/h_b the agreement of
    adjacent entries in those orders, pv the prefix sums.  A flagged anchor
    a and an opposite-colour partner (any other anchor for a single string)
    with forward agreement p and backward agreement q certify
    p + max_l - rho: max_l is the longest whole-run backward span ending at
    a's run, at most 2d + 1 runs, that fits in q, and rho is a's run length.
    Returns (best, (a, partner, v)) with indices into xs and v the run
    before the span, or (0, None).  Pairs are scanned by side (red flagged
    first), then flagged anchor, then partner; ties keep the first pair
    scanned.

    Each flagged anchor's row of pairs comes from cumulative minima, a block
    of rows per numpy pass.  When the rows take more than one pass, exact
    row bounds skip the rows that cannot win: a skipped row could at most
    tie a pair that is scanned before it.
    """
    m = len(xs)
    if m < 2:
        return 0, None
    side = _sides(xs, sep_index)
    if side is None:
        flagged = np.arange(m)
    else:
        flagged = np.concatenate((np.flatnonzero(side == 0), np.flatnonzero(side == 1)))
    rows_per_pass = max(1, _PAIR_BATCH // m)
    upper = None
    if len(flagged) > rows_per_pass:
        upper, lower = _row_bounds(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, flagged)
        flagged = flagged[upper[flagged] >= max(lower, 1)]
    best, best_args = 0, None
    while len(flagged):
        rows, flagged = flagged[:rows_per_pass], flagged[rows_per_pass:]
        cert, v = _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, rows)
        i, j = divmod(int(np.argmax(cert)), m)
        if int(cert[i, j]) > best:
            best, best_args = int(cert[i, j]), (int(rows[i]), j, int(v[i, j]))
            if upper is not None:
                flagged = flagged[upper[flagged] > best]
    return best, best_args


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
        cert[rows] = _score_rows(xs, fwd_pos, h_f, bwd_pos, h_b, pv, d, side, rows)[0]
    return cert


def _candidate(
    ctx: _WalkContext, flagged: tuple[int, int], partner: tuple[int, int], v: int, d_tilde: int
) -> Candidate:
    """Orient a kernel witness, given as (anchor id, run index) pairs, red first."""
    (k_a, x_a), (k_b, x_b) = flagged, partner
    d_prime = x_a - v - 1
    big_l = int(ctx.pv[x_a] - ctx.pv[v])
    if ctx.color(x_a) is Color.RED:
        return Candidate(k_a, k_b, d_prime, big_l, d_tilde, True, x_a, x_b)
    return Candidate(k_b, k_a, d_prime, big_l, d_tilde, False, x_b, x_a)


class CollisionIndex:
    """Best certified length over the full anchor set at one scale d.

    Runs the certificate kernel over all anchors in the context's window
    order, so one (length, witness) pair answers every probe at this scale.
    Over the same anchors, best never rises as d falls: a narrower window
    never agrees for longer, _snap's span floor x_a - 2d - 1 only rises and
    admissibility ignores d, so no pair's certificate grows (_ceiling uses
    this).
    """

    def __init__(self, ctx: _WalkContext):
        self.ctx = ctx
        self.xs, (fwd_pos, h_f), (bwd_pos, h_b) = ctx.window_order
        self.best, self.best_args = best_certificate(
            self.xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index
        )

    def query(self, d_tilde: int) -> Optional[Candidate]:
        if d_tilde < 1 or self.best < d_tilde:
            return None
        a, b, v = self.best_args
        return _candidate(
            self.ctx, (a + 1, int(self.xs[a])), (b + 1, int(self.xs[b])), v, d_tilde
        )


def _ceiling(index_cache: dict[int, CollisionIndex], ctx: _WalkContext) -> float:
    """Least best of the cached indexes above ctx.d over the same anchor entries, else inf.

    It bounds this scale's best from above: with the same anchors each
    pair's certificate never falls as d grows (see CollisionIndex).
    """
    entries = ctx.anchors.entries
    return min(
        (
            index.best
            for d, index in index_cache.items()
            if d > ctx.d and index.ctx.anchors.entries == entries
        ),
        default=math.inf,
    )


# ---------------------------------------------------------------------------
# one anchored search at a fixed scale


def inner_search(
    ctx: _WalkContext,
    d_tilde: int,
    r: int,
    *,
    mode: WalkMode,
    ledger: QueryLedger,
    rng: Optional[random.Random] = None,
    index_cache: Optional[dict[int, CollisionIndex]] = None,
) -> Optional[Candidate]:
    """Walk search over r-subsets of the anchor set for one (d, d_tilde).

    The full-set mode decides the existence question exactly; the random
    walk samples subsets up to a step budget; the cost-only mode charges
    the search without executing it.  The random walk and the cost-only
    mode declare the same setup, update and check charges, so both add the
    same amount to the ledger.

    ``index_cache`` holds one solve's full-set indexes by scale.  A scale
    whose anchor entries equal those of a cached larger scale whose best is
    below d_tilde builds no index and reports None: narrowing the windows
    over the same anchors never raises a certificate (see CollisionIndex).
    Its charges are those of a scale that builds.
    """
    m = ctx.anchors.m
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    model = ctx.model
    d = ctx.d
    delta = (r / m) ** 2

    if mode is WalkMode.FULLSET:
        cache = {} if index_cache is None else index_cache
        if d not in cache and _ceiling(cache, ctx) >= d_tilde:
            cache[d] = CollisionIndex(ctx)
        index = cache.get(d)  # None: a larger scale rules d_tilde out
        hooks = WalkHooks(
            setup_cost=setup_charge(model, d, m),
            update_cost=0.0,
            check_cost=check_charge(model, d, m),
            setup=lambda subset: index,
            check=lambda state: None if state is None else state.query(d_tilde),
        )
        return walk_search(m, m, delta, hooks, mode=mode, ledger=ledger, model=model)

    hooks = WalkHooks(
        setup_cost=setup_charge(model, d, r),
        update_cost=update_charge(model, d),
        check_cost=check_charge(model, d, r),
    )
    if mode is WalkMode.RANDOMWALK:

        def setup(subset):
            vertex = WalkVertex(ctx, d_tilde)
            for k in subset:
                vertex.insert(k)
            return vertex

        def update(vertex, removed, added):
            vertex.delete(removed)
            vertex.insert(added)

        hooks.setup, hooks.update = setup, update
        hooks.check = lambda vertex: vertex.check(d_tilde)
    return walk_search(m, r, delta, hooks, mode=mode, ledger=ledger, model=model, rng=rng)


# ---------------------------------------------------------------------------
# decoded-domain extension and verification


def _match(ha: OracleHandle, pos_a: int, hb: OracleHandle, pos_b: int, step: int) -> int:
    """Length of the maximal equal segment from two positions, read forward (step 1) or back."""
    end_a, end_b = ha.total, hb.total
    if not (1 <= pos_a <= end_a and 1 <= pos_b <= end_b):
        return 0
    back = int(step < 0)  # reading backward, run i's last char is prefix(i - 1) + 1
    ia = ha.inverse_prefix(pos_a)
    ib = hb.inverse_prefix(pos_b)
    length = 0
    while True:
        ca, _ = ha.query_run(ia)
        cb, _ = hb.query_run(ib)
        if ca != cb:
            return length
        # chars from the position to the end of its run, in reading direction
        rem_a = abs(ha.query_prefix(ia - back) + back - pos_a) + 1
        rem_b = abs(hb.query_prefix(ib - back) + back - pos_b) + 1
        run = min(rem_a, rem_b)
        length += run
        pos_a += step * run
        pos_b += step * run
        if not (1 <= pos_a <= end_a and 1 <= pos_b <= end_b):
            return length
        if rem_a <= rem_b:
            ia += step
        if rem_b <= rem_a:
            ib += step


@dataclass(frozen=True)
class _FallbackHit:
    """Best one- or two-run collision, as ends-aligned decoded positions."""

    value: int
    end_a: int
    end_b: int


def _single_run_best(runs_by_char_a, runs_by_char_b, prefix_a, prefix_b):
    best = None
    for c, items_a in runs_by_char_a.items():
        items_b = runs_by_char_b.get(c)
        if not items_b:
            continue
        la, ia = max(items_a)
        lb, ib = max(items_b)
        val = min(la, lb)
        if best is None or val > best.value:
            best = _FallbackHit(val, prefix_a[ia], prefix_b[ib])
    return best


def _boundary_map(s: RleString, prefix) -> dict:
    out: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for i in range(s.n - 1):
        r1, r2 = s.runs[i], s.runs[i + 1]
        out.setdefault((r1.char, r2.char), []).append((r1.length, r2.length, prefix[i + 1]))
    return out


def _double_run_best(bmap_a, bmap_b, distinct: bool):
    """Best min(xa, xb) + min(ya, yb) over boundary pairs with equal char pairs.

    Pairs are scanned by key, then a's boundary, then b's, in numpy blocks
    of about _PAIR_BATCH pairs; ties keep the first pair scanned.  With
    ``distinct`` a boundary is not paired with itself.
    """
    best = None
    for key, items_a in bmap_a.items():
        items_b = bmap_b.get(key)
        if not items_b:
            continue
        xa, ya, ea = np.array(items_a, dtype=np.int64).T
        xb, yb, eb = np.array(items_b, dtype=np.int64).T
        rows = max(1, _PAIR_BATCH // len(xb))
        for lo in range(0, len(xa), rows):
            block = slice(lo, lo + rows)
            val = np.minimum.outer(xa[block], xb) + np.minimum.outer(ya[block], yb)
            if distinct:
                val[np.equal.outer(ea[block], eb)] = 0
            i, j = divmod(int(np.argmax(val)), len(xb))
            if val[i, j] > (0 if best is None else best.value):
                best = _FallbackHit(int(val[i, j]), int(ea[lo + i]), int(eb[j]))
    return best


def _lrs_single_best(s: RleString, prefix):
    by_char: dict[int, list[tuple[int, int]]] = {}
    for i, r in enumerate(s.runs):
        by_char.setdefault(r.char, []).append((r.length, i + 1))
    best = None
    for items in by_char.values():
        items.sort(reverse=True)
        l1, i1 = items[0]
        if l1 >= 2:
            cand = _FallbackHit(l1 - 1, prefix[i1] - 1, prefix[i1])
            if best is None or cand.value > best.value:
                best = cand
        if len(items) >= 2:
            l2, i2 = items[1]
            cand = _FallbackHit(min(l1, l2), prefix[i1], prefix[i2])
            if best is None or cand.value > best.value:
                best = cand
    return best


def _small_fallback(
    ha: OracleHandle,
    hb: OracleHandle,
    lrs: bool,
    ledger: QueryLedger,
    model: CostModel,
    execute: bool,
) -> Optional[_FallbackHit]:
    """Single- and two-run collisions, solved directly.

    Anchor alignment needs an interior run, so runs of one or two runs are
    found by minimum finding over per-char maximal runs plus a search over
    run-boundary pairs with matching char pairs.  Charged once per solve.
    """
    na, nb = ha.n, hb.n
    charge = minfind_charge(model, max(1, na), max(1, nb))
    pairs = max(1, (na - 1) * (nb - 1)) if not lrs else max(1, (na - 1) ** 2)
    charge += grover_charge(model, pairs)
    ledger.charge(charge)
    if not execute:
        return None
    pa = ha.prefix.values
    pb = hb.prefix.values
    if lrs:
        best = _lrs_single_best(ha.string, pa)
        bmap = _boundary_map(ha.string, pa)
        two = _double_run_best(bmap, bmap, distinct=True)
    else:
        by_a: dict[int, list[tuple[int, int]]] = {}
        for i, r in enumerate(ha.string.runs):
            by_a.setdefault(r.char, []).append((r.length, i + 1))
        by_b: dict[int, list[tuple[int, int]]] = {}
        for i, r in enumerate(hb.string.runs):
            by_b.setdefault(r.char, []).append((r.length, i + 1))
        best = _single_run_best(by_a, by_b, pa, pb)
        two = _double_run_best(_boundary_map(ha.string, pa), _boundary_map(hb.string, pb), False)
    if two is not None and (best is None or two.value > best.value):
        best = two
    return best


def finalize_answer(
    ends_a: int,
    ends_b: int,
    ha: OracleHandle,
    hb: OracleHandle,
) -> LcsAnswer:
    """Extend a verified ends-aligned collision to its maximal occurrence.

    The closed-form run arithmetic cannot pin the start offset inside the
    first run, so the answer is derived by explicit decoded extension
    around the alignment: match backward from the two ends, forward from
    the positions after them, and read the runs the occurrence spans.
    """
    q = _match(ha, ends_a, hb, ends_b, -1)
    if q == 0:
        raise InternalInconsistencyError("collision ends do not match backward")
    f = _match(ha, ends_a + 1, hb, ends_b + 1, 1)
    total = q + f
    start_a = ends_a - q + 1
    start_b = ends_b - q + 1
    i_a = ha.inverse_prefix(start_a)
    i_b = hb.inverse_prefix(start_b)
    ell = ha.inverse_prefix(start_a + total - 1) - i_a + 1
    return LcsAnswer(i_a, i_b, ell, total, start_a, start_b)


def verify_candidate(ans: LcsAnswer, ha: OracleHandle, hb: OracleHandle) -> bool:
    """Soundness gate: decoded equality, runs containing the starts, run count."""
    d_tilde = ans.d_tilde
    if d_tilde < 1:
        return False
    if ans.decoded_start_A < 1 or ans.decoded_start_A + d_tilde - 1 > ha.total:
        return False
    if ans.decoded_start_B < 1 or ans.decoded_start_B + d_tilde - 1 > hb.total:
        return False
    if ha is hb and ans.decoded_start_A == ans.decoded_start_B:
        return False
    pa, pb = ha.prefix, hb.prefix
    if not (pa.clamped(ans.i_A - 1) < ans.decoded_start_A <= pa.clamped(ans.i_A)):
        return False
    if not (pb.clamped(ans.i_B - 1) < ans.decoded_start_B <= pb.clamped(ans.i_B)):
        return False
    if _match(ha, ans.decoded_start_A, hb, ans.decoded_start_B, 1) < d_tilde:
        return False
    end_run = ha.inverse_prefix(ans.decoded_start_A + d_tilde - 1)
    return end_run - ans.i_A + 1 == ans.ell


# ---------------------------------------------------------------------------
# the solver


@dataclass
class SolverConfig:
    mode: WalkMode = WalkMode.FULLSET
    anchors: AnchorScheme = AnchorScheme.EXHAUSTIVE
    seed: int = 0
    model: CostModel = field(default_factory=CostModel)
    use_fallback: bool = True
    # cost-only trajectories branch on (decoded, encoded) answer lengths;
    # without a hint the worst-case trajectory is charged
    truth_hint: Optional[tuple[int, int]] = None
    # per-scale anchor override, used by soundness tests
    anchor_sets: Optional[dict[int, AnchorSet]] = None


def scale_anchors(
    s: RleString,
    d: int,
    scheme: AnchorScheme,
    seed: int,
    model: CostModel,
    span_hashes: Optional[dict[int, np.ndarray]] = None,
) -> AnchorSet:
    """Scale d's anchors: minimizers when the scheme asks and d >= d_min, else every run."""
    if scheme is AnchorScheme.MINIMIZER and d >= model.d_min:
        return build_minimizer(s, d, seed, d_min=model.d_min, span_hashes=span_hashes)
    return build_exhaustive(s, d)


def subset_size(model: CostModel, m: int) -> int:
    """The walk's subset size r = ceil(r_const * m^(2/3)), clamped to 1..m."""
    return max(1, min(m, math.ceil(model.r_const * m ** (2.0 / 3.0))))


class _HintHit:
    pass


_HINT = _HintHit()


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
    if config.mode is WalkMode.RANDOMWALK and hs.n > WALK_RUN_BOUND:
        raise WalkSizeError(f"walk mode takes at most {WALK_RUN_BOUND} runs, got {hs.n}")
    model = config.model
    ledger = hs.ledger
    lrs = sep_index is None
    rng = random.Random(config.seed)
    hi = (ha.total - 1) if lrs else min(ha.total, hb.total)
    if hi < 1:
        return None
    d_values = _d_values(hs.n, model.d_min)
    cost_only = config.mode is WalkMode.COSTONLY

    ctx_cache: dict[int, _WalkContext] = {}
    tokens = _RunTokens(hs)
    span_hashes: dict[int, np.ndarray] = {}

    def ctx_for(d: int) -> _WalkContext:
        if d not in ctx_cache:
            if config.anchor_sets is not None and d in config.anchor_sets:
                anchors = config.anchor_sets[d]
            else:
                anchors = scale_anchors(
                    hs.string, d, config.anchors, config.seed, model, span_hashes
                )
            ctx_cache[d] = make_context(hs, anchors, d, sep_index, model, tokens)
        return ctx_cache[d]

    index_cache: dict[int, CollisionIndex] = {}
    fallback = (
        _small_fallback(ha, hb, lrs, ledger, model, execute=not cost_only)
        if config.use_fallback
        else None
    )
    hint = config.truth_hint if config.truth_hint is not None else (hi, 1)

    def probe(d_tilde: int):
        for d in d_values:
            ctx = ctx_for(d)
            cand = inner_search(
                ctx,
                d_tilde,
                subset_size(model, ctx.anchors.m),
                mode=config.mode,
                ledger=ledger,
                rng=rng,
                index_cache=index_cache,
            )
            if cost_only:
                if d_tilde <= hint[0] and d <= max(hint[1], model.d_min):
                    return _HINT
                continue
            if cand is not None:
                return cand
        if config.use_fallback:
            if cost_only:
                return _HINT if d_tilde <= hint[0] else None
            if fallback is not None and fallback.value >= d_tilde:
                return fallback
        return None

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

    if isinstance(best_hit, Candidate):
        if lrs:
            ends_a = hs.prefix.values[best_hit.x_red]
            ends_b = hs.prefix.values[best_hit.x_blue]
        else:
            ends_a = hs.prefix.values[best_hit.x_red]
            ends_b = hs.prefix.values[best_hit.x_blue] - (ha.total + 1)
    else:
        ends_a, ends_b = best_hit.end_a, best_hit.end_b
    answer = finalize_answer(ends_a, ends_b, ha, hb)
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


def _separator(a: RleString, b: RleString) -> int:
    """``$`` when neither input contains it, else the smallest byte absent from both."""
    used = {r.char for r in a.runs} | {r.char for r in b.runs}
    if SEP_DOLLAR not in used:
        return SEP_DOLLAR
    free = [c for c in range(256) if c not in used]
    if not free:
        raise NoSeparatorError("the inputs use all 256 byte values; none is free to separate them")
    return free[0]


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
    s, sep_index = concat_sep(ha.string, hb.string, _separator(ha.string, hb.string))
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
