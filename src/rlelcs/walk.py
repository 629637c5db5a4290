"""Anchored walk search for the longest common decoded substring.

The solver nests a binary search on the decoded answer length inside a
halving sweep over encoded window scales d.  At each scale it walks over
r-subsets of an anchor set on the concatenation A $ B; a vertex stores the
chosen anchors sorted by the text read forward from each anchor and by the
text read backward into it, with adjacent decoded-common-prefix lengths and
rank structures that let the check count opposite-color partners.

A candidate pair certifies a target length t via two agreement conditions
anchored at the pair's run ends: the backward windows agree for at least L
decoded chars (L spans the shift runs, anchor run included) and the forward
windows agree for at least t - L + rho chars, where rho is the flagged
anchor's run length.  The forward and backward windows both cover the
anchor run, so the forward threshold re-counts it; the rho term compensates
and makes the certificate exact (t agreed chars, stitched at the shared
run boundary).  One kernel, :func:`best_certificate`, evaluates this for
every admissible pair of an anchor set; the full-set index runs it on all
anchors at a scale and the walk vertex's check on its stored subset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, cmp_to_key
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
from .rle import SEP_DOLLAR, RleString, concat_sep, ldcp_runs, lex_compare_runs
from .structures import DynArray, RangeSum2D


class InternalInconsistencyError(RuntimeError):
    """A produced answer failed verification; signals an anchor/check bug."""


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


class _Window:
    """Lazy run slice of the concatenated string, optionally reversed.

    Materializes its runs through the oracle on first access, so query
    counters tick once per covered run.
    """

    __slots__ = ("handle", "lo", "hi", "rev", "_runs")

    def __init__(self, handle: OracleHandle, lo: int, hi: int, rev: bool):
        self.handle = handle
        self.lo = lo
        self.hi = hi
        self.rev = rev
        self._runs: Optional[list] = None

    def __len__(self) -> int:
        return max(0, self.hi - self.lo + 1)

    def _fetch(self) -> list:
        if self._runs is None:
            runs = [self.handle.query_run(i) for i in range(self.lo, self.hi + 1)]
            if self.rev:
                runs.reverse()
            self._runs = runs
        return self._runs

    def __getitem__(self, i: int):
        return self._fetch()[i]


def prefix_window(s: RleString, anchors: AnchorSet, k: int, d: int) -> RleString:
    """Runs from the anchor forward, 2d runs past it, clamped at the end."""
    x = anchor_at(anchors, k)
    hi = min(s.n, x + 2 * d)
    return RleString(s.runs[x - 1 : hi])


def suffix_window(s: RleString, anchors: AnchorSet, k: int, d: int) -> RleString:
    """Runs from 2d before the anchor up to it, reversed, clamped at start."""
    x = anchor_at(anchors, k)
    lo = max(1, x - 2 * d)
    return RleString(tuple(reversed(s.runs[lo - 1 : x])))


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


def comparison_charge(model: CostModel, d: int) -> float:
    """One lexicographic window comparison: minimum finding over 2d+1 runs."""
    return model.minfind_factor * ceil_sqrt(2 * d + 1)


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
    return model.grover_factor * ceil_sqrt(space) * model.check_unit


def walk_charge(model: CostModel, d: int, r: int, m: int, delta: float) -> float:
    """Full search charge: setup + (1/sqrt(delta)) (sqrt(r) update + check)."""
    return setup_charge(model, d, r) + (1.0 / math.sqrt(delta)) * (
        math.sqrt(r) * update_charge(model, d) + check_charge(model, d, r)
    )


# ---------------------------------------------------------------------------
# shared context


@dataclass
class _WalkContext:
    handle: OracleHandle
    anchors: AnchorSet
    d: int
    sep_index: Optional[int]
    model: CostModel

    @property
    def lrs(self) -> bool:
        return self.sep_index is None

    @cached_property
    def pv(self) -> np.ndarray:
        """Prefix sums as int64, built on first use: cost-only runs never need them."""
        values = self.handle.prefix.values
        return np.fromiter(values, dtype=np.int64, count=len(values))

    def fwd_win(self, x: int) -> _Window:
        return _Window(self.handle, x, min(self.handle.n, x + 2 * self.d), False)

    def bwd_win(self, x: int) -> _Window:
        return _Window(self.handle, max(1, x - 2 * self.d), x, True)

    def color(self, x: int) -> Color:
        return color_of(x, self.sep_index)


def make_context(
    handle: OracleHandle,
    anchors: AnchorSet,
    d: int,
    sep_index: Optional[int],
    model: CostModel,
) -> _WalkContext:
    handle.ledger.prefix_queries += handle.n + 1
    return _WalkContext(handle, anchors, d, sep_index, model)


# ---------------------------------------------------------------------------
# literal walk-vertex structure


class WalkVertex:
    """Stored-anchor state for one walk: five dynamic arrays, rank counters.

    by_key holds (anchor id, run index) sorted by id; fwd_order/bwd_order
    hold the ids sorted by the decoded text around each anchor with the
    adjacent common-prefix lengths in fwd_lcp/bwd_lcp; non-white anchors
    contribute their rank pair (against the fixed reference subset) to the
    per-color 2D counters.  The check does not read the counters; they stay
    because walk mode measures its update charge on maintaining them.
    """

    def __init__(self, ctx: _WalkContext, sample: tuple[int, ...], ledger: QueryLedger):
        self.ctx = ctx
        self.ledger = ledger
        self.by_key = DynArray()
        self.fwd_order = DynArray()
        self.fwd_lcp = DynArray()
        self.bwd_order = DynArray()
        self.bwd_lcp = DynArray()
        self.red_pts = RangeSum2D(ctx.anchors.m + 1)
        self.blue_pts = RangeSum2D(ctx.anchors.m + 1)
        self._cmp_charge = comparison_charge(ctx.model, ctx.d)
        self._wins: dict[tuple[int, bool], _Window] = {}
        # reference subset, held in both decoded orders; building it costs
        # one sorting pass of comparisons, same order as the setup
        self.sample = tuple(sorted(sample))
        ledger.charge(ctx.model.setup_sort_factor * max(1, len(sample)) * self._cmp_charge)
        self.v_fwd = sorted(self.sample, key=cmp_to_key(self._fwd_id_cmp))
        self.v_bwd = sorted(self.sample, key=cmp_to_key(self._bwd_id_cmp))

    # window helpers ---------------------------------------------------

    def _x_of(self, k: int) -> int:
        return self.ctx.anchors.entries[k - 1]

    def _fwd(self, k: int) -> _Window:
        win = self._wins.get((k, False))
        if win is None:
            win = self._wins[(k, False)] = self.ctx.fwd_win(self._x_of(k))
        return win

    def _bwd(self, k: int) -> _Window:
        win = self._wins.get((k, True))
        if win is None:
            win = self._wins[(k, True)] = self.ctx.bwd_win(self._x_of(k))
        return win

    def _fwd_id_cmp(self, k1: int, k2: int) -> int:
        c = lex_compare_runs(self._fwd(k1), self._fwd(k2))
        return c if c else (k1 > k2) - (k1 < k2)

    def _bwd_id_cmp(self, k1: int, k2: int) -> int:
        c = lex_compare_runs(self._bwd(k1), self._bwd(k2))
        return c if c else (k1 > k2) - (k1 < k2)

    def _charged_cmp(self, cmpfn, k1: int, k2: int) -> int:
        self.ledger.charge(self._cmp_charge)
        return cmpfn(k1, k2)

    def _charged_ldcp(self, winfn, k1: int, k2: int) -> int:
        self.ledger.charge(self._cmp_charge)
        return ldcp_runs(winfn(k1), winfn(k2))

    def _rank(self, v_sorted, winfn, k: int) -> int:
        """Count of reference anchors whose window is lexicographically <= k's."""
        win_k = winfn(k)
        lo, hi = 0, len(v_sorted)
        while lo < hi:
            mid = (lo + hi) // 2
            self.ledger.charge(self._cmp_charge)
            if lex_compare_runs(winfn(v_sorted[mid]), win_k) > 0:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # mutation ----------------------------------------------------------

    def insert(self, k: int) -> None:
        if not 1 <= k <= self.ctx.anchors.m:
            raise IndexError(f"anchor id {k} out of range")
        try:
            self.by_key.locate(k)
        except KeyError:
            pass
        else:
            raise ValueError(f"anchor {k} already stored")
        x = anchor_at(self.ctx.anchors, k, ledger=self.ledger, model=self.ctx.model, d=self.ctx.d)
        pos = self._bisect_by_key(k)
        self.by_key.insert(pos, k, x, self.ledger)
        self._order_insert(self.fwd_order, self.fwd_lcp, self._fwd_id_cmp, self._fwd, k, x)
        self._order_insert(self.bwd_order, self.bwd_lcp, self._bwd_id_cmp, self._bwd, k, x)
        color = self.ctx.color(x)
        if color is not Color.WHITE:
            rp = self._rank(self.v_fwd, self._fwd, k)
            rq = self._rank(self.v_bwd, self._bwd, k)
            pts = self.red_pts if color is Color.RED else self.blue_pts
            pts.insert(rp, rq, self.ledger)

    def delete(self, k: int) -> None:
        pos = self.by_key.locate(k, self.ledger)
        _, x = self.by_key.index(pos, self.ledger)
        color = self.ctx.color(x)
        if color is not Color.WHITE:
            rp = self._rank(self.v_fwd, self._fwd, k)
            rq = self._rank(self.v_bwd, self._bwd, k)
            pts = self.red_pts if color is Color.RED else self.blue_pts
            pts.delete(rp, rq, self.ledger)
        self._order_delete(self.fwd_order, self.fwd_lcp, self._fwd, k)
        self._order_delete(self.bwd_order, self.bwd_lcp, self._bwd, k)
        self.by_key.delete(pos, self.ledger)
        # uncomputing the anchor entry mirrors the insertion charge
        self.ledger.charge(self.ctx.model.anchor_factor * math.sqrt(self.ctx.d))

    def _bisect_by_key(self, k: int) -> int:
        lo, hi = 1, len(self.by_key) + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.by_key.index(mid, self.ledger)[0] > k:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _order_insert(self, order: DynArray, lcp: DynArray, cmpfn, winfn, k: int, x: int) -> None:
        t = len(order)
        lo, hi = 1, t + 1
        while lo < hi:
            mid = (lo + hi) // 2
            other = order.index(mid, self.ledger)[0]
            if self._charged_cmp(cmpfn, k, other) < 0:
                hi = mid
            else:
                lo = mid + 1
        p = lo
        order.insert(p, k, x, self.ledger)
        if t == 0:
            return
        if 1 < p <= t:
            lcp.delete(p - 1, self.ledger)
        if p > 1:
            left = order.index(p - 1, self.ledger)[0]
            lcp.insert(p - 1, left, self._charged_ldcp(winfn, left, k), self.ledger)
        if p <= t:
            right = order.index(p + 1, self.ledger)[0]
            lcp.insert(p, k, self._charged_ldcp(winfn, k, right), self.ledger)

    def _order_delete(self, order: DynArray, lcp: DynArray, winfn, k: int) -> None:
        p = order.locate(k, self.ledger)
        t = len(order)
        left = order.index(p - 1, self.ledger)[0] if p > 1 else None
        right = order.index(p + 1, self.ledger)[0] if p < t else None
        if p < t:
            lcp.delete(p, self.ledger)
        if p > 1:
            lcp.delete(p - 1, self.ledger)
        order.delete(p, self.ledger)
        if left is not None and right is not None:
            lcp.insert(p - 1, left, self._charged_ldcp(winfn, left, right), self.ledger)

    # checking ------------------------------------------------------------

    def check(self, d_tilde: int) -> Optional[Candidate]:
        """The stored anchors' best certified pair, if it reaches d_tilde.

        Runs the certificate kernel on the stored subset, reading the
        maintained decoded orders and adjacent agreements; charged as the
        search over the (2d+1) x stored shift/item grid.
        """
        t = len(self.by_key)
        if t == 0 or d_tilde < 1:
            return None
        ctx = self.ctx
        self.ledger.charge(check_charge(ctx.model, ctx.d, t))
        stored = self.by_key.items()
        slot = {k: i for i, (k, _) in enumerate(stored)}
        xs = np.array([x for _, x in stored], dtype=np.int64)
        fwd_pos, h_f = _ranked(self.fwd_order, self.fwd_lcp, slot)
        bwd_pos, h_b = _ranked(self.bwd_order, self.bwd_lcp, slot)
        best, args = best_certificate(xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index)
        if best < d_tilde:
            return None
        a, b, v = args
        return _candidate(ctx, stored[a], stored[b], v, d_tilde)


def _ranked(order: DynArray, lcp: DynArray, slot: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each stored anchor's position in a decoded order, and the adjacent agreements."""
    pos = np.empty(len(slot), dtype=np.int64)
    pos[[slot[k] for k in order.keys()]] = np.arange(len(slot))
    h = np.fromiter((h for _, h in lcp.items()), dtype=np.int64, count=len(lcp))
    return pos, h


# ---------------------------------------------------------------------------
# certificate kernel, shared by the full-set index and the walk vertex


def _sparse_tables(h: np.ndarray) -> list[np.ndarray]:
    tables = [h]
    k = 1
    while (1 << k) <= len(h):
        prev = tables[-1]
        half = 1 << (k - 1)
        tables.append(np.minimum(prev[:-half], prev[half:]))
        k += 1
    return tables


def _log_table(n: int) -> np.ndarray:
    logt = np.zeros(n + 2, dtype=np.int64)
    for i in range(2, n + 2):
        logt[i] = logt[i // 2] + 1
    return logt


def _rmq_vec(tables: list[np.ndarray], logt: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Vectorized min over h[lo..hi] (inclusive, 0-based, lengths >= 1)."""
    length = hi - lo + 1
    out = np.empty(lo.shape, dtype=np.int64)
    ks = logt[length]
    for k in np.unique(ks):
        mask = ks == k
        t = tables[k]
        left = lo[mask]
        right = hi[mask] - (1 << int(k)) + 1
        out[mask] = np.minimum(t[left], t[right])
    return out


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
    before the span, or (0, None); ties keep the first pair scanned.
    """
    best, best_args = 0, None
    m = len(xs)
    if m < 2:
        return best, best_args
    t_f, t_b, logt = _sparse_tables(h_f), _sparse_tables(h_b), _log_table(m)
    if sep_index is None:
        everyone = np.arange(m)
        sides = [(everyone, everyone)]
    else:
        reds = np.flatnonzero(xs < sep_index)
        blues = np.flatnonzero(xs > sep_index)
        sides = [(reds, blues), (blues, reds)]
    for a_idx, b_idx in sides:
        for a in a_idx:
            a = int(a)
            partners = b_idx[b_idx != a] if sep_index is None else b_idx
            if len(partners) == 0:
                continue
            pf_a, pb_a = fwd_pos[a], bwd_pos[a]
            pf, pb = fwd_pos[partners], bwd_pos[partners]
            p = _rmq_vec(t_f, logt, np.minimum(pf_a, pf), np.maximum(pf_a, pf) - 1)
            q = _rmq_vec(t_b, logt, np.minimum(pb_a, pb), np.maximum(pb_a, pb) - 1)
            x_a = int(xs[a])
            p_xa = int(pv[x_a])
            rho = p_xa - int(pv[x_a - 1])
            lo_run = max(x_a - 2 * d - 1, 0)
            v = np.searchsorted(pv, p_xa - q, side="left")
            v = np.maximum(v, lo_run)
            ok = v <= x_a - 1
            if not ok.any():
                continue
            max_l = p_xa - pv[np.minimum(v, x_a - 1)]
            cert = np.where(ok, p + max_l - rho, 0)
            j = int(np.argmax(cert))
            if int(cert[j]) > best:
                best = int(cert[j])
                best_args = (a, int(partners[j]), int(v[j]))
    return best, best_args


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

    Sorts every anchor window once and runs the certificate kernel over all
    anchors, so one (length, witness) pair answers every probe at this scale.
    """

    def __init__(self, ctx: _WalkContext):
        self.ctx = ctx
        self.xs = np.fromiter(ctx.anchors.entries, dtype=np.int64, count=ctx.anchors.m)
        fwd_pos, h_f = self._order([ctx.fwd_win(int(x)) for x in self.xs])
        bwd_pos, h_b = self._order([ctx.bwd_win(int(x)) for x in self.xs])
        self.best, self.best_args = best_certificate(
            self.xs, fwd_pos, h_f, bwd_pos, h_b, ctx.pv, ctx.d, ctx.sep_index
        )

    @staticmethod
    def _order(wins) -> tuple[np.ndarray, np.ndarray]:
        def cmp(i: int, j: int) -> int:
            c = lex_compare_runs(wins[i], wins[j])
            return c if c else (i > j) - (i < j)

        m = len(wins)
        order = sorted(range(m), key=cmp_to_key(cmp))
        pos = np.empty(m, dtype=np.int64)
        pos[order] = np.arange(m)
        h = np.fromiter(
            (ldcp_runs(wins[order[i]], wins[order[i + 1]]) for i in range(m - 1)),
            dtype=np.int64,
            count=max(0, m - 1),
        )
        return pos, h

    def query(self, d_tilde: int) -> Optional[Candidate]:
        if d_tilde < 1 or self.best < d_tilde:
            return None
        a, b, v = self.best_args
        return _candidate(
            self.ctx, (a + 1, int(self.xs[a])), (b + 1, int(self.xs[b])), v, d_tilde
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
    index_cache: Optional[dict] = None,
) -> Optional[Candidate]:
    """Walk search over r-subsets of the anchor set for one (d, d_tilde).

    The full-set mode decides the existence question exactly; the random
    walk samples subsets up to a step budget; the cost-only mode charges
    the search without executing it.
    """
    m = ctx.anchors.m
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r}, m={m}")
    model = ctx.model
    d = ctx.d
    delta = (r / m) ** 2

    if mode is WalkMode.COSTONLY:
        hooks = WalkHooks(
            setup_cost=setup_charge(model, d, r),
            update_cost=update_charge(model, d),
            check_cost=check_charge(model, d, r),
        )
        walk_search(m, r, delta, hooks, mode=mode, ledger=ledger, model=model)
        return None

    if mode is WalkMode.FULLSET:
        index = None
        if index_cache is not None:
            index = index_cache.get(d)
        if index is None:
            index = CollisionIndex(ctx)
            if index_cache is not None:
                index_cache[d] = index
        hooks = WalkHooks(
            setup=lambda subset, scratch: index,
            check=lambda state, scratch: state.query(d_tilde),
            setup_cost=setup_charge(model, d, m),
            update_cost=0.0,
            check_cost=check_charge(model, d, m),
        )
        return walk_search(m, m, delta, hooks, mode=mode, ledger=ledger, model=model)

    if mode is WalkMode.RANDOMWALK:
        rng = rng if rng is not None else random.Random(0)
        sample = tuple(sorted(rng.sample(range(1, m + 1), r)))

        def setup(subset, scratch):
            vertex = WalkVertex(ctx, sample, scratch)
            for k in subset:
                vertex.insert(k)
            return vertex

        def update(vertex, removed, added, scratch):
            vertex.delete(removed)
            vertex.insert(added)

        def check(vertex, scratch):
            return vertex.check(d_tilde)

        hooks = WalkHooks(setup=setup, update=update, check=check)
        return walk_search(
            m, r, delta, hooks, mode=mode, ledger=ledger, model=model, rng=rng
        )

    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# decoded-domain extension and verification


def _forward_match(ha: OracleHandle, pos_a: int, hb: OracleHandle, pos_b: int) -> int:
    """Length of the maximal equal segment reading forward from two positions."""
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


def _backward_match(ha: OracleHandle, pos_a: int, hb: OracleHandle, pos_b: int) -> int:
    """Length of the maximal equal segment reading backward from two positions."""
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
    best = None
    for key, items_a in bmap_a.items():
        items_b = bmap_b.get(key)
        if not items_b:
            continue
        for xa, ya, ea in items_a:
            for xb, yb, eb in items_b:
                if distinct and ea == eb:
                    continue
                val = min(xa, xb) + min(ya, yb)
                if best is None or val > best.value:
                    best = _FallbackHit(val, ea, eb)
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
    charge = model.minfind_factor * (ceil_sqrt(max(1, na)) + ceil_sqrt(max(1, nb)))
    pairs = max(1, (na - 1) * (nb - 1)) if not lrs else max(1, (na - 1) ** 2)
    charge += model.grover_factor * ceil_sqrt(pairs)
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
    q = _backward_match(ha, ends_a, hb, ends_b)
    if q == 0:
        raise InternalInconsistencyError("collision ends do not match backward")
    f = _forward_match(ha, ends_a + 1, hb, ends_b + 1)
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
    if _forward_match(ha, ans.decoded_start_A, hb, ans.decoded_start_B) < d_tilde:
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
    verify: bool = True
    use_fallback: bool = True
    # cost-only trajectories branch on (decoded, encoded) answer lengths;
    # without a hint the worst-case trajectory is charged
    truth_hint: Optional[tuple[int, int]] = None
    # per-scale anchor override, used by soundness tests
    anchor_sets: Optional[dict[int, AnchorSet]] = None


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
    model = config.model
    ledger = hs.ledger
    lrs = sep_index is None
    rng = random.Random(config.seed)
    hi = (ha.total - 1) if lrs else min(ha.total, hb.total)
    if hi < 1:
        return None
    d_values = _d_values(hs.n, model.d_min)
    cost_only = config.mode is WalkMode.COSTONLY

    anchor_cache: dict[int, AnchorSet] = {}

    def anchors_for(d: int) -> AnchorSet:
        if d not in anchor_cache:
            if config.anchor_sets is not None and d in config.anchor_sets:
                anchor_cache[d] = config.anchor_sets[d]
            elif config.anchors is AnchorScheme.MINIMIZER and d >= model.d_min:
                anchor_cache[d] = build_minimizer(hs.string, d, config.seed, d_min=model.d_min)
            else:
                anchor_cache[d] = build_exhaustive(hs.string, d)
        return anchor_cache[d]

    ctx_cache: dict[int, _WalkContext] = {}

    def ctx_for(d: int) -> _WalkContext:
        if d not in ctx_cache:
            ctx_cache[d] = make_context(hs, anchors_for(d), d, sep_index, model)
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
            m = ctx.anchors.m
            r = max(1, min(m, math.ceil(model.r_const * m ** (2.0 / 3.0))))
            cand = inner_search(
                ctx,
                d_tilde,
                r,
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
    if config.verify and not verify_candidate(answer, ha, hb):
        raise InternalInconsistencyError(f"answer failed verification: {answer}")
    if answer.d_tilde < lo:
        # the recorded collision certified lo, so its extension cannot be
        # shorter; longer is possible when an anchor scheme missed a probe
        raise InternalInconsistencyError(
            f"extension length {answer.d_tilde} below search result {lo}"
        )
    return answer


def solve_lcs_rle_p(
    ha: OracleHandle, hb: OracleHandle, config: Optional[SolverConfig] = None
) -> Optional[LcsAnswer]:
    """Longest common decoded substring of two oracle-backed RLE strings.

    Returns None exactly when the inputs share no character.  The two
    handles should share one ledger; all charges go to the first handle's.
    """
    config = config or SolverConfig()
    if ha.total == 0 or hb.total == 0:
        return None
    s, sep_index = concat_sep(ha.string, hb.string, SEP_DOLLAR)
    hs = OracleHandle(s, ha.ledger)
    return _solve(hs, sep_index, ha, hb, config)


def solve_lrs(ha: OracleHandle, config: Optional[SolverConfig] = None) -> Optional[LcsAnswer]:
    """Longest repeated decoded substring of one oracle-backed RLE string."""
    config = config or SolverConfig()
    if ha.total < 2:
        return None
    return _solve(ha, None, ha, ha, config)
