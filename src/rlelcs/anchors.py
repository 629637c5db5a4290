"""Anchor sets over the run indices of a concatenated RLE string.

An anchor set for target encoded length d must hit every common substring
of at least d runs at some common shift on both sides of the separator.
Two schemes: EXHAUSTIVE takes every run index (always valid, size n);
MINIMIZER selects window minima of a seeded run-content hash, so equal
run blocks select aligned interior positions on both occurrences.  The
hashes of every span a solve's scales use come from one pass over run
arrays (hash_spans), made by its first minimizer build and shared by the
rest (SpanOrders); the solver passes the arrays of its one counted run
read, or in cost-only mode, which reads no run, the string's own runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .rle import RleString, Run


class AnchorScheme(str, Enum):
    EXHAUSTIVE = "exhaustive"
    MINIMIZER = "minimizer"


@dataclass(frozen=True)
class AnchorSet:
    """Strictly increasing run indices for scale d, the scale every search over them runs at.

    At least one; a range from 1 up, step 1 up, goes unchecked beyond that.
    """

    entries: Sequence[int]
    d: int
    scheme: AnchorScheme

    def __post_init__(self):
        if not self.entries:
            raise ValueError("an anchor set needs at least one entry")
        if isinstance(self.entries, range) and self.entries.start >= 1 and self.entries.step >= 1:
            return
        prev = 0
        for e in self.entries:
            if e <= prev:
                raise ValueError("entries must be strictly increasing and >= 1")
            prev = e

    @property
    def m(self) -> int:
        return len(self.entries)


def build_exhaustive(s: RleString, d: int = 1) -> AnchorSet:
    """Every run index; trivially valid for any target length."""
    if s.n < 1:
        raise ValueError("string must have at least one run")
    return AnchorSet(range(1, s.n + 1), d, AnchorScheme.EXHAUSTIVE)


_RUN = np.dtype([("char", "u1"), ("length", "<i8")])  # packed: struct's "<Bq", 9 bytes a run


def run_arrays(runs: Sequence[Run]) -> tuple[np.ndarray, np.ndarray]:
    """Run chars and lengths as contiguous int64 arrays."""
    flat = np.fromiter(chain.from_iterable(runs), np.int64, count=2 * len(runs))
    chars, lens = flat.reshape(-1, 2).T.copy()
    return chars, lens


def hash_spans(
    chars: np.ndarray, lens: np.ndarray, spans: Iterable[int], seed: int
) -> dict[int, np.ndarray]:
    """Seeded hash of the runs starting at each position, for each span, as uint64.

    Span k hashes position i as blake2b(seed + runs i .. i + k - 1), clamped
    at the end.  One pass: the runs are packed once into 9-byte records, and
    each position copies one seeded state and feeds it its runs in
    span-ascending increments, reading each span's digest on the way
    (blake2b streams, and digest() does not finalize).
    """
    spans = sorted(set(spans))
    runs = np.empty(len(chars), _RUN)
    runs["char"], runs["length"] = chars, lens
    body = memoryview(runs.tobytes())
    seeded = hashlib.blake2b((seed & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"), digest_size=8)
    ends = [_RUN.itemsize * span for span in spans]
    out = bytearray()
    for i in range(0, len(body), _RUN.itemsize):
        h, lo = seeded.copy(), i
        for end in ends:
            h.update(body[lo : i + end])
            out += h.digest()
            lo = i + end
    table = np.frombuffer(out, dtype="<u8").reshape(-1, len(spans))
    return {span: table[:, k] for k, span in enumerate(spans)}


@dataclass
class SpanOrders:
    """One string's positions argsorted by seeded hash, for each of a set of spans.

    The first read hashes every span in one pass (hash_spans) over the run
    arrays ``runs`` returns; the scales of one solve share the result.
    """

    runs: Callable[[], tuple[np.ndarray, np.ndarray]]
    spans: frozenset[int]
    seed: int

    @cached_property
    def by_span(self) -> dict[int, np.ndarray]:
        hashes = hash_spans(*self.runs(), self.spans, self.seed)
        return {span: np.argsort(h, kind="stable") for span, h in hashes.items()}


def _window(d: int) -> tuple[int, int]:
    """Scale d's window width w = ceil(d/2) and its hashed span min(8, w//2), at least 1."""
    w = math.ceil(d / 2)
    return w, min(8, max(1, w // 2))


def minimizer_spans(n: int, ds: Iterable[int], d_min: int) -> frozenset[int]:
    """The spans build_minimizer hashes for a string of n runs at the scales ds."""
    windows = map(_window, (d for d in ds if d >= d_min))
    return frozenset(span for w, span in windows if w <= n)


def build_minimizer(
    s: RleString,
    d: int,
    seed: int,
    *,
    d_min: int,
    orders: Optional[SpanOrders] = None,
) -> AnchorSet:
    """Window minima of a seeded hash of short run tuples.

    Windows span w = ceil(d/2) consecutive positions; each position is
    keyed by the hash of the next min(8, w//2) runs, which keeps tie
    collisions rare without losing content locality.  Ties keep the
    leftmost position.  Any equal block of at least d runs then contains
    a fully interior window (w + span + 1 <= d), whose minimum lands at
    the same offset in both occurrences: aligned anchors.  Raises for
    d below d_min, where that argument breaks down (callers fall back to
    the exhaustive scheme there).  Calls for one string and seed may share
    ``orders``, which must hold this scale's span under ``seed``; without
    it the call hashes its one span from ``s``.
    """
    if d < d_min:
        raise ValueError(f"minimizer needs d >= {d_min}, got {d}")
    if s.n < 1:
        raise ValueError("string must have at least one run")
    w, span = _window(d)
    if s.n < w:
        return AnchorSet((1,), d, AnchorScheme.MINIMIZER)
    if orders is None:
        orders = SpanOrders(lambda: run_arrays(s.runs), frozenset((span,)), seed)
    elif span not in orders.spans or orders.seed != seed:
        raise ValueError(f"shared orders hold no span {span} under seed {seed}")
    order = orders.by_span[span]
    # rank by (hash, position): a window's leftmost minimum has its least rank
    win = np.empty(s.n, dtype=np.int64)
    win[order] = np.arange(s.n)
    width = 1  # win[i] is the least rank in positions i..i + width - 1
    while width < w:
        step = min(width, w - width)
        win, width = np.minimum(win[:-step], win[step:]), width + step
    entries = np.flatnonzero(np.bincount(order[win])) + 1  # np.unique would import numpy.ma
    return AnchorSet(tuple(entries.tolist()), d, AnchorScheme.MINIMIZER)


def anchor_at(anchors: AnchorSet, k: int) -> int:
    """k-th anchor (1-based); its anchor_factor * sqrt(d) charge is in insert_charge."""
    if not 1 <= k <= anchors.m:
        raise IndexError(f"anchor index {k} out of range 1..{anchors.m}")
    return anchors.entries[k - 1]


def validate_anchor_set(
    anchors: AnchorSet,
    s: RleString,
    sep_index: int,
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check the anchoring property at the set's scale d against a brute-force enumeration.

    Enumerates every pair (i, j) of run positions that starts a common
    generalized substring of at least d runs with aligned interiors
    (boundary runs need only matching chars) and demands an interior
    shift h with both i+h and sep_index+j+h anchored.  Returns the first
    violating (i, j) as a witness.
    """
    d = anchors.d
    if d < 3:
        return True, None
    entries = set(anchors.entries)
    n_a = sep_index - 1
    runs = s.runs
    a_runs = runs[:n_a]
    b_runs = runs[sep_index:]
    n_b = len(b_runs)
    for i in range(0, n_a - d + 1):  # 0-based start run in A
        for j in range(0, n_b - d + 1):
            if a_runs[i].char != b_runs[j].char:
                continue
            if a_runs[i + d - 1].char != b_runs[j + d - 1].char:
                continue
            if a_runs[i + 1 : i + d - 1] != b_runs[j + 1 : j + d - 1]:
                continue
            anchored = any(
                (i + 1 + h) in entries and (sep_index + j + 1 + h) in entries
                for h in range(1, d - 1)  # the window's d - 2 interior runs
            )
            if not anchored:
                return False, (i + 1, j + 1)
    return True, None
