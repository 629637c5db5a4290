"""Anchor sets over the run indices of a concatenated RLE string.

An anchor set for target encoded length d must hit every common substring
of at least d runs at some common shift on both sides of the separator.
Two schemes: EXHAUSTIVE takes every run index (always valid, size n);
MINIMIZER selects window minima of a seeded run-content hash, so equal
run blocks select aligned interior positions on both occurrences.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .rle import RleString


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


def _span_hashes(s: RleString, span: int, seed: int) -> np.ndarray:
    """Seeded hash of the run tuple starting at each position (clamped), as uint64."""
    body = memoryview(struct.pack("<" + "Bq" * s.n, *chain.from_iterable(s.runs)))  # 9 bytes a run
    seeded = hashlib.blake2b(struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF), digest_size=8)

    def digest(i: int) -> bytes:  # blake2b(seed + runs i .. i + span - 1)
        h = seeded.copy()
        h.update(body[9 * i : 9 * (i + span)])
        return h.digest()

    return np.frombuffer(b"".join(map(digest, range(s.n))), dtype="<u8")


def build_minimizer(
    s: RleString,
    d: int,
    seed: int,
    *,
    d_min: int,
    span_hashes: Optional[dict[int, np.ndarray]] = None,
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
    ``span_hashes``, which keeps each span's positions argsorted by hash.
    """
    if d < d_min:
        raise ValueError(f"minimizer needs d >= {d_min}, got {d}")
    if s.n < 1:
        raise ValueError("string must have at least one run")
    w = math.ceil(d / 2)
    if s.n < w:
        return AnchorSet((1,), d, AnchorScheme.MINIMIZER)
    span = min(8, max(1, w // 2))
    if span_hashes is None:
        span_hashes = {}
    if span not in span_hashes:
        span_hashes[span] = np.argsort(_span_hashes(s, span, seed), kind="stable")
    order = span_hashes[span]
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
