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
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .rle import RleString


class AnchorScheme(str, Enum):
    EXHAUSTIVE = "exhaustive"
    MINIMIZER = "minimizer"


@dataclass(frozen=True)
class AnchorSet:
    """Strictly increasing run indices, with the d they were built for."""

    entries: tuple[int, ...]
    d: int
    scheme: AnchorScheme

    def __post_init__(self):
        prev = 0
        for e in self.entries:
            if e <= prev:
                raise ValueError("entries must be strictly increasing and >= 1")
            prev = e

    @property
    def m(self) -> int:
        return len(self.entries)

    def as_json(self) -> dict:
        return {"scheme": self.scheme.value, "d": self.d, "entries": list(self.entries)}


def build_exhaustive(s: RleString, d: int = 1) -> AnchorSet:
    """Every run index; trivially valid for any target length."""
    if s.n < 1:
        raise ValueError("string must have at least one run")
    return AnchorSet(tuple(range(1, s.n + 1)), d, AnchorScheme.EXHAUSTIVE)


def _span_hashes(s: RleString, span: int, seed: int) -> list[int]:
    """Seeded hash of the run tuple starting at each position (clamped)."""
    packed = [struct.pack("<Bq", r.char, r.length) for r in s.runs]
    prefix = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    out = []
    for i in range(len(packed)):
        blob = prefix + b"".join(packed[i : i + span])
        out.append(int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little"))
    return out


def build_minimizer(s: RleString, d: int, seed: int, *, d_min: int = 8) -> AnchorSet:
    """Window minima of a seeded hash of short run tuples.

    Windows span w = ceil(d/2) consecutive positions; each position is
    keyed by the hash of the next min(8, w//2) runs, which keeps tie
    collisions rare without losing content locality.  Ties keep the
    leftmost position.  Any equal block of at least d runs then contains
    a fully interior window (w + span + 1 <= d), whose minimum lands at
    the same offset in both occurrences: aligned anchors.  Raises for
    d below d_min, where that argument breaks down (callers fall back to
    the exhaustive scheme there).
    """
    if d < d_min:
        raise ValueError(f"minimizer needs d >= {d_min}, got {d}")
    if s.n < 1:
        raise ValueError("string must have at least one run")
    w = math.ceil(d / 2)
    if s.n < w:
        return AnchorSet((1,), d, AnchorScheme.MINIMIZER)
    span = min(8, max(1, w // 2))
    hashes = _span_hashes(s, span, seed)
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


def anchor_at(anchors: AnchorSet, k: int) -> int:
    """k-th anchor (1-based); its anchor_factor * sqrt(d) charge is in insert_charge."""
    if not 1 <= k <= anchors.m:
        raise IndexError(f"anchor index {k} out of range 1..{anchors.m}")
    return anchors.entries[k - 1]


def validate_anchor_set(
    anchors: AnchorSet,
    s: RleString,
    sep_index: int,
    d: int,
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check the anchoring property against a brute-force enumeration.

    Enumerates every pair (i, j) of run positions that starts a common
    generalized substring of at least d runs with aligned interiors
    (boundary runs need only matching chars) and demands an interior
    shift h with both i+h and sep_index+j+h anchored.  Returns the first
    violating (i, j) as a witness.
    """
    if d < 3:
        return True, None
    entries = set(anchors.entries)
    n_a = sep_index - 1
    runs = s.runs
    a_runs = runs[:n_a]
    b_runs = runs[sep_index:]
    n_b = len(b_runs)
    max_h = min(d - 2, 2 * d)
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
                for h in range(1, max_h + 1)
            )
            if not anchored:
                return False, (i + 1, j + 1)
    return True, None
