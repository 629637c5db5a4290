"""Canonical structures: a dynamic key-value array and 2D range counts.

Both structures keep a canonical representation: what they serialize to is a
pure function of their current contents, never of the insert/delete history
that produced them.  Neither charges the ledger: a walk is charged from the
declared formulas in :mod:`rlelcs.walk`.  No solver code uses either: the
walk vertex keeps only its stored ids (``walk.WalkVertex``).  Both stay for
acceptance criterion 4 and the benchmark's tracer, which patches their
methods, until that tracer stops patching names no solve calls (ROADMAP
item 1a).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator


class DynArray:
    """Position-indexed array of (key, value) pairs with distinct keys.

    Positions are 1-based.  Supports indexing, positional insert/delete
    with shifting, key membership and location, and range-minimum over
    values.  The canonical serialized form is the pre-order walk of the
    midpoint-balanced tree over the current sequence, so any two instances
    with equal contents serialize identically.
    """

    __slots__ = ("_items", "_keys")

    def __init__(self):
        self._items: list[tuple[int, int]] = []
        self._keys: set[int] = set()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: int) -> bool:
        return key in self._keys

    def index(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= len(self._items):
            raise IndexError(f"position {i} out of range 1..{len(self._items)}")
        return self._items[i - 1]

    def insert(self, i: int, key: int, value: int) -> None:
        if not 1 <= i <= len(self._items) + 1:
            raise IndexError(f"position {i} out of range 1..{len(self._items) + 1}")
        if key in self._keys:
            raise ValueError(f"duplicate key {key}")
        self._items.insert(i - 1, (int(key), int(value)))
        self._keys.add(key)

    def delete(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= len(self._items):
            raise IndexError(f"position {i} out of range 1..{len(self._items)}")
        key, value = self._items.pop(i - 1)
        self._keys.remove(key)
        return key, value

    def locate(self, key: int) -> int:
        if key not in self._keys:
            raise KeyError(key)
        for pos, (k, _) in enumerate(self._items, 1):
            if k == key:
                return pos
        raise AssertionError("key set out of sync")

    def range_min(self, a: int, b: int) -> int:
        if not (1 <= a <= b <= len(self._items)):
            raise IndexError(f"range {a}..{b} invalid for size {len(self._items)}")
        return min(v for _, v in self._items[a - 1 : b])

    def items(self) -> list[tuple[int, int]]:
        return list(self._items)

    def keys(self) -> Iterator[int]:
        return (k for k, _ in self._items)

    def serialize(self) -> str:
        parts: list[str] = []

        def emit(lo: int, hi: int) -> None:
            if lo > hi:
                parts.append(".")
                return
            mid = (lo + hi) // 2
            k, v = self._items[mid]
            parts.append(f"({k}:{v}")
            emit(lo, mid - 1)
            emit(mid + 1, hi)
            parts.append(")")

        emit(0, len(self._items) - 1)
        return "".join(parts)


class RangeSum2D:
    """Exact rectangle counts over a point multiset in [0, size] x [0, size].

    Backed by a 2D Fenwick tree plus a multiset of live points so that
    deleting an absent point is detectable.  Duplicates are counted.
    """

    __slots__ = ("size", "_dim", "_tree", "_points")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("size must be >= 0")
        self.size = size
        self._dim = size + 2  # 1-based Fenwick over shifted coords 1..size+1
        self._tree = [[0] * self._dim for _ in range(self._dim)]
        self._points: Counter[tuple[int, int]] = Counter()

    def _check(self, x: int, y: int) -> None:
        if not (0 <= x <= self.size and 0 <= y <= self.size):
            raise IndexError(f"point ({x}, {y}) outside universe 0..{self.size}")

    def _add(self, x: int, y: int, delta: int) -> None:
        xi = x + 1
        while xi < self._dim:
            yi = y + 1
            row = self._tree[xi]
            while yi < self._dim:
                row[yi] += delta
                yi += yi & -yi
            xi += xi & -xi

    def _prefix(self, x: int, y: int) -> int:
        # count of points with coords <= (x, y); x or y may be -1 (empty)
        total = 0
        xi = x + 1
        while xi > 0:
            yi = y + 1
            row = self._tree[xi]
            while yi > 0:
                total += row[yi]
                yi -= yi & -yi
            xi -= xi & -xi
        return total

    def insert(self, x: int, y: int) -> None:
        self._check(x, y)
        self._points[(x, y)] += 1
        self._add(x, y, 1)

    def delete(self, x: int, y: int) -> None:
        self._check(x, y)
        if self._points[(x, y)] <= 0:
            raise KeyError(f"point ({x}, {y}) not present")
        self._points[(x, y)] -= 1
        if self._points[(x, y)] == 0:
            del self._points[(x, y)]
        self._add(x, y, -1)

    def count(self, x1: int, x2: int, y1: int, y2: int) -> int:
        """Points in [x1, x2] x [y1, y2], inclusive; empty ranges count 0."""
        if x1 > x2 or y1 > y2:
            return 0
        x1, y1 = max(x1, 0), max(y1, 0)
        x2, y2 = min(x2, self.size), min(y2, self.size)
        if x1 > x2 or y1 > y2:
            return 0
        return (
            self._prefix(x2, y2)
            - self._prefix(x1 - 1, y2)
            - self._prefix(x2, y1 - 1)
            + self._prefix(x1 - 1, y1 - 1)
        )

    def __len__(self) -> int:
        return sum(self._points.values())

    def points(self) -> Counter:
        return Counter(self._points)

    def serialize(self) -> str:
        return ";".join(f"{x},{y}:{c}" for (x, y), c in sorted(self._points.items()))
