"""Run-length encoded strings, their prefix sums, and decoded-domain comparisons.

Everything here works run-aligned: decoded strings are never materialized
(``decode`` exists for I/O and for the brute-force reference oracles, which
only run at desk scale).  Decoded positions and lengths are 1-based and may
be far larger than the run count, so all comparisons walk runs and stop at
the first divergence.  A string tables its prefix sums on first read, so the
prefix-sum oracle costs only a constant overhead on the compression.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple

SEP_DOLLAR = ord("$")
SEP_AT = ord("@")
SEP_HASH = ord("#")

# Code points of the concatenation sentinel and the reduction gadgets'
# separators; instance generators avoid them.  concat_sep takes another
# sentinel when an input contains ``$``.
RESERVED_SEPARATORS = frozenset({SEP_DOLLAR, SEP_AT, SEP_HASH})


class ParseError(ValueError):
    """Malformed RLE text input."""


class NoSeparatorError(ValueError):
    """Two inputs together use all 256 byte values, so none can separate them."""


class Run(NamedTuple):
    char: int
    length: int


@dataclass(frozen=True)
class RleString:
    """A byte string stored as maximal (char, length) runs."""

    runs: tuple[Run, ...]

    def __post_init__(self):
        prev = -1
        total = 0
        for char, length in self.runs:
            if type(char) is not int or not 0 <= char <= 255:
                raise ValueError(f"run char must be an int in 0..255: {char!r}")
            if type(length) is not int or length < 1:
                raise ValueError(f"run length must be a positive int: {length!r}")
            if char == prev:
                raise ValueError("adjacent runs must have distinct chars")
            prev = char
            total += length
        object.__setattr__(self, "_total", total)

    @classmethod
    def _trusted(cls, runs: tuple[Run, ...], total: int) -> "RleString":
        """A string of runs known to be valid, with their decoded total, unchecked."""
        s = object.__new__(cls)
        object.__setattr__(s, "runs", runs)
        object.__setattr__(s, "_total", total)
        return s

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int | str, int]]) -> "RleString":
        runs = []
        for char, length in pairs:
            if isinstance(char, str):
                char = ord(char)
            runs.append(Run(char, length))
        return cls(tuple(runs))

    @property
    def n(self) -> int:
        """Encoded length (number of runs)."""
        return len(self.runs)

    @property
    def total(self) -> int:
        """Decoded length."""
        return self._total  # type: ignore[attr-defined]

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        """Cumulative run lengths: ``prefix[i]`` is where run i ends, decoded."""
        return tuple(accumulate((r.length for r in self.runs), initial=0))

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, i: int) -> Run:
        return self.runs[i]

    def __str__(self) -> str:
        return format_rle(self)


def encode(data: bytes) -> RleString:
    """Encode a byte string into maximal runs."""
    runs: list[Run] = []
    for b in data:
        if runs and runs[-1].char == b:
            runs[-1] = Run(b, runs[-1].length + 1)
        else:
            runs.append(Run(b, 1))
    return RleString(tuple(runs))


def decode(s: RleString) -> bytes:
    """Inverse of :func:`encode`.  Materializes the string; desk scale only."""
    return b"".join(bytes([r.char]) * r.length for r in s.runs)


def ldcp_runs(a, b) -> int:
    """Length of the longest decoded common prefix of two run sequences.

    Works on anything indexable that yields runs. Stops at the first run
    pair that differs: equal chars contribute the shorter run, distinct
    chars contribute nothing (maximality makes this exact).
    """
    limit = min(len(a), len(b))
    total = 0
    for i in range(limit):
        ca, la = a[i]
        cb, lb = b[i]
        if ca != cb:
            return total
        if la != lb:
            return total + min(la, lb)
        total += la
    return total


def lex_compare_runs(a, b) -> int:
    """Three-way lexicographic comparison of the decoded forms (-1, 0, 1)."""
    limit = min(len(a), len(b))
    for i in range(limit):
        ca, la = a[i]
        cb, lb = b[i]
        if ca != cb:
            return -1 if ca < cb else 1
        if la != lb:
            if la < lb:
                # a's run ends first; its next char (if any) differs from ca
                if i + 1 == len(a):
                    return -1
                return -1 if a[i + 1][0] < cb else 1
            if i + 1 == len(b):
                return 1
            return -1 if ca < b[i + 1][0] else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1


def concat_sep(a: RleString, b: RleString) -> tuple[RleString, int]:
    """Concatenate ``a``, a one-char separator run, and ``b``.

    Returns the combined string and the separator's run index (= a.n + 1).
    The separator is ``$`` unless an input uses it, else the smallest byte
    absent from both, found in one pass over the runs; raises
    NoSeparatorError when the inputs use every byte.  Two valid strings
    joined by a byte neither uses are valid, so the runs are not re-checked.
    """
    used = {r.char for s in (a, b) for r in s.runs}
    free = [SEP_DOLLAR] if SEP_DOLLAR not in used else sorted(set(range(256)) - used)
    if not free:
        raise NoSeparatorError("the inputs use all 256 byte values; none can separate them")
    runs = a.runs + (Run(free[0], 1),) + b.runs
    return RleString._trusted(runs, a.total + 1 + b.total), a.n + 1


_PRINTABLE = set(range(0x21, 0x7F)) - {ord(","), ord(":"), ord("\\")}


def _format_char(c: int) -> str:
    if c in _PRINTABLE:
        return chr(c)
    return f"\\x{c:02x}"


def format_rle(s: RleString) -> str:
    """One-line text form: comma-separated ``char:count`` tokens."""
    return ",".join(f"{_format_char(r.char)}:{r.length}" for r in s.runs)


def parse_rle(line: str) -> RleString:
    """Parse the text form produced by :func:`format_rle`."""
    line = line.strip()
    if not line:
        return RleString(())
    runs = []
    for tok in line.split(","):
        tok = tok.strip()
        head, sep, tail = tok.rpartition(":")
        if not sep or not head or not tail:
            raise ParseError(f"malformed token {tok!r}")
        if head.startswith("\\x"):
            if len(head) != 4 or not set(head[2:]) <= set(string.hexdigits):
                raise ParseError(f"malformed escape {head!r}")
            char = int(head[2:], 16)
        elif len(head) == 1:
            char = ord(head)
        else:
            raise ParseError(f"malformed char {head!r}")
        if not (tail.isascii() and tail.isdigit()):  # int() would take a sign, _ or spaces
            raise ParseError(f"malformed count {tail!r}")
        try:
            length = int(tail)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"malformed count {tail!r}") from exc
        if length < 1:
            raise ParseError(f"count must be positive in {tok!r}")
        runs.append(Run(char, length))
    try:
        return RleString(tuple(runs))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
