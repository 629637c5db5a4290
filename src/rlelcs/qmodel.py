"""Query-counted oracle access and classically-executed search primitives.

Every primitive runs an ordinary deterministic procedure but charges the
idealized quantum cost to a :class:`QueryLedger`.  Success probabilities are
1 classically; the log factors of probability boosting are folded into the
cost model's constants.  Charges never depend on where (or whether) a
satisfying element lies, only on the search-space size, and a walk search
charges :func:`walk_search_charge` of its declared costs.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .rle import RleString, Run


def ceil_sqrt(n: int) -> int:
    if n <= 0:
        return 0
    return math.isqrt(n - 1) + 1


@dataclass
class QueryLedger:
    """Per-run accounting: oracle query counters plus charged quantum cost."""

    run_queries: int = 0
    prefix_queries: int = 0
    charged_cost: float = 0.0

    def charge(self, amount: float) -> None:
        if amount < 0:
            raise ValueError("charges must be non-negative")
        self.charged_cost += amount

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class CostModel:
    """Charge-formula constants.

    The leading powers are fixed by the algorithm; unquantifiable
    polylog / o(1) factors are flattened into these configurable
    constants (the same treatment the anchor-lookup charge gets).
    """

    grover_factor: float = 1.0
    minfind_factor: float = 1.0
    anchor_factor: float = 1.0
    insert_comp_factor: float = 8.0
    setup_sort_factor: float = 2.0
    check_unit: float = 1.0
    d_min: int = 8
    r_const: float = 1.0
    step_budget_factor: float = 20.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be positive and finite")

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "CostModel":
        kwargs: dict[str, Any] = {}
        types = {f.name: f.type for f in fields(cls)}
        for key, raw in items.items():
            if key not in types:
                raise KeyError(f"unknown cost-model key: {key}")
            kwargs[key] = int(raw) if types[key] == "int" else float(raw)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "CostModel":
        """Load ``key=value`` lines; ``#`` starts a comment."""
        items: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected key=value")
            items[key.strip()] = value.strip()
        return cls.from_items(items)


class OracleHandle:
    """Counted access to one RLE string's runs and prefix sums (the string owns the table)."""

    __slots__ = ("string", "ledger")

    def __init__(self, string: RleString, ledger: QueryLedger):
        self.string = string
        self.ledger = ledger

    @property
    def n(self) -> int:
        return self.string.n

    @property
    def total(self) -> int:
        return self.string.total

    def query_run(self, i: int):
        if not 1 <= i <= self.string.n:
            raise IndexError(f"run index {i} out of range 1..{self.string.n}")
        self.ledger.run_queries += 1
        return self.string.runs[i - 1]

    def query_runs(self, lo: int = 1, hi: Optional[int] = None) -> tuple[Run, ...]:
        """Runs lo..hi (1-based, inclusive; every run by default): one read, counted per run."""
        hi = self.string.n if hi is None else hi
        if not 1 <= lo <= hi + 1 <= self.string.n + 1:
            raise IndexError(f"run range {lo}..{hi} out of range 1..{self.string.n}")
        self.ledger.run_queries += hi - lo + 1
        return self.string.runs[lo - 1 : hi]

    def query_prefix(self, i: int) -> int:
        if not 0 <= i <= self.string.n:
            raise IndexError(f"prefix index {i} out of range 0..{self.string.n}")
        self.ledger.prefix_queries += 1
        return self.string.prefix[i]

    def inverse_prefix(self, decoded_index: int) -> int:
        """Run index containing a decoded position, via O(log n) prefix probes."""
        if not 1 <= decoded_index <= self.total:
            raise IndexError(f"decoded index {decoded_index} out of range 1..{self.total}")
        lo, hi = 1, self.string.n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.query_prefix(mid) >= decoded_index:
                hi = mid
            else:
                lo = mid + 1
        return lo


def make_handles(a: RleString, b: RleString, ledger: QueryLedger | None = None):
    """Build two handles sharing one ledger (the usual solver setup)."""
    ledger = ledger if ledger is not None else QueryLedger()
    return OracleHandle(a, ledger), OracleHandle(b, ledger), ledger


def grover_search(
    space_size: int,
    predicate: Callable[[int], bool],
    *,
    ledger: QueryLedger,
    model: CostModel,
    unit_cost: float = 1.0,
) -> Optional[int]:
    """First index in 1..space_size satisfying the predicate, or None.

    Charges ``grover_factor * ceil(sqrt(N)) * unit_cost`` up front,
    independent of where (or whether) a hit occurs.
    """
    if space_size < 1:
        raise ValueError("space_size must be >= 1")
    ledger.charge(model.grover_factor * ceil_sqrt(space_size) * unit_cost)
    for i in range(1, space_size + 1):
        if predicate(i):
            return i
    return None


class WalkMode(str, Enum):
    FULLSET = "fullset"
    RANDOMWALK = "walk"
    COSTONLY = "costonly"


def walk_search_charge(s: float, u: float, c: float, r: int, delta_bound: float) -> float:
    """A walk search's charge from its declared setup, update and check costs s, u and c."""
    return s + (1.0 / math.sqrt(delta_bound)) * (math.sqrt(r) * u + c)


@dataclass
class WalkHooks:
    """Vertex-state operations for the walk driver, with their declared charges.

    walk_search charges only these per-call costs (one setup, one update per
    swap, one check per round); the cost-only mode needs no operations.
    """

    setup_cost: float
    update_cost: float
    check_cost: float
    setup: Callable[[Sequence[int]], Any] | None = None
    update: Callable[[Any, int, int], None] | None = None
    check: Callable[[Any], Any | None] | None = None


def walk_search(
    m: int,
    r: int,
    delta_bound: float,
    hooks: WalkHooks,
    *,
    mode: WalkMode,
    ledger: QueryLedger,
    model: CostModel,
    rng=None,
) -> Any | None:
    """Walk-search driver over r-subsets of an m-element set: the random walk or cost-only.

    Both charge walk_search_charge of the hooks' declared costs; the random
    walk then runs the hooks and returns a check's marked-vertex report, or
    None when nothing is marked.  The full-set mode is walk.inner_search's
    own, from its scale's index; here it is rejected before any charge.

    The random walk takes a ``random.Random`` (``Random(0)`` if none is
    given).  It samples its subset with ``rng.sample``; each swap then draws
    ``rng.randrange(len(outside))`` and ``rng.choice(inside)``, made inline
    through ``rng.getrandbits`` with ``Random._randbelow``'s own rejection
    rule, so the draws and the RNG state after a search are those two calls'.

    A setup that returns None declares that no vertex is marked.  The
    random walk then makes the draws of a walk that never reports (its
    subset, then each swap's positions) and returns None, calling no update
    and no check.
    """
    if mode is not WalkMode.RANDOMWALK and mode is not WalkMode.COSTONLY:
        raise ValueError(f"walk_search drives the random walk and cost-only mode, not {mode!r}")
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r} m={m}")
    if not 0 < delta_bound <= 1:
        raise ValueError("delta_bound must be in (0, 1]")
    if mode is WalkMode.RANDOMWALK and None in (hooks.setup, hooks.update, hooks.check):
        raise ValueError("random-walk mode needs setup, update and check hooks")

    s, u, c = hooks.setup_cost, hooks.update_cost, hooks.check_cost
    ledger.charge(walk_search_charge(s, u, c, r, delta_bound))

    if mode is WalkMode.COSTONLY:
        return None

    rng = rng if rng is not None else random.Random(0)
    # a swap removes the id at the drawn position, so inside is kept sorted by id
    inside = sorted(rng.sample(range(1, m + 1), r))
    outside = sorted(set(range(1, m + 1)).difference(inside))
    state = hooks.setup(tuple(inside))
    budget = int(
        model.step_budget_factor * math.ceil(m / r) * math.ceil(1.0 / math.sqrt(delta_bound))
    )
    swaps = ceil_sqrt(r)
    n_out = len(outside)
    # with r = m the full set is the only vertex: one check decides
    if not n_out:
        return None if state is None else hooks.check(state)
    # randrange(n_out), then choice(inside), inline: both are Random._randbelow(n),
    # which redraws getrandbits(n.bit_length()) until the draw is below n
    bits, k_out, k_in = rng.getrandbits, n_out.bit_length(), r.bit_length()
    if state is None:
        # nothing is marked: the draws are all that remain
        for _ in range(max(1, budget) * swaps):
            while bits(k_out) >= n_out:
                pass
            while bits(k_in) >= r:
                pass
        return None
    for _ in range(max(1, budget)):
        report = hooks.check(state)
        if report is not None:
            return report
        for _ in range(swaps):
            out_pos = bits(k_out)
            while out_pos >= n_out:
                out_pos = bits(k_out)
            in_pos = bits(k_in)
            while in_pos >= r:
                in_pos = bits(k_in)
            removed, added = inside[in_pos], outside[out_pos]
            hooks.update(state, removed, added)
            del inside[in_pos]
            insort(inside, added)
            outside[out_pos] = removed
    return None
