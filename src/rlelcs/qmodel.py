"""Query-counted oracle access and classically-executed search primitives.

Every primitive runs an ordinary deterministic procedure but charges the
idealized quantum cost to a :class:`QueryLedger`.  Success probabilities are
1 classically; the log factors of probability boosting are folded into the
cost model's constants.  Charges never depend on where (or whether) a
satisfying element lies, only on the search-space size, and the walk driver
charges only the formulas its hooks declare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from .rle import PrefixTable, RleString, prefix_table


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
        return {
            "run_queries": self.run_queries,
            "prefix_queries": self.prefix_queries,
            "charged_cost": self.charged_cost,
        }


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
    desk_bound: int = 10_000_000

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be positive and finite")

    @classmethod
    def from_items(cls, items: dict[str, str], base: "CostModel | None" = None) -> "CostModel":
        model = base or cls()
        kwargs: dict[str, Any] = {}
        types = {f.name: f.type for f in fields(cls)}
        for key, raw in items.items():
            if key not in types:
                raise KeyError(f"unknown cost-model key: {key}")
            kwargs[key] = int(raw) if types[key] == "int" else float(raw)
        return replace(model, **kwargs)

    @classmethod
    def from_file(cls, path: str | Path, base: "CostModel | None" = None) -> "CostModel":
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
        return cls.from_items(items, base)


class OracleHandle:
    """Counted access to one RLE string and its prefix sums."""

    __slots__ = ("string", "prefix", "ledger")

    def __init__(self, string: RleString, ledger: QueryLedger, prefix: PrefixTable | None = None):
        self.string = string
        self.prefix = prefix if prefix is not None else prefix_table(string)
        if self.prefix.n != string.n:
            raise ValueError("prefix table does not match string")
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

    def query_prefix(self, i: int) -> int:
        if not 0 <= i <= self.string.n:
            raise IndexError(f"prefix index {i} out of range 0..{self.string.n}")
        self.ledger.prefix_queries += 1
        return self.prefix.values[i]

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


@dataclass
class WalkHooks:
    """Vertex-state operations for the walk driver, with their declared charges.

    The charges are per call (one setup, one update per swap, one check per
    round) and are the only charge source in every mode; the no-execution
    mode needs no operations.
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
    """Walk-search driver over r-subsets of an m-element set.

    Every mode charges ``s + (1/sqrt(delta)) * (sqrt(r) * u + c)`` from the
    hooks' declared costs, then runs the hooks if the mode executes them.
    Returns a marked-vertex report if any check reports one; always returns
    None when nothing is marked.
    """
    if not 1 <= r <= m:
        raise ValueError(f"need 1 <= r <= m, got r={r} m={m}")
    if not 0 < delta_bound <= 1:
        raise ValueError("delta_bound must be in (0, 1]")
    if mode is not WalkMode.COSTONLY and (hooks.setup is None or hooks.check is None):
        raise ValueError("executed modes need setup and check hooks")
    if mode is WalkMode.RANDOMWALK and hooks.update is None:
        raise ValueError("random-walk mode needs an update hook")

    s, u, c = hooks.setup_cost, hooks.update_cost, hooks.check_cost
    ledger.charge(s + (1.0 / math.sqrt(delta_bound)) * (math.sqrt(r) * u + c))

    if mode is WalkMode.COSTONLY:
        return None

    if mode is WalkMode.FULLSET:
        return hooks.check(hooks.setup(tuple(range(1, m + 1))))

    if mode is WalkMode.RANDOMWALK:
        import random as _random

        rng = rng if rng is not None else _random.Random(0)
        inside = set(rng.sample(range(1, m + 1), r))
        outside = [i for i in range(1, m + 1) if i not in inside]
        state = hooks.setup(tuple(sorted(inside)))
        budget = int(
            model.step_budget_factor * math.ceil(m / r) * math.ceil(1.0 / math.sqrt(delta_bound))
        )
        swaps = math.isqrt(r - 1) + 1 if r > 1 else 1
        for _ in range(max(1, budget)):
            report = hooks.check(state)
            # with r = m the full set is the only vertex: one check decides
            if report is not None or not outside:
                return report
            for _ in range(swaps):
                out_pos = rng.randrange(len(outside))
                removed = rng.choice(sorted(inside))
                added = outside[out_pos]
                hooks.update(state, removed, added)
                inside.discard(removed)
                inside.add(added)
                outside[out_pos] = removed
        return None

    raise ValueError(f"unknown mode {mode!r}")
