"""End-to-end solve benchmark for rlelcs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller in one thread solves the workload's seeded instance
set back to back, in-process, through the public solver
(``solve_lcs_rle_p`` / ``solve_lrs``).  Every answer is checked against the
brute oracles and re-verified with ``verify_candidate`` on fresh handles.
The package is imported from ``src/`` next to this directory.

Set-up (import, instance generation, brute truth, one warm-up solve) runs
three times; ``setup_s`` is its median.  Measurement repeats the instance
set until ``--seconds`` have passed (at least once).  With ``--trace 1`` it
alternates untraced and traced passes: the traced pass records spans around
each module's entry points (tracer.py) and gives the per-layer metrics, the
untraced one the tracing overhead, and the two must agree on every answer
and charged cost.

Timings are calibrated: a shared host's speed drifts by a third or more
from one run to the next as its other tenants load it.  Two fixed loops are
timed after every set-up and solve, and the run's times are rescaled to the
speed at which the loops take ``CALIBRATION_REF_S`` (the geometric mean of
the two reference-over-median ratios).  The unit stays seconds; on an
idle machine of the reference class the factor is about 1.

Output: one JSON line per instance (answer, ledger, anchors per scale), one
``metric NAME VALUE UNIT`` line per metric, then the result object as the
last line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import SOLVE, Tracer, patched
from workloads import WORKLOADS, Instance, Workload, brute_truth, make_instances

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
# about the fastest times of Calibration.sample()'s pure-Python and numpy
# loops on an idle 2-vCPU x86-64 VM, Python 3.11, numpy 2.4
CALIBRATION_REF_S = (0.005, 0.0027)

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_total": "s",
    "setup_s": "s",
    "charged_cost": "units",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "anchors.build_s": "s",
    "anchors.m_sum": "count",
    "walk.index_s": "s",
    "walk.index_builds": "count",
    "walk.inner_search_calls": "count",
    "walk.probe_hit_ratio": "fraction",
    "walk.vertex_setup_s": "s",
    "walk.vertex_update_s": "s",
    "walk.vertex_check_s": "s",
    "walk.vertex_check_calls": "count",
    "walk.finalize_s": "s",
    "walk.verify_s": "s",
    "walk.fallback_s": "s",
    "qmodel.walk_search_self_s": "s",
    "qmodel.walk_search_calls": "count",
    "qmodel.grover_evals": "count",
    "qmodel.grover_hit_ratio": "fraction",
    "qmodel.run_queries": "count",
    "qmodel.prefix_queries": "count",
    "rle.lex_compare_calls": "count",
    "rle.ldcp_calls": "count",
    "structures.dynarray_ops": "count",
    "structures.range_min_s": "s",
    "structures.rangesum_ops": "count",
    "reference.brute_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
}


class Calibration:
    """Host speed over one run, sampled with two fixed loops.

    Under load a pure-Python loop slowed more than the solver and a loop of
    small numpy calls often less; of the loops tried, the geometric mean of
    the two corrections varied least across quiet and loaded periods.
    """

    def __init__(self) -> None:
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []
        self._data = np.arange(20_000)

    def sample(self) -> None:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(20_000):
            key = (i & 7, i % 13)
            table[key] = table.get(key, 0) + 1
            acc += (i * 2654435761) & 0xFF
        self.python_s.append(time.perf_counter() - start)
        a = self._data
        start = time.perf_counter()
        for _ in range(300):
            np.minimum(a[:-1], a[1:]).sum()
        self.numpy_s.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiplier from this run's wall seconds to reference-speed seconds."""
        python_ref, numpy_ref = CALIBRATION_REF_S
        return math.sqrt(
            python_ref / statistics.median(self.python_s)
            * numpy_ref / statistics.median(self.numpy_s)
        )


def import_rlelcs():
    """Fresh import of the package under ``src/`` (part of timed set-up)."""
    for name in [n for n in sys.modules if n == "rlelcs" or n.startswith("rlelcs.")]:
        del sys.modules[name]
    return importlib.import_module("rlelcs")


@dataclass
class Outcome:
    seconds: float
    ok: bool
    answer: tuple | None = None
    charged_cost: float = 0.0
    run_queries: int = 0
    prefix_queries: int = 0
    anchors: dict = field(default_factory=dict)

    def same_work(self, other: "Outcome") -> bool:
        return (self.answer, self.charged_cost, self.run_queries, self.prefix_queries) == (
            other.answer,
            other.charged_cost,
            other.run_queries,
            other.prefix_queries,
        )

    def record(self, index: int) -> dict:
        keys = ("d_tilde", "i_A", "i_B", "ell", "decoded_start_A", "decoded_start_B")
        return {
            "instance": index,
            "ok": self.ok,
            "answer": dict(zip(keys, self.answer)) if self.answer else None,
            "charged_cost": self.charged_cost,
            "run_queries": self.run_queries,
            "prefix_queries": self.prefix_queries,
            "anchors_per_scale": self.anchors,
        }


class Bench:
    """One set-up of a workload: package, instances, truth, solver calls."""

    def __init__(self, w: Workload, seed: int):
        start = time.perf_counter()
        self.rl = rl = import_rlelcs()
        if Path(rl.__file__).resolve().parent != SRC / "rlelcs":
            raise ImportError(f"rlelcs imported from {rl.__file__}, not from {SRC}")
        self.instances = make_instances(rl, w, seed)
        brute_start = time.perf_counter()
        self.truths = [brute_truth(rl, inst) for inst in self.instances]
        self.brute_s = time.perf_counter() - brute_start
        self.config = dict(mode=rl.WalkMode(w.mode), anchors=rl.AnchorScheme(w.anchors))
        self.anchor_log: list[tuple[int, int]] = []
        with self.anchor_recorder():
            self.solve(0)  # warm-up
        self.setup_s = time.perf_counter() - start

    def anchor_recorder(self):
        """Log (d, m) of every anchor set the solver builds: a few calls per solve."""
        walk = self.rl.walk

        def recording(build):
            def wrapper(s, d, *args, **kwargs):
                anchors = build(s, d, *args, **kwargs)
                self.anchor_log.append((d, anchors.m))
                return anchors

            return wrapper

        return patched(
            [
                (walk, "build_exhaustive", recording(walk.build_exhaustive)),
                (walk, "build_minimizer", recording(walk.build_minimizer)),
            ]
        )

    def solve(self, i: int, tracer: Tracer | None = None) -> Outcome:
        rl, inst = self.rl, self.instances[i]
        ledger = rl.QueryLedger()
        config = rl.SolverConfig(seed=inst.solver_seed, **self.config)
        ha = rl.OracleHandle(inst.a, ledger)
        if inst.b is None:
            call, args = rl.solve_lrs, (ha, config)
        else:
            call, args = rl.solve_lcs_rle_p, (ha, rl.OracleHandle(inst.b, ledger), config)
        if tracer is not None:
            tracer.solve_id = i
            call = tracer.span(SOLVE, call)
        del self.anchor_log[:]
        start = time.perf_counter()
        try:
            ans = call(*args)
        except Exception:  # a solve that raises is a counted failure, not a crash
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return Outcome(seconds, False)
        seconds = time.perf_counter() - start
        return Outcome(
            seconds,
            self.correct(inst, self.truths[i], ans),
            None if ans is None else (ans.d_tilde, ans.i_A, ans.i_B, ans.ell,
                                      ans.decoded_start_A, ans.decoded_start_B),
            ledger.charged_cost,
            ledger.run_queries,
            ledger.prefix_queries,
            {str(d): m for d, m in self.anchor_log},
        )

    def correct(self, inst: Instance, truth: int, ans) -> bool:
        """Brute-truth length plus an independent verify on fresh handles."""
        if ans is None:
            return truth == 0
        if ans.d_tilde != truth:
            return False
        rl = self.rl
        ha = rl.OracleHandle(inst.a, rl.QueryLedger())  # throwaway ledger
        hb = ha if inst.b is None else rl.OracleHandle(inst.b, ha.ledger)
        return rl.verify_candidate(ans, ha, hb)


class Runner:
    """Repeats passes over the instance set; keeps per-instance outcomes."""

    def __init__(self, bench: Bench, calibration: Calibration):
        self.bench = bench
        self.calibration = calibration
        n = len(bench.instances)
        self.first: list[Outcome | None] = [None] * n
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.traced_times: list[list[float]] = [[] for _ in range(n)]
        self.attempted = 0
        self.failed = 0

    def run_pass(self, deadline: float | None = None, tracer: Tracer | None = None) -> bool:
        """Solve each instance once; stop early at ``deadline``. True if complete."""
        with self.bench.anchor_recorder():
            for i in range(len(self.first)):
                if deadline is not None and time.perf_counter() >= deadline:
                    return False
                out = self.bench.solve(i, tracer)
                self.calibration.sample()
                self.attempted += 1
                if self.first[i] is None:
                    self.first[i] = out
                # every repeat, traced or not, must redo exactly the same work
                if not (out.ok and out.same_work(self.first[i])):
                    self.failed += 1
                (self.times if tracer is None else self.traced_times)[i].append(out.seconds)
        return True

    def total(self, times: list[list[float]]) -> float:
        return sum(statistics.median(t) for t in times)

    def ledger_sum(self, attr: str):
        return sum(getattr(o, attr) for o in self.first)


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure, print records and metric lines; return the result object."""
    calibration = Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(Bench(w, seed))
        calibration.sample()
    bench = setups[-1]
    runner = Runner(bench, calibration)
    deadline = time.perf_counter() + seconds
    layers: list[dict] = []
    if not trace:
        runner.run_pass()
        while runner.run_pass(deadline):
            pass
    else:
        tracer = Tracer()
        while True:  # pairs of one untraced and one traced pass, while a pair fits
            pair_start = time.perf_counter()
            runner.run_pass()
            tracer.reset()
            with tracer.installed(bench.rl):
                runner.run_pass(tracer=tracer)
            layers.append(tracer.layer_metrics())
            now = time.perf_counter()
            if now + (now - pair_start) > deadline:
                break
        tracer.write(OUT / f"spans-{w.name}-seed{seed}.json")

    for i, out in enumerate(runner.first):
        print(json.dumps(out.record(i)))
    print(f"metric error_rate {runner.failed / runner.attempted} fraction")
    if not trace:
        f = calibration.factor()
        metrics = {
            "solve_s_p50": f * statistics.median(statistics.median(t) for t in runner.times),
            "solve_s_total": f * runner.total(runner.times),
            "setup_s": f * statistics.median(b.setup_s for b in setups),
            "charged_cost": runner.ledger_sum("charged_cost"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = {name: statistics.median(pass_[name] for pass_ in layers) for name in layers[0]}
        metrics.update(
            {
                "anchors.m_sum": sum(sum(o.anchors.values()) for o in runner.first),
                "qmodel.run_queries": runner.ledger_sum("run_queries"),
                "qmodel.prefix_queries": runner.ledger_sum("prefix_queries"),
                "reference.brute_s": statistics.median(b.brute_s for b in setups),
                "trace.overhead_frac": runner.total(runner.traced_times)
                / runner.total(runner.times)
                - 1,
            }
        )
        units = PER_LAYER_UNITS
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rlelcs" / "__init__.py").is_file():
        print(f"rlelcs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
