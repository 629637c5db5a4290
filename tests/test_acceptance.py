"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import math
import random

import numpy as np
import pytest

from rlelcs.anchors import AnchorScheme, build_exhaustive, build_minimizer, validate_anchor_set
from rlelcs.cli import _bench_cell, _plant_cell
from rlelcs.qmodel import CostModel, OracleHandle, QueryLedger, WalkMode, make_handles
from rlelcs.reductions import parity_via_dl, parity_via_el
from rlelcs.reference import (
    brute_lcs,
    brute_lrs,
    plant_instance,
    prefix_window,
    random_rle,
    suffix_window,
)
from rlelcs.rle import concat_sep, decode, encode, ldcp_runs
from rlelcs.structures import DynArray, RangeSum2D
from rlelcs.walk import (
    SolverConfig,
    WalkVertex,
    make_context,
    solve_lcs_rle_p,
    solve_lrs,
    verify_candidate,
)

MODEL = CostModel()


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def _suite1_instances():
    instances = []
    for seed in range(500):
        rng = random.Random(seed)
        a = random_rle(rng, rng.randint(1, 64))
        b = random_rle(rng, rng.randint(1, 64))
        instances.append((a, b))
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        n = rng.randint(8, 64)
        d = rng.randint(3, max(3, n // 2))
        inst = plant_instance(n, d, rng.randint(d, d * 6), 10_000 + seed)
        instances.append((inst.a, inst.b))
    return instances


_SUITE1 = None


def suite1():
    global _SUITE1
    if _SUITE1 is None:
        _SUITE1 = _suite1_instances()
    return _SUITE1


def test_criterion_1_exactness_vs_oracle():
    mismatches = 0
    rejected = 0
    for a, b in suite1():
        ha, hb, _ = make_handles(a, b)
        ans = solve_lcs_rle_p(ha, hb)
        truth = brute_lcs(a, b)
        got = ans.d_tilde if ans is not None else 0
        if got != truth.length:
            mismatches += 1
        if ans is not None and not verify_candidate(ans, ha, hb):
            rejected += 1
    _verdict(
        "1 exactness-vs-oracle",
        mismatches == 0 and rejected == 0,
        f"{len(suite1())} instances, {mismatches} mismatches, {rejected} rejected answers",
    )


def test_criterion_2_worked_example():
    ha, hb, _ = make_handles(encode(b"abcdbbbbccccc"), encode(b"abcd@bbbbcc"))
    ans = solve_lcs_rle_p(ha, hb)
    ok = ans is not None and ans.d_tilde == 6
    sub = b""
    if ok:
        text = b"abcdbbbbccccc"
        sub = text[ans.decoded_start_A - 1 : ans.decoded_start_A - 1 + ans.d_tilde]
        ok = sub == b"bbbbcc"
    _verdict("2 worked-example", ok, f"d_tilde={ans.d_tilde if ans else None}, substring={sub!r}")


def test_criterion_3_parity_reductions_exhaustive():
    def dl_solver(x, y):
        return brute_lcs(x, y).length

    def el_solver(x, y):
        return brute_lcs(x, y).encoded_length

    cases = 0
    failures = 0
    budget_violations = 0
    for n in range(1, 13):
        for mask in range(2**n):
            bits = [(mask >> i) & 1 for i in range(n)]
            expected = sum(bits) % 2
            cases += 1
            if parity_via_dl(bits, dl_solver) != expected:
                failures += 1
                continue
            res = parity_via_el(bits, el_solver)
            if res.parity != expected:
                failures += 1
            if res.solver_calls > math.ceil(math.log2(2 * n)) + 1:
                budget_violations += 1
    _verdict(
        "3 parity-reductions",
        failures == 0 and budget_violations == 0 and cases == 8190,
        f"{cases} cases, {failures} wrong, {budget_violations} over call budget",
    )


def _dynarray_oracle_trial(seed: int) -> bool:
    rng = random.Random(seed)
    dut = DynArray()
    ref = []
    next_key = 0
    for _ in range(10_000):
        size = len(ref)
        op = rng.random()
        if op < 0.35 or size == 0:
            i = rng.randint(1, size + 1)
            v = rng.randint(-100, 100)
            dut.insert(i, next_key, v)
            ref.insert(i - 1, (next_key, v))
            next_key += 1
        elif op < 0.55:
            i = rng.randint(1, size)
            if dut.delete(i) != ref.pop(i - 1):
                return False
        elif op < 0.7:
            i = rng.randint(1, size)
            if dut.index(i) != ref[i - 1]:
                return False
        elif op < 0.85:
            key = rng.choice(ref)[0]
            if ref[dut.locate(key) - 1][0] != key:
                return False
        else:
            a = rng.randint(1, size)
            b = rng.randint(a, size)
            if dut.range_min(a, b) != min(v for _, v in ref[a - 1 : b]):
                return False
    return dut.items() == ref


def _rangesum_oracle_trial(seed: int) -> bool:
    rng = random.Random(seed)
    size = 16
    dut = RangeSum2D(size)
    ref = []
    for _ in range(10_000):
        op = rng.random()
        if op < 0.45 or not ref:
            x, y = rng.randint(0, size), rng.randint(0, size)
            dut.insert(x, y)
            ref.append((x, y))
        elif op < 0.7:
            x, y = rng.choice(ref)
            dut.delete(x, y)
            ref.remove((x, y))
        else:
            x1 = rng.randint(0, size)
            x2 = rng.randint(x1, size)
            y1 = rng.randint(0, size)
            y2 = rng.randint(y1, size)
            expect = sum(1 for x, y in ref if x1 <= x <= x2 and y1 <= y <= y2)
            if dut.count(x1, x2, y1, y2) != expect:
                return False
    return True


def _canonical_form_trials() -> bool:
    target = [(k, (k * 11) % 7) for k in range(12)]
    serials = set()
    for trial in range(100):
        rng = random.Random(trial)
        a = DynArray()
        junk = [(100 + j, rng.randint(0, 5)) for j in range(rng.randint(0, 5))]
        for k, v in junk:
            a.insert(rng.randint(1, len(a) + 1), k, v)
        order = list(range(len(target)))
        rng.shuffle(order)
        for idx in order:
            live = a.items()
            lo, hi = 0, len(live) + 1
            for p, (k, _) in enumerate(live, 1):
                if k < 100 and k < idx:
                    lo = p
                if k < 100 and k > idx and hi == len(live) + 1:
                    hi = p
            a.insert(rng.randint(lo + 1, hi), *target[idx])
        for k, _ in junk:
            a.delete(a.locate(k))
        if a.items() != target:
            return False
        serials.add(a.serialize())
    return len(serials) == 1


def test_criterion_4_data_structures():
    dyn_ok = all(_dynarray_oracle_trial(seed) for seed in range(10))
    grid_ok = all(_rangesum_oracle_trial(100 + seed) for seed in range(10))
    canon_ok = _canonical_form_trials()
    _verdict(
        "4 data-structures",
        dyn_ok and grid_ok and canon_ok,
        f"dynarray={dyn_ok}, rangesum={grid_ok}, canonical={canon_ok}",
    )


def test_criterion_5_vertex_coherence():
    rng = random.Random(51)
    inst = plant_instance(40, 10, 30, 51)
    s, sep = concat_sep(inst.a, inst.b)
    ledger = QueryLedger()
    hs = OracleHandle(s, ledger)
    d = 4
    anchors = build_exhaustive(s, d)
    ctx = make_context(hs, anchors, sep, MODEL)
    vertex = WalkVertex(ctx)
    stored = set()
    for _ in range(1000):
        if not stored or (len(stored) < anchors.m and rng.random() < 0.55):
            k = rng.choice([k for k in range(1, anchors.m + 1) if k not in stored])
            vertex.insert(k)
            stored.add(k)
        else:
            k = rng.choice(sorted(stored))
            vertex.delete(k)
            stored.discard(k)
    plain = ctx.handle.string
    wins = (
        lambda k: prefix_window(plain, anchors, k),
        lambda k: suffix_window(plain, anchors, k),
    )
    orders = [vertex.order(side) for side in (0, 1)]  # (ids, adjacent agreements) per side
    assert all(sorted(keys.tolist()) == sorted(stored) for keys, _ in orders)
    adjacent_bad = 0
    for (keys, hvals), win in zip(orders, wins):
        for i in range(len(keys) - 1):
            if hvals[i] != ldcp_runs(win(keys[i]), win(keys[i + 1])):
                adjacent_bad += 1
    interval_bad = 0
    for _ in range(1000):
        bwd = rng.random() < 0.5
        (keys, hvals), win = orders[bwd], wins[bwd]
        t = len(keys)
        a = rng.randint(1, t - 1)
        b = rng.randint(a + 1, t)
        if hvals[a - 1 : b - 1].min() != ldcp_runs(win(keys[a - 1]), win(keys[b - 1])):
            interval_bad += 1
    _verdict(
        "5 vertex-coherence",
        adjacent_bad == 0 and interval_bad == 0,
        f"{adjacent_bad} adjacent mismatches, {interval_bad} interval mismatches",
    )


def test_criterion_6_ledger_scaling():
    mode, scheme = WalkMode.COSTONLY, AnchorScheme.MINIMIZER
    ns = [2**k for k in range(8, 15)]
    costs_n = []
    for n in ns:
        cells = [
            _bench_cell(_plant_cell(n, 32, 5 * n + t, mode), mode, scheme, MODEL)
            for t in range(5)
        ]
        costs_n.append(float(np.mean([c["charged_cost"] for c in cells])))
    slope_n = float(np.polyfit(np.log(ns), np.log(costs_n), 1)[0])
    ds = [2**k for k in range(4, 9)]
    costs_d = []
    for d in ds:
        cells = [
            _bench_cell(_plant_cell(2**12, d, 7 * d + t, mode), mode, scheme, MODEL)
            for t in range(5)
        ]
        costs_d.append(float(np.mean([c["charged_cost"] for c in cells])))
    slope_d = float(np.polyfit(np.log(ds), np.log(costs_d), 1)[0])
    ok_n = 0.55 <= slope_n <= 0.80
    ok_d = -0.35 <= slope_d <= 0.00
    _verdict(
        "6 ledger-scaling",
        ok_n and ok_d,
        f"slope_n={slope_n:.3f} in [0.55,0.80], slope_d={slope_d:.3f} in [-0.35,0.00]",
    )


def test_criterion_7_lrs_variant():
    mismatches = 0
    for seed in range(200):
        rng = random.Random(700 + seed)
        n_runs = rng.randint(2, 400)
        a = random_rle(rng, n_runs)
        while a.total > 2000:
            n_runs = max(2, n_runs // 2)
            a = random_rle(rng, n_runs)
        ha = OracleHandle(a, QueryLedger())
        ans = solve_lrs(ha)
        got = ans.d_tilde if ans is not None else 0
        if got != brute_lrs(a).length:
            mismatches += 1
    _verdict("7 lrs-variant", mismatches == 0, f"200 instances, {mismatches} mismatches")


def test_criterion_8_anchor_validation():
    # exhaustive scheme validates on every suite-1 instance
    exhaustive_bad = 0
    for a, b in suite1():
        s, sep = concat_sep(a, b)
        ok, _ = validate_anchor_set(build_exhaustive(s, MODEL.d_min), s, sep)
        exhaustive_bad += not ok
    # minimizer scheme on planted instances, witnesses logged
    minimizer_valid = 0
    witnesses = []
    for seed in range(100):
        rng = random.Random(8000 + seed)
        d = rng.randint(8, 16)
        inst = plant_instance(rng.randint(2 * d, 64), d, d * 3, 8000 + seed)
        s, sep = concat_sep(inst.a, inst.b)
        x = build_minimizer(s, d, seed=8000 + seed, d_min=MODEL.d_min)
        ok, witness = validate_anchor_set(x, s, sep)
        minimizer_valid += ok
        if not ok:
            witnesses.append((seed, witness))
    for seed, witness in witnesses:
        print(f"  minimizer witness seed={seed}: {witness}")
    # end-to-end minimizer solver never exceeds brute truth
    exceed = 0
    for seed in range(100):
        rng = random.Random(8500 + seed)
        inst = plant_instance(rng.randint(16, 48), rng.randint(8, 14), rng.randint(16, 60), 8500 + seed)
        ha, hb, _ = make_handles(inst.a, inst.b)
        cfg = SolverConfig(anchors=AnchorScheme.MINIMIZER, seed=seed)
        ans = solve_lcs_rle_p(ha, hb, cfg)
        got = ans.d_tilde if ans is not None else 0
        if got > inst.d_tilde:
            exceed += 1
    _verdict(
        "8 anchor-validation",
        exhaustive_bad == 0 and minimizer_valid >= 95 and exceed == 0,
        f"exhaustive invalid={exhaustive_bad}, minimizer valid={minimizer_valid}/100, "
        f"soundness violations={exceed}",
    )
