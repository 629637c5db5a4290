"""Workload definitions and seeded instance generators.

Every instance is drawn from one ``random.Random`` seeded by the workload
name and the benchmark's ``--seed``; the solver receives only the generated
``RleString`` values.  Generators take the ``rlelcs`` package as an argument
because the benchmark re-imports it for every timed set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import ModuleType
from typing import Optional

# decoded-size products stay far below this, so the brute oracles never refuse
BRUTE_BOUND = 10**9
MAX_REDRAWS = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lcs": plant_instance pairs; "lrs": one motif string
    mode: str  # rlelcs WalkMode value
    anchors: str  # rlelcs AnchorScheme value
    n_instances: int
    n_runs: int  # runs per side (lcs) or of the string (lrs)
    block_runs: int = 0  # lcs: runs in the planted common block
    block_chars: tuple[int, ...] = ()  # lcs: minimum decoded block lengths, cycled
    # lcs: when > 0, redraw each pair until its block is exactly block_chars
    # long and its shorter side exactly short_side_extra longer; the binary
    # search on the answer then takes one path per slot in every run, and
    # that path's failing probes set most of a walk-mode solve's time
    short_side_extra: int = 0
    motif_runs: int = 0  # lrs: runs in the repeated motif
    mutation_frac: float = 0.0  # lrs: share of run lengths redrawn


# why each workload exists, with its parameters: the "why" lines of BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lcs-exhaustive",
            "lcs",
            "fullset",
            "exhaustive",
            n_instances=36,
            n_runs=128,
            block_runs=16,
            block_chars=(48, 64, 80, 96),
        ),
        Workload(
            "lcs-minimizer-large",
            "lcs",
            "fullset",
            "minimizer",
            n_instances=14,
            n_runs=1024,
            block_runs=32,
            block_chars=(96, 128, 160, 192),
        ),
        Workload(
            "walk-small",
            "lcs",
            "walk",
            "exhaustive",
            n_instances=32,
            n_runs=6,
            block_runs=4,
            block_chars=(16, 20, 24, 28),
            short_side_extra=10,
        ),
        Workload(
            "lrs-repetitive",
            "lrs",
            "fullset",
            "exhaustive",
            n_instances=48,
            n_runs=192,
            motif_runs=7,
            mutation_frac=0.03,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    a: object  # RleString
    b: Optional[object]  # RleString, None for lrs
    solver_seed: int


def motif_string(rl: ModuleType, rng: random.Random, w: Workload):
    """A ``motif_runs``-run motif repeated to ``n_runs`` runs, some lengths redrawn."""
    alphabet = rl.reference.DEFAULT_ALPHABET
    while True:
        chars = [rng.choice(alphabet)]
        for _ in range(w.motif_runs - 1):
            chars.append(rng.choice([c for c in alphabet if c != chars[-1]]))
        if chars[-1] != chars[0]:  # repeats must not merge across the seam
            break
    lengths = [rng.randint(1, 9) for _ in range(w.motif_runs)]
    runs = [rl.Run(chars[i % w.motif_runs], lengths[i % w.motif_runs]) for i in range(w.n_runs)]
    for i in rng.sample(range(w.n_runs), round(w.mutation_frac * w.n_runs)):
        old = runs[i].length
        runs[i] = rl.Run(runs[i].char, rng.choice([x for x in range(1, 10) if x != old]))
    return rl.RleString(tuple(runs))


def planted_pair(rl: ModuleType, rng: random.Random, w: Workload, target: int):
    for _ in range(MAX_REDRAWS):
        p = rl.plant_instance(w.n_runs, w.block_runs, target, rng.getrandbits(32), verify=False)
        # unverified plants report the planted block's decoded length
        shape = (p.d_tilde, min(p.a.total, p.b.total) - p.d_tilde)
        if not w.short_side_extra or shape == (target, w.short_side_extra):
            return p.a, p.b
    raise RuntimeError(f"{w.name}: no pair of shape {target}+{w.short_side_extra}")


def make_instances(rl: ModuleType, w: Workload, seed: int) -> list[Instance]:
    rng = random.Random(f"{w.name}:{seed}")
    out = []
    for i in range(w.n_instances):
        inst_seed = rng.getrandbits(32)
        if w.kind == "lcs":
            a, b = planted_pair(rl, rng, w, w.block_chars[i % len(w.block_chars)])
            out.append(Instance(a, b, inst_seed))
        else:
            out.append(Instance(motif_string(rl, rng, w), None, inst_seed))
    return out


def brute_truth(rl: ModuleType, inst: Instance) -> int:
    """Decoded answer length from the brute oracle (0 when nothing is shared)."""
    if inst.b is None:
        return rl.brute_lrs(inst.a, bound=BRUTE_BOUND).length
    return rl.brute_lcs(inst.a, inst.b, bound=BRUTE_BOUND).length
