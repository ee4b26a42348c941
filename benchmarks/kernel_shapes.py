"""Pinned kernel-benchmark shapes and gates, shared by every consumer.

One definition of the workloads and acceptance bars keeps the pytest
gates (``test_bench_refresh.py``, ``test_bench_adversary.py``) and the
CI artifact gate (``bench_kernels.py``) measuring the *same* thing --
retuning a shape or a bar here retunes all of them together.

Importable both under pytest (which puts ``benchmarks/`` on ``sys.path``)
and from ``bench_kernels.py`` run as a script.
"""

from __future__ import annotations

import gc
import time
from typing import Callable

import numpy as np

from repro.sim.adversary import GreedyCapacityAdversary
from repro.sim.placement import PlacementExperiment, PlacementResult
from repro.sim.workload import FileSizeDistribution

#: Refresh shape: big enough that per-refresh cost dominates setup,
#: small enough to finish a round in well under a second.
REFRESH_N_BACKUPS = 20_000
REFRESH_N_SECTORS = 200
REFRESH_MULTIPLIER = 10  # => 200_000 refreshes per measured round
REFRESH_DISTRIBUTION = FileSizeDistribution.EXPONENTIAL

#: Kernel-extraction acceptance bar: vectorized refresh must beat the
#: reference loop by at least this factor at the pinned shape.
MIN_REFRESH_SPEEDUP = 5.0

#: Paper-scale refresh shapes: one 10^6-move batch on 10^6 backups, at the
#: paper's Ncp/Ns = 1000 (few groups: the segment-loop replay) and over
#: 10^5 sectors (the padded-table replay, which no e2e workload reaches).
#: They track the absolute rate at paper scale, so they are timed on the
#: vectorized backend only (the backends are compared at the pinned shape
#: above); recorded as moves/s, never gated.
REFRESH_SCALE_N_BACKUPS = 1_000_000
REFRESH_SCALE_SHAPES = {
    "refresh_paper_ratio": 1_000,
    "refresh_many_sectors": 100_000,
}

#: Greedy-adversary shape: 3000 files x 4 replicas over 600 sectors,
#: corrupting 40% of capacity -- the robustness scenario's i.i.d.
#: placement geometry at benchmark scale.
ADVERSARY_N_SECTORS = 600
ADVERSARY_N_FILES = 3_000
ADVERSARY_REPLICAS = 4
ADVERSARY_BUDGET = 0.4

#: Array-placement shape: one Theorem 3 trial's targeted attack as
#: ``simulate_loss`` hands it over -- 10^4 files x 10 replicas over 10^4
#: unit sectors as one 2-D array, half the capacity corrupted.  Beyond
#: what the rescanning reference finishes in seconds, so it is timed on
#: the vectorized backend only (the backends are compared at the pinned
#: shape above, in both placement forms); recorded, never gated.
GREEDY_ARRAY_N_SECTORS = 10_000
GREEDY_ARRAY_N_FILES = 10_000
GREEDY_ARRAY_REPLICAS = 10
GREEDY_ARRAY_BUDGET = 0.5

#: Weighted-sampler shape: one draw request against a capacity table at
#: Table-III-ish scale -- the form a refresh-target prefetch or a
#: retrieval request stream takes.  The other form producers send, a place
#: run, is the File Add shape below.
SAMPLER_N_SLOTS = 3_000
SAMPLER_DRAWS = 48_000

#: Acceptance bar for the sampler kernel: vectorized batch draws must
#: beat the Fenwick oracle by at least this factor at the pinned shape.
MIN_SAMPLER_SPEEDUP = 2.0

#: File Add shape: ``fill_prove``'s replica stream -- 10^5 files x 3
#: replicas of one size over 10^4 equal sectors -- as one place run.
#: Recorded as draws/s; ratio-gated at the sampler bar above.
FILE_ADD_N_SLOTS = 10_000
FILE_ADD_PLACES = 300_000
FILE_ADD_SIZE = 8 * 1024
FILE_ADD_SLOT_CAPACITY = 1 << 20


def run_refresh(backend: str) -> PlacementResult:
    """One measured round of the pinned refresh workload."""
    return PlacementExperiment(seed=0, backend=backend).run_refresh(
        REFRESH_DISTRIBUTION,
        REFRESH_N_BACKUPS,
        REFRESH_N_SECTORS,
        refresh_multiplier=REFRESH_MULTIPLIER,
    )


def run_refresh_scale(n_sectors: int) -> PlacementResult:
    """One 10^6-move batch at a paper-scale shape (vectorized backend)."""
    return PlacementExperiment(seed=0, backend="vectorized").run_refresh(
        REFRESH_DISTRIBUTION,
        REFRESH_SCALE_N_BACKUPS,
        n_sectors,
        refresh_multiplier=1,
    )


def adversary_workload():
    """The pinned greedy-adversary inputs (capacities, placements, values)."""
    rng = np.random.default_rng(7)
    placements = [
        list(rng.integers(0, ADVERSARY_N_SECTORS, ADVERSARY_REPLICAS))
        for _ in range(ADVERSARY_N_FILES)
    ]
    values = [float(v) for v in rng.integers(1, 5, ADVERSARY_N_FILES)]
    capacities = [float(c) for c in rng.integers(1, 4, ADVERSARY_N_SECTORS)]
    return capacities, placements, values


def run_greedy(backend: str, as_array: bool = False):
    """One full greedy selection at the pinned shape, in either placement form."""
    capacities, placements, values = adversary_workload()
    if as_array:
        placements = np.array(placements)
    adversary = GreedyCapacityAdversary(seed=1, backend=backend)
    return adversary.choose_sectors(capacities, placements, values, ADVERSARY_BUDGET)


def run_greedy_array_placements():
    """One targeted attack at the array-placement shape (vectorized backend)."""
    placements = np.random.default_rng(7).integers(
        0, GREEDY_ARRAY_N_SECTORS, (GREEDY_ARRAY_N_FILES, GREEDY_ARRAY_REPLICAS)
    )
    adversary = GreedyCapacityAdversary(seed=1, backend="vectorized")
    return adversary.attack(
        np.ones(GREEDY_ARRAY_N_SECTORS),
        placements,
        np.ones(GREEDY_ARRAY_N_FILES),
        GREEDY_ARRAY_BUDGET,
    )


def sampler_workload():
    """The pinned draw request's ``batch_weighted_draw`` inputs (weights, ops)."""
    weights = np.random.default_rng(23).integers(1, 1 << 20, SAMPLER_N_SLOTS)
    return weights, [("draw", SAMPLER_DRAWS)]


def run_sampler(backend: str) -> tuple:
    """One draw request at the pinned shape.

    Returns hashable result fields so the artifact gate can assert
    cross-backend equality before timing anything.
    """
    from repro.kernels import get_backend, sampler_stream

    weights, ops = sampler_workload()
    result = get_backend(backend).batch_weighted_draw(sampler_stream(17, 0), weights, ops)
    return result.keys.tobytes(), result.attempts, result.collisions


def run_file_add(backend: str) -> tuple:
    """The pinned File Add place run: one op, sizes as an int64 column."""
    from repro.kernels import get_backend, sampler_stream

    capacity = np.full(FILE_ADD_N_SLOTS, FILE_ADD_SLOT_CAPACITY, dtype=np.int64)
    sizes = np.full(FILE_ADD_PLACES, FILE_ADD_SIZE, dtype=np.int64)
    result = get_backend(backend).batch_weighted_draw(
        sampler_stream(29, 0), capacity, [("place", sizes, 1000)], free=capacity
    )
    return result.keys.tobytes(), result.attempts, result.collisions


def best_wall(run: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-N wall time with the GC parked, as pytest-benchmark does."""
    best = float("inf")
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best
