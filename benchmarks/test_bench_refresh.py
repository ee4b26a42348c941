"""Micro-benchmark: the ``PlacementExperiment.run_refresh`` hot path.

PR 3 pinned this workload as the baseline for the kernel-extraction PR;
the refresh loop now lives in :mod:`repro.kernels`.  These benchmarks
keep the same fixed shape (defined once in :mod:`kernel_shapes`, shared
with ``bench_kernels.py``) so numbers stay comparable across commits:

* ``test_refresh_loop_throughput`` -- the vectorized refresh loop,
  reported as refreshes/second;
* ``test_vectorized_refresh_speedup`` -- the acceptance gate for the
  kernel layer: the vectorized kernels must run the pinned shape at
  least 5x faster than the ``reference`` oracle *while producing an
  identical PlacementResult*;
* ``test_refresh_vs_reallocate_cost_ratio`` -- the residual per-move tax:
  refresh wall time over reallocate wall time for the same number of
  placement decisions, on the kernels and on the oracle.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_refresh.py -q``.
"""

from __future__ import annotations

from kernel_shapes import (
    MIN_REFRESH_SPEEDUP,
    REFRESH_DISTRIBUTION,
    REFRESH_MULTIPLIER,
    REFRESH_N_BACKUPS,
    REFRESH_N_SECTORS,
    best_wall,
    run_refresh,
)
from repro.sim.placement import PlacementExperiment


def test_refresh_loop_throughput(benchmark, record):
    """Refreshes/second of the vectorized kernels at the pinned shape."""
    result = benchmark.pedantic(lambda: run_refresh("vectorized"), rounds=3, iterations=1)
    total_refreshes = REFRESH_MULTIPLIER * REFRESH_N_BACKUPS
    assert result.rounds == total_refreshes
    per_second = total_refreshes / benchmark.stats.stats.mean
    record(
        f"run_refresh throughput [vectorized] ({total_refreshes} refreshes)",
        f"{per_second:,.0f} refreshes/s",
        "grouped-scan kernel",
    )


def test_vectorized_refresh_speedup(record):
    """The vectorized kernel is >= 5x faster and bit-identical.

    Retries once with more repeats before failing, so a single scheduling
    hiccup on a loaded machine cannot flake the gate.
    """
    reference_result = run_refresh("reference")
    vectorized_result = run_refresh("vectorized")
    assert vectorized_result == reference_result  # identical PlacementResult

    speedup = best_wall(lambda: run_refresh("reference")) / best_wall(
        lambda: run_refresh("vectorized")
    )
    if speedup < MIN_REFRESH_SPEEDUP:  # pragma: no cover - timing-dependent retry
        speedup = best_wall(lambda: run_refresh("reference"), 5) / best_wall(
            lambda: run_refresh("vectorized"), 5
        )
    record(
        "run_refresh vectorized speedup over reference",
        f"{speedup:.1f}x",
        f"kernel PR acceptance: >= {MIN_REFRESH_SPEEDUP:.0f}x at the pinned shape",
    )
    assert speedup >= MIN_REFRESH_SPEEDUP


def test_refresh_vs_reallocate_cost_ratio(record):
    """How much slower one refreshed placement is than one reallocated one.

    Both settings decide the same number of placements; reallocate does
    them in ``REFRESH_MULTIPLIER`` bulk bincount rounds, refresh must
    replay every move's effect on a live placement.  A refresh can never
    be as cheap as a bulk bincount, but the vectorized kernel must shrink
    the ratio relative to the scalar oracle loop -- that shrinkage *is*
    the extracted headroom.  Retries once with more repeats before
    failing, like the speedup gates.
    """

    def wall_ratios(repeats):
        reallocate_wall = best_wall(
            lambda: PlacementExperiment(seed=0).run_reallocate(
                REFRESH_DISTRIBUTION,
                REFRESH_N_BACKUPS,
                REFRESH_N_SECTORS,
                rounds=REFRESH_MULTIPLIER,
            ),
            repeats,
        )
        return {
            backend: best_wall(lambda: run_refresh(backend), repeats) / reallocate_wall
            for backend in ("reference", "vectorized")
        }

    ratios = wall_ratios(1)
    if not 1.0 < ratios["vectorized"] < ratios["reference"]:  # pragma: no cover - timing
        ratios = wall_ratios(3)
    for backend, ratio in ratios.items():
        record(
            f"run_refresh / run_reallocate wall ratio [{backend}]",
            f"{ratio:.1f}x",
            "same placement-decision count; lower is better",
        )
    assert 1.0 < ratios["vectorized"] < ratios["reference"]
