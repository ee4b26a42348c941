"""Micro-benchmark: the ``batch_weighted_draw`` kernel.

The ``RandomSector()`` weighted sampler became the dominant hot path of
the end-to-end scenarios once refresh and adversary selection were
vectorized; this gate pins its kernelisation the same way
``test_bench_refresh.py`` pins the refresh loop:

* ``test_sampler_throughput`` -- the pinned draw request on the
  vectorized kernels, reported as draws/second;
* ``test_vectorized_sampler_speedup`` -- the acceptance gate, on the two
  request forms producers send (the pinned draw request and File Add's
  place run): the vectorized kernels must run each at least
  ``MIN_SAMPLER_SPEEDUP``x faster than the Fenwick oracle *while
  returning identical key sequences, attempt and collision counts*.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_sampler.py -q``.
"""

from __future__ import annotations

import pytest

from kernel_shapes import (
    MIN_SAMPLER_SPEEDUP,
    SAMPLER_DRAWS,
    best_wall,
    run_file_add,
    run_sampler,
)


def test_sampler_throughput(benchmark, record):
    result = benchmark.pedantic(lambda: run_sampler("vectorized"), rounds=3, iterations=1)
    keys, attempts, collisions = result
    assert attempts == SAMPLER_DRAWS
    draws_per_second = attempts / benchmark.stats["min"]
    record(
        "sampler draws/s [vectorized]",
        f"{draws_per_second:,.0f}",
        "n/a (engineering gate)",
    )


def _timed(run, backend, repeats):
    """``(result, best wall)`` of ``run(backend)`` from the same calls."""
    results = []
    wall = best_wall(lambda: results.append(run(backend)), repeats)
    return results[0], wall


@pytest.mark.parametrize(
    "label, run", [("draw request", run_sampler), ("place run", run_file_add)]
)
def test_vectorized_sampler_speedup(record, label, run):
    # The oracle is timed once: the gate is 2x and the margin an order of
    # magnitude, so only a miss pays for more repeats.
    reference, reference_wall = _timed(run, "reference", 1)
    vectorized, vectorized_wall = _timed(run, "vectorized", 3)
    assert reference == vectorized, (
        f"batch_weighted_draw disagrees with the oracle on the pinned {label}"
    )
    speedup = reference_wall / vectorized_wall
    if speedup < MIN_SAMPLER_SPEEDUP:  # one retry at higher N before failing
        reference_wall = best_wall(lambda: run("reference"), repeats=5)
        vectorized_wall = best_wall(lambda: run("vectorized"), repeats=5)
        speedup = reference_wall / vectorized_wall
    record(
        f"sampler vectorized speedup [{label}]",
        f"{speedup:.1f}x",
        f">= {MIN_SAMPLER_SPEEDUP}x (acceptance gate)",
    )
    assert speedup >= MIN_SAMPLER_SPEEDUP, (
        f"vectorized batch_weighted_draw is only {speedup:.2f}x faster than "
        f"reference on the pinned {label} (required {MIN_SAMPLER_SPEEDUP}x)"
    )
