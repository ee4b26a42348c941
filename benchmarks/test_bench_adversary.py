"""Micro-benchmark: the greedy capacity-adversary selection kernel.

Section V-C's targeted adversary is the second hot loop extracted into
:mod:`repro.kernels`.  The ``reference`` oracle rescans every candidate
sector against every file it hosts on every pick
(O(picks x sectors x files/sector)); the ``vectorized`` backend keeps
finishing-value scores between picks and pops the next sector off a lazy
heap.  The pinned shape (defined once in
:mod:`kernel_shapes`, shared with ``bench_kernels.py``) mirrors the
``robustness`` scenario's Monte-Carlo geometry, scaled so the reference
loop stays under a second.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_adversary.py -q``.
"""

from __future__ import annotations

import pytest

from kernel_shapes import (
    ADVERSARY_N_FILES,
    ADVERSARY_N_SECTORS,
    ADVERSARY_REPLICAS,
    GREEDY_ARRAY_N_FILES,
    GREEDY_ARRAY_N_SECTORS,
    GREEDY_ARRAY_REPLICAS,
    best_wall,
    run_greedy,
    run_greedy_array_placements,
)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_greedy_selection_throughput(benchmark, record, backend):
    """Wall time of one full greedy selection on each backend."""
    chosen = benchmark.pedantic(lambda: run_greedy(backend), rounds=3, iterations=1)
    assert chosen  # the budget admits at least one sector
    record(
        f"greedy choose_sectors [{backend}] "
        f"({ADVERSARY_N_FILES} files x {ADVERSARY_REPLICAS} replicas, "
        f"{ADVERSARY_N_SECTORS} sectors)",
        f"{benchmark.stats.stats.mean * 1000:.1f} ms",
        "reference = rescan-per-pick oracle; vectorized = kept scores + lazy heap",
    )


def test_array_placement_attack_recorded(benchmark, record):
    """One Theorem 3 trial's targeted attack, placements as one 2-D array.

    Vectorized only: the rescanning oracle does not finish this shape in
    seconds.  Recorded, not gated -- ``campaign_sweep`` in the e2e ledger
    gates the path, and CI's ``timeout 120`` robustness step catches an
    O(S^2) regression.
    """
    outcome = benchmark.pedantic(run_greedy_array_placements, rounds=3, iterations=1)
    assert len(outcome.corrupted_sectors) == GREEDY_ARRAY_N_SECTORS // 2
    record(
        "greedy attack, array placements [vectorized] "
        f"({GREEDY_ARRAY_N_FILES} files x {GREEDY_ARRAY_REPLICAS} replicas, "
        f"{GREEDY_ARRAY_N_SECTORS} sectors)",
        f"{benchmark.stats.stats.mean * 1000:.1f} ms",
        "draw -> greedy_select -> evaluate_loss without a list per file",
    )


def test_backends_choose_identical_sectors_and_vectorized_is_faster(record):
    """Cross-backend agreement plus the perf direction of the seam.

    The hard >= 5x acceptance gate lives in the refresh benchmark; here
    the vectorized backend must at least beat the oracle while choosing
    the exact same sector set, whichever form the placements arrive in.
    """
    assert (
        run_greedy("reference")
        == run_greedy("vectorized")
        == run_greedy("reference", as_array=True)
        == run_greedy("vectorized", as_array=True)
    )
    speedup = best_wall(lambda: run_greedy("reference")) / best_wall(
        lambda: run_greedy("vectorized")
    )
    if speedup < 1.0:  # pragma: no cover - timing-dependent retry
        speedup = best_wall(lambda: run_greedy("reference"), 5) / best_wall(
            lambda: run_greedy("vectorized"), 5
        )
    record(
        "greedy choose_sectors vectorized speedup over reference",
        f"{speedup:.1f}x",
        "must exceed 1x; typically >5x at the pinned shape",
    )
    assert speedup > 1.0
