"""Benchmark E1/E2: Table III -- maximum capacity usage of sectors.

Reproduces both settings (reallocate-100-times and refresh-100*Ncp-times)
for all five file-backup size distributions on a scaled grid that keeps the
paper's Ncp/Ns ratios.  The paper's claim being checked: the maximum
capacity usage never exceeds ~0.64, so capacity-proportional random
placement almost never collides.
"""

from __future__ import annotations

import pytest

from repro.scenarios import table3
from repro.sim.placement import PlacementExperiment
from repro.sim.workload import FileSizeDistribution

# Scaled grid: same Ncp/Ns ratios (5000 and 1000) as the paper's rows.
BENCH_GRID = [(10**5, 20), (10**5, 100)]
BENCH_ROUNDS = 30
BENCH_REFRESH_MULTIPLIER = 10


@pytest.mark.parametrize("distribution", list(FileSizeDistribution.paper_order()))
def test_table3_reallocate_setting(benchmark, record, distribution):
    """Table III (top): reallocate all file backups, max usage per cell."""

    def run():
        experiment = PlacementExperiment(seed=0)
        return [
            experiment.run_reallocate(distribution, ncp, ns, rounds=BENCH_ROUNDS)
            for ncp, ns in BENCH_GRID
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    worst = max(result.max_usage for result in results)
    assert worst < table3.PAPER_MAX_USAGE
    record(
        f"Table III reallocate {distribution.paper_label} (max usage)",
        round(worst, 3),
        "< 0.64 (paper: 0.52-0.61)",
    )


@pytest.mark.parametrize("distribution", list(FileSizeDistribution.paper_order()))
def test_table3_refresh_setting(benchmark, record, distribution):
    """Table III (bottom): refresh random backups, max usage per cell."""

    def run():
        experiment = PlacementExperiment(seed=1)
        return [
            experiment.run_refresh(
                distribution, ncp, ns, refresh_multiplier=BENCH_REFRESH_MULTIPLIER
            )
            for ncp, ns in BENCH_GRID
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    worst = max(result.max_usage for result in results)
    assert worst < table3.PAPER_MAX_USAGE
    record(
        f"Table III refresh {distribution.paper_label} (max usage)",
        round(worst, 3),
        "< 0.64 (paper: 0.53-0.64)",
    )


def test_table3_usage_grows_with_ns_at_fixed_ratio(benchmark, record):
    """The paper's grid shows usage increasing mildly with Ns at a fixed
    Ncp/Ns ratio; check the trend on the scaled grid."""

    def run():
        experiment = PlacementExperiment(seed=2)
        small = experiment.run_reallocate(
            FileSizeDistribution.EXPONENTIAL, 10**5, 20, rounds=BENCH_ROUNDS
        )
        large = experiment.run_reallocate(
            FileSizeDistribution.EXPONENTIAL, 10**5, 100, rounds=BENCH_ROUNDS
        )
        return small, large

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert large.max_usage > small.max_usage
    record(
        "Table III trend: usage(Ns=100) > usage(Ns=20) at Ncp=1e5",
        f"{small.max_usage:.3f} -> {large.max_usage:.3f}",
        "0.536 -> 0.584 (distribution [3])",
    )
