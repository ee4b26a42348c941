"""Benchmarks E4 and E7: Theorem 2 (collision probability) and Theorem 1
(capacity scalability).

Theorem 2: the probability that any sector's free capacity drops below 1/8
of its capacity is bounded by ``Ns * exp(-0.144 * capacity/size)``; at the
paper's operating point (capacity/size >= 1000, Ns <= 1e12) it is below
1e-50.  Theorem 1: the total raw file size storable grows (almost) linearly
with total sector capacity.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import theorem2_collision_probability_bound
from repro.runner import run_scenario
from repro.scenarios import scalability


def test_theorem2_paper_operating_point(benchmark, record):
    """Bound below 1e-50 at capacity/size=1000 and Ns=1e12."""

    def run():
        return theorem2_collision_probability_bound(1e12, 1000, 1)

    bound = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bound < 1e-50
    record("Theorem 2 bound (ratio=1000, Ns=1e12)", f"{bound:.2e}", "< 1e-50")


def test_theorem2_monte_carlo_consistency(benchmark, record):
    """Empirical collision frequency respects the bound where it is checkable."""

    def run():
        return run_scenario(
            "collision", dict(ratios=(16, 32, 64), n_sectors=150, trials=60), seed=0
        ).summary

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    loose = [row for row in rows if row["capacity/size"] in (16, 32)]
    assert all(row["bound_holds"] for row in loose)
    tight = next(row for row in rows if row["capacity/size"] == 64)
    record(
        "Theorem 2 empirical frequency at ratio 16/32/64",
        ", ".join(str(row["empirical_prob"]) for row in rows),
        "collisions vanish as the ratio grows",
    )
    assert tight["empirical_prob"] < 0.2


def test_theorem1_linear_scalability(benchmark, record):
    """Storable size scales linearly with Ns for a fixed file distribution."""

    def run():
        return scalability.run_bound_sweep(ns_values=(10**3, 10**4, 10**5, 10**6))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    numeric = [row for row in rows if isinstance(row["Ns"], int)]
    sizes = [float(row["max_storable_bytes"]) for row in numeric]
    for smaller, larger in zip(sizes, sizes[1:]):
        assert larger == pytest.approx(10 * smaller, rel=0.01)
    record(
        "Theorem 1 storable size growth (Ns x10 steps)",
        "linear (x10 per step)",
        "~O(Ns * minCapacity), Sec. V-B1",
    )


def test_theorem1_fill_until_refusal(benchmark, record):
    """Filling a live deployment stops within the Theorem 1 bound."""

    def run():
        return scalability.run_fill_experiment(n_providers=16, k=3, file_size_fraction=0.03)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["within_bound"]
    record(
        "Theorem 1 fill experiment (stored raw bytes vs bound)",
        f"{result['stored_raw_bytes']} <= {result['theorem1_bound_bytes']} (+1 file)",
        "network refuses files beyond the design limits",
    )
