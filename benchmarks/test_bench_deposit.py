"""Benchmark E6: Theorem 4 -- deposit ratio for full compensation.

Reproduces the Section V-B4 example (gamma_deposit = 0.0046 at k=20,
Ns=1e6, capPara=1e3, lambda=0.5) and runs the end-to-end compensation check
on the real protocol state machine: crash half the sectors and verify that
confiscated deposits fully cover the compensation owed for lost files.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import theorem4_deposit_ratio_bound
from repro.scenarios import deposit


def test_theorem4_paper_example(benchmark, record):
    """gamma_deposit = 0.0046 at the paper's parameters."""

    def run():
        return theorem4_deposit_ratio_bound(lam=0.5, k=20, ns=10**6, cap_para=10**3)

    bound = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bound == pytest.approx(0.0046, abs=0.0002)
    record("Theorem 4 deposit ratio (lambda=0.5)", f"{bound:.4f}", "0.0046")


def test_theorem4_bound_sweep(benchmark, record):
    """Deposit ratio grows with the assumed adversary budget lambda."""

    def run():
        return deposit.run_bound_sweep(lambdas=(0.1, 0.25, 0.5, 0.75))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    bounds = [row["gamma_deposit_bound"] for row in rows]
    assert bounds == sorted(bounds)
    record(
        "Theorem 4 sweep (lambda=0.1..0.75)",
        ", ".join(f"{b:.4f}" for b in bounds),
        "monotone in lambda; 0.0046 at 0.5",
    )


def test_end_to_end_full_compensation(benchmark, record):
    """Protocol-level check: deposits cover every lost file at lambda=0.5."""

    def run():
        return deposit.run_protocol_check(
            n_providers=24, files=48, corrupt_fraction=0.5, deposit_ratio=0.25, k=4, seed=3
        )

    check = benchmark.pedantic(run, rounds=1, iterations=1)
    assert check["full_compensation"]
    assert check["shortfalls"] == 0
    record(
        "End-to-end compensation at lambda=0.5 (lost vs compensated value)",
        f"{check['lost_value']} vs {check['compensated_value']}",
        "full compensation (Theorem 4)",
    )


def test_deposit_ratio_insensitive_to_network_size(benchmark, record):
    """The third Theorem-4 term grows only logarithmically with Ns."""

    def run():
        return [
            theorem4_deposit_ratio_bound(lam=0.5, k=20, ns=ns, cap_para=10**3)
            for ns in (10**4, 10**6, 10**8)
        ]

    bounds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bounds[-1] < 2 * bounds[0]
    record(
        "Theorem 4 vs network size (Ns=1e4, 1e6, 1e8)",
        ", ".join(f"{b:.4f}" for b in bounds),
        "grows only logarithmically in Ns",
    )
