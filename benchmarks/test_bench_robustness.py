"""Benchmark E5: Theorem 3 robustness -- lost value under capacity corruption.

Reproduces the Section V-B3 analysis: the analytic bound at the paper's
exact parameters (k=20, Ns=1e6, capPara=1e3, lambda=0.5), a Monte-Carlo
corruption of an i.i.d. random placement at scaled parameters (random and
greedy adversaries), and the storage-randomness ablation (random vs
clustered placement) that explains *why* FileInsurer is robust.
"""

from __future__ import annotations

import pytest

from repro.core.analysis import expected_lost_value_fraction, theorem3_loss_ratio_bound
from repro.runner import run_scenario
from repro.scenarios import robustness


def test_theorem3_bound_at_paper_parameters(benchmark, record):
    """Analytic bound across lambda at k=20, Ns=1e6, capPara=1e3."""

    def run():
        return robustness.run_bound_sweep(
            lambdas=(0.1, 0.3, 0.5, 0.7), k=20, ns=10**6, cap_para=10**3, gamma_m_v=0.005
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(rows) == 4
    # The first two max-terms of the paper's example evaluate to 5e-6 and 1e-3.
    assert 5 * 0.5**20 == pytest.approx(5e-6, rel=0.05)
    assert 0.5**10 == pytest.approx(0.001, rel=0.05)
    record(
        "Theorem 3 terms at lambda=0.5 (5*l^k, l^(k/2))",
        f"{5 * 0.5**20:.1e}, {0.5**10:.1e}",
        "5e-6, 0.001 (Sec. V-B3 example)",
    )
    record(
        "Theorem 3 full bound at lambda=0.5, gamma_m_v=0.005",
        f"{theorem3_loss_ratio_bound(0.5, 20, 1e6, 1e3, 0.005):.3f}",
        "paper example states 0.001 (see EXPERIMENTS.md note)",
    )


def test_monte_carlo_loss_vs_bound(benchmark, record):
    """Simulated loss at scaled parameters stays below the analytic bound."""

    def run():
        return run_scenario(
            "robustness",
            dict(lambdas=(0.3, 0.5), n_sectors=1000, n_files=1000, k=8, trials=3),
            seed=0,
        ).summary

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(rows) == 4  # (lambda, adversary) pairs
    for row in rows:
        assert row["loss_max"] <= row["theorem3_bound"] + 1e-9
    half = {row["adversary"]: row for row in rows if row["lambda"] == 0.5}
    record(
        "Robustness Monte-Carlo (lambda=0.5, k=8): loss random/targeted/bound",
        f"{half['random']['loss_max']}/{half['targeted']['loss_max']}"
        f"/{half['random']['theorem3_bound']}",
        "loss stays below the Theorem 3 bound",
    )


def test_random_loss_tracks_lambda_to_k(benchmark, record):
    """Under random corruption the realised loss concentrates near lambda^k."""

    def run():
        losses = [
            robustness.simulate_loss(2000, 4000, 4, 0.5, seed=t, targeted=False)
            for t in range(3)
        ]
        return sum(losses) / len(losses)

    mean_loss = benchmark.pedantic(run, rounds=1, iterations=1)
    expected = expected_lost_value_fraction(0.5, 4)
    assert mean_loss == pytest.approx(expected, rel=0.5)
    record(
        "Random-corruption loss vs lambda^k (lambda=0.5, k=4)",
        f"{mean_loss:.4f}",
        f"{expected:.4f}",
    )


def test_storage_randomness_ablation(benchmark, record):
    """Random i.i.d. placement vs clustered placement under a greedy attack."""

    def run():
        return robustness.run_placement_contrast(
            lam=0.5, n_sectors=600, n_files=600, k=5, seed=0
        )

    contrast = benchmark.pedantic(run, rounds=1, iterations=1)
    assert contrast["loss_random_placement"] < contrast["loss_clustered_placement"]
    record(
        "Ablation: targeted loss random vs clustered placement",
        f"{contrast['loss_random_placement']:.3f} vs {contrast['loss_clustered_placement']:.3f}",
        "randomness is what provides robustness (Sec. V-B2)",
    )
