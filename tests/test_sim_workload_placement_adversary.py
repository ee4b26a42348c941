"""Tests for workload generation, the placement engine and adversary models."""

import numpy as np
import pytest

from repro.sim.adversary import (
    GreedyCapacityAdversary,
    RandomCapacityAdversary,
    evaluate_loss,
)
from repro.sim.placement import PlacementExperiment
from repro.sim.workload import FileSizeDistribution, WorkloadGenerator


class TestWorkloadDistributions:
    @pytest.mark.parametrize("distribution", list(FileSizeDistribution))
    def test_sizes_positive_and_right_count(self, distribution):
        generator = WorkloadGenerator(seed=1)
        sizes = generator.backup_sizes(distribution, 5000)
        assert sizes.shape == (5000,)
        assert (sizes > 0).all()

    def test_uniform_0_1_mean(self):
        sizes = WorkloadGenerator(seed=2).backup_sizes(FileSizeDistribution.UNIFORM_0_1, 20000)
        assert 0.45 < sizes.mean() < 0.55

    def test_uniform_1_2_range(self):
        sizes = WorkloadGenerator(seed=2).backup_sizes(FileSizeDistribution.UNIFORM_1_2, 5000)
        assert sizes.min() >= 1.0 and sizes.max() <= 2.0

    def test_exponential_mean(self):
        sizes = WorkloadGenerator(seed=3).backup_sizes(FileSizeDistribution.EXPONENTIAL, 20000)
        assert 0.9 < sizes.mean() < 1.1

    def test_deterministic_with_seed(self):
        a = WorkloadGenerator(seed=7).backup_sizes(FileSizeDistribution.EXPONENTIAL, 100)
        b = WorkloadGenerator(seed=7).backup_sizes(FileSizeDistribution.EXPONENTIAL, 100)
        assert np.array_equal(a, b)

    def test_zero_count(self):
        assert WorkloadGenerator().backup_sizes(FileSizeDistribution.EXPONENTIAL, 0).size == 0

    def test_paper_order_and_labels(self):
        order = FileSizeDistribution.paper_order()
        assert len(order) == 5
        assert order[0].paper_label == "[1]"
        assert order[4].paper_label == "[5]"


class TestWorkloadRequests:
    def test_file_requests_scaled_to_mean(self):
        generator = WorkloadGenerator(seed=4)
        requests = generator.file_requests(2000, mean_size=10_000)
        mean = sum(r.size for r in requests) / len(requests)
        assert 8000 < mean < 12000
        assert all(r.size >= 1 and r.value == 1 for r in requests)

    def test_file_requests_max_size(self):
        generator = WorkloadGenerator(seed=4)
        requests = generator.file_requests(500, mean_size=100, max_size=150)
        assert max(r.size for r in requests) <= 150

    def test_poisson_arrivals_sorted_and_bounded(self):
        generator = WorkloadGenerator(seed=6)
        times = generator.poisson_arrival_times(rate_per_s=1.0, horizon_s=100.0)
        assert times == sorted(times)
        assert all(0 < t <= 100.0 for t in times)
        assert 50 < len(times) < 160


class TestPlacementExperiment:
    def test_reallocate_usage_in_paper_range(self):
        experiment = PlacementExperiment(seed=0)
        result = experiment.run_reallocate(
            FileSizeDistribution.UNIFORM_0_1, n_backups=10**5, n_sectors=20, rounds=20
        )
        # Paper Table III reports ~0.52-0.54 for this cell; allow slack for
        # the reduced round count.
        assert 0.50 < result.max_usage < 0.60
        assert result.overflow_rounds == 0
        assert result.mean_usage == pytest.approx(0.5, abs=0.02)

    def test_refresh_mode_at_least_as_high_as_initial(self):
        experiment = PlacementExperiment(seed=0)
        result = experiment.run_refresh(
            FileSizeDistribution.EXPONENTIAL, n_backups=20_000, n_sectors=20, refresh_multiplier=5
        )
        assert result.max_usage < 1.0
        assert result.mode == "refresh"
        assert result.rounds == 5 * 20_000

    def test_usage_never_exceeds_one_with_ample_sectors(self):
        experiment = PlacementExperiment(seed=1)
        result = experiment.run_reallocate(
            FileSizeDistribution.NORMAL_MU_EQ_VAR, n_backups=50_000, n_sectors=100, rounds=10
        )
        assert result.max_usage < 1.0

    def test_sweep_covers_grid_and_distributions(self):
        experiment = PlacementExperiment(seed=2)
        results = experiment.sweep(grid=[(1000, 10), (2000, 10)], mode="reallocate", rounds=3)
        assert len(results) == 2 * len(FileSizeDistribution.paper_order())
        assert {r.n_backups for r in results} == {1000, 2000}
        assert [r.distribution for r in results[:5]] == list(FileSizeDistribution.paper_order())

    def test_sweep_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            PlacementExperiment().sweep(grid=[(10, 2)], mode="nope")

    def test_as_row_keys(self):
        experiment = PlacementExperiment(seed=3)
        result = experiment.run_reallocate(FileSizeDistribution.UNIFORM_1_2, 1000, 10, rounds=2)
        row = result.as_row()
        assert row["distribution"] == "[2]"
        assert {"Ncp", "Ns", "max_usage"} <= set(row)


class TestAdversaries:
    def make_placements(self, n_files=200, n_sectors=50, k=4, seed=0):
        rng = np.random.default_rng(seed)
        placements = [list(rng.integers(0, n_sectors, k)) for _ in range(n_files)]
        values = [1.0] * n_files
        capacities = [1.0] * n_sectors
        return placements, values, capacities

    def test_evaluate_loss_counts_fully_corrupted_files_only(self):
        placements = [[0, 1], [1, 2], [2, 3]]
        values = [1.0, 2.0, 4.0]
        capacities = [1.0] * 4
        outcome = evaluate_loss(placements, values, {1, 2}, capacities)
        assert outcome.lost_files == (1,)
        assert outcome.lost_value == 2.0
        assert outcome.value_loss_ratio == pytest.approx(2.0 / 7.0)
        assert outcome.capacity_fraction == pytest.approx(0.5)

    def test_random_adversary_respects_budget(self):
        placements, values, capacities = self.make_placements()
        adversary = RandomCapacityAdversary(seed=1)
        outcome = adversary.attack(capacities, placements, values, 0.3)
        assert outcome.capacity_fraction <= 0.3 + 1e-9

    def test_greedy_adversary_respects_budget(self):
        placements, values, capacities = self.make_placements()
        adversary = GreedyCapacityAdversary(seed=1)
        outcome = adversary.attack(capacities, placements, values, 0.3)
        assert outcome.capacity_fraction <= 0.3 + 1e-9

    def test_greedy_at_least_as_damaging_as_random(self):
        placements, values, capacities = self.make_placements(n_files=300, n_sectors=40, k=3)
        random_loss = RandomCapacityAdversary(seed=2).attack(
            capacities, placements, values, 0.4
        ).value_loss_ratio
        greedy_loss = GreedyCapacityAdversary(seed=2).attack(
            capacities, placements, values, 0.4
        ).value_loss_ratio
        assert greedy_loss >= random_loss

    def test_zero_budget_corrupts_nothing(self):
        placements, values, capacities = self.make_placements()
        outcome = RandomCapacityAdversary(seed=3).attack(capacities, placements, values, 0.0)
        assert outcome.lost_value == 0.0
        assert outcome.corrupted_capacity == 0.0

    def test_full_budget_destroys_everything(self):
        placements, values, capacities = self.make_placements()
        outcome = RandomCapacityAdversary(seed=4).attack(capacities, placements, values, 1.0)
        assert outcome.value_loss_ratio == pytest.approx(1.0)

    def test_invalid_budget_rejected(self):
        placements, values, capacities = self.make_placements()
        with pytest.raises(ValueError):
            RandomCapacityAdversary().choose_sectors(capacities, placements, values, 1.5)
        with pytest.raises(ValueError):
            GreedyCapacityAdversary().choose_sectors(capacities, placements, values, -0.1)

    def test_random_loss_close_to_lambda_k_expectation(self):
        # With k=3 replicas and lambda=0.5 the expected loss is 12.5%.
        placements, values, capacities = self.make_placements(
            n_files=4000, n_sectors=200, k=3, seed=5
        )
        outcome = RandomCapacityAdversary(seed=6).attack(capacities, placements, values, 0.5)
        assert 0.05 < outcome.value_loss_ratio < 0.22
