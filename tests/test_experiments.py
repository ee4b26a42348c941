"""Tests for the experiment drivers (scaled-down runs of every table/figure)."""

import pytest

from repro.experiments import collision, deposit, robustness, scalability, table3, table4
from repro.sim.workload import FileSizeDistribution


class TestTable3Driver:
    def test_rows_pivot_by_grid_cell(self):
        results = table3.run_table3(
            mode="reallocate",
            grid=[(2000, 10), (5000, 10)],
            distributions=[FileSizeDistribution.UNIFORM_0_1, FileSizeDistribution.EXPONENTIAL],
            rounds=3,
        )
        rows = table3.rows_to_table(results)
        assert len(rows) == 2
        assert {"Ncp", "Ns", "[1]", "[3]"} <= set(rows[0])

    def test_all_usages_below_paper_threshold(self):
        results = table3.run_table3(
            mode="reallocate", grid=[(20_000, 20)], rounds=10
        )
        assert all(result.max_usage < table3.PAPER_MAX_USAGE for result in results)

    def test_refresh_mode_runs(self):
        results = table3.run_table3(
            mode="refresh",
            grid=[(5000, 10)],
            distributions=[FileSizeDistribution.UNIFORM_1_2],
            refresh_multiplier=3,
        )
        assert results[0].mode == "refresh"
        assert results[0].max_usage < 1.0

    def test_grids_have_paper_ratios(self):
        for n_backups, n_sectors in table3.default_grid():
            assert n_backups // n_sectors in (1000, 5000)
        assert len(table3.paper_grid()) == 8


class TestTable4Driver:
    def test_results_cover_all_protocols(self):
        results = table4.run_table4(n_sectors=80, n_files=150, seed=4)
        assert {r.protocol for r in results} == set(table4.paper_expectations())

    def test_yes_no_matches_paper(self):
        results = table4.run_table4(n_sectors=80, n_files=150, seed=4)
        expected = table4.paper_expectations()
        for result in results:
            assert result.provable_robustness == expected[result.protocol]["provable_robustness"]
            assert (
                result.compensation_for_loss
                == expected[result.protocol]["compensation_for_loss"]
            )


class TestCollisionDriver:
    def test_bound_sweep_monotone_decreasing(self):
        rows = collision.run_bound_sweep(ns=1e6, ratios=(10, 100, 1000))
        bounds = [float(row["theorem2_bound"]) for row in rows]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_monte_carlo_respects_bound_at_loose_ratios(self):
        # At small capacity/size ratios the bound exceeds 1 and holds trivially;
        # at larger ratios the event becomes so rare that a finite-trial
        # estimate is dominated by sampling noise, so only the loose ratios
        # are asserted exactly and the tight one is checked to be rare.
        rows = collision.run_monte_carlo(ratios=(16, 32), n_sectors=100, trials=40)
        assert all(row["bound_holds"] for row in rows)
        tight = collision.run_monte_carlo(ratios=(64,), n_sectors=100, trials=40)[0]
        assert tight["empirical_prob"] < 0.15


class TestRobustnessDriver:
    def test_bound_sweep_row_per_lambda(self):
        rows = robustness.run_bound_sweep(lambdas=(0.3, 0.5))
        assert len(rows) == 2

    def test_monte_carlo_loss_below_bound(self):
        rows = robustness.run_monte_carlo(
            lambdas=(0.5,), n_sectors=400, n_files=400, k=6, trials=2
        )
        row = rows[0]
        assert float(row["sim_loss_random(max)"]) <= float(row["theorem3_bound"]) + 1e-9

    def test_random_placement_beats_clustered_under_attack(self):
        contrast = robustness.run_placement_contrast(
            lam=0.5, n_sectors=200, n_files=200, k=4, seed=1
        )
        assert contrast["loss_random_placement"] <= contrast["loss_clustered_placement"]


class TestDepositDriver:
    def test_paper_deposit_ratio_reproduced(self):
        rows = deposit.run_bound_sweep(lambdas=(0.5,))
        assert rows[0]["gamma_deposit_bound"] == pytest.approx(0.0046, abs=0.0002)

    def test_protocol_check_full_compensation(self):
        check = deposit.run_protocol_check(
            n_providers=12, files=24, corrupt_fraction=0.5, deposit_ratio=0.3, k=3, seed=2
        )
        assert check["full_compensation"]
        assert check["shortfalls"] == 0
        assert check["confiscated_deposits"] >= check["compensated_value"]


class TestScalabilityDriver:
    def test_bound_linear_in_ns(self):
        rows = scalability.run_bound_sweep(ns_values=(1e3, 1e4))
        first = float(rows[0]["max_storable_bytes"])
        second = float(rows[1]["max_storable_bytes"])
        assert second == pytest.approx(10 * first, rel=0.01)

    def test_fill_experiment_within_bound(self):
        result = scalability.run_fill_experiment(n_providers=10, k=3, file_size_fraction=0.05)
        assert result["within_bound"]
        assert result["stored_files"] > 0
        # The fill stops at (roughly) the redundancy budget: half the capacity.
        assert result["replica_fill_fraction"] <= 0.55


class TestBackendThreading:
    """``backend`` selects the execution path only: result rows stay
    identical, so ``repro diff`` can gate backend drift in CI.  (Engine
    identity on the same two shapes is pinned by the scripted fingerprint
    cases in ``tests/test_core_columnar.py``.)"""

    def test_fill_rows_identical_across_backends(self):
        rows = {
            backend: scalability.run_fill_experiment(
                n_providers=8, k=3, file_size_fraction=0.05, backend=backend
            )
            for backend in ("reference", "vectorized")
        }
        assert rows["reference"] == rows["vectorized"]
        assert "backend" not in rows["reference"]
        assert rows["reference"]["stored_files"] > 0

    def test_fill_batched_driver_respects_max_files(self):
        row = scalability.run_fill_experiment(
            n_providers=8, k=3, file_size_fraction=0.01,
            backend="reference", add_batch=7, max_files=20,
        )
        assert row["stored_files"] == 20

    def test_deposit_rows_identical_across_backends(self):
        rows = {
            backend: deposit.run_protocol_check(
                n_providers=10,
                files=20,
                corrupt_fraction=0.5,
                deposit_ratio=0.3,
                k=3,
                seed=2,
                backend=backend,
            )
            for backend in ("reference", "vectorized")
        }
        assert rows["reference"] == rows["vectorized"]
        assert "backend" not in rows["reference"]
        assert rows["reference"]["full_compensation"]

    @pytest.mark.parametrize("name", ["scalability", "deposit"])
    def test_engine_is_not_a_parameter(self, name, capsys):
        from repro.runner.cli import main

        assert main(["run", name, "--quiet", "--set", "engine=object"]) == 2
        assert f"scenario {name!r} has no parameter 'engine'" in capsys.readouterr().err
