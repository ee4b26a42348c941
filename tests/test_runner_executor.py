"""Executor tests: deterministic seeding and serial/parallel equivalence."""

from __future__ import annotations

import pytest

from repro.runner.executor import derive_trial_seed, execute_trials, run_scenario
from repro.runner.registry import (
    ParamSpec,
    ScenarioSpec,
    load_builtin_scenarios,
    register,
    _REGISTRY,
)


def _echo_trial(task):
    """Deterministic trial: value depends only on the injected seed/params."""
    return {"x": task["x"], "y": task["x"] ** 2, "noise": task["seed"] % 9973}


def _build_echo_trials(params):
    return [{"x": x} for x in range(params["n"])]


ECHO_PARAMS = {"n": ParamSpec(6, "number of trials")}


@pytest.fixture
def echo_scenario():
    spec = register(
        ScenarioSpec(
            name="temp-echo",
            description="echo scenario",
            trial_fn=_echo_trial,
            build_trials=_build_echo_trials,
            params=ECHO_PARAMS,
        ),
        replace=True,
    )
    yield spec
    _REGISTRY.pop("temp-echo", None)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(7, "robustness", 3) == derive_trial_seed(
            7, "robustness", 3
        )

    def test_varies_with_index_scenario_and_root(self):
        base = derive_trial_seed(7, "robustness", 0)
        assert base != derive_trial_seed(7, "robustness", 1)
        assert base != derive_trial_seed(7, "table3", 0)
        assert base != derive_trial_seed(8, "robustness", 0)

    def test_seed_fits_in_63_bits(self):
        seed = derive_trial_seed(0, "x", 0)
        assert 0 <= seed < 2**63

    def test_negative_root_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_seed(-1, "x", 0)


class TestRunTrials:
    def test_serial_results_in_trial_order(self, echo_scenario):
        rows = execute_trials(echo_scenario, _build_echo_trials({"n": 4}), seed=5).rows
        assert [row["trial"] for row in rows] == [0, 1, 2, 3]
        assert [row["x"] for row in rows] == [0, 1, 2, 3]

    def test_parallel_equals_serial(self, echo_scenario):
        trials = _build_echo_trials({"n": 8})
        serial = execute_trials(echo_scenario, trials, workers=1, seed=11).rows
        parallel = execute_trials(echo_scenario, trials, workers=3, seed=11).rows
        assert serial == parallel

    def test_different_root_seeds_differ(self, echo_scenario):
        trials = _build_echo_trials({"n": 4})
        assert execute_trials(echo_scenario, trials, seed=1).rows != execute_trials(
            echo_scenario, trials, seed=2
        ).rows

    def test_zero_workers_rejected(self, echo_scenario):
        with pytest.raises(ValueError):
            execute_trials(echo_scenario, [{}], workers=0).rows


class TestRunScenario:
    def test_manifest_fields(self, echo_scenario):
        manifest = run_scenario("temp-echo", {"n": 3}, workers=1, seed=2)
        assert manifest.scenario == "temp-echo"
        assert manifest.params == {"n": 3}
        assert manifest.seed == 2
        assert manifest.trial_count == 3
        assert len(manifest.rows) == 3

    def test_empty_trial_list_rejected(self, echo_scenario):
        with pytest.raises(ValueError, match="empty trial list"):
            run_scenario("temp-echo", {"n": 0})

    def test_robustness_serial_vs_parallel_identical_rows(self):
        """The acceptance criterion, at a scale that stays fast in CI."""
        load_builtin_scenarios()
        overrides = {
            "lambdas": (0.5,),
            "n_sectors": 200,
            "n_files": 200,
            "k": 4,
            "trials": 2,
        }
        serial = run_scenario("robustness", overrides, workers=1, seed=7)
        parallel = run_scenario("robustness", overrides, workers=4, seed=7)
        assert serial.rows == parallel.rows
        assert serial.trial_rows_equal(parallel)
        assert serial.summary == parallel.summary

    def test_robustness_summary_respects_bound(self):
        load_builtin_scenarios()
        manifest = run_scenario(
            "robustness",
            {"lambdas": (0.5,), "n_sectors": 400, "n_files": 400, "k": 6, "trials": 2},
            seed=0,
        )
        assert all(row["bound_holds"] for row in manifest.summary)
