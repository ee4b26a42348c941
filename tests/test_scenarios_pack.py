"""Tests for ``repro.scenarios``: the ten registered scenarios, scaled down."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from repro.core.analysis import theorem4_deposit_ratio_bound
from repro.kernels import ReferenceKernels
from repro.runner.cli import main
from repro.runner.executor import derive_trial_seed, run_scenario
from repro.runner.registry import get_scenario, load_builtin_scenarios, resolve_params
from repro.runner.results import jsonify
from repro.scenarios import churn, collision, deposit, robustness, scalability, table3, table4
from repro.scenarios.churn import run_churn_trial
from repro.scenarios.lifecycle_churn import run_lifecycle_churn_trial
from repro.scenarios.retrieval import run_retrieval_trial
from repro.scenarios.segmentation import run_segmentation_trial
from repro.sim.placement import PlacementExperiment
from repro.sim.workload import FileSizeDistribution


@pytest.fixture(autouse=True)
def _load_registry():
    load_builtin_scenarios()


class TestRegistration:
    def test_the_tiny_table_is_the_registry(self):
        """A scenario cannot be registered without entering the pack."""
        assert set(TINY) == {spec.name for spec in load_builtin_scenarios()}
        assert len(TINY) == 10

    def test_one_package_registers_them(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.experiments")
        for name in TINY:
            module = get_scenario(name).trial_fn.__module__
            assert module.startswith("repro.scenarios."), (name, module)

    def test_workload_tags(self):
        for name in ("churn", "retrieval_load", "segmentation", "lifecycle_churn"):
            assert "workload" in get_scenario(name).tags

    def test_trial_grids(self):
        churn = get_scenario("churn")
        assert len(churn.build_trials(resolve_params(churn, {"trials": 4}))) == 4

        retrieval = get_scenario("retrieval_load")
        trials = retrieval.build_trials(
            resolve_params(retrieval, {"rates": (1.0, 2.0), "trials": 3})
        )
        assert len(trials) == 6
        assert {trial["rate_per_s"] for trial in trials} == {1.0, 2.0}

        segmentation = get_scenario("segmentation")
        trials = segmentation.build_trials(
            resolve_params(
                segmentation,
                {"size_ratios": (0.5, 2.0), "limit_fractions": (0.25,), "trials": 2},
            )
        )
        assert len(trials) == 4


def _task(name, index=0, seed_root=0, **overrides):
    """A trial task the way the executor would construct it."""
    spec = get_scenario(name)
    params = resolve_params(spec, overrides)
    trial = dict(spec.build_trials(params)[index])
    trial["trial"] = index
    trial["seed"] = derive_trial_seed(seed_root, name, index)
    trial["root_seed"] = seed_root
    return trial


TINY_CHURN = dict(providers=3, sectors_per_provider=1, clients=1, files=2, cycles=3, trials=1)
TINY_RETRIEVAL = dict(
    providers=4, clients=2, files=4, requests=10, rates=(4.0,), trials=1, mean_kib=8
)
TINY_SEG = dict(size_ratios=(2.0,), limit_fractions=(0.5,), n_files=6, trials=1)
#: Flash crowds and the correlated-failure generator stay ON in the tiny
#: shape: the identity tests must hold with every event generator active.
TINY_LIFECYCLE = dict(
    providers=6,
    regions=2,
    files=8,
    horizon_s=150.0,
    mtbf_s=120.0,
    mttr_s=30.0,
    retrieval_rate=0.5,
    flash_crowds=1,
    regional_failures=1,
    departures=1,
    trials=1,
)
#: One tiny shape per registered scenario, each building >= 2 trials so
#: the pooled runs really fan out.
TINY = {
    "churn": dict(TINY_CHURN, trials=2),
    "collision": dict(ratios=(8, 16), n_sectors=50, trials=8, batches=2),
    "deposit": dict(checks=2, n_providers=10, files=20, deposit_ratio=0.3, k=3),
    "lifecycle_churn": dict(TINY_LIFECYCLE, trials=2),
    "retrieval_load": dict(TINY_RETRIEVAL, trials=2),
    "robustness": dict(lambdas=(0.5,), n_sectors=120, n_files=120, k=4, trials=1),
    "scalability": dict(providers=(6, 8), file_size_fraction=0.05),
    "segmentation": dict(TINY_SEG, trials=2),
    "table3": dict(max_ncp=100_000, rounds=1, refresh_multiplier=1),
    "table4": dict(protocols=("FileInsurer", "Sia"), n_sectors=40, n_files=60),
}
#: The scenarios that dispatch into :mod:`repro.kernels`.
load_builtin_scenarios()
WITH_BACKEND = sorted(name for name in TINY if "backend" in get_scenario(name).params)


class TestChurn:
    def test_trial_reports_recovery_metrics(self):
        row = run_churn_trial(_task("churn", **TINY_CHURN))
        assert row["files_stored"] == 2
        assert 0.0 <= row["retrievable_fraction"] <= 1.0
        assert 0.0 <= row["replica_health"] <= 1.0
        assert row["providers"] >= row["healthy_providers"]
        assert row["joins"] + row["leaves"] + row["crashes"] >= 0

    def test_trial_is_deterministic_in_seed(self):
        assert run_churn_trial(_task("churn", **TINY_CHURN)) == run_churn_trial(
            _task("churn", **TINY_CHURN)
        )

    def test_no_churn_means_no_loss(self):
        task = _task(
            "churn", **dict(TINY_CHURN, join_rate=0.0, leave_rate=0.0, crash_rate=0.0)
        )
        row = run_churn_trial(task)
        assert row["crashes"] == row["leaves"] == row["joins"] == 0
        assert row["files_lost"] == 0
        assert row["retrievable_fraction"] == 1.0
        assert row["replica_health"] == 1.0

    def test_scenario_end_to_end_with_summary(self):
        manifest = run_scenario("churn", TINY_CHURN, workers=1, seed=1)
        assert manifest.trial_count == 1
        assert manifest.summary  # aggregator produced the mean row
        assert "retrievable_fraction_mean" in manifest.summary[0]


class TestRetrievalLoad:
    def test_trial_serves_requests_and_measures_latency(self):
        row = run_retrieval_trial(_task("retrieval_load", **TINY_RETRIEVAL))
        assert row["requests"] == 10
        assert row["served"] + row["unserved"] == 10
        assert row["served"] > 0
        assert row["latency_p95_s"] >= row["latency_p50_s"] >= 0
        assert row["dht_hops_mean"] >= 1
        assert row["bytes_served"] > 0

    def test_trial_is_deterministic_in_seed(self):
        task = _task("retrieval_load", **TINY_RETRIEVAL)
        assert run_retrieval_trial(task) == run_retrieval_trial(dict(task))

    def test_all_selfish_providers_serve_nothing(self):
        task = _task(
            "retrieval_load", **dict(TINY_RETRIEVAL, selfish_fraction=1.0)
        )
        row = run_retrieval_trial(task)
        assert row["served"] == 0
        assert row["unserved"] == row["requests"]
        assert row["bytes_served"] == 0
        # Unserved requests are deadline misses, not free passes.
        assert row["miss_rate"] == 1.0

    def test_higher_rate_does_not_lower_latency(self):
        slow = run_retrieval_trial(
            _task("retrieval_load", **dict(TINY_RETRIEVAL, rates=(0.5,), requests=20))
        )
        fast = run_retrieval_trial(
            _task("retrieval_load", **dict(TINY_RETRIEVAL, rates=(50.0,), requests=20))
        )
        assert fast["latency_mean_s"] >= slow["latency_mean_s"]

    def test_scenario_end_to_end_groups_by_rate(self):
        manifest = run_scenario(
            "retrieval_load",
            dict(TINY_RETRIEVAL, rates=(2.0, 8.0)),
            workers=1,
            seed=3,
        )
        assert manifest.trial_count == 2
        assert [row["rate_per_s"] for row in manifest.summary] == [2.0, 8.0]


class TestLifecycleChurn:
    def test_trial_reports_lifecycle_and_latency_metrics(self):
        row = run_lifecycle_churn_trial(_task("lifecycle_churn", **TINY_LIFECYCLE))
        assert row["files"] == 8
        assert row["files_placed"] + row["placement_failures"] <= row["files"]
        assert row["served"] + row["unserved"] == row["retrievals"]
        assert row["latency_p99_s"] >= row["latency_p50_s"] >= 0.0
        assert 0.0 <= row["miss_rate"] <= 1.0
        assert row["min_free_slots"] >= 0
        assert row["events_processed"] > 0

    def test_generators_fire_in_tiny_shape(self):
        row = run_lifecycle_churn_trial(_task("lifecycle_churn", **TINY_LIFECYCLE))
        assert row["regional_failures"] == 1
        assert row["provider_crashes"] > 0
        assert row["flash_retrievals"] > 0
        assert row["events_cancelled"] > 0

    def test_trial_is_deterministic_in_seed(self):
        task = _task("lifecycle_churn", **TINY_LIFECYCLE)
        assert run_lifecycle_churn_trial(task) == run_lifecycle_churn_trial(task)

    def test_quiet_shape_keeps_every_file(self):
        task = _task(
            "lifecycle_churn",
            **dict(
                TINY_LIFECYCLE,
                mtbf_s=1e9,
                regional_failures=0,
                departures=0,
                flash_crowds=0,
            ),
        )
        row = run_lifecycle_churn_trial(task)
        assert row["provider_crashes"] == 0
        assert row["files_lost"] == 0
        assert row["files_surviving"] == row["files_placed"]

    def test_scenario_end_to_end_with_summary(self):
        manifest = run_scenario("lifecycle_churn", TINY_LIFECYCLE, workers=1, seed=1)
        assert manifest.trial_count == 1
        assert "latency_p99_s_mean" in manifest.summary[0]


class TestBackendAndPoolIdentity:
    """Every registered scenario's rows are byte-identical across serial
    vs pooled execution, and across kernel backends wherever the scenario
    declares ``backend``."""

    def test_eight_scenarios_declare_backend(self):
        assert set(TINY) - set(WITH_BACKEND) == {"collision", "table4"}

    @pytest.mark.parametrize("name", WITH_BACKEND)
    def test_trial_rows_identical_across_backends(self, name):
        trial_fn = get_scenario(name).trial_fn
        rows = {
            backend: trial_fn(_task(name, seed_root=4, **TINY[name], backend=backend))
            for backend in ("reference", "vectorized")
        }
        assert rows["reference"] == rows["vectorized"]

    @pytest.mark.parametrize("name", WITH_BACKEND)
    def test_manifest_rows_identical_across_backends(self, name):
        manifests = {
            backend: run_scenario(
                name, dict(TINY[name], backend=backend), workers=1, seed=6
            )
            for backend in ("reference", "vectorized")
        }
        assert jsonify(manifests["reference"].rows) == jsonify(
            manifests["vectorized"].rows
        )
        for backend, manifest in manifests.items():
            assert manifest.params["backend"] == backend

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_serial_and_pooled_runs_identical(self, name):
        serial = run_scenario(name, TINY[name], workers=1, seed=9)
        pooled = run_scenario(name, TINY[name], workers=2, seed=9)
        assert serial.trial_count >= 2
        assert serial.trial_rows_equal(pooled)

    def test_campaign_backend_sweep_serial_vs_pooled(self, tmp_path):
        """A campaign sweeping the backend axis: pooled execution matches
        serial execution cell for cell, and within each run the two
        backend cells carry identical rows."""
        from repro.campaign import plan_campaign, run_campaign
        from repro.campaign.spec import CampaignSpec, ScenarioEntry
        from repro.campaign.store import ResultStore

        spec = CampaignSpec(
            name="backend-sweep",
            entries=(
                ScenarioEntry(
                    scenario="churn",
                    params=dict(TINY_CHURN),
                    sweep={"backend": ("reference", "vectorized")},
                    seeds=(3,),
                ),
            ),
        )
        assert len(plan_campaign(spec)) == 2
        results = {}
        for label, workers in (("serial", 1), ("pooled", 2)):
            store = ResultStore(tmp_path / label)
            outcome = run_campaign(spec, store, workers=workers)
            results[label] = {
                cell.cell.params["backend"]: jsonify(cell.manifest.rows)
                for cell in outcome.outcomes
            }
        assert results["serial"] == results["pooled"]
        for rows_by_backend in results.values():
            assert rows_by_backend["reference"] == rows_by_backend["vectorized"]


class TestSegmentation:
    def test_trial_metrics(self):
        row = run_segmentation_trial(_task("segmentation", **TINY_SEG))
        assert row["roundtrip_ok"] is True
        assert row["coverage_min"] >= 1.0
        assert row["rs_n_mean"] >= row["rs_k_mean"] >= 1.0
        assert 1.0 <= row["overhead"] <= 2.5
        assert 0.0 <= row["alloc_fail_seg"] <= row["alloc_fail_raw"] <= 1.0

    def test_trial_is_deterministic_in_seed(self):
        task = _task("segmentation", **TINY_SEG)
        assert run_segmentation_trial(task) == run_segmentation_trial(dict(task))

    def test_oversized_files_fail_without_segmentation(self):
        row = run_segmentation_trial(
            _task("segmentation", **dict(TINY_SEG, size_ratios=(8.0,)))
        )
        # Whole files larger than a sector can never be placed raw.
        assert row["alloc_fail_raw"] > 0.5
        assert row["alloc_fail_seg"] < 0.1

    def test_scenario_end_to_end_marks_coverage(self):
        manifest = run_scenario("segmentation", TINY_SEG, workers=1, seed=2)
        assert manifest.summary
        assert all(row["covered"] for row in manifest.summary)
        # The RS round-trip integrity check surfaces in the summary.
        assert all(row["roundtrip_ok"] is True for row in manifest.summary)


class TestTable3:
    def test_rows_pivot_by_grid_cell(self):
        trial_fn = get_scenario("table3").trial_fn
        rows = [
            trial_fn(
                dict(mode="reallocate", ncp=ncp, ns=10, rounds=3, refresh_multiplier=1,
                     backend="vectorized", seed=0)
            )
            for ncp in (2000, 5000)
        ]
        assert [(row["Ncp"], row["Ns"]) for row in rows] == [(2000, 10), (5000, 10)]
        assert {"Ncp", "Ns", "[1]", "[3]"} <= set(rows[0])

    def test_all_usages_below_paper_threshold(self):
        results = PlacementExperiment(seed=0).sweep(
            grid=[(20_000, 20)], mode="reallocate", rounds=10
        )
        assert all(result.max_usage < table3.PAPER_MAX_USAGE for result in results)

    def test_refresh_mode_runs(self):
        results = PlacementExperiment(seed=0).sweep(
            grid=[(5000, 10)],
            distributions=[FileSizeDistribution.UNIFORM_1_2],
            mode="refresh",
            refresh_multiplier=3,
        )
        assert results[0].mode == "refresh"
        assert results[0].max_usage < 1.0

    def test_grids_have_paper_ratios(self):
        for n_backups, n_sectors in table3.default_grid():
            assert n_backups // n_sectors in (1000, 5000)
        assert len(table3.paper_grid()) == 8

    @pytest.mark.parametrize(
        "override, message",
        [
            ("scale=Paper", "'scale' must be one of 'default', 'paper', got 'Paper'"),
            (
                "modes=reallocate,refersh",
                "'modes' must be a non-empty tuple, each element one of 'reallocate', "
                "'refresh', got 'reallocate,refersh'",
            ),
        ],
    )
    def test_unknown_scale_or_mode_runs_nothing(self, override, message, capsys):
        assert main(["run", "table3", "--quiet", "--set", override]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestTable4:
    def test_rows_cover_all_protocols_and_match_the_paper(self):
        manifest = run_scenario("table4", dict(n_sectors=80, n_files=150), seed=4)
        expected = table4.paper_expectations()
        assert {row["Property"] for row in manifest.rows} == set(expected)
        for row in manifest.rows:
            paper_row = expected[row["Property"]]
            assert (row["Provable Robustness"] == "Yes") == paper_row["provable_robustness"]
            assert (
                row["Compensation for File Loss"] == "Yes"
            ) == paper_row["compensation_for_loss"]
        assert all(row["matches_paper"] for row in manifest.summary)

    def test_unknown_protocol_runs_nothing(self, capsys):
        code = main(["run", "table4", "--quiet", "--set", "protocols=FileInsurer,Bogus"])
        assert code == 2
        captured = capsys.readouterr()
        assert (
            "parameter 'protocols' must be a non-empty tuple, each element one of "
            "'FileInsurer', 'Filecoin', 'Arweave', 'Storj', 'Sia', got 'FileInsurer,Bogus'"
        ) in captured.err
        assert captured.out == ""


#: CI's workload-smoke shapes for the six scenarios that job runs,
#: ``collision`` / ``robustness`` those of CI's runner / bench smoke
#: steps, ``table3`` / ``table4`` the ``TINY`` ones.
SMOKE = {
    "churn": "trials=2 cycles=4 files=4",
    "collision": "trials=8 batches=2 n_sectors=50",
    "deposit": "checks=2 n_providers=12 files=24",
    "lifecycle_churn": "trials=2 files=10 horizon_s=200",
    "retrieval_load": "trials=1 requests=20 rates=2,8",
    "robustness": "lambdas=0.5 n_sectors=60 n_files=80 k=3 trials=2",
    "scalability": "providers=8 max_files=400",
    "segmentation": "trials=1",
    "table3": "max_ncp=100000 rounds=1 refresh_multiplier=1",
    "table4": "protocols=FileInsurer,Sia n_sectors=40 n_files=60",
}
DOMAIN_CASES = [
    (name, key)
    for name in sorted(SMOKE)
    for key in sorted(get_scenario(name).params)
    if key != "backend"
]


def _boundary_values(param):
    """``(value, verdict)`` pairs: the values every parameter is fed (None:
    either verdict) plus, from the declared domain, each closed bound and
    choice ("run") and the nearest value outside each bound ("refuse").

    2**63 is a finite float, so an unbounded float domain takes it, and it
    may ask for work no host finishes (``horizon_s=2**63`` simulates 2**63
    seconds): for a float parameter its verdict is "long", either verdict
    or still running when a 0.25 s alarm fires (a bad value fails while
    the trial is set up, well inside that)."""
    default = param.default
    kind = type(default[0]) if isinstance(default, tuple) else type(default)
    wrong_type = "true" if kind is float else "0.5"
    universal = ("0", "-1", "nan", "inf", str(2**63), "", wrong_type, "Bogus")
    cases = dict.fromkeys(universal)
    if kind is float:
        cases[str(2**63)] = "long"
    domain = param.domain
    if isinstance(domain, tuple):
        cases.update((str(choice), "run") for choice in domain)
    elif domain is not None:

        def text(number):  # "0", not "0.0": one case with the universal "0"
            return str(int(number)) if float(number).is_integer() else repr(number)

        for bound, closed, away in (
            (domain.low, domain.closed_low, -1),
            (domain.high, domain.closed_high, 1),
        ):
            if math.isinf(bound):
                continue
            if not closed:
                cases[text(bound)] = "refuse"
                continue
            outside = bound + away if kind is int else math.nextafter(bound, away * math.inf)
            cases.update({text(bound): "run", text(outside): "refuse"})
    return cases.items()


class TestParameterDomains:
    """Every parameter's declared domain is checked before any trial: a
    boundary value either runs the scenario at its smoke shape or exits 2
    naming the parameter -- never a traceback or a nameless error, and
    never a hang on a non-finite value."""

    @pytest.mark.parametrize("name, key", DOMAIN_CASES)
    def test_boundary_values_run_or_are_refused_by_name(self, name, key, capsys, time_limit):
        spec = get_scenario(name)
        default = spec.params[key].default
        assert resolve_params(spec, {key: default})[key] == default, "default out of domain"
        shape = [arg for pair in SMOKE[name].split() for arg in ("--set", pair)]
        failures = []
        for value, verdict in _boundary_values(spec.params[key]):
            argv = ["run", name, "--quiet", "--workers", "1", *shape, "--set", f"{key}={value}"]
            try:
                with time_limit(0.25 if verdict == "long" else 10):
                    code = main(argv)
            except Exception as error:  # every escape is a finding, not a crash of the test
                long = verdict == "long" and isinstance(error, TimeoutError)
                code = "still running" if long else f"raised {error!r}"
            out, err = capsys.readouterr()
            refused = code == 2 and f"parameter {key!r}" in err and out == ""
            if not (
                code == 0 and verdict != "refuse"
                or refused and verdict != "run"
                or code == "still running"
            ):
                failures.append(f"{key}={value!r}: exit {code}, stderr {err.strip()[-200:]!r}")
        assert not failures, f"scenario {name!r} parameter {key!r}:\n" + "\n".join(failures)


class TestCollision:
    def test_bound_sweep_monotone_decreasing(self):
        rows = collision.run_bound_sweep(ns=1e6, ratios=(10, 100, 1000))
        bounds = [float(row["theorem2_bound"]) for row in rows]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_monte_carlo_respects_bound_at_loose_ratios(self):
        # At small capacity/size ratios the bound exceeds 1 and holds trivially;
        # at larger ratios the event becomes so rare that a finite-trial
        # estimate is dominated by sampling noise, so only the loose ratios
        # are asserted exactly and the tight one is checked to be rare.
        loose, tight = (
            run_scenario(
                "collision", dict(ratios=ratios, n_sectors=100, trials=40), seed=0
            ).summary
            for ratios in ((16, 32), (64,))
        )
        assert len(loose) == 2 and all(row["bound_holds"] for row in loose)
        assert tight[0]["empirical_prob"] < 0.15


class TestRobustness:
    def test_bound_sweep_row_per_lambda(self):
        rows = robustness.run_bound_sweep(lambdas=(0.3, 0.5))
        assert len(rows) == 2

    def test_monte_carlo_loss_below_bound(self):
        summary = run_scenario(
            "robustness",
            dict(lambdas=(0.5,), n_sectors=400, n_files=400, k=6, trials=2),
            seed=0,
        ).summary
        random_row = next(row for row in summary if row["adversary"] == "random")
        assert random_row["loss_max"] <= random_row["theorem3_bound"] + 1e-9

    #: (seed, n_sectors, n_files, k, lam, targeted, loss) as the parent of
    #: PR 20 computed them, one ``rng.integers`` call and one list per file.
    PINNED_LOSSES = (
        (0, 300, 300, 2, 0.3, False, 0.08),
        (0, 300, 300, 2, 0.7, True, 0.87),
        (1, 300, 300, 3, 0.5, True, 0.5033333333333333),
        (7, 60, 80, 3, 0.5, True, 0.3625),
        (7, 60, 80, 3, 0.5, False, 0.1125),
        (2, 500, 500, 6, 0.5, True, 0.208),
        (3, 400, 2000, 5, 0.5, True, 0.1195),
        (3, 400, 2000, 5, 0.3, False, 0.001),
        (5, 50, 400, 1, 0.5, True, 0.625),
        (11, 2000, 2000, 10, 0.7, True, 0.244),
        (11, 2000, 2000, 10, 0.7, False, 0.021),
        (4, 7, 50, 3, 0.5, True, 0.18),
    )

    @pytest.mark.parametrize("backend", ("reference", "vectorized"))
    def test_simulate_loss_values_are_the_parents(self, backend):
        """The one-array draw is the per-file draws' stream, value for value."""
        for seed, n_sectors, n_files, k, lam, targeted, loss in self.PINNED_LOSSES:
            if backend == "reference" and n_sectors > 500:
                continue  # the oracle rescans; the small shapes cover it
            assert robustness.simulate_loss(
                n_sectors, n_files, k, lam, seed=seed, targeted=targeted, backend=backend
            ) == loss

    def test_trial_hands_the_kernel_one_array(self):
        """No list per file: the draw reaches ``greedy_select`` as it was made."""
        seen = []

        class Recording(ReferenceKernels):
            def greedy_select(self, capacities, placements, values, budget):
                seen.append((capacities, placements, values))
                return super().greedy_select(capacities, placements, values, budget)

        loss = robustness.simulate_loss(
            60, 80, 3, 0.5, seed=7, targeted=True, backend=Recording()
        )
        assert loss == 0.3625
        ((capacities, placements, values),) = seen
        assert isinstance(placements, np.ndarray)
        assert placements.shape == (80, 3) and placements.dtype.kind == "i"
        assert isinstance(values, np.ndarray) and isinstance(capacities, np.ndarray)

    def test_random_placement_beats_clustered_under_attack(self):
        contrast = robustness.run_placement_contrast(
            lam=0.5, n_sectors=200, n_files=200, k=4, seed=1
        )
        assert contrast["loss_random_placement"] <= contrast["loss_clustered_placement"]


class TestDeposit:
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

    def test_theorem4_prescription_above_one_runs(self):
        """The deposit ratio is total deposits over the maximum storable
        value, not a probability: Theorem 4 prescribes more than 1 for the
        scenario's own defaults (k=4, capPara=2*60/30, Ns=30, lambda=0.5),
        and every owner is minted enough to pledge it."""
        ratio = theorem4_deposit_ratio_bound(lam=0.5, k=4, ns=30, cap_para=4.0)
        assert ratio == pytest.approx(4.27, abs=0.01)
        manifest = run_scenario("deposit", {"checks": 1, "deposit_ratio": ratio}, workers=1)
        assert manifest.rows[0]["full_compensation"]


class TestScalability:
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
        assert main(["run", name, "--quiet", "--set", "engine=object"]) == 2
        assert f"scenario {name!r} has no parameter 'engine'" in capsys.readouterr().err
