"""Telemetry end-to-end: inertness, worker shipping, CLI artifacts.

The load-bearing property is **inertness**: arming a telemetry channel
must not perturb a single deterministic byte.  Scenario rows are
produced from seeded PRNG streams no recorder ever touches, so an armed
run and a plain run of the same (scenario, params, seed) emit
byte-identical rows -- for each of the three channels and all of them
together, on the vectorized kernels and on the kernel oracle, serial,
through a private pool and through an injected one.  ``TestInertness`` is the one proof of that
(the sharpest corner is the lifecycle engine's gauge sampling: it runs
through a ``metrics_probe`` hook on the event loop, never through
scheduled events, because ``events_processed`` is part of the rows).
Everything else here pins the plumbing on top: which channels a worker
records (the parent's, at run time -- not its own at fork), per-trial
stats in the manifest, straggler detection in ``repro diff``, the
``repro run`` / ``repro trace`` CLI surface, and the campaign report's
timing columns.
"""

from __future__ import annotations

import json
import os
import pstats

import numpy as np
import pytest

import repro.kernels
from repro import telemetry
from repro.kernels import VectorizedKernels, get_backend, sampler_stream
from repro.runner.cli import main
from repro.runner.diff import straggler_rows
from repro.runner.executor import create_worker_pool, run_scenario
from repro.runner.registry import (
    ScenarioSpec,
    load_builtin_scenarios,
    register,
    _REGISTRY,
)
from repro.runner.results import RunManifest
from repro.telemetry import CHANNELS, load_chrome_trace, metrics

#: The smallest churn that still crosses every span-instrumented layer
#: (protocol file adds, refresh rounds, kernel draws, executor trials).
CHURN_PARAMS = {
    "trials": 2, "cycles": 2, "files": 3, "file_kib": 2,
    "providers": 3, "sectors_per_provider": 1,
}

#: The inertness matrix's shapes: that churn, and a lifecycle_churn that
#: crosses every instrumented metric (retrieval latency, refresh lag and
#: replica-count histograms, the per-state gauges).
MATRIX_SHAPES = {
    "churn": CHURN_PARAMS,
    "lifecycle_churn": {"trials": 2, "files": 6, "horizon_s": 120.0},
}

ALL_CHANNELS = ("spans", "metrics", "profile")


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.reset_channels()
    yield
    telemetry.reset_channels()


def run_shape(scenario: str, mode: str = "serial", seed: int = 7) -> RunManifest:
    """One ``MATRIX_SHAPES`` run: serial, private pool or injected pool.

    The injected pool is forked here, i.e. *before* the caller's armed
    channels could have been inherited any other way than through the
    trial payload -- and after the caller patched in the kernel oracle.
    """
    load_builtin_scenarios()
    overrides = MATRIX_SHAPES[scenario]
    if mode != "injected_pool":
        workers = 1 if mode == "serial" else 2
        return run_scenario(scenario, overrides=overrides, workers=workers, seed=seed)
    armed = telemetry.armed()
    telemetry.arm(())
    pool = create_worker_pool(2)
    try:
        telemetry.arm(armed)
        return run_scenario(scenario, overrides=overrides, seed=seed, pool=pool)
    finally:
        pool.close()
        pool.join()


def _refresh_two_moves(kernels) -> list:
    """Two ``refresh_moves`` moves over four unit backups in three sectors;
    the batch max and the mutated columns."""
    usage = np.array([4.0, 0.0, 0.0])
    assignments = np.zeros(4, dtype=np.int64)
    batch_max, _ = kernels.refresh_moves(
        np.ones(4), usage, assignments, np.array([0, 1]), np.array([1, 2])
    )
    return [batch_max, usage.tolist(), assignments.tolist()]


def run_churn(seed: int = 7, workers: int = 1) -> RunManifest:
    load_builtin_scenarios()
    return run_scenario("churn", overrides=CHURN_PARAMS, workers=workers, seed=seed)


class TestInertness:
    """Rows byte-identical with every channel on vs off, everywhere."""

    @pytest.mark.parametrize("mode", ["serial", "private_pool", "injected_pool"])
    @pytest.mark.parametrize("kernels", ["reference", "vectorized"])
    @pytest.mark.parametrize(
        "armed", [("spans",), ("metrics",), ("profile",), ALL_CHANNELS], ids="+".join
    )
    @pytest.mark.parametrize("scenario", sorted(MATRIX_SHAPES))
    def test_rows_byte_identical_on_vs_off(
        self, request, scenario, armed, kernels, mode
    ):
        if kernels == "reference":
            request.getfixturevalue("oracle_kernels")
        plain = self.plain_run(scenario, kernels)
        assert plain.telemetry is None and plain.metrics is None
        telemetry.arm(armed)
        recorded_run = run_shape(scenario, mode)
        assert telemetry.armed() == armed  # a run leaves the flags alone
        recorded = {name: channel.drain() for name, channel in CHANNELS.items()}

        assert json.dumps(recorded_run.rows, sort_keys=True) == json.dumps(
            plain.rows, sort_keys=True
        )
        # Summaries are observability metadata, excluded from identity.
        assert recorded_run.trial_rows_equal(plain)

        # Every armed channel really recorded, every other stayed empty,
        # and what pool workers recorded reached the parent.
        for name in ALL_CHANNELS:
            assert bool(recorded[name]) == (name in armed)
        worker_pids = {stat["pid"] for stat in recorded_run.trial_stats}
        assert (os.getpid() in worker_pids) == (mode == "serial")
        trials = recorded_run.trial_count
        if "spans" in armed:
            for name in ("trial.run", "trial.queue"):
                shipped = [e for e in recorded["spans"] if e["name"] == name]
                assert {e["args"]["trial"] for e in shipped} == set(range(trials))
                assert {e["pid"] for e in shipped} == worker_pids
            categories = {
                entry["category"] for entry in recorded_run.telemetry["spans"].values()
            }
            layers = {"churn": {"protocol"}, "lifecycle_churn": set()}[scenario]
            if kernels == "vectorized":  # the oracle records no spans
                layers |= {"kernel"}
                assert "kernel.draws" in recorded_run.telemetry["counters"]
            assert {"executor"} | layers <= categories
        else:
            assert recorded_run.telemetry is None
        if "metrics" in armed:
            self.check_metrics(scenario, recorded_run)
        else:
            assert recorded_run.metrics is None
        if "profile" in armed:
            assert len(recorded["profile"]) == trials
            functions = {func[2] for table in recorded["profile"] for func in table}
            assert f"run_{scenario}_trial" in functions

    _plain_runs: dict = {}

    @classmethod
    def plain_run(cls, scenario: str, kernels: str) -> RunManifest:
        """The serial, nothing-armed run every matrix cell compares to
        (call with ``kernels`` already patched in)."""
        key = (scenario, kernels)
        if key not in cls._plain_runs:
            assert telemetry.armed() == ()
            cls._plain_runs[key] = run_shape(scenario)
        return cls._plain_runs[key]

    @staticmethod
    def check_metrics(scenario: str, manifest: RunManifest) -> None:
        summary = manifest.metrics
        if scenario == "churn":
            assert "protocol.total_deposit" in summary["series"]
            return
        histograms = summary["histograms"]
        assert "lifecycle.refresh_lag_s" in histograms
        assert "lifecycle.replica_count" in histograms
        assert "lifecycle.active_providers" in summary["series"]
        assert any(name.startswith("lifecycle.files.") for name in summary["series"])
        # Every trial's latency samples arrived: the histogram count is
        # the served retrievals summed over the rows.
        served = sum(row["served"] for row in manifest.rows)
        assert histograms["lifecycle.retrieval_latency_s"]["count"] == served > 0


class TestInjectedPoolArming:
    """A worker records what the parent asks for when the trial is
    submitted, not what happened to be armed when the pool was forked."""

    ARMED = ("spans", "metrics")

    @pytest.mark.parametrize("armed_at_run", [False, True])
    @pytest.mark.parametrize("armed_at_fork", [False, True])
    def test_workers_follow_the_payload_not_the_fork(self, armed_at_fork, armed_at_run):
        load_builtin_scenarios()
        overrides = MATRIX_SHAPES["lifecycle_churn"]
        plain = run_scenario("lifecycle_churn", overrides=overrides, seed=0)
        telemetry.arm(self.ARMED if armed_at_fork else ())
        pool = create_worker_pool(2)
        try:
            telemetry.arm(self.ARMED if armed_at_run else ())
            manifest = run_scenario(
                "lifecycle_churn", overrides=overrides, seed=0, pool=pool
            )
        finally:
            pool.close()
            pool.join()
        events = telemetry.drain()
        samples = metrics.drain()

        assert manifest.rows == plain.rows
        if not armed_at_run:
            assert events == [] and samples == []
            assert manifest.telemetry is None and manifest.metrics is None
            return
        worker_pids = {stat["pid"] for stat in manifest.trial_stats}
        assert os.getpid() not in worker_pids
        for name in ("trial.run", "trial.queue"):
            shipped = [event for event in events if event["name"] == name]
            assert len(shipped) == manifest.trial_count
            assert {event["pid"] for event in shipped} == worker_pids
        assert {sample["pid"] for sample in samples} == worker_pids
        assert sorted(manifest.metrics["histograms"]) == [
            "lifecycle.refresh_lag_s",
            "lifecycle.replica_count",
            "lifecycle.retrieval_latency_s",
        ]


class TestKernelInstrumentation:
    def test_get_backend_is_the_one_instance_enabled_or_not(self):
        kernels = get_backend()
        assert type(kernels) is VectorizedKernels
        assert kernels is repro.kernels.KERNELS is get_backend("vectorized")
        telemetry.enable()
        assert get_backend() is kernels
        # Explicit instances pass through untouched (the oracle and the
        # benchmarks' timing proxies are injected this way).
        other = VectorizedKernels()
        assert get_backend(other) is other
        for name in ("reference", "auto", ""):
            with pytest.raises(ValueError, match="accepted: None, 'vectorized'"):
                get_backend(name)

    #: One small call per kernel, its work counter and the counter's value.
    #: Each call returns plain lists, so traced and untraced results compare
    #: with ``==``.
    KERNEL_CALLS = {
        "place_backups": (
            lambda k: [
                part.tolist()
                for part in k.place_backups(np.random.default_rng(0), np.ones(5), 3)
            ],
            "kernel.place_backups.backups",
            5,
        ),
        "refresh_moves": (
            lambda k: _refresh_two_moves(k),
            "kernel.refresh_moves.moves",
            2,
        ),
        "greedy_select": (
            lambda k: sorted(
                k.greedy_select(np.ones(3), [[0, 1], [1, 2]], [1.0, 2.0], 1.0)
            ),
            "kernel.greedy_select.calls",
            1,
        ),
        "batch_weighted_draw": (
            lambda k: k.batch_weighted_draw(
                sampler_stream(0, 0), [1, 2, 3], [("draw", 4)]
            ).keys.tolist(),
            "kernel.draws",
            4,
        ),
    }

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
    def test_each_kernel_records_its_span_and_counter(self, kernel):
        """Every kernel method is traced: one ``kernel.<name>`` span with
        no backend argument, its work counter, and the untraced result."""
        call, counter, value = self.KERNEL_CALLS[kernel]
        kernels = get_backend()
        plain = call(kernels)
        assert telemetry.drain() == []
        telemetry.arm(("spans",))
        assert call(kernels) == plain
        events = telemetry.drain()
        spans = [event for event in events if event["ph"] == "X"]
        assert [(span["name"], span["cat"]) for span in spans] == [
            (f"kernel.{kernel}", "kernel")
        ]
        assert spans[0]["args"] == {}
        counted = [event for event in events if event["name"] == counter]
        assert [event["args"]["value"] for event in counted] == [value]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kernel_spans_and_counters_recorded(self, workers):
        plain = run_churn(workers=workers)
        telemetry.arm(("spans",))
        traced = run_churn(workers=workers)
        names = {event["name"] for event in telemetry.drain()}
        assert "kernel.batch_weighted_draw" in names
        assert "kernel.draws" in names
        assert traced.trial_rows_equal(plain)


class TestTrialStats:
    def test_manifest_records_wall_and_pid_per_trial(self):
        manifest = run_churn()
        assert len(manifest.trial_stats) == manifest.trial_count
        for index, stat in enumerate(manifest.trial_stats):
            assert stat["trial"] == index
            assert stat["wall_seconds"] >= 0.0
            assert isinstance(stat["pid"], int)

    def test_trial_stats_survive_json_round_trip(self):
        manifest = run_churn()
        clone = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert clone.trial_stats == manifest.trial_stats
        assert clone.trial_rows_equal(manifest)


class TestStragglers:
    def _manifest(self, walls):
        return RunManifest(
            scenario="s",
            params={},
            seed=0,
            workers=1,
            trial_count=len(walls),
            duration_seconds=sum(walls),
            rows=[{"trial": i, "seed": i} for i in range(len(walls))],
            summary=[],
            trial_stats=[
                {"trial": i, "wall_seconds": wall, "pid": 100 + i}
                for i, wall in enumerate(walls)
            ],
        )

    def test_flags_pathological_trial(self):
        flagged = straggler_rows(self._manifest([0.1, 0.1, 0.1, 0.9]))
        assert len(flagged) == 1
        assert flagged[0]["trial"] == 3
        assert flagged[0]["pid"] == 103
        assert flagged[0]["x_median"] == 9.0

    def test_uniform_runs_flag_nothing(self):
        assert straggler_rows(self._manifest([0.1, 0.1, 0.1, 0.1])) == []

    def test_sub_noise_excess_ignored(self):
        # 4x the median but only 0.3 ms over it: scheduling jitter.
        assert straggler_rows(self._manifest([0.0001, 0.0001, 0.0004])) == []

    def test_old_manifests_without_stats_yield_no_rows(self):
        manifest = self._manifest([])
        assert straggler_rows(manifest) == []


class TestCLI:
    def _run_traced(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        out_path = tmp_path / "churn.json"
        args = ["run", "churn", "--quiet", "--seed", "7"]
        for key, value in CHURN_PARAMS.items():
            args += ["--set", f"{key}={value}"]
        code = main(args + ["--trace", str(trace_path), "--out", str(out_path)])
        assert code == 0
        capsys.readouterr()
        return trace_path, out_path

    def test_run_trace_writes_valid_artifacts(self, tmp_path, capsys):
        trace_path, out_path = self._run_traced(tmp_path, capsys)
        data = load_chrome_trace(trace_path)
        categories = {
            event.get("cat") for event in data["traceEvents"] if event["ph"] == "X"
        }
        assert {"executor", "kernel", "protocol"} <= categories
        assert data["otherData"]["scenario"] == "churn"
        summary_path = out_path.with_name("churn.telemetry.json")
        summary = json.loads(summary_path.read_text())
        assert "trial.run" in summary["spans"]
        manifest = json.loads(out_path.read_text())
        assert manifest["telemetry"]["spans"] == summary["spans"]

    def test_trace_verb_prints_phase_breakdown(self, tmp_path, capsys):
        _, out_path = self._run_traced(tmp_path, capsys)
        assert main(["trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "trial.run" in out
        assert "kernel.batch_weighted_draw" in out
        assert "kernel.draws" in out

    def test_trace_verb_rejects_untraced_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "plain.json"
        args = ["run", "churn", "--quiet", "--seed", "7", "--out", str(out_path)]
        for key, value in CHURN_PARAMS.items():
            args += ["--set", f"{key}={value}"]
        assert main(args) == 0
        assert main(["trace", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "telemetry" in err.lower()

    @pytest.mark.parametrize(
        "flags, workers",
        [
            (("trace",), 1),
            (("metrics",), 1),
            (("profile",), 1),
            (("trace", "metrics", "profile"), 1),
            (("trace", "metrics", "profile"), 2),
        ],
    )
    def test_flagged_run_matches_plain_rows_and_cleans_up(
        self, tmp_path, capsys, flags, workers
    ):
        args = ["run", "churn", "--quiet", "--seed", "7", "--workers", str(workers)]
        for key, value in CHURN_PARAMS.items():
            args += ["--set", f"{key}={value}"]
        plain_path, flagged_path = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main(args + ["--out", str(plain_path)]) == 0
        extra = {
            "trace": ["--trace", str(tmp_path / "trace.json")],
            "metrics": ["--metrics"],
            "profile": ["--profile", str(tmp_path / "prof")],
        }
        flagged_args = args + ["--out", str(flagged_path)]
        for flag in flags:
            flagged_args += extra[flag]
        assert main(flagged_args) == 0
        plain = json.loads(plain_path.read_text())
        flagged = json.loads(flagged_path.read_text())
        assert flagged["rows"] == plain["rows"]
        assert plain["telemetry"] is None and plain["metrics"] is None
        # Each flag produced its artifact; each other field stayed empty.
        assert bool(flagged["telemetry"]) == ("trace" in flags)
        assert (tmp_path / "trace.json").exists() == ("trace" in flags)
        assert (tmp_path / "flagged.telemetry.json").exists() == ("trace" in flags)
        assert bool(flagged["metrics"]) == ("metrics" in flags)
        assert (tmp_path / "prof" / "profile.pstats").exists() == ("profile" in flags)
        if "trace" in flags:
            trace = load_chrome_trace(tmp_path / "trace.json")
            pids = {event["pid"] for event in trace["traceEvents"]}
            assert (len(pids) > 1) == (workers > 1)
        if "metrics" in flags:
            assert flagged["metrics"]["series"]
        if "profile" in flags:
            table = pstats.Stats(str(tmp_path / "prof" / "profile.pstats"))
            functions = {func[2] for func in table.stats}  # type: ignore[attr-defined]
            assert "run_churn_trial" in functions
        # Global recorder state is clean for the next command.
        assert telemetry.armed() == ()
        assert all(channel.pending() == [] for channel in CHANNELS.values())

    def test_failed_run_leaves_every_channel_disarmed_and_empty(self, tmp_path):
        """Not just the flagged ones: a raising trial must not leak the
        flags or half-recorded buffers of *any* channel into a later
        command of the same process."""

        def exploding_trial(task):
            telemetry.counter("recorded.before.the.crash")
            raise RuntimeError("trial blew up")

        spec = ScenarioSpec(
            name="exploding",
            description="records, then raises",
            trial_fn=exploding_trial,
            build_trials=lambda params: [{}],
        )
        register(spec, replace=True)
        # Left over from an earlier library call in this process.
        metrics.enable()
        metrics.observe("stale", 1.0)
        try:
            with pytest.raises(RuntimeError, match="blew up"):
                main(
                    ["run", "exploding", "--trace", str(tmp_path / "t.json"),
                     "--profile", str(tmp_path / "prof")]
                )
        finally:
            _REGISTRY.pop("exploding", None)
        assert telemetry.armed() == ()
        assert all(channel.pending() == [] for channel in CHANNELS.values())
        assert not (tmp_path / "t.json").exists()

    def test_log_level_flag_configures_root_logging(self, capsys):
        import logging

        assert main(["--log-level", "info", "list"]) == 0
        assert logging.getLogger().level == logging.INFO
        assert main(["--log-level", "warning", "list"]) == 0
        assert logging.getLogger().level == logging.WARNING

    def test_log_env_var_sets_default_level(self, monkeypatch, capsys):
        import logging

        from repro.runner.cli import LOG_ENV_VAR

        monkeypatch.setenv(LOG_ENV_VAR, "debug")
        assert main(["list"]) == 0
        assert logging.getLogger().level == logging.DEBUG
        monkeypatch.delenv(LOG_ENV_VAR)
        assert main(["list"]) == 0
        assert logging.getLogger().level == logging.WARNING

    def test_unknown_log_level_fails_cleanly(self, monkeypatch, capsys):
        from repro.runner.cli import LOG_ENV_VAR

        monkeypatch.setenv(LOG_ENV_VAR, "loud")
        assert main(["list"]) == 2
        assert "log level" in capsys.readouterr().err


class TestCampaignTiming:
    def test_report_carries_trials_and_wall_columns(
        self, tmp_path, campaign_scenarios
    ):
        from repro.campaign.orchestrator import run_campaign
        from repro.campaign.report import cell_rows, render_csv
        from repro.campaign.spec import parse_campaign
        from repro.campaign.store import ResultStore

        spec = parse_campaign(
            {
                "campaign": {"name": "timing"},
                "scenarios": [
                    {
                        "scenario": "camp-alpha",
                        "seeds": [1, 2],
                        "params": {"trials": 3},
                    }
                ],
            }
        )
        store = ResultStore(tmp_path / "store")
        fresh = run_campaign(spec, store)
        assert all(not outcome.cached for outcome in fresh.outcomes)
        for outcome in fresh.outcomes:
            assert outcome.wall_seconds >= outcome.lookup_seconds >= 0.0
        rows = cell_rows(fresh.outcomes)["camp-alpha"]
        for row in rows:
            assert row["trials"] == 3
            assert isinstance(row["wall_s"], float)

        # A fully cached re-run reproduces the report byte-for-byte: the
        # timing columns come from the *stored* manifest, not this run.
        cached = run_campaign(spec, store)
        assert all(outcome.cached for outcome in cached.outcomes)
        assert render_csv(cached.outcomes) == render_csv(fresh.outcomes)


class TestResumeTelemetryMerge:
    """Observability across ``--resume``: no double-counting.

    A resumed run executes only the missing trials, so its recorded
    spans/counters/metric samples must cover exactly those trials --
    cached rows contribute their *stored* trial_stats but no fresh
    events -- while the merged row set stays byte-identical to an
    uninterrupted run's.
    """

    def _partial(self, manifest: RunManifest) -> RunManifest:
        data = json.loads(manifest.to_json())
        data["rows"] = data["rows"][:1]
        data["trial_count"] = 1
        data["trial_stats"] = data["trial_stats"][:1]
        return RunManifest.from_dict(data)

    def test_resumed_run_records_only_executed_trials(self):
        telemetry.enable()
        full = run_churn()
        full_events = telemetry.drain()
        telemetry.reset()

        telemetry.enable()
        resumed = run_scenario(
            "churn",
            overrides=CHURN_PARAMS,
            seed=7,
            resume=self._partial(full),
        )
        resumed_events = telemetry.drain()
        telemetry.reset()

        assert resumed.trial_rows_equal(full)

        def runs(events):
            return [e for e in events if e.get("name") == "trial.run"]

        assert len(runs(full_events)) == full.trial_count == 2
        # Only the missing trial executed -- and it is trial 1, not a
        # re-run of the cached trial 0.
        (resumed_run,) = runs(resumed_events)
        assert resumed_run["args"]["trial"] == 1

        # Counters accumulated less work than the full run: cached
        # trials contribute no fresh kernel draws.
        def draw_total(summary):
            return summary["counters"]["kernel.draws"]

        assert 0 < draw_total(resumed.telemetry) < draw_total(full.telemetry)

        # trial_stats merge prior + fresh without duplication.
        assert len(resumed.trial_stats) == full.trial_count
        assert [s["trial"] for s in resumed.trial_stats] == [0, 1]

    def test_resumed_metrics_cover_only_executed_trials(self):
        from repro.telemetry import metrics

        metrics.reset()
        load_builtin_scenarios()
        params = {"trials": 2, "files": 6, "horizon_s": 120.0}
        try:
            metrics.enable()
            full = run_scenario("lifecycle_churn", overrides=params, seed=7)
            metrics.reset()
            metrics.enable()
            resumed = run_scenario(
                "lifecycle_churn",
                overrides=params,
                seed=7,
                resume=self._partial(full),
            )
        finally:
            metrics.reset()
        assert resumed.trial_rows_equal(full)
        latency = "lifecycle.retrieval_latency_s"
        full_count = full.metrics["histograms"][latency]["count"]
        resumed_count = resumed.metrics["histograms"][latency]["count"]
        # The resumed histogram holds exactly the executed trial's
        # samples: trial 1's 'served' row value, not the full total.
        assert resumed_count == resumed.rows[1]["served"]
        assert resumed_count < full_count == sum(r["served"] for r in full.rows)
