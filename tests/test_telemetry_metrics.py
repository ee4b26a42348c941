"""Metrics channel: sample shapes, bucket math, summaries, CLI surface.

Inertness (rows byte-identical with the channel on or off, serial and
pooled, vectorized kernels and kernel oracle) is proven once for all three channels in
``tests/test_telemetry_integration.py::TestInertness``; the recorder
state machine once in ``tests/test_telemetry.py::TestChannel``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.telemetry import metrics
from repro.runner.cli import main
from repro.runner.executor import run_scenario
from repro.runner.registry import load_builtin_scenarios
from repro.runner.results import RunManifest

#: A lifecycle_churn shape small enough for test time but crossing every
#: instrumented metric: retrievals (latency histogram), degradations and
#: refreshes (refresh-lag histogram), and the per-state gauges.
LIFECYCLE_PARAMS = {"trials": 2, "files": 6, "horizon_s": 120.0}


@pytest.fixture(autouse=True)
def clean_metrics():
    metrics.reset()
    yield
    metrics.reset()


def run_lifecycle(seed: int = 7, workers: int = 1) -> RunManifest:
    load_builtin_scenarios()
    return run_scenario(
        "lifecycle_churn", overrides=LIFECYCLE_PARAMS, workers=workers, seed=seed
    )


class TestRecorder:
    def test_disabled_recording_is_a_no_op(self):
        metrics.observe("x", 1.0)
        metrics.gauge("y", 0.0, 2.0)
        assert metrics.samples() == []
        assert not metrics.is_enabled()

    def test_enabled_recording_buffers_samples(self):
        metrics.enable()
        metrics.observe("lat", 0.25, category="test")
        metrics.gauge("depth", 10.0, 3.0, category="test")
        hist, series = metrics.drain()
        assert hist["kind"] == "hist" and hist["value"] == 0.25
        assert series["kind"] == "gauge" and series["t"] == 10.0
        assert metrics.samples() == []


class TestBucketMath:
    def test_underflow_and_overflow_buckets(self):
        assert metrics.bucket_index(0.0) == 0
        assert metrics.bucket_index(metrics.BUCKET_BOUNDS[0]) == 0
        assert metrics.bucket_index(metrics.BUCKET_BOUNDS[-1] * 2) == len(
            metrics.BUCKET_BOUNDS
        )

    def test_bounds_are_half_open_upper_inclusive(self):
        # 1.0 is a bound; values at a bound land in the bucket it closes.
        index = metrics.bucket_index(1.0)
        low, high = metrics.bucket_bounds(index)
        assert low < 1.0 <= high == 1.0
        # Just above a bound rolls into the next bucket.
        assert metrics.bucket_index(1.0000001) == index + 1

    def test_every_positive_value_lands_in_its_bounds(self):
        for exponent in range(-25, 25):
            value = 1.3 * 2.0**exponent
            low, high = metrics.bucket_bounds(metrics.bucket_index(value))
            assert low < value <= high or (low == 0.0 and value <= high)

    def test_invalid_bucket_index_raises(self):
        with pytest.raises(ValueError):
            metrics.bucket_bounds(-1)
        with pytest.raises(ValueError):
            metrics.bucket_bounds(len(metrics.BUCKET_BOUNDS) + 1)


class TestSummaries:
    def test_histogram_statistics(self):
        metrics.enable()
        for value in (0.1, 0.2, 0.4, 0.8):
            metrics.observe("lat", value, category="test")
        summary = metrics.summarize_metrics(metrics.drain())
        entry = summary["histograms"]["lat"]
        assert entry["count"] == 4
        assert entry["min"] == 0.1
        assert entry["max"] == 0.8
        assert math.isclose(entry["sum"], 1.5)
        assert math.isclose(entry["mean"], 0.375)
        # Quantile estimates are clamped to the observed value range.
        assert 0.1 <= entry["p50"] <= entry["p99"] <= 0.8
        assert sum(entry["buckets"].values()) == 4

    def test_single_sample_reports_its_exact_value(self):
        metrics.enable()
        metrics.observe("one", 0.37)
        entry = metrics.summarize_metrics(metrics.drain())["histograms"]["one"]
        assert entry["p50"] == entry["p99"] == 0.37

    def test_gauge_series_aggregate_per_checkpoint(self):
        metrics.enable()
        # Two trials sampling the same simulated-time checkpoints.
        for value in (10.0, 20.0):
            metrics.gauge("depth", 0.0, value)
            metrics.gauge("depth", 5.0, value + 1)
        summary = metrics.summarize_metrics(metrics.drain())
        points = summary["series"]["depth"]["points"]
        assert [point["t"] for point in points] == [0.0, 5.0]
        assert points[0] == {"t": 0.0, "mean": 15.0, "min": 10.0, "max": 20.0, "n": 2}

    def test_summary_is_json_round_trippable_and_sorted(self):
        metrics.enable()
        metrics.observe("b", 1.0)
        metrics.observe("a", 2.0)
        metrics.gauge("z", 0.0, 1.0)
        summary = metrics.summarize_metrics(metrics.drain())
        assert list(summary["histograms"]) == ["a", "b"]
        assert json.loads(json.dumps(summary)) == summary

    def test_tables_render_rows(self):
        metrics.enable()
        metrics.observe("lat", 0.5)
        metrics.gauge("depth", 0.0, 3.0)
        summary = metrics.summarize_metrics(metrics.drain())
        assert metrics.histogram_table(summary)[0]["histogram"] == "lat"
        assert metrics.series_table(summary)[0]["gauge"] == "depth"
        assert metrics.histogram_table({}) == []
        assert metrics.series_table({}) == []


class TestManifest:
    def test_manifest_metrics_field_round_trips(self):
        metrics.enable()
        manifest = run_lifecycle()
        clone = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert clone.metrics == manifest.metrics
        assert clone.trial_rows_equal(manifest)

    def test_retrieval_load_records_latency_histogram(self):
        load_builtin_scenarios()
        overrides = {"trials": 1, "requests": 20, "rates": "2"}
        plain = run_scenario("retrieval_load", overrides=overrides, seed=3)
        metrics.enable()
        metered = run_scenario("retrieval_load", overrides=overrides, seed=3)
        metrics.disable()
        assert metered.trial_rows_equal(plain)
        assert metered.metrics["histograms"]["retrieval.latency_s"]["count"] > 0


class TestCLI:
    def _run(self, tmp_path, capsys, extra=()):
        out_path = tmp_path / "lc.json"
        args = ["run", "lifecycle_churn", "--quiet", "--seed", "7"]
        for key, value in LIFECYCLE_PARAMS.items():
            args += ["--set", f"{key}={value}"]
        code = main(args + ["--out", str(out_path)] + list(extra))
        assert code == 0
        return out_path, capsys.readouterr().out

    def test_metrics_flag_embeds_summary_and_prints_tables(self, tmp_path, capsys):
        out_path, out = self._run(tmp_path, capsys, extra=["--metrics"])
        assert "histograms" in out
        assert "lifecycle.retrieval_latency_s" in out
        assert "gauge series" in out
        manifest = json.loads(out_path.read_text())
        assert manifest["metrics"]["histograms"]
        # Global recorder state is clean for the next command.
        assert not metrics.is_enabled()
        assert metrics.samples() == []

    def test_trace_verb_prints_and_dumps_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        out_path, _ = self._run(
            tmp_path, capsys, extra=["--metrics", "--trace", str(trace_path)]
        )
        assert main(["trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "metric histograms" in out
        assert main(["trace", str(out_path), "--json"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["scenario"] == "lifecycle_churn"
        assert dump["spans"]
        # phase_table orders spans by total time descending.
        totals = [row["total_ms"] for row in dump["spans"]]
        assert totals == sorted(totals, reverse=True)
        assert "lifecycle.retrieval_latency_s" in dump["metrics"]["histograms"]
