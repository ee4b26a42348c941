"""Perf history: entry keying, artifact adapters, trends, CLI gates.

The store's contract: append-only JSONL, one entry per measurement,
series identified by a content hash over (bench, shape, backend, host,
unit) so trends never mix incomparable numbers, and a rolling-median
baseline that turns `repro perf check` into a CI regression gate --
exit 1 when any series' latest value exceeds its baseline by more than
the allowed percentage, exit 0 on a clean (or empty) history.
"""

from __future__ import annotations

import json

import pytest

from repro.runner.cli import main
from repro.telemetry import history


def entry(value, bench="b", backend=None, recorded=0.0, **kwargs):
    return history.make_entry(
        bench,
        value,
        backend=backend,
        version="v1",
        host="testhost",
        recorded_unix=recorded,
        **kwargs,
    )


class TestEntries:
    def test_host_fingerprint_is_short_and_stable(self):
        assert history.host_fingerprint() == history.host_fingerprint()
        assert len(history.host_fingerprint()) == 12

    def test_series_key_separates_what_must_not_mix(self):
        base = history.series_key("bench", {"n": 10}, "vectorized", "host")
        assert base == history.series_key("bench", {"n": 10}, "vectorized", "host")
        assert base != history.series_key("other", {"n": 10}, "vectorized", "host")
        assert base != history.series_key("bench", {"n": 20}, "vectorized", "host")
        assert base != history.series_key("bench", {"n": 10}, "reference", "host")
        assert base != history.series_key("bench", {"n": 10}, "vectorized", "h2")
        assert base != history.series_key("bench", {"n": 10}, "vectorized", "host", unit="ms")

    def test_make_entry_carries_provenance(self):
        made = entry(1.5, bench="kernel.x", backend="vectorized", source="t.json")
        assert made["bench"] == "kernel.x"
        assert made["value"] == 1.5
        assert made["version"] == "v1"
        assert made["source"] == "t.json"
        assert made["series"] == history.series_key(
            "kernel.x", None, "vectorized", "testhost"
        )

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        history.append_entries(path, [entry(1.0), entry(2.0)])
        history.append_entries(path, [entry(3.0)])
        values = [e["value"] for e in history.load_history(path)]
        assert values == [1.0, 2.0, 3.0]

    def test_load_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = json.dumps(entry(1.0))
        path.write_text(
            "\n".join([good, "{truncated", '{"bench": 3}', '"just a string"', ""])
            + "\n"
        )
        assert [e["value"] for e in history.load_history(path)] == [1.0]

    def test_load_skips_non_finite_values(self, tmp_path):
        """``json.dumps`` writes a NaN wall as a bare ``NaN``; such a series
        could never regress, so the line is skipped like any malformed one."""
        path = tmp_path / "history.jsonl"
        good = entry(1.0)
        lines = [json.dumps(good)] + [
            json.dumps({**good, "value": bad}) for bad in (float("nan"), float("inf"))
        ]
        assert "NaN" in lines[1]
        path.write_text("\n".join(lines) + "\n")
        assert [e["value"] for e in history.load_history(path)] == [1.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_make_entry_refuses_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            entry(bad)

    def test_missing_file_loads_empty(self, tmp_path):
        assert history.load_history(tmp_path / "absent.jsonl") == []

    def test_default_path_honours_env_var(self, monkeypatch):
        monkeypatch.delenv(history.HISTORY_ENV_VAR, raising=False)
        assert str(history.default_history_path()) == history.DEFAULT_HISTORY_PATH
        monkeypatch.setenv(history.HISTORY_ENV_VAR, "/tmp/elsewhere.jsonl")
        assert str(history.default_history_path()) == "/tmp/elsewhere.jsonl"


class TestArtifactAdapters:
    def test_backend_sweep_artifact_is_refused(self):
        """``bench --backend all`` artifacts are no longer written; an old
        one is refused instead of recording nothing."""
        artifact = {
            "kind": "scenario_backend_sweep",
            "scenario": "churn",
            "seed": 0,
            "overrides": {"trials": "2"},
            "trials": 2,
            "backends": {
                "vectorized": {"wall_seconds": 0.5, "speedup_vs_reference": 3.0},
            },
        }
        with pytest.raises(ValueError, match="unrecognised bench artifact"):
            history.entries_from_artifact(artifact, version="v1")

    def test_kernel_bench_artifact(self):
        artifact = {
            "shapes": {"refresh": {"n_sectors": 100}},
            "results": {
                "refresh": {
                    "reference_seconds": 0.2,
                    "vectorized_seconds": 0.05,
                    "speedup": 4.0,
                }
            },
        }
        entries = history.entries_from_artifact(artifact)
        assert [(e["bench"], e["backend"]) for e in entries] == [
            ("kernel.refresh", "reference"),
            ("kernel.refresh", "vectorized"),
        ]
        assert entries[0]["shape"] == {"n_sectors": 100}

    def test_telemetry_bench_artifact(self):
        artifact = {
            "scenario": "churn",
            "params": {"trials": 2},
            "seed": 0,
            "untraced_wall_s": 1.0,
            "traced_wall_s": 1.04,
        }
        entries = history.entries_from_artifact(artifact)
        assert [(e["bench"], e["value"]) for e in entries] == [
            ("telemetry.untraced", 1.0),
            ("telemetry.traced", 1.04),
        ]

    def test_run_manifest_artifact(self):
        manifest = {
            "scenario": "robustness",
            "params": {"backend": "vectorized", "trials": 4},
            "seed": 7,
            "duration_seconds": 2.25,
            "version": "deadbeef",
        }
        (made,) = history.entries_from_artifact(manifest)
        assert made["bench"] == "run.robustness"
        assert made["backend"] == "vectorized"
        assert made["value"] == 2.25
        assert made["version"] == "deadbeef"

    def test_unrecognised_artifact_raises(self):
        with pytest.raises(ValueError):
            history.entries_from_artifact({"what": "is this"})


class TestTrendsAndGates:
    def test_single_entry_has_no_baseline(self):
        (row,) = history.trend_rows([entry(1.0)])
        assert row["runs"] == 1
        assert row["baseline"] == ""
        assert row["delta_pct"] == ""
        assert history.regressions([entry(1.0)], 0.0) == []

    def test_baseline_is_rolling_median_of_priors(self):
        entries = [entry(v) for v in (1.0, 3.0, 2.0, 100.0)]
        (row,) = history.trend_rows(entries)
        # Baseline is the median of the *prior* entries (1, 3, 2) = 2.
        assert row["baseline"] == 2.0
        assert row["latest"] == 100.0
        assert row["delta_pct"] == 4900.0

    def test_window_limits_the_baseline(self):
        values = [10.0] * 5 + [1.0] * 5 + [1.0]
        (row,) = history.trend_rows([entry(v) for v in values], window=5)
        assert row["baseline"] == 1.0

    def test_regression_gate_flags_only_past_threshold(self):
        slow = [entry(v) for v in (1.0, 1.0, 1.08)]
        assert history.regressions(slow, 10.0) == []
        flagged = history.regressions(slow, 5.0)
        assert len(flagged) == 1
        assert flagged[0]["delta_pct"] == 8.0

    def test_improvements_never_flag(self):
        fast = [entry(v) for v in (1.0, 1.0, 0.5)]
        assert history.regressions(fast, 0.0) == []

    def test_series_do_not_mix(self):
        entries = [
            entry(1.0, backend="reference"),
            entry(9.0, backend="vectorized"),
            entry(1.0, backend="reference"),
        ]
        rows = history.trend_rows(entries)
        assert [(r["backend"], r["runs"]) for r in rows] == [
            ("reference", 2),
            ("vectorized", 1),
        ]


class TestCLI:
    def _manifest_artifact(self, tmp_path, wall=1.0):
        artifact = {
            "scenario": "churn",
            "params": {"trials": 2},
            "seed": 0,
            "duration_seconds": wall,
            "version": "v1",
        }
        path = tmp_path / f"run_{wall}.json"
        path.write_text(json.dumps(artifact))
        return path

    def test_record_report_check_round_trip(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        for wall in (1.0, 1.02):
            artifact = self._manifest_artifact(tmp_path, wall)
            assert main(["perf", "record", str(artifact), "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "recorded 1 entries" in out
        assert main(["perf", "report", "--history", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "run.churn" in out
        assert main(
            ["perf", "check", "--max-regression", "10", "--history", str(hist)]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        for wall in (1.0, 1.0, 5.0):
            artifact = self._manifest_artifact(tmp_path, wall)
            assert main(["perf", "record", str(artifact), "--history", str(hist)]) == 0
        code = main(["perf", "check", "--max-regression", "10", "--history", str(hist)])
        assert code == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    @pytest.mark.parametrize("gate", ["nan", "inf"])
    def test_check_refuses_a_gate_that_cannot_fail(self, tmp_path, capsys, gate):
        """No delta compares above NaN or inf, so such a gate could never
        fail: it is refused, even on a history the 10 % gate fails."""
        hist = tmp_path / "history.jsonl"
        for wall in (1.0, 1.0, 5.0):
            artifact = self._manifest_artifact(tmp_path, wall)
            assert main(["perf", "record", str(artifact), "--history", str(hist)]) == 0
        capsys.readouterr()
        code = main(["perf", "check", "--max-regression", gate, "--history", str(hist)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: --max-regression must be a finite")
        assert "no regressions" not in captured.out

    def test_empty_history_reports_and_passes(self, tmp_path, capsys):
        hist = tmp_path / "empty.jsonl"
        assert main(["perf", "report", "--history", str(hist)]) == 0
        assert main(["perf", "check", "--history", str(hist)]) == 0
        assert "empty" in capsys.readouterr().err

    def test_record_rejects_bad_artifacts(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        missing = tmp_path / "missing.json"
        assert main(["perf", "record", str(missing), "--history", str(hist)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a bench"}')
        assert main(["perf", "record", str(bad), "--history", str(hist)]) == 2
        assert not hist.exists()

    MALFORMED = {
        "top-level-array": ([{"scenario": "x", "duration_seconds": 1.0}], "must be an object"),
        "top-level-string": ("BENCH", "must be an object"),
        "kernel-shapes-array": (
            {"shapes": [1], "results": {"k": {"vectorized_seconds": 0.1}}},
            "field 'shapes'",
        ),
        "protocol-row-array": (
            {"kind": "protocol_columnar_bench", "columnar": [1]},
            "field 'columnar'",
        ),
        "kernel-wall-null": (
            {"results": {"k": {"vectorized_seconds": None}}},
            "results['k'].vectorized_seconds",
        ),
        "manifest-duration-null": (
            {"scenario": "x", "params": {}, "seed": 0, "duration_seconds": None},
            "field 'duration_seconds'",
        ),
        "manifest-scenario-array": (
            {"scenario": [1], "params": {}, "seed": 0, "duration_seconds": 1.0},
            "field 'scenario'",
        ),
        "manifest-params-string": (
            {"scenario": "x", "params": "x", "seed": 0, "duration_seconds": 1.0},
            "field 'params'",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_record_refuses_malformed_artifacts(self, tmp_path, capsys, shape):
        artifact, where = self.MALFORMED[shape]
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(artifact))
        hist = tmp_path / "history.jsonl"
        capsys.readouterr()
        assert main(["perf", "record", str(path), "--history", str(hist)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err, err
        assert not hist.exists()

    def test_record_checks_every_artifact_before_appending(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"scenario": "x", "duration_seconds": 1.0}))
        bad.write_text(json.dumps({"scenario": "x", "duration_seconds": None}))
        hist = tmp_path / "history.jsonl"
        assert main(["perf", "record", str(good), str(bad), "--history", str(hist)]) == 2
        assert not hist.exists()

    def test_history_none_disables_perf_verbs(self, tmp_path, capsys):
        assert main(["perf", "report", "--history", "none"]) == 2
        assert "history" in capsys.readouterr().err

    def test_bench_appends_automatically(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        args = [
            "bench", "churn", "--seed", "0",
            "--set", "trials=2", "--set", "cycles=2", "--set", "files=4",
            "--workers", "1", "--history", str(hist),
        ]
        assert main(args) == 0
        assert "perf history: 1 bench entries" in capsys.readouterr().out
        (made,) = history.load_history(hist)
        assert made["bench"] == "scenario.churn"
        assert made["backend"] == "serial"
        # --history none opts out.
        assert main(args[:-1] + ["none"]) == 0
        assert len(history.load_history(hist)) == 1

    def test_record_accepts_run_manifests(self, tmp_path, capsys):
        hist = tmp_path / "history.jsonl"
        out_path = tmp_path / "run.json"
        assert main([
            "run", "churn", "--quiet", "--seed", "0",
            "--set", "trials=2", "--set", "cycles=2", "--set", "files=4",
            "--out", str(out_path),
        ]) == 0
        assert main(["perf", "record", str(out_path), "--history", str(hist)]) == 0
        (made,) = history.load_history(hist)
        assert made["bench"] == "run.churn"
        assert made["value"] > 0
