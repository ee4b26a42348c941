"""Tests for manifest comparison (``repro diff``)."""

from __future__ import annotations

import json

import pytest

from repro.runner.diff import diff_manifests, format_diff
from repro.runner.results import RunManifest


def _manifest(scenario="demo", seed=1, params=None, rows=None, summary=None, **kwargs):
    return RunManifest(
        scenario=scenario,
        params=params if params is not None else {"n": 2},
        seed=seed,
        workers=1,
        trial_count=len(rows or []),
        duration_seconds=0.1,
        rows=rows or [],
        summary=summary or [],
        version="test",
        created_unix=0.0,
        **kwargs,
    )


def _summary_row(group, mean, ci):
    return {"group": group, "loss_mean": mean, "loss_ci95": ci, "loss_n": 5}


class TestDiffManifests:
    def test_provenance_flags_differences(self):
        diff = diff_manifests(_manifest(seed=1), _manifest(seed=2))
        by_field = {row["field"]: row for row in diff["provenance"]}
        assert by_field["seed"]["same"] is False
        assert by_field["scenario"]["same"] is True
        assert diff["comparable"] is True

    def test_different_scenarios_not_comparable(self):
        diff = diff_manifests(_manifest(scenario="a"), _manifest(scenario="b"))
        assert diff["comparable"] is False

    def test_param_differences_listed(self):
        diff = diff_manifests(
            _manifest(params={"n": 2, "only_a": 1}),
            _manifest(params={"n": 3, "only_b": 4}),
        )
        by_param = {row["param"]: row for row in diff["params"]}
        assert by_param["n"] == {"param": "n", "a": 2, "b": 3}
        assert by_param["only_a"]["b"] == "<absent>"
        assert by_param["only_b"]["a"] == "<absent>"

    def test_identical_params_produce_empty_list(self):
        assert diff_manifests(_manifest(), _manifest())["params"] == []

    def test_metric_deltas_with_ci_overlap(self):
        a = _manifest(summary=[_summary_row("x", 0.50, 0.05)])
        b = _manifest(summary=[_summary_row("x", 0.52, 0.05)])
        (row,) = diff_manifests(a, b)["metrics"]
        assert row["metric"] == "loss"
        assert row["delta"] == pytest.approx(0.02)
        assert row["delta_pct"] == pytest.approx(4.0)
        assert row["ci_overlap"] is True

    def test_ci_overlap_false_when_intervals_disjoint(self):
        a = _manifest(summary=[_summary_row("x", 0.50, 0.01)])
        b = _manifest(summary=[_summary_row("x", 0.60, 0.01)])
        (row,) = diff_manifests(a, b)["metrics"]
        assert row["ci_overlap"] is False

    def test_list_valued_group_key_matches_instead_of_crashing(self):
        """A tuple parameter as a group column reads back as a JSON list."""
        a = _manifest(summary=[_summary_row([1, 2], 0.1, 0.0)])
        b = _manifest(summary=[_summary_row((1, 2), 0.2, 0.0)])
        b = RunManifest.from_dict(json.loads(b.to_json()))
        (row,) = diff_manifests(a, b)["metrics"]
        assert row["group"] == [1, 2] and row["delta"] == pytest.approx(0.1)
        assert diff_manifests(a, _manifest(summary=[_summary_row([3], 0.2, 0.0)]))["metrics"] == []

    def test_metrics_matched_by_group_key(self):
        a = _manifest(summary=[_summary_row("x", 0.1, 0.0), _summary_row("y", 0.2, 0.0)])
        b = _manifest(summary=[_summary_row("y", 0.25, 0.0)])
        rows = diff_manifests(a, b)["metrics"]
        assert [row["group"] for row in rows] == ["y"]
        assert rows[0]["delta"] == pytest.approx(0.05)

    def test_trailing_derived_columns_are_not_group_keys(self):
        """A per-group flag an aggregator appends after the statistics must
        not join the match key, or flipped groups vanish from the table."""
        row_a = {"group": "x", "loss_mean": 0.1, "loss_ci95": 0.01, "covered": True}
        row_b = {"group": "x", "loss_mean": 0.9, "loss_ci95": 0.01, "covered": False}
        (delta,) = diff_manifests(
            _manifest(summary=[row_a]), _manifest(summary=[row_b])
        )["metrics"]
        assert delta["delta"] == pytest.approx(0.8)

    def test_metrics_filter(self):
        summary = [
            {"group": "x", "loss_mean": 0.1, "gain_mean": 0.2},
        ]
        diff = diff_manifests(
            _manifest(summary=summary), _manifest(summary=summary), metrics=["gain"]
        )
        assert [row["metric"] for row in diff["metrics"]] == ["gain"]

    def test_without_summaries_per_trial_rows_are_aggregated(self):
        rows_a = [{"trial": 0, "seed": 1, "loss": 0.1}, {"trial": 1, "seed": 2, "loss": 0.3}]
        rows_b = [{"trial": 0, "seed": 1, "loss": 0.5}, {"trial": 1, "seed": 2, "loss": 0.7}]
        (row,) = diff_manifests(_manifest(rows=rows_a), _manifest(rows=rows_b))["metrics"]
        assert row["metric"] == "loss"
        assert row["a_mean"] == pytest.approx(0.2)
        assert row["b_mean"] == pytest.approx(0.6)

    def test_bookkeeping_and_non_numeric_columns_ignored(self):
        rows = [{"trial": 0, "seed": 9, "label": "abc", "ok": True, "loss": 0.5}]
        diff = diff_manifests(_manifest(rows=rows), _manifest(rows=rows))
        assert [row["metric"] for row in diff["metrics"]] == ["loss"]

    def test_matching_metric_sets_report_no_mismatch(self):
        a = _manifest(summary=[_summary_row("x", 0.5, 0.1)])
        b = _manifest(summary=[_summary_row("x", 0.6, 0.1)])
        diff = diff_manifests(a, b)
        assert diff["metrics_only_a"] == []
        assert diff["metrics_only_b"] == []

    def test_one_sided_metrics_reported(self):
        a = _manifest(summary=[{"group": "x", "loss_mean": 0.1, "gain_mean": 0.2}])
        b = _manifest(summary=[{"group": "x", "loss_mean": 0.3, "cost_mean": 0.4}])
        diff = diff_manifests(a, b)
        assert diff["metrics_only_a"] == ["gain"]
        assert diff["metrics_only_b"] == ["cost"]
        # The shared metric still gets its delta row.
        assert [row["metric"] for row in diff["metrics"]] == ["loss"]

    def test_metrics_filter_scopes_the_mismatch_check(self):
        """Metrics the user excluded via --metrics must not count as a
        mismatch -- the filter exists to compare just the shared set."""
        a = _manifest(summary=[{"group": "x", "loss_mean": 0.1, "gain_mean": 0.2}])
        b = _manifest(summary=[{"group": "x", "loss_mean": 0.3}])
        diff = diff_manifests(a, b, metrics=["loss"])
        assert diff["metrics_only_a"] == []
        assert diff["metrics_only_b"] == []
        diff = diff_manifests(a, b, metrics=["loss", "gain"])
        assert diff["metrics_only_a"] == ["gain"]

    def test_requested_metric_absent_from_both_is_flagged(self):
        """A typo'd --metrics name must not produce a vacuous pass."""
        a = _manifest(summary=[_summary_row("x", 0.5, 0.1)])
        diff = diff_manifests(a, a, metrics=["no_such_metric"])
        assert diff["metrics_missing"] == ["no_such_metric"]
        assert diff_manifests(a, a, metrics=["loss"])["metrics_missing"] == []

    def test_rows_identical_flag(self):
        rows = [{"trial": 0, "seed": 1, "loss": 0.25}]
        assert diff_manifests(_manifest(rows=rows), _manifest(rows=rows))[
            "rows_identical"
        ]
        assert not diff_manifests(
            _manifest(rows=rows), _manifest(rows=[{"trial": 0, "seed": 1, "loss": 0.3}])
        )["rows_identical"]


class TestFormatDiff:
    def test_sections_present(self):
        a = _manifest(summary=[_summary_row("x", 0.5, 0.1)])
        b = _manifest(summary=[_summary_row("x", 0.6, 0.1)])
        text = format_diff(diff_manifests(a, b))
        assert "provenance" in text
        assert "metric deltas" in text
        assert "per-trial rows identical" in text

    def test_warns_on_incomparable(self):
        text = format_diff(diff_manifests(_manifest(scenario="a"), _manifest(scenario="b")))
        assert "different scenarios" in text

    def test_metric_mismatch_message_names_the_metrics(self):
        a = _manifest(summary=[{"group": "x", "loss_mean": 0.1, "gain_mean": 0.2}])
        b = _manifest(summary=[{"group": "x", "loss_mean": 0.3}])
        text = format_diff(diff_manifests(a, b))
        assert "metric sets differ" in text
        assert "only in a: gain" in text

    def test_no_mismatch_message_when_sets_match(self):
        a = _manifest(summary=[_summary_row("x", 0.5, 0.1)])
        text = format_diff(diff_manifests(a, a))
        assert "metric sets differ" not in text


class TestDiffCli:
    def _write(self, path, manifest):
        path.write_text(manifest.to_json())
        return str(path)

    def test_diff_command_prints_report(self, tmp_path, capsys):
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest(summary=[_summary_row("x", 0.5, 0.1)]))
        b = self._write(tmp_path / "b.json", _manifest(summary=[_summary_row("x", 0.9, 0.1)]))
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "provenance" in out
        assert "metric deltas" in out
        assert "loss" in out

    def test_diff_incomparable_exits_nonzero(self, tmp_path, capsys):
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest(scenario="a"))
        b = self._write(tmp_path / "b.json", _manifest(scenario="b"))
        assert main(["diff", a, b]) == 1
        assert "different scenarios" in capsys.readouterr().out

    def test_diff_metric_mismatch_exits_nonzero(self, tmp_path, capsys):
        """A metric column present in only one manifest must fail loudly,
        not silently vanish from the delta table."""
        from repro.runner.cli import main

        a = self._write(
            tmp_path / "a.json",
            _manifest(summary=[{"group": "x", "loss_mean": 0.1, "gain_mean": 0.2}]),
        )
        b = self._write(
            tmp_path / "b.json", _manifest(summary=[{"group": "x", "loss_mean": 0.3}])
        )
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "metric sets differ" in out
        assert "only in a: gain" in out

    def test_diff_matching_metrics_still_exits_zero(self, tmp_path):
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest(summary=[_summary_row("x", 0.5, 0.1)]))
        b = self._write(tmp_path / "b.json", _manifest(summary=[_summary_row("x", 0.9, 0.1)]))
        assert main(["diff", a, b]) == 0

    def test_diff_missing_file_is_an_error(self, tmp_path, capsys):
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest())
        assert main(["diff", a, str(tmp_path / "nope.json")]) == 2
        assert "cannot load manifest" in capsys.readouterr().err

    def test_diff_corrupt_json_is_an_error(self, tmp_path, capsys):
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["diff", a, str(bad)]) == 2
        assert "cannot load manifest" in capsys.readouterr().err

    def test_diff_wrong_shape_json_is_an_error_not_a_traceback(self, tmp_path, capsys):
        """Valid JSON of the wrong shape must surface as the same clean
        'cannot load manifest' error as syntactically bad JSON."""
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest())
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"scenario": "demo", "params": {}, "seed": 1, "workers": 1, "rows": 5}'
        )
        assert main(["diff", a, str(bad)]) == 2
        assert "cannot load manifest" in capsys.readouterr().err

    def test_diff_typod_metrics_filter_exits_nonzero(self, tmp_path, capsys):
        from repro.runner.cli import main

        a = self._write(tmp_path / "a.json", _manifest(summary=[_summary_row("x", 0.5, 0.1)]))
        assert main(["diff", a, a, "--metrics", "no_such_metric"]) == 1
        assert "exist in neither manifest" in capsys.readouterr().out


class TestStragglerFactor:
    def _stats_manifest(self, walls):
        return _manifest(
            rows=[{"trial": i, "seed": i} for i in range(len(walls))],
            trial_stats=[
                {"trial": i, "wall_seconds": wall, "pid": 1}
                for i, wall in enumerate(walls)
            ],
        )

    def test_factor_threads_into_straggler_rows(self):
        # 0.25 is 2.5x the median: invisible at the default 3x, flagged at 2x.
        manifest = self._stats_manifest([0.1, 0.1, 0.1, 0.25])
        lax = diff_manifests(manifest, manifest)
        assert lax["straggler_factor"] == 3.0
        assert lax["stragglers_a"] == []
        strict = diff_manifests(manifest, manifest, straggler_factor=2.0)
        assert strict["straggler_factor"] == 2.0
        assert [row["trial"] for row in strict["stragglers_a"]] == [3]
        assert strict["stragglers_b"] == strict["stragglers_a"]

    def test_non_positive_factor_rejected(self):
        manifest = self._stats_manifest([0.1])
        with pytest.raises(ValueError):
            diff_manifests(manifest, manifest, straggler_factor=0.0)
        with pytest.raises(ValueError):
            diff_manifests(manifest, manifest, straggler_factor=-1.0)

    def test_format_diff_names_the_factor(self):
        manifest = self._stats_manifest([0.1, 0.1, 0.1, 0.25])
        text = format_diff(diff_manifests(manifest, manifest, straggler_factor=2.0))
        assert "> 2x the" in text

    def test_cli_flag_reaches_the_report(self, tmp_path, capsys):
        from repro.runner.cli import main

        path = tmp_path / "m.json"
        path.write_text(self._stats_manifest([0.1, 0.1, 0.1, 0.25]).to_json())
        # Informational only: flagged stragglers never flip the exit code.
        assert main(["diff", str(path), str(path), "--straggler-factor", "2"]) == 0
        out = capsys.readouterr().out
        assert "straggler trials in a (> 2x the" in out
        assert main(["diff", str(path), str(path)]) == 0
        assert "straggler" not in capsys.readouterr().out

    def test_cli_rejects_bad_factor(self, tmp_path, capsys):
        from repro.runner.cli import main

        path = tmp_path / "m.json"
        path.write_text(self._stats_manifest([0.1]).to_json())
        assert main(["diff", str(path), str(path), "--straggler-factor", "0"]) == 2
        assert "positive" in capsys.readouterr().err
