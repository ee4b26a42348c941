"""CLI tests for the ``python -m repro`` front door."""

from __future__ import annotations

import json

import pytest

from repro.runner.cli import main


class TestList:
    def test_lists_all_builtin_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("collision", "deposit", "robustness", "scalability", "table3", "table4"):
            assert name in out

    def test_json_dump_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        dump = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in dump}
        assert {"collision", "table3", "churn"} <= set(by_name)
        table3 = by_name["table3"]
        assert set(table3) == {"name", "description", "tags", "params"}
        rounds = table3["params"]["rounds"]
        assert rounds["default"] == 100
        assert rounds["type"] == "int"
        assert rounds["help"]
        assert rounds["domain"] == "[1, inf)"
        # Tuple defaults and choice domains serialise as JSON arrays.
        assert table3["params"]["modes"]["default"] == ["reallocate", "refresh"]
        assert table3["params"]["modes"]["domain"] == ["reallocate", "refresh"]
        assert "backend" not in table3["params"]
        assert by_name["robustness"]["params"]["backend"]["domain"] == ["vectorized"]

    def test_json_dump_validates_campaign_sweep_params(self, capsys):
        """The dump is the contract campaign specs validate against: every
        swept parameter in the shipped example exists in the dump."""
        from repro.campaign import load_campaign

        assert main(["list", "--json"]) == 0
        dump = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in dump}
        spec = load_campaign("examples/table3_campaign.toml")
        for entry in spec.entries:
            assert entry.scenario in by_name
            registered = set(by_name[entry.scenario]["params"])
            assert set(entry.params) <= registered
            assert set(entry.sweep) <= registered


class TestRun:
    def test_run_writes_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "collision.json"
        code = main(
            [
                "run",
                "collision",
                "--seed",
                "3",
                "--set",
                "trials=8",
                "--set",
                "batches=2",
                "--set",
                "n_sectors=50",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert manifest["scenario"] == "collision"
        assert manifest["seed"] == 3
        # 4 ratios x 2 batches
        assert len(manifest["rows"]) == 8
        out = capsys.readouterr().out
        assert "per-trial rows" in out
        assert "summary" in out

    def test_quiet_omits_trial_rows(self, capsys):
        code = main(
            ["run", "collision", "--quiet", "--set", "trials=4", "--set", "batches=1",
             "--set", "n_sectors=40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-trial rows" not in out
        assert "summary" in out

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_override_syntax_is_an_error(self, capsys):
        assert main(["run", "collision", "--set", "oops"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_parameter_is_an_error(self, capsys):
        assert main(["run", "collision", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_uncoercible_value_is_an_error(self, capsys):
        assert main(["run", "collision", "--set", "trials=abc"]) == 2
        assert (
            "scenario 'collision' parameter 'trials' must be an int64 in [1, inf), got 'abc'"
        ) in capsys.readouterr().err

    def test_zero_workers_is_an_error(self, capsys):
        assert main(["run", "collision", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestBench:
    def test_bench_reports_identical_rows(self, capsys):
        code = main(
            [
                "bench",
                "collision",
                "--workers",
                "2",
                "--set",
                "trials=8",
                "--set",
                "batches=2",
                "--set",
                "n_sectors=50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-trial rows identical: True" in out
        assert "speedup=" in out


class TestNoBackendFlag:
    _TINY_ROBUSTNESS = [
        "--set", "lambdas=0.5", "--set", "n_sectors=50",
        "--set", "n_files=60", "--set", "k=3", "--set", "trials=1",
    ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "robustness", "--backend", "vectorized"],
            ["bench", "segmentation", "--backend", "all"],
            ["bench", "segmentation", "--min-speedup", "2"],
        ],
    )
    def test_backend_flags_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_robustness_backend_accepts_only_vectorized(self, tmp_path, capsys):
        code = main(["run", "robustness", "--quiet", "--set", "backend=reference"])
        assert code == 2
        assert "parameter 'backend' must be one of 'vectorized'" in capsys.readouterr().err
        out_path = tmp_path / "robust.json"
        code = main(
            ["run", "robustness", "--quiet", "--set", "backend=vectorized",
             *self._TINY_ROBUSTNESS, "--out", str(out_path)]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["params"]["backend"] == "vectorized"

    def test_kernel_backend_env_var_is_ignored(self, tmp_path, monkeypatch, capsys):
        argv = [
            "run", "table3", "--quiet", "--set", "max_ncp=100000",
            "--set", "rounds=1", "--set", "refresh_multiplier=1",
        ]
        rows = []
        for env in (None, "reference"):
            if env is not None:
                monkeypatch.setenv("REPRO_KERNEL_BACKEND", env)
            out_path = tmp_path / f"table3_{env}.json"
            assert main([*argv, "--out", str(out_path)]) == 0
            manifest = json.loads(out_path.read_text())
            assert "backend" not in manifest["params"]
            rows.append(manifest["rows"])
        assert rows[0] == rows[1]

    def test_backend_on_scenario_without_it_is_an_error(self, capsys):
        assert main(["run", "table3", "--set", "backend=vectorized"]) == 2
        assert "no parameter 'backend'" in capsys.readouterr().err


@pytest.mark.usefixtures("campaign_scenarios")
class TestCampaignMatrix:
    def test_matrix_expands_and_runs(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--matrix", "camp-alpha:scale=1,2,3",
             "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign=matrix-camp-alpha-scale" in out
        assert "cells=3" in out
        assert out.count("[run ]") == 3

    def test_matrix_with_seed_and_cache_hits(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = ["campaign", "run", "--matrix", "camp-alpha:scale=2,4",
                "--seed", "9", "--store", store]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache_hits=2/2" in out

    def test_matrix_validates_against_registry(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--matrix", "table3:bogus=1,2",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "no parameter" in capsys.readouterr().err

    def test_matrix_unknown_scenario_is_an_error(self, tmp_path, capsys):
        code = main(
            ["campaign", "run", "--matrix", "nope:x=1",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_matrix_bad_syntax_is_an_error(self, capsys):
        for bad in ("camp-alpha", "camp-alpha:scale", "camp-alpha:scale=",
                    ":scale=1", "camp-alpha:=1"):
            assert main(["campaign", "run", "--matrix", bad]) == 2
            assert "--matrix expects" in capsys.readouterr().err

    def test_spec_and_matrix_together_is_an_error(self, capsys):
        code = main(
            ["campaign", "run", "examples/table3_campaign.toml",
             "--matrix", "camp-alpha:scale=1"]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_spec_nor_matrix_is_an_error(self, capsys):
        assert main(["campaign", "run"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_seed_with_spec_file_is_an_error(self, capsys):
        code = main(
            ["campaign", "run", "examples/table3_campaign.toml", "--seed", "3"]
        )
        assert code == 2
        assert "--seed only applies" in capsys.readouterr().err


_SMOKE = ["--set", "trials=2", "--set", "batches=2", "--set", "n_sectors=50"]


@pytest.fixture(scope="module")
def traced_manifest(tmp_path_factory):
    """A manifest carrying telemetry and metrics summaries."""
    folder = tmp_path_factory.mktemp("traced")
    path = folder / "traced.json"
    assert main(
        ["run", "collision", "--quiet", "--seed", "3", *_SMOKE, "--trace",
         str(folder / "trace.json"), "--metrics", "--out", str(path)]
    ) == 0
    return path


class TestMalformedManifests:
    """``RunManifest.from_dict`` refuses every wrong shape with ValueError,
    so ``repro diff``, ``repro run --resume`` and ``repro trace`` print
    ``error: ...`` naming the field instead of crashing in code that
    trusts the shape, and a result store quarantines such an entry."""

    SHAPES = {
        "params-array": ("params", [1, 2]),
        "params-scalar": ("params", 5),
        "row-not-object": ("rows", [1]),
        "summary-entry-not-object": ("summary", ["x"]),
        "seed-float": ("seed", 3.5),
        "seed-bool": ("seed", True),
        "workers-string": ("workers", "1"),
        "trial-count-float": ("trial_count", 2.0),
        "duration-string": ("duration_seconds", "x"),
        "telemetry-scalar": ("telemetry", 7),
        "metrics-array": ("metrics", [1]),
    }

    @pytest.mark.parametrize("command", ["diff", "resume", "trace"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_refused_with_an_error_line(
        self, traced_manifest, tmp_path, capsys, shape, command
    ):
        key, value = self.SHAPES[shape]
        data = json.loads(traced_manifest.read_text())
        data[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        if command == "diff":
            argv = ["diff", str(traced_manifest), str(bad)]
        elif command == "trace":
            argv = ["trace", str(bad)]
        else:
            argv = ["run", "collision", "--quiet", "--seed", "3", *_SMOKE, "--resume", str(bad)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code != 0
        assert err.startswith("error: "), err
        assert f"manifest field {key!r}" in err, err

    @pytest.mark.usefixtures("campaign_scenarios")
    @pytest.mark.parametrize("shape", ["duration-string", "telemetry-scalar", "metrics-array"])
    def test_poisoned_store_entry_is_quarantined_and_rerun(self, tmp_path, capsys, shape):
        from repro.campaign.store import ResultStore

        key, value = self.SHAPES[shape]
        store_dir = tmp_path / "store"
        argv = ["campaign", "run", "--matrix", "camp-alpha:scale=1,2", "--store", str(store_dir)]
        assert main(argv) == 0
        (entry, *_) = sorted(ResultStore(store_dir).entries())
        data = json.loads(entry.read_text())
        data[key] = value
        entry.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache_hits=1/2" in capsys.readouterr().out
        assert ResultStore(store_dir).stats() == {"stored": 2, "quarantined": 1}


class TestMalformedSummaries:
    """The nested ``telemetry`` and ``metrics`` summaries are field tables
    too, so ``RunManifest.load`` refuses a malformed one by its dotted
    path: ``repro trace`` (plain and ``--json``) and ``repro diff`` exit 2
    instead of crashing in the table printers, and a store read
    quarantines the entry."""

    SHAPES = {
        "spans-int": ("telemetry", "spans", 3),
        "spans-string": ("telemetry", "spans", "x"),
        "spans-array": ("telemetry", "spans", [1]),
        "span-null": ("telemetry", "spans", {"trial.run": None}),
        "span-array": ("telemetry", "spans", {"trial.run": [1]}),
        "span-total-null": ("telemetry", "spans", {"trial.run": {"count": 1, "total_ms": None}}),
        "counters-array": ("telemetry", "counters", [1]),
        "histograms-array": ("metrics", "histograms", [1]),
        "series-string": ("metrics", "series", "x"),
    }

    def _poisoned(self, data, shape):
        summary, key, value = self.SHAPES[shape]
        data[summary][key] = value
        return f"manifest field '{summary}.{key}"

    @pytest.mark.parametrize("command", ["trace", "trace-json", "diff"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_refused_by_dotted_path(self, traced_manifest, tmp_path, capsys, shape, command):
        data = json.loads(traced_manifest.read_text())
        where = self._poisoned(data, shape)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = {
            "trace": ["trace", str(bad)],
            "trace-json": ["trace", "--json", str(bad)],
            "diff": ["diff", str(traced_manifest), str(bad)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert where in err.replace('"', "'"), err

    @pytest.mark.usefixtures("campaign_scenarios")
    @pytest.mark.parametrize("shape", ["span-total-null", "series-string"])
    def test_poisoned_store_entry_is_quarantined(self, traced_manifest, tmp_path, capsys, shape):
        from repro.campaign.store import ResultStore

        store_dir = tmp_path / "store"
        argv = ["campaign", "run", "--matrix", "camp-alpha:scale=1", "--store", str(store_dir)]
        assert main(argv) == 0
        (entry,) = ResultStore(store_dir).entries()
        data = json.loads(entry.read_text())
        traced = json.loads(traced_manifest.read_text())
        data["telemetry"], data["metrics"] = traced["telemetry"], traced["metrics"]
        self._poisoned(data, shape)
        entry.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache_hits=0/1" in capsys.readouterr().out
        assert ResultStore(store_dir).stats() == {"stored": 1, "quarantined": 1}
