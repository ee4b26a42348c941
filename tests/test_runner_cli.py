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
        assert table3["params"]["backend"]["domain"] is None

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


class TestBenchBackendAll:
    _TINY_SEG = [
        "--set", "size_ratios=0.5", "--set", "limit_fractions=0.25",
        "--set", "n_files=4", "--set", "trials=1",
    ]

    def test_sweeps_every_backend_in_one_invocation(self, tmp_path, capsys):
        out_path = tmp_path / "backends.json"
        code = main(
            ["bench", "segmentation", "--backend", "all", "--seed", "2",
             *self._TINY_SEG, "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backends=reference,vectorized" in out
        assert "speedup_vs_reference" in out
        assert "per-trial rows identical across backends: True" in out
        artifact = json.loads(out_path.read_text())
        assert artifact["kind"] == "scenario_backend_sweep"
        assert set(artifact["backends"]) == {"reference", "vectorized"}
        for entry in artifact["backends"].values():
            assert entry["wall_seconds"] > 0
            assert "speedup_vs_reference" in entry
        assert artifact["rows_identical"] is True
        assert artifact["scenario"] == "segmentation"
        assert artifact["seed"] == 2

    def test_min_speedup_gate_can_fail(self, capsys):
        code = main(
            ["bench", "segmentation", "--backend", "all", "--min-speedup", "1000",
             *self._TINY_SEG]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "speedup gate" in out
        assert "FAIL" in out

    def test_all_conflicts_with_set_backend(self, capsys):
        code = main(
            ["bench", "segmentation", "--backend", "all",
             "--set", "backend=reference"]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_all_on_scenario_without_backend_param(self, capsys):
        assert main(["bench", "collision", "--backend", "all"]) == 2
        assert "no 'backend' parameter" in capsys.readouterr().err

    def test_unknown_backend_name_on_bench_is_an_error(self, capsys):
        assert main(["bench", "segmentation", "--backend", "cuda"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_run_does_not_accept_all(self, capsys):
        """'all' is a bench-only sweep; run treats it as a backend name."""
        assert main(["run", "segmentation", "--backend", "all"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err


class TestBackendFlag:
    def test_backend_flag_lands_in_manifest(self, tmp_path, capsys):
        out_path = tmp_path / "robust.json"
        code = main(
            [
                "run", "robustness", "--quiet", "--backend", "reference",
                "--set", "lambdas=0.5", "--set", "n_sectors=50",
                "--set", "n_files=60", "--set", "k=3", "--set", "trials=1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        manifest = json.loads(out_path.read_text())
        assert manifest["params"]["backend"] == "reference"

    def test_auto_resolves_to_concrete_backend(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        out_path = tmp_path / "robust.json"
        code = main(
            [
                "run", "robustness", "--quiet",
                "--set", "lambdas=0.5", "--set", "n_sectors=50",
                "--set", "n_files=60", "--set", "k=3", "--set", "trials=1",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["params"]["backend"] == "vectorized"

    def test_backend_flag_conflicting_with_set_is_an_error(self, capsys):
        code = main(
            ["run", "robustness", "--backend", "reference",
             "--set", "backend=vectorized"]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_unknown_backend_is_an_error(self, capsys):
        assert main(["run", "robustness", "--backend", "cuda"]) == 2
        assert "unknown kernel backend" in capsys.readouterr().err

    def test_backend_flag_on_scenario_without_backend_param(self, capsys):
        assert main(["run", "collision", "--backend", "reference"]) == 2
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
