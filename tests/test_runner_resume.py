"""Resumable-run tests: byte-identity with a fresh run plus the error paths."""

from __future__ import annotations

import json

import pytest

from repro.runner.executor import (
    ResumeError,
    derive_trial_seed,
    match_resume_rows,
    run_scenario,
)
from repro.runner.registry import _REGISTRY, ParamSpec, ScenarioSpec, register
from repro.runner.results import RunManifest

CALL_LOG: list = []


def _counting_trial(task):
    """Records every execution so tests can assert which trials ran."""
    CALL_LOG.append(task["trial"])
    return {"x": task["x"], "y": task["x"] * task["seed"] % 101}


def _build_trials(params):
    return [{"x": x} for x in range(params["n"])]


@pytest.fixture
def counting_scenario():
    CALL_LOG.clear()
    spec = register(
        ScenarioSpec(
            name="temp-resume",
            description="resume test scenario",
            trial_fn=_counting_trial,
            build_trials=_build_trials,
            params={"n": ParamSpec(6, "trial count")},
        ),
        replace=True,
    )
    yield spec
    _REGISTRY.pop("temp-resume", None)


def _roundtrip(manifest: RunManifest) -> RunManifest:
    """Simulate save/load so cached rows went through JSON exactly once."""
    return RunManifest.from_dict(json.loads(manifest.to_json()))


class TestResumeHappyPath:
    def test_partial_manifest_resumes_to_byte_identical_rows(self, counting_scenario):
        """The acceptance criterion: truncated manifest + --resume == serial run."""
        reference = run_scenario("temp-resume", workers=1, seed=3)
        partial = _roundtrip(reference)
        partial.rows = partial.rows[::2]  # keep trials 0, 2, 4
        partial.trial_count = len(partial.rows)

        CALL_LOG.clear()
        resumed = run_scenario("temp-resume", workers=1, seed=3, resume=partial)
        assert sorted(CALL_LOG) == [1, 3, 5]  # only the missing trials ran
        assert resumed.to_dict()["rows"] == reference.to_dict()["rows"]
        assert json.dumps(resumed.to_dict()["rows"], sort_keys=True) == json.dumps(
            reference.to_dict()["rows"], sort_keys=True
        )
        assert resumed.trial_rows_equal(reference)

    def test_resume_merges_under_parallel_workers(self, counting_scenario):
        reference = run_scenario("temp-resume", workers=1, seed=9)
        partial = _roundtrip(reference)
        partial.rows = partial.rows[:2]
        resumed = run_scenario("temp-resume", workers=3, seed=9, resume=partial)
        assert resumed.to_dict()["rows"] == reference.to_dict()["rows"]

    def test_complete_manifest_runs_nothing(self, counting_scenario):
        reference = run_scenario("temp-resume", workers=1, seed=4)
        CALL_LOG.clear()
        resumed = run_scenario(
            "temp-resume", workers=1, seed=4, resume=_roundtrip(reference)
        )
        assert CALL_LOG == []
        assert resumed.to_dict()["rows"] == reference.to_dict()["rows"]

    def test_resume_accepts_a_path(self, counting_scenario, tmp_path):
        reference = run_scenario("temp-resume", workers=1, seed=2)
        partial = _roundtrip(reference)
        partial.rows = partial.rows[:3]
        path = partial.save(tmp_path / "partial.json")
        resumed = run_scenario("temp-resume", workers=1, seed=2, resume=path)
        assert resumed.to_dict()["rows"] == reference.to_dict()["rows"]


class TestResumeValidation:
    def _reference(self, seed=3):
        return _roundtrip(run_scenario("temp-resume", workers=1, seed=seed))

    def test_wrong_scenario_rejected(self, counting_scenario):
        manifest = self._reference()
        manifest.scenario = "robustness"
        with pytest.raises(ResumeError, match="scenario"):
            run_scenario("temp-resume", seed=3, resume=manifest)

    def test_wrong_root_seed_rejected(self, counting_scenario):
        manifest = self._reference(seed=3)
        with pytest.raises(ResumeError, match="root seed"):
            run_scenario("temp-resume", seed=4, resume=manifest)

    def test_mismatched_params_rejected(self, counting_scenario):
        manifest = self._reference()
        manifest.params["n"] = 99
        with pytest.raises(ResumeError, match="parameters do not match"):
            run_scenario("temp-resume", seed=3, resume=manifest)

    def test_corrupted_child_seed_rejected(self, counting_scenario):
        manifest = self._reference()
        manifest.rows[1]["seed"] = 12345
        with pytest.raises(ResumeError, match="child seed"):
            run_scenario("temp-resume", seed=3, resume=manifest)

    def test_missing_row_keys_rejected(self, counting_scenario):
        manifest = self._reference()
        del manifest.rows[0]["trial"]
        with pytest.raises(ResumeError, match="missing"):
            run_scenario("temp-resume", seed=3, resume=manifest)

    def test_out_of_range_trial_rejected(self, counting_scenario):
        manifest = self._reference()
        manifest.rows[0]["trial"] = 77
        with pytest.raises(ResumeError, match="trial index"):
            run_scenario("temp-resume", seed=3, resume=manifest)

    def test_duplicate_trial_rejected(self, counting_scenario):
        manifest = self._reference()
        manifest.rows[1] = dict(manifest.rows[0])
        with pytest.raises(ResumeError, match="twice"):
            run_scenario("temp-resume", seed=3, resume=manifest)

    def test_match_resume_rows_returns_indexed_rows(self, counting_scenario):
        manifest = self._reference()
        manifest.rows = manifest.rows[2:4]
        cached = match_resume_rows(
            counting_scenario,
            _build_trials({"n": 6}),
            3,
            {"n": 6},
            manifest,
        )
        assert sorted(cached) == [2, 3]
        assert cached[2]["seed"] == derive_trial_seed(3, "temp-resume", 2)
        # Key order normalised to the executor layout.
        assert list(cached[2])[:2] == ["trial", "seed"]


class TestResumeCli:
    def test_cli_resume_reproduces_serial_rows(self, tmp_path):
        """CLI-level acceptance check on a real (registered) scenario."""
        from repro.runner.cli import main

        ref_path = tmp_path / "ref.json"
        overrides = [
            "--set", "trials=1", "--set", "size_ratios=0.5", "--set",
            "limit_fractions=0.25,0.5", "--set", "n_files=8",
        ]
        assert (
            main(
                ["run", "segmentation", "--quiet", "--seed", "11", "--workers", "1",
                 "--out", str(ref_path)] + overrides
            )
            == 0
        )
        reference = json.loads(ref_path.read_text())
        partial_path = tmp_path / "partial.json"
        partial = dict(reference)
        partial["rows"] = reference["rows"][:1]
        partial["trial_count"] = 1
        partial_path.write_text(json.dumps(partial))

        out_path = tmp_path / "resumed.json"
        assert (
            main(
                ["run", "segmentation", "--quiet", "--seed", "11", "--workers", "2",
                 "--resume", str(partial_path), "--out", str(out_path)] + overrides
            )
            == 0
        )
        assert json.loads(out_path.read_text())["rows"] == reference["rows"]

    def test_cli_resume_missing_manifest_is_an_error(self, tmp_path, capsys):
        from repro.runner.cli import main

        code = main(
            ["run", "segmentation", "--quiet", "--set", "trials=1",
             "--set", "size_ratios=0.5", "--set", "limit_fractions=0.25",
             "--resume", str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "cannot load resume manifest" in capsys.readouterr().err

    def test_cli_resume_mismatch_is_an_error(self, tmp_path, capsys):
        from repro.runner.cli import main

        ref_path = tmp_path / "ref.json"
        assert (
            main(
                ["run", "segmentation", "--quiet", "--seed", "1", "--set", "trials=1",
                 "--set", "size_ratios=0.5", "--set", "limit_fractions=0.25",
                 "--set", "n_files=6", "--out", str(ref_path)]
            )
            == 0
        )
        code = main(
            ["run", "segmentation", "--quiet", "--seed", "2", "--set", "trials=1",
             "--set", "size_ratios=0.5", "--set", "limit_fractions=0.25",
             "--set", "n_files=6", "--resume", str(ref_path)]
        )
        assert code == 2
        assert "root seed" in capsys.readouterr().err

    @pytest.mark.usefixtures("campaign_scenarios")
    def test_cli_resume_with_an_edited_row_value_is_an_error(self, tmp_path, capsys):
        """The row's provenance checks out, but its value no longer
        aggregates: a refusal, not a traceback from the aggregator."""
        from repro.runner.cli import main

        argv = ["run", "camp-alpha", "--quiet", "--seed", "4"]
        ref_path = tmp_path / "ref.json"
        assert main(argv + ["--out", str(ref_path)]) == 0
        edited = json.loads(ref_path.read_text())
        edited["rows"][0]["value"] = [1]
        ref_path.write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(argv + ["--resume", str(ref_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resume manifest rows do not aggregate"), err
