"""Run-manifest tests: JSON round-trip, sanitisation, comparison."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.runner.results import MANIFEST, RunManifest, jsonify, repo_version


def _manifest(**kwargs) -> RunManifest:
    defaults = dict(
        scenario="demo",
        params={"n": 3, "grid": (1, 2)},
        seed=7,
        workers=2,
        trial_count=2,
        duration_seconds=0.5,
        rows=[{"trial": 0, "seed": 11, "x": 1.5}, {"trial": 1, "seed": 12, "x": 2.5}],
        summary=[{"x_mean": 2.0}],
    )
    defaults.update(kwargs)
    return RunManifest(**defaults)


class TestJsonify:
    def test_numpy_scalars_and_arrays(self):
        data = {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "b": np.bool_(True),
            "a": np.array([1, 2, 3]),
        }
        clean = jsonify(data)
        assert clean == {"i": 3, "f": 0.5, "b": True, "a": [1, 2, 3]}
        json.dumps(clean)  # must be serialisable

    def test_tuples_and_sets_become_lists(self):
        assert jsonify((1, 2)) == [1, 2]
        assert jsonify({"key": frozenset([3])}) == {"key": [3]}

    def test_unknown_objects_stringified(self):
        class Weird:
            def __repr__(self):
                return "<weird>"

        assert jsonify(Weird()) == "<weird>"


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        manifest = _manifest()
        path = manifest.save(tmp_path / "runs" / "demo.json")
        assert path.exists()
        loaded = RunManifest.load(path)
        assert loaded.scenario == manifest.scenario
        assert loaded.seed == manifest.seed
        assert loaded.workers == manifest.workers
        assert loaded.rows == jsonify(manifest.rows)
        assert loaded.summary == jsonify(manifest.summary)
        assert loaded.version == manifest.version
        assert loaded.trial_rows_equal(manifest)

    def test_json_is_stable_and_diffable(self):
        manifest = _manifest()
        assert manifest.to_json() == manifest.to_json()
        parsed = json.loads(manifest.to_json())
        assert parsed["scenario"] == "demo"
        assert parsed["params"]["grid"] == [1, 2]

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ValueError, match="missing required fields"):
            RunManifest.from_dict({"scenario": "x"})

    def test_from_dict_defaults_trial_count(self):
        manifest = RunManifest.from_dict(
            {"scenario": "x", "params": {}, "seed": 0, "workers": 1, "rows": [{}, {}]}
        )
        assert manifest.trial_count == 2

    def test_from_dict_ignores_unknown_keys(self):
        manifest = RunManifest.from_dict(
            {"scenario": "x", "params": {}, "seed": 0, "workers": 1, "extra": "ignored"}
        )
        assert manifest.scenario == "x"


class TestComparison:
    def test_worker_count_and_timing_ignored(self):
        serial = _manifest(workers=1, duration_seconds=9.0, created_unix=1.0)
        parallel = _manifest(workers=8, duration_seconds=1.0, created_unix=2.0)
        assert serial.trial_rows_equal(parallel)

    def test_differing_rows_detected(self):
        changed = _manifest(rows=[{"trial": 0, "seed": 11, "x": 99.0}])
        assert not _manifest().trial_rows_equal(changed)

    def test_differing_seed_detected(self):
        assert not _manifest().trial_rows_equal(_manifest(seed=8))


def test_repo_version_is_nonempty_string():
    version = repo_version()
    assert isinstance(version, str) and version


def test_manifests_ask_git_for_the_version_once(monkeypatch):
    import subprocess

    real_run, calls = subprocess.run, []

    def counting_run(*args, **kwargs):
        calls.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    repo_version.cache_clear()
    versions = {_manifest().version for _ in range(5)}
    assert versions == {repo_version()}
    assert len(calls) == 1


def test_docs_schema_table_is_the_declared_manifest_table():
    """``docs/manifests.md``'s field column, the manifest's field table and
    the dataclass name the same fields, in the same order."""
    text = (Path(__file__).parents[1] / "docs" / "manifests.md").read_text(encoding="utf-8")
    documented = re.findall(r"^\| `(\w+)` +\|", text, flags=re.MULTILINE)
    declared = [field.name for field in MANIFEST.fields]
    assert sorted(documented) == sorted(declared)
    assert declared == [field.name for field in dataclasses.fields(RunManifest)]
