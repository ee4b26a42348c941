"""ResultStore cache-key contract tests (hit/miss/quarantine)."""

from __future__ import annotations

import pytest

from repro.campaign.store import ResultStore, cache_key
from repro.runner.results import RunManifest

PARAMS = {"trials": 3, "scale": 1}


def _manifest(scenario="camp-alpha", params=None, seed=0, version="v1"):
    return RunManifest(
        scenario=scenario,
        params=dict(params if params is not None else PARAMS),
        seed=seed,
        workers=1,
        trial_count=1,
        duration_seconds=0.0,
        rows=[{"trial": 0, "seed": 123, "value": 1.0}],
        summary=[],
        version=version,
        created_unix=0.0,
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store", version="v1")


class TestCacheKey:
    def test_stable_for_identical_cells(self):
        assert cache_key("s", PARAMS, 0, "v1") == cache_key("s", dict(PARAMS), 0, "v1")

    def test_key_order_is_canonical(self):
        shuffled = {"scale": 1, "trials": 3}
        assert cache_key("s", PARAMS, 0, "v1") == cache_key("s", shuffled, 0, "v1")

    def test_tuples_and_lists_encode_identically(self):
        assert cache_key("s", {"axes": (1, 2)}, 0, "v1") == cache_key(
            "s", {"axes": [1, 2]}, 0, "v1"
        )

    @pytest.mark.parametrize(
        "other",
        [
            ("s", {"trials": 4, "scale": 1}, 0, "v1"),  # changed param value
            ("s", PARAMS, 1, "v1"),  # changed seed
            ("s", PARAMS, 0, "v2"),  # changed repo version
            ("t", PARAMS, 0, "v1"),  # changed scenario
        ],
    )
    def test_any_drift_changes_the_key(self, other):
        assert cache_key("s", PARAMS, 0, "v1") != cache_key(*other)


class TestStoreHitMiss:
    def test_identical_cell_hits(self, store):
        store.put(_manifest())
        hit = store.get("camp-alpha", PARAMS, 0)
        assert hit is not None
        assert hit.rows == [{"trial": 0, "seed": 123, "value": 1.0}]

    def test_changed_param_misses(self, store):
        store.put(_manifest())
        assert store.get("camp-alpha", {"trials": 4, "scale": 1}, 0) is None

    def test_changed_seed_misses(self, store):
        store.put(_manifest())
        assert store.get("camp-alpha", PARAMS, 1) is None

    def test_changed_version_misses(self, store, tmp_path):
        store.put(_manifest())
        newer = ResultStore(tmp_path / "store", version="v2")
        assert newer.get("camp-alpha", PARAMS, 0) is None

    def test_manifest_keeps_its_own_version_string(self, store):
        """The key binds the store's version token; the stored manifest's
        own version field stays truthful and is not re-checked on get."""
        store.put(_manifest(version="some-real-git-hash"))
        hit = store.get("camp-alpha", PARAMS, 0)
        assert hit is not None
        assert hit.version == "some-real-git-hash"

    def test_contains_probe(self, store):
        assert ("camp-alpha", PARAMS, 0) not in store
        store.put(_manifest())
        assert ("camp-alpha", PARAMS, 0) in store


class TestQuarantine:
    def _poison(self, store, text):
        store.put(_manifest())
        path = store.path_for(store.key_for("camp-alpha", PARAMS, 0))
        path.write_text(text)
        return path

    def test_corrupt_json_quarantined_not_crashed(self, store):
        path = self._poison(store, "{definitely not json")
        assert store.get("camp-alpha", PARAMS, 0) is None
        assert not path.exists()
        assert path.with_suffix(".json.quarantined").exists()
        assert store.stats() == {"stored": 0, "quarantined": 1}

    def test_wrong_shape_json_quarantined_not_crashed(self, store):
        """Valid JSON of the wrong shape (rows not a list) must be a
        quarantined miss, not a TypeError mid-campaign."""
        path = self._poison(
            store,
            '{"scenario": "camp-alpha", "params": {}, "seed": 0, '
            '"workers": 1, "rows": 5}',
        )
        assert store.get("camp-alpha", PARAMS, 0) is None
        assert path.with_suffix(".json.quarantined").exists()

    def test_json_array_quarantined_not_crashed(self, store):
        path = self._poison(store, "[1, 2, 3]")
        assert store.get("camp-alpha", PARAMS, 0) is None
        assert path.with_suffix(".json.quarantined").exists()

    def test_provenance_mismatch_quarantined(self, store):
        # A manifest for a *different* cell filed under this key (e.g. a
        # hand-copied store directory) must not be trusted.
        path = self._poison(store, _manifest(seed=9).to_json())
        assert store.get("camp-alpha", PARAMS, 0) is None
        assert path.with_suffix(".json.quarantined").exists()

    def test_readonly_probe_does_not_quarantine(self, store):
        path = self._poison(store, "{broken")
        assert store.get("camp-alpha", PARAMS, 0, quarantine=False) is None
        assert path.exists()

    def test_slot_refillable_after_quarantine(self, store):
        self._poison(store, "{broken")
        assert store.get("camp-alpha", PARAMS, 0) is None
        store.put(_manifest())
        assert store.get("camp-alpha", PARAMS, 0) is not None
        assert store.stats() == {"stored": 1, "quarantined": 1}


class TestStoreLayout:
    def test_two_char_fanout(self, store):
        path = store.put(_manifest())
        key = store.key_for("camp-alpha", PARAMS, 0)
        assert path == store.root / key[:2] / f"{key}.json"

    def test_entries_lists_stored_manifests(self, store):
        assert list(store.entries()) == []
        path = store.put(_manifest())
        assert list(store.entries()) == [path]

    def test_stored_bytes_equal_a_saved_manifest(self, store, tmp_path):
        manifest = _manifest()
        path = store.put(manifest)
        saved = manifest.save(tmp_path / "saved.json")
        assert path.read_bytes() == saved.read_bytes()
        # The write-then-rename leaves no scratch file beside the entry.
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_default_version_extends_repo_version(self, tmp_path):
        from repro.campaign.store import store_version
        from repro.runner.results import repo_version

        version = ResultStore(tmp_path).version
        assert version == store_version()
        base = repo_version()
        if base.endswith("-dirty"):
            # Dirty trees get a digest of the uncommitted diff appended,
            # so further edits invalidate the cache.
            assert version.startswith(base + "+")
            assert len(version) == len(base) + 9
        else:
            assert version == base
