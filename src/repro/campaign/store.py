"""Content-addressed store of completed cell runs.

Every completed cell's :class:`~repro.runner.results.RunManifest` is
filed under a *cache key*: the SHA-256 of the canonical JSON encoding of

``{"scenario": name, "params": <jsonify'd, sorted keys>, "seed": root
seed, "version": code version}``

so a campaign re-run recomputes nothing it has already paid for, and
*any* drift -- a parameter value, the seed, or the code version -- lands
on a different key and misses.  The default version token is
:func:`store_version`: ``git describe --always --dirty``, plus a digest
of the uncommitted diff when the tree is dirty, so editing code
invalidates exactly as committing does.  This is the same contract
``--resume`` applies per trial, promoted to whole cells.

Corrupted or foreign entries are never trusted and never fatal: an
unreadable manifest, or one whose recorded provenance does not match the
key that addressed it, is *quarantined* (renamed to
``<key>.json.quarantined``) and reported as a miss, so one damaged file
cannot poison a campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.runner.results import RunManifest, jsonify, repo_version

__all__ = ["ResultStore", "cache_key", "store_version"]


def store_version() -> str:
    """The default cache-invalidation token for a :class:`ResultStore`.

    ``git describe --always --dirty`` alone is too coarse for a cache: a
    tree that is *already* dirty keeps the same ``-dirty`` suffix through
    further edits, so stale cells would keep hitting.  When the tree is
    dirty, a digest of the uncommitted tracked changes (``git diff HEAD``)
    is appended, so editing code invalidates exactly as committing does.
    (Untracked files are not part of the token; commit or stage them to
    invalidate.)
    """
    version = repo_version()
    if version.endswith("-dirty"):
        try:
            diff = subprocess.run(
                ["git", "diff", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                timeout=10,
                check=False,
            )
            if diff.returncode == 0:
                version += "+" + hashlib.sha256(diff.stdout).hexdigest()[:8]
        except (OSError, subprocess.SubprocessError):
            pass
    return version


def cache_key(
    scenario: str, params: Mapping[str, object], seed: int, version: str
) -> str:
    """The content address of one cell run (64 hex chars).

    Parameters are canonicalized through :func:`jsonify` (tuples and
    lists encode identically, keys sort), so any two descriptions of the
    same cell -- spec file, CLI overrides, Python API -- agree on the key.
    """
    payload = json.dumps(
        {
            "scenario": scenario,
            "params": jsonify(params),
            "seed": seed,
            "version": version,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory of run manifests keyed by :func:`cache_key`.

    Layout: ``<root>/<key[:2]>/<key>.json`` (two-hex-char fan-out keeps
    directories small for big campaigns).
    """

    def __init__(self, root: Union[str, Path], version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else store_version()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def key_for(self, scenario: str, params: Mapping[str, object], seed: int) -> str:
        return cache_key(scenario, params, seed, self.version)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(
        self,
        scenario: str,
        params: Mapping[str, object],
        seed: int,
        quarantine: bool = True,
    ) -> Optional[RunManifest]:
        """The stored manifest for this cell, or ``None`` on a miss.

        A present-but-untrustworthy entry (unparseable, or provenance not
        matching the cell that addressed it) counts as a miss; with
        ``quarantine=True`` (the default) it is also renamed aside so the
        next write can refill the slot.  ``quarantine=False`` is the
        read-only probe used by ``repro campaign status``.
        """
        key = self.key_for(scenario, params, seed)
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            manifest = RunManifest.load(path)
        except (ValueError, OSError):
            # Bad JSON, or JSON the manifest table refuses: the entry cannot
            # be trusted, but the campaign must not crash.
            if quarantine:
                self._quarantine(path)
            return None
        if (
            manifest.scenario != scenario
            or manifest.seed != seed
            or jsonify(manifest.params) != jsonify(params)
        ):
            # A manifest filed under a key it does not match (hand-copied
            # store, hash truncation bug, ...).  The code version is NOT
            # re-checked here: the key already binds it, and the stored
            # manifest keeps its own truthful version string.
            if quarantine:
                self._quarantine(path)
            return None
        return manifest

    def __contains__(self, cell: Tuple[str, Mapping[str, object], int]) -> bool:
        scenario, params, seed = cell
        return self.get(scenario, params, seed, quarantine=False) is not None

    def entries(self) -> Iterator[Path]:
        """Paths of every (non-quarantined) stored manifest."""
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob("??/*.json")))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, manifest: RunManifest) -> Path:
        """File ``manifest`` under its cell's key; returns the path.

        The key is derived with *this store's* version token; the stored
        manifest keeps its own (truthful) version string, so a store
        pinned to an explicit token never rewrites what code actually
        produced the rows.
        """
        key = self.key_for(manifest.scenario, manifest.params, manifest.seed)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so a crash mid-write cannot leave a torn
        # manifest under a valid key.
        scratch = path.with_suffix(".json.tmp")
        scratch.write_text(manifest.to_json() + "\n", encoding="utf-8")
        os.replace(scratch, path)
        return path

    def _quarantine(self, path: Path) -> Path:
        aside = path.with_suffix(".json.quarantined")
        os.replace(path, aside)
        return aside

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counts of stored and quarantined entries."""
        if not self.root.is_dir():
            return {"stored": 0, "quarantined": 0}
        return {
            "stored": sum(1 for _ in self.root.glob("??/*.json")),
            "quarantined": sum(1 for _ in self.root.glob("??/*.json.quarantined")),
        }
