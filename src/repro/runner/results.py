"""Run-manifest persistence: cacheable, diffable experiment runs.

A :class:`RunManifest` records everything needed to reproduce or compare
a run: the scenario name, fully-resolved parameters, root seed, worker
count, a git-describable code version, and the per-trial rows plus
aggregated summary.  Manifests serialise to stable, sorted-key JSON so
two runs can be diffed with standard text tools; because trial rows are
deterministic in the root seed, re-running a manifest's scenario with its
recorded seed reproduces its rows byte-for-byte regardless of the worker
count used.
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.schema import INT, NUMBER, OBJECT, STR, Field, list_of, load, table
from repro.telemetry import metrics, summary

__all__ = ["RunManifest", "MANIFEST", "jsonify", "repo_version"]

MANIFEST_FORMAT = 1

#: A run manifest's fields (``docs/manifests.md`` documents each).
MANIFEST = table(
    Field("scenario", STR, required=True),
    Field("params", OBJECT, required=True),
    *(Field(key, INT, required=True) for key in ("seed", "workers")),
    Field("trial_count", INT),
    Field("duration_seconds", NUMBER),
    *(Field(key, list_of(OBJECT)) for key in ("rows", "summary")),
    Field("version", STR),
    Field("created_unix", NUMBER),
    Field("format", INT),
    Field("trial_stats", list_of(OBJECT)),
    Field("telemetry", summary.SUMMARY.or_null()),
    Field("metrics", metrics.SUMMARY.or_null()),
)


def jsonify(value: Any) -> Any:
    """Recursively convert a value into plain JSON-serialisable types.

    Handles numpy scalars/arrays (via their ``item``/``tolist`` protocols),
    tuples and sets (as lists), and mappings (keys stringified).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(item) for item in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return jsonify(value.item())  # numpy scalar
    if hasattr(value, "tolist"):
        return jsonify(value.tolist())  # numpy array
    return str(value)


@functools.lru_cache(maxsize=None)
def repo_version() -> str:
    """A git-describable version string for the manifest.

    Prefers ``git describe --always --dirty``; falls back to the package
    version when the repository metadata is unavailable (e.g. an installed
    wheel).  Asked of git once per process: every manifest defaults its
    ``version`` to this, and a spawn per manifest is most of a small
    campaign cell's cost.
    """
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
        if described.returncode == 0 and described.stdout.strip():
            return described.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import repro

    return f"repro-{repro.__version__}"


@dataclass
class RunManifest:
    """One completed scenario run; :data:`MANIFEST` declares its JSON form."""

    scenario: str
    params: Dict[str, Any]
    seed: int
    workers: int
    trial_count: int
    duration_seconds: float
    rows: List[Dict[str, Any]] = field(default_factory=list)
    summary: List[Dict[str, Any]] = field(default_factory=list)
    version: str = field(default_factory=repo_version)
    created_unix: float = field(default_factory=time.time)
    format: int = MANIFEST_FORMAT
    #: Per-trial observability -- ``{"trial", "wall_seconds", "pid"}`` per
    #: executed trial -- so ``repro diff`` can flag stragglers.  Like
    #: ``duration_seconds``, excluded from every identity comparison.
    trial_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: Phase-breakdown summary of a telemetry-enabled run (see
    #: :mod:`repro.telemetry.summary`); ``None`` when tracing was off.
    #: Printed by ``repro trace <manifest>``; never part of identity.
    telemetry: Optional[Dict[str, Any]] = None
    #: Histogram/gauge summary of a metrics-enabled run (see
    #: :mod:`repro.telemetry.metrics`); ``None`` when ``--metrics`` was
    #: off.  Observability metadata like ``telemetry``: excluded from
    #: :meth:`trial_rows_equal` and every other identity comparison.
    metrics: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (already JSON-safe)."""
        return jsonify(asdict(self))

    def to_json(self) -> str:
        """Stable JSON text (sorted keys, two-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the manifest to ``path`` and return it."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest from its dictionary form.

        Raises :class:`ValueError` naming the field for *any* input that
        does not fit :data:`MANIFEST` -- a top-level array, a scalar
        ``rows``, a span without a numeric ``total_ms`` -- so callers need
        exactly one exception type to treat a manifest as unloadable.
        Keys the table does not declare are ignored.
        """
        fields = load(MANIFEST, data, "manifest")
        fields.setdefault("trial_count", len(fields.get("rows", ())))
        fields.setdefault("duration_seconds", 0.0)
        return cls(**fields)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest previously written with :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------
    def trial_rows_equal(self, other: "RunManifest") -> bool:
        """True when both runs produced identical per-trial rows.

        Worker count, duration and timestamps are intentionally excluded:
        a serial and a parallel run of the same (scenario, params, seed)
        must compare equal.
        """
        return (
            self.scenario == other.scenario
            and jsonify(self.params) == jsonify(other.params)
            and self.seed == other.seed
            and jsonify(self.rows) == jsonify(other.rows)
        )
