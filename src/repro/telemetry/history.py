"""Persistent perf history: an append-only JSONL store with trend gates.

``BENCH_*.json`` artifacts vanish with each CI run; this module gives
them a trajectory.  Every recorded measurement becomes one JSON line in
a history file (``runs/perf-history.jsonl`` by default, overridable via
``$REPRO_PERF_HISTORY`` or ``--history``), keyed the way the campaign
:class:`~repro.campaign.store.ResultStore` keys manifests: a content
hash over bench name + shape + backend + host fingerprint identifies a
*series*, while the code version rides along as per-entry provenance so
a series' trend spans commits.

``repro perf record <BENCH.json>`` appends a bench artifact's
measurements, ``repro perf report`` prints per-series trends against a
rolling-median baseline, and ``repro perf check --max-regression PCT``
exits non-zero when any series' latest entry regressed past the gate --
every recorded value is a lower-is-better cost (wall seconds, overhead
percent).

The JSONL format is deliberately forgiving on load: unreadable lines are
skipped, not fatal, so a half-written line from a crashed run never
bricks the history.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.schema import INT, NUMBER, OBJECT, STR, Field, load, map_of, table

__all__ = [
    "HISTORY_FORMAT",
    "HISTORY_ENV_VAR",
    "DEFAULT_HISTORY_PATH",
    "BASELINE_WINDOW",
    "default_history_path",
    "host_fingerprint",
    "series_key",
    "make_entry",
    "append_entries",
    "load_history",
    "entries_from_artifact",
    "ENTRY",
    "PROTOCOL_ARTIFACT", "KERNEL_ARTIFACT", "TELEMETRY_ARTIFACT", "RUN_ARTIFACT",
    "trend_rows",
    "regressions",
]

HISTORY_FORMAT = 1

#: Environment variable overriding the default history file location.
HISTORY_ENV_VAR = "REPRO_PERF_HISTORY"

#: Default location; ``runs/`` is gitignored, so local histories never
#: pollute the working tree.
DEFAULT_HISTORY_PATH = "runs/perf-history.jsonl"

#: A series' baseline is the median of its last this-many prior entries.
BASELINE_WINDOW = 5

#: One history line, as :func:`make_entry` writes it.
ENTRY = table(
    *(Field(key, STR, required=True) for key in ("bench", "series")),
    Field("value", NUMBER, required=True),
    *(Field(key, STR) for key in ("unit", "version", "host", "source")),
    Field("backend", STR.or_null()),
    Field("shape", OBJECT.or_null()),
    Field("format", INT),
    Field("recorded_unix", NUMBER),
)

#: The bench artifacts ``repro perf record`` understands, each told apart
#: by a key (see :func:`entries_from_artifact`).
_ARTIFACT = table(Field("kind", STR))
_WALLS = ("add", "proof", "degraded")
PROTOCOL_ARTIFACT = table(
    *(Field(key, INT) for key in ("providers", "k", "add_batch")),
    *(
        Field(engine, table(Field("files", INT), *(Field(f"{w}_wall_s", NUMBER) for w in _WALLS)))
        for engine in ("columnar", "object")
    ),
)
KERNEL_ARTIFACT = table(
    Field("shapes", map_of(OBJECT)),
    Field("results", map_of(table(
        Field("reference_seconds", NUMBER), Field("vectorized_seconds", NUMBER, required=True),
    )), required=True),
)
TELEMETRY_ARTIFACT = table(
    Field("scenario", STR), Field("params", OBJECT), Field("seed", INT),
    *(Field(f"{mode}_wall_s", NUMBER, required=True) for mode in ("untraced", "traced")),
)
RUN_ARTIFACT = table(
    Field("scenario", STR, required=True),
    Field("params", table(Field("backend", STR))),  # the series' backend, if the scenario has one
    Field("seed", INT),
    Field("duration_seconds", NUMBER, required=True),
    Field("version", STR),
)


def default_history_path() -> Path:
    """The history file path: ``$REPRO_PERF_HISTORY`` or the default."""
    return Path(os.environ.get(HISTORY_ENV_VAR) or DEFAULT_HISTORY_PATH)


def host_fingerprint() -> str:
    """A short stable fingerprint of this machine + interpreter.

    Wall-clock benches are only comparable on the same hardware and
    Python, so the fingerprint joins the series key: two hosts' entries
    for the same bench form two independent series.
    """
    blob = "|".join(
        (platform.node(), platform.machine(), platform.python_version())
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def series_key(
    bench: str,
    shape: Optional[Mapping[str, Any]],
    backend: Optional[str],
    host: str,
    unit: str = "s",
) -> str:
    """Content hash identifying one trend series (ResultStore idiom)."""
    canonical = json.dumps(
        {
            "bench": bench,
            "shape": shape if shape is None else dict(shape),
            "backend": backend,
            "host": host,
            "unit": unit,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def make_entry(
    bench: str,
    value: float,
    unit: str = "s",
    shape: Optional[Mapping[str, Any]] = None,
    backend: Optional[str] = None,
    version: Optional[str] = None,
    host: Optional[str] = None,
    recorded_unix: Optional[float] = None,
    source: Optional[str] = None,
) -> Dict[str, Any]:
    """One finished history entry, series key included.

    A value that is not a finite number is refused: a NaN or infinite
    wall never compares above a baseline, so its series could never
    regress.
    """
    if not math.isfinite(value):
        raise ValueError(f"bench {bench!r}: value must be a finite number, got {value!r}")
    if host is None:
        host = host_fingerprint()
    if version is None:
        from repro.runner.results import repo_version

        version = repo_version()
    entry: Dict[str, Any] = {
        "format": HISTORY_FORMAT,
        "bench": bench,
        "shape": None if shape is None else dict(shape),
        "backend": backend,
        "unit": unit,
        "value": float(value),
        "version": version,
        "host": host,
        "series": series_key(bench, shape, backend, host, unit=unit),
        "recorded_unix": time.time() if recorded_unix is None else recorded_unix,
    }
    if source is not None:
        entry["source"] = source
    return entry


def append_entries(
    path: Union[str, Path], entries: Iterable[Mapping[str, Any]]
) -> Path:
    """Append entries to the JSONL history (creating parents as needed)."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(dict(entry), sort_keys=True) + "\n")
    return target


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Entries in file (= recording) order; a line that is not JSON or
    that :data:`ENTRY` refuses -- a value that is not a finite number
    among them -- is skipped."""
    target = Path(path)
    if not target.exists():
        return []
    entries: List[Dict[str, Any]] = []
    for line in target.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            load(ENTRY, entry, "history line")
        except ValueError:
            continue
        entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# Artifact adapters
# ----------------------------------------------------------------------
def entries_from_artifact(
    data: Mapping[str, Any],
    version: Optional[str] = None,
    source: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Convert a known bench artifact into history entries.

    Recognises every artifact the repo produces by the key that tells it
    apart, and checks it against its table: ``BENCH_protocol.json``
    (``"kind": "protocol_columnar_bench"``, ``PROTOCOL_ARTIFACT``),
    ``BENCH_kernels.json`` (``results``), ``BENCH_telemetry.json``
    (``untraced_wall_s`` / ``traced_wall_s``) and a run manifest
    (``duration_seconds``).  Raises :class:`ValueError` naming the field
    for a malformed artifact, and for anything else -- a typo'd path must
    not silently record nothing.
    """
    kwargs = {"version": version, "source": source}
    load(_ARTIFACT, data, "bench artifact")
    if data.get("kind") == "protocol_columnar_bench":
        # Per engine, File Add and proof-round walls (healthy, and after 2 %
        # of the sectors crashed) in seconds per 1000 files, so the
        # columnar full run and the object capped slice compare.
        load(PROTOCOL_ARTIFACT, data, "bench artifact")
        deployment = {key: data.get(key) for key in ("providers", "k", "add_batch")}
        entries = []
        for engine in ("columnar", "object"):
            row = data.get(engine, {})
            files = row.get("files") or 0
            for bench, wall in zip(("file_add", "proof_round", "degraded_round"), _WALLS):
                if f"{wall}_wall_s" in row and files:
                    entries.append(
                        make_entry(
                            f"protocol.{bench}",
                            1000.0 * row[f"{wall}_wall_s"] / files,
                            unit="s/kfile",
                            shape=dict(deployment, files=files),
                            backend=engine,
                            **kwargs,
                        )
                    )
        if not entries:
            raise ValueError("protocol_columnar_bench artifact carries no engine walls")
        return entries
    if "results" in data:
        load(KERNEL_ARTIFACT, data, "bench artifact")
        return [
            make_entry(
                f"kernel.{kernel}",
                row[f"{backend}_seconds"],
                shape=data.get("shapes", {}).get(kernel),
                backend=backend,
                **kwargs,
            )
            for kernel, row in sorted(data["results"].items())
            for backend in ("reference", "vectorized")
            if f"{backend}_seconds" in row  # a shape beyond the oracle's reach has no reference
        ]
    if "untraced_wall_s" in data or "traced_wall_s" in data:
        load(TELEMETRY_ARTIFACT, data, "bench artifact")
        shape = {
            "scenario": data.get("scenario"),
            "params": data.get("params", {}),
            "seed": data.get("seed"),
        }
        return [
            make_entry(f"telemetry.{mode}", data[f"{mode}_wall_s"], shape=shape, **kwargs)
            for mode in ("untraced", "traced")
        ]
    if "duration_seconds" in data:
        load(RUN_ARTIFACT, data, "bench artifact")
        params = data.get("params", {})
        return [
            make_entry(
                f"run.{data['scenario']}",
                data["duration_seconds"],
                shape={"params": params, "seed": data.get("seed")},
                backend=params.get("backend"),
                version=version or data.get("version"),
                source=source,
            )
        ]
    raise ValueError(
        "unrecognised bench artifact: expected a kernel bench, a protocol "
        "bench, a telemetry bench, or a run manifest"
    )


# ----------------------------------------------------------------------
# Trends and gates
# ----------------------------------------------------------------------
def _grouped(entries: Iterable[Mapping[str, Any]]) -> Dict[str, List[Mapping[str, Any]]]:
    """Entries per series, preserving recording order."""
    groups: Dict[str, List[Mapping[str, Any]]] = {}
    for entry in entries:
        groups.setdefault(str(entry["series"]), []).append(entry)
    return groups


def trend_rows(
    entries: Iterable[Mapping[str, Any]], window: int = BASELINE_WINDOW
) -> List[Dict[str, object]]:
    """One row per series: latest value vs the rolling-median baseline.

    The baseline is the median of the up-to-``window`` entries *before*
    the latest; series with a single entry report an empty baseline.
    """
    rows: List[Dict[str, object]] = []
    for series in _grouped(entries).values():
        latest = series[-1]
        prior = [float(e["value"]) for e in series[:-1][-window:]]
        baseline = median(prior) if prior else None
        latest_value = float(latest["value"])
        delta_pct: object = ""
        if baseline is not None and baseline > 0:
            delta_pct = round(100.0 * (latest_value - baseline) / baseline, 2)
        rows.append(
            {
                "bench": latest.get("bench", ""),
                "backend": latest.get("backend") or "",
                "unit": latest.get("unit", "s"),
                "runs": len(series),
                "latest": round(latest_value, 6),
                "baseline": "" if baseline is None else round(baseline, 6),
                "delta_pct": delta_pct,
                "version": latest.get("version", ""),
            }
        )
    rows.sort(key=lambda row: (str(row["bench"]), str(row["backend"])))
    return rows


def regressions(
    entries: Iterable[Mapping[str, Any]],
    max_regression_pct: float,
    window: int = BASELINE_WINDOW,
) -> List[Dict[str, object]]:
    """Trend rows whose latest entry regressed beyond the gate.

    All recorded values are lower-is-better costs, so a regression is
    ``latest > baseline * (1 + pct/100)``.  Series without a baseline
    (fewer than two entries) can never regress.
    """
    flagged: List[Dict[str, object]] = []
    for row in trend_rows(entries, window=window):
        delta = row["delta_pct"]
        if isinstance(delta, (int, float)) and delta > max_regression_pct:
            flagged.append(row)
    return flagged
