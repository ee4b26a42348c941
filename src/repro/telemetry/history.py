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
    """Entries in file (= recording) order; malformed lines -- a value that
    is not a finite number among them -- are skipped."""
    target = Path(path)
    if not target.exists():
        return []
    entries: List[Dict[str, Any]] = []
    for line in target.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if not isinstance(entry, dict):
            continue
        value = entry.get("value")
        if (
            isinstance(entry.get("bench"), str)
            and isinstance(entry.get("series"), str)
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        ):
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

    Recognises every artifact the repo produces:

    * ``BENCH_kernels.json`` (``benchmarks/bench_kernels.py``): one
      entry per (kernel, backend) wall;
    * ``BENCH_telemetry.json`` (``benchmarks/bench_telemetry.py``):
      traced/untraced walls plus the overhead percentage;
    * ``BENCH_protocol.json``
      (``benchmarks/test_bench_protocol_columnar.py``): per-engine File
      Add and proof-round walls, normalised to seconds per 1000 files;
    * a plain run manifest (``repro bench/run ... --out``): the run's
      ``duration_seconds``.

    Raises :class:`ValueError` for anything else -- a typo'd path must
    not silently record nothing.
    """
    kwargs = {"version": version, "source": source}

    if data.get("kind") == "protocol_columnar_bench":
        # ``benchmarks/test_bench_protocol_columnar.py``: File Add
        # throughput and proof-round wall (healthy, and after 2 % of the
        # sectors crashed) per engine.  Walls are
        # normalised to seconds per 1000 files so the columnar full run
        # and the object capped slice land on comparable scales.
        deployment = {
            "providers": data.get("providers"),
            "k": data.get("k"),
            "add_batch": data.get("add_batch"),
        }
        entries = []
        for engine in ("columnar", "object"):
            row = data.get(engine) or {}
            shape = dict(deployment, files=row.get("files"))
            for bench, field in (
                ("protocol.file_add", "add_wall_s"),
                ("protocol.proof_round", "proof_wall_s"),
                ("protocol.degraded_round", "degraded_wall_s"),
            ):
                files = row.get("files") or 0
                if field in row and files:
                    entries.append(
                        make_entry(
                            bench,
                            1000.0 * float(row[field]) / float(files),
                            unit="s/kfile",
                            shape=shape,
                            backend=engine,
                            **kwargs,
                        )
                    )
        if not entries:
            raise ValueError(
                "protocol_columnar_bench artifact carries no engine walls"
            )
        return entries

    results = data.get("results")
    if isinstance(results, Mapping) and all(
        isinstance(row, Mapping) and "vectorized_seconds" in row
        for row in results.values()
    ):
        shapes = data.get("shapes") or {}
        entries = []
        for kernel in sorted(results):
            row = results[kernel]
            shape = shapes.get(kernel)
            for backend, field in (
                ("reference", "reference_seconds"),
                ("vectorized", "vectorized_seconds"),
            ):
                if field not in row:  # a shape beyond the oracle's reach
                    continue
                entries.append(
                    make_entry(
                        f"kernel.{kernel}",
                        float(row[field]),
                        shape=shape,
                        backend=backend,
                        **kwargs,
                    )
                )
        return entries

    if "untraced_wall_s" in data and "traced_wall_s" in data:
        shape = {
            "scenario": data.get("scenario"),
            "params": data.get("params") or {},
            "seed": data.get("seed"),
        }
        return [
            make_entry(
                "telemetry.untraced",
                float(data["untraced_wall_s"]),
                shape=shape,
                **kwargs,
            ),
            make_entry(
                "telemetry.traced",
                float(data["traced_wall_s"]),
                shape=shape,
                **kwargs,
            ),
        ]

    if "scenario" in data and "duration_seconds" in data:
        params = data.get("params") or {}
        backend = params.get("backend") if isinstance(params, Mapping) else None
        shape = {
            "params": dict(params) if isinstance(params, Mapping) else params,
            "seed": data.get("seed"),
        }
        return [
            make_entry(
                f"run.{data['scenario']}",
                float(data["duration_seconds"]),
                shape=shape,
                backend=backend if isinstance(backend, str) else None,
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
