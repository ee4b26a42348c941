"""Per-run telemetry summaries: the ``telemetry.json`` artifact.

Reduces a raw event buffer to the phase breakdown people actually read:
per-span-name call counts and wall-time totals, per-counter totals, and
the set of processes that contributed.  The summary is embedded in the
run manifest (``RunManifest.telemetry``) so ``repro trace <manifest>``
can print it later without the full trace file, and written next to the
manifest as ``<run>.telemetry.json``.

Summaries are observability metadata, never identity: they are excluded
from every byte-identity comparison the runner makes (resume, diff,
cross-backend) exactly like ``duration_seconds``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Union

from repro.schema import INT, NUMBER, STR, Field, list_of, map_of, table

__all__ = [
    "SUMMARY_FORMAT",
    "SUMMARY",
    "summarize_events",
    "phase_table",
    "counter_table",
    "write_summary",
]

SUMMARY_FORMAT = 1

#: :func:`summarize_events`' result, a run manifest's ``telemetry`` field.
SUMMARY = table(
    Field("format", INT),
    Field("pids", list_of(INT)),
    Field("counters", map_of(NUMBER)),
    Field("spans", map_of(table(
        Field("category", STR), Field("count", INT),
        *(Field(stat, NUMBER) for stat in ("total_ms", "mean_ms", "max_ms")),
    ))),
)


def summarize_events(events: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate an event buffer into the ``telemetry.json`` structure."""
    spans: Dict[str, Dict[str, Any]] = {}
    counters: Dict[str, float] = {}
    pids: List[int] = []
    for event in events:
        pid = event.get("pid")
        if isinstance(pid, int) and pid not in pids:
            pids.append(pid)
        phase = event.get("ph")
        name = str(event.get("name"))
        if phase == "X":
            duration_ms = float(event.get("dur", 0.0)) / 1000.0
            entry = spans.setdefault(
                name,
                {
                    "category": str(event.get("cat", "app")),
                    "count": 0,
                    "total_ms": 0.0,
                    "max_ms": 0.0,
                },
            )
            entry["count"] += 1
            entry["total_ms"] += duration_ms
            entry["max_ms"] = max(entry["max_ms"], duration_ms)
        elif phase == "C":
            args = event.get("args") or {}
            value = args.get("value", 1)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counters[name] = counters.get(name, 0) + value
    for entry in spans.values():
        entry["total_ms"] = round(entry["total_ms"], 3)
        entry["max_ms"] = round(entry["max_ms"], 3)
        entry["mean_ms"] = round(entry["total_ms"] / max(1, entry["count"]), 3)
    return {
        "format": SUMMARY_FORMAT,
        "spans": spans,
        "counters": {name: counters[name] for name in sorted(counters)},
        "pids": sorted(pids),
    }


def phase_table(summary: Mapping[str, Any]) -> List[Dict[str, object]]:
    """The span breakdown as rows for ``format_table``, hottest first.

    Totals of *nested* spans overlap by design (a ``trial.run`` span
    contains its kernel spans), so the table is a where-does-time-go
    map, not a partition of the wall clock.
    """
    spans = summary.get("spans") or {}
    rows: List[Dict[str, object]] = []
    for name in sorted(spans, key=lambda key: -float(spans[key].get("total_ms", 0.0))):
        entry = spans[name]
        rows.append(
            {
                "span": name,
                "category": entry.get("category", "app"),
                "count": entry.get("count", 0),
                "total_ms": entry.get("total_ms", 0.0),
                "mean_ms": entry.get("mean_ms", 0.0),
                "max_ms": entry.get("max_ms", 0.0),
            }
        )
    return rows


def counter_table(summary: Mapping[str, Any]) -> List[Dict[str, object]]:
    """The counter totals as rows for ``format_table``."""
    counters = summary.get("counters") or {}
    return [{"counter": name, "total": counters[name]} for name in sorted(counters)]


def write_summary(path: Union[str, Path], summary: Mapping[str, Any]) -> Path:
    """Write a summary as stable JSON and return its path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(dict(summary), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target
