"""The committed perf ledger: ``BENCH_e2e.json``'s entry table, its
loader, the trajectory reader and the pair gate.

The ledger is a list of entries in PR order, one per side of a PR's
before/after pair: ``{"pr", "side": "parent" | "change", "ledger"}``,
where ``ledger`` is what ``benchmarks/e2e/run.py --out`` writes for that
side (both sides measured on one host) and every workload's end-to-end
metrics carry a ``median``.  An entry marked ``"backfilled": true`` holds
numbers copied from an older table instead of a fresh run; it reads in
the trajectory but is never gated.

``repro perf report [LEDGER]`` prints :func:`trajectory`: per workload and
end-to-end metric, the parent and change medians of every PR.  ``repro
perf check [LEDGER]`` runs :func:`gate` on the last measured pair against
the ``better`` / ``bound`` of each end-to-end metric in the
``BENCHMARK.json`` beside the ledger, and exits 1 when one is out of
bounds.  Both refuse a malformed ledger or ``BENCHMARK.json`` with a
:class:`ValueError` naming the field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.schema import INT, NON_EMPTY, NUMBER, OBJECT, STR, Field, Kind, list_of, load, map_of, table

__all__ = ["ENTRY", "load_ledger", "load_bounds", "trajectory", "gate"]

SIDES = ("parent", "change")
BETTER = ("higher", "lower")

_MEDIAN = table(Field("median", NUMBER.within("[0, inf)"), required=True))

#: One ledger entry: one side of one PR's pair.
ENTRY = table(
    Field("pr", INT.within("[1, inf)"), required=True),
    Field("side", STR, required=True),
    Field("backfilled", Kind("boolean", (bool,))),
    Field("ledger", table(
        Field("host", OBJECT.within(NON_EMPTY), required=True),
        Field("workloads", map_of(table(
            Field("end_to_end", map_of(_MEDIAN).within(NON_EMPTY), required=True),
        )).within(NON_EMPTY), required=True),
    ), required=True),
    closed=True,
)

#: What the gate reads of ``BENCHMARK.json``.
BENCHMARK = table(
    Field("end_to_end", list_of(table(
        Field("name", STR, required=True),
        Field("better", STR, required=True),
        Field("bound", NUMBER.within("[0, inf)"), required=True),
    )).within(NON_EMPTY), required=True),
)


def _read_json(path: Union[str, Path]) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read {path}: {error}") from None


def load_ledger(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The ledger's entries, each checked against :data:`ENTRY`."""
    entries = _read_json(path)
    if type(entries) is not list:
        raise ValueError(f"ledger {path} must be a list of entries, got {type(entries).__name__}")
    for index, entry in enumerate(entries):
        label = f"ledger entry [{index}]"
        load(ENTRY, entry, label)
        if entry["side"] not in SIDES:
            raise ValueError(f"{label} field 'side' must be one of {SIDES}, got {entry['side']!r}")
    return entries


def load_bounds(path: Union[str, Path]) -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of ``BENCHMARK.json``'s end-to-end metrics."""
    document = _read_json(path)
    load(BENCHMARK, document, str(path))
    bounds = {}
    for metric in document["end_to_end"]:
        if metric["better"] not in BETTER:
            raise ValueError(
                f"{path}: metric {metric['name']!r} better must be one of {BETTER}, "
                f"got {metric['better']!r}"
            )
        bounds[metric["name"]] = (metric["better"], metric["bound"])
    return bounds


def _medians(entry: Dict[str, Any]) -> Dict[Tuple[str, str], float]:
    return {
        (workload, metric): stats["median"]
        for workload, body in entry["ledger"]["workloads"].items()
        for metric, stats in body["end_to_end"].items()
    }


def _ratio(parent: Any, change: Any) -> str:
    return f"{change / parent:.3f}" if parent and change != "" else ""


def trajectory(entries: List[Dict[str, Any]]) -> List[Dict[str, object]]:
    """One row per workload, end-to-end metric and PR, in PR order: the
    parent and change medians and their ratio."""
    cells: Dict[Tuple[str, str, int], Dict[str, object]] = {}
    for entry in entries:
        for (workload, metric), median in _medians(entry).items():
            row = cells.setdefault((workload, metric, entry["pr"]), {
                "workload": workload, "metric": metric, "pr": entry["pr"],
                "parent": "", "change": "", "change/parent": "", "note": "",
            })
            row[entry["side"]] = median
            if entry.get("backfilled"):
                row["note"] = "backfilled"
    rows = [cells[key] for key in sorted(cells)]
    for row in rows:
        row["change/parent"] = _ratio(row["parent"], row["change"])
        row["parent"], row["change"] = (
            value if value == "" else f"{value:.6g}" for value in (row["parent"], row["change"])
        )
    return rows


def gate(
    entries: List[Dict[str, Any]], bounds: Dict[str, Tuple[str, float]]
) -> Tuple[int, List[Dict[str, object]]]:
    """The last measured (not back-filled) PR and one row per workload and
    gated metric of its pair; a row's ``verdict`` is ``"REGRESSED"`` when
    the change median is worse than the parent's by more than the bound."""
    measured = [entry for entry in entries if not entry.get("backfilled")]
    if not measured:
        raise ValueError("the ledger holds no measured pair to check")
    pr = max(entry["pr"] for entry in measured)
    sides = {entry["side"]: _medians(entry) for entry in measured if entry["pr"] == pr}
    if len(sides) != 2 or sum(entry["pr"] == pr for entry in measured) != 2:
        raise ValueError(f"PR {pr} needs exactly one parent and one change entry")
    workloads = sorted({workload for medians in sides.values() for workload, _ in medians})
    rows = []
    for workload in workloads:
        for metric, (better, bound) in bounds.items():
            key = (workload, metric)
            if key not in sides["parent"] or key not in sides["change"]:
                raise ValueError(f"PR {pr}: {workload} {metric} lacks a parent or change median")
            parent, change = sides["parent"][key], sides["change"][key]
            worse = change < parent * (1 - bound) if better == "higher" else change > parent * (1 + bound)
            rows.append({
                "workload": workload, "metric": metric, "better": better, "bound": bound,
                "parent": f"{parent:.6g}", "change": f"{change:.6g}",
                "change/parent": _ratio(parent, change),
                "verdict": "REGRESSED" if worse else "ok",
            })
    return pr, rows
