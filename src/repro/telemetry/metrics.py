"""Metrics: fixed-bucket histograms and gauge time-series.

Where :mod:`.core`'s spans answer "where did the wall clock go?", this
module answers "how did the system's *state* evolve over simulated
time?" -- replica counts, refresh lag, retrieval latency distributions,
files per lifecycle state, deposit totals.  Samples go to the
:data:`~repro.telemetry.core.METRICS` channel (see :mod:`.core` for the
recorder's design constraints), a buffer of its own rather than the span
buffer: samples carry simulated time, not ``perf_counter`` time, and
must not leak into ``--trace`` artifacts, whose loader validates event
phases strictly.

Every histogram shares one global power-of-two bucket table
(:data:`BUCKET_BOUNDS`), so two runs' histograms are mergeable
bucket-by-bucket without rebinning and a sample costs one ``bisect`` --
no per-histogram configuration to drift.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from repro.telemetry.core import METRICS

__all__ = [
    "METRICS_FORMAT",
    "BUCKET_BOUNDS",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "observe",
    "gauge",
    "capture",
    "extend",
    "samples",
    "drain",
    "bucket_index",
    "bucket_bounds",
    "summarize_metrics",
    "histogram_table",
    "series_table",
]

METRICS_FORMAT = 1

#: Shared histogram bucket upper bounds: powers of two from 2^-20
#: (~1 microsecond when the unit is seconds) to 2^20 (~12 days).  Bucket
#: ``i`` holds values in ``(BUCKET_BOUNDS[i-1], BUCKET_BOUNDS[i]]``;
#: bucket 0 is the underflow bucket (everything <= 2^-20, including 0)
#: and bucket ``len(BUCKET_BOUNDS)`` the overflow bucket.
BUCKET_BOUNDS: Tuple[float, ...] = tuple(float(2.0**k) for k in range(-20, 21))

_OVERFLOW_INDEX = len(BUCKET_BOUNDS)


enable = METRICS.enable
disable = METRICS.disable
is_enabled = METRICS.is_enabled
reset = METRICS.reset
capture = METRICS.capture
extend = METRICS.extend
samples = METRICS.pending
drain = METRICS.drain


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def observe(name: str, value: float, category: str = "app") -> None:
    """Record one histogram sample (a latency, a lag, a replica count)."""
    if not METRICS.enabled:
        return
    METRICS.buffer.append(
        {
            "kind": "hist",
            "name": name,
            "cat": category,
            "value": float(value),
            "pid": os.getpid(),
        }
    )


def gauge(name: str, t: float, value: float, category: str = "app") -> None:
    """Record one gauge sample: ``value`` at simulated time ``t``."""
    if not METRICS.enabled:
        return
    METRICS.buffer.append(
        {
            "kind": "gauge",
            "name": name,
            "cat": category,
            "t": float(t),
            "value": float(value),
            "pid": os.getpid(),
        }
    )


# ----------------------------------------------------------------------
# Bucket math
# ----------------------------------------------------------------------
def bucket_index(value: float) -> int:
    """The histogram bucket a value lands in (0 .. len(BUCKET_BOUNDS))."""
    if value <= BUCKET_BOUNDS[0]:
        return 0
    if value > BUCKET_BOUNDS[-1]:
        return _OVERFLOW_INDEX
    return bisect_left(BUCKET_BOUNDS, value)


def bucket_bounds(index: int) -> Tuple[float, float]:
    """The ``(low, high]`` value range of bucket ``index``."""
    if not 0 <= index <= _OVERFLOW_INDEX:
        raise ValueError(f"bucket index {index} out of range")
    if index == 0:
        return (0.0, BUCKET_BOUNDS[0])
    if index == _OVERFLOW_INDEX:
        return (BUCKET_BOUNDS[-1], float("inf"))
    return (BUCKET_BOUNDS[index - 1], BUCKET_BOUNDS[index])


def _bucket_quantile(
    buckets: Mapping[int, int], count: int, q: float, lo: float, hi: float
) -> float:
    """Estimate the q-quantile from bucket counts (geometric midpoints).

    The estimate is clamped to the observed ``[lo, hi]`` so a single-sample
    histogram reports its exact value rather than a bucket midpoint.
    """
    target = q * count
    cumulative = 0
    for index in sorted(buckets):
        cumulative += buckets[index]
        if cumulative >= target:
            low, high = bucket_bounds(index)
            if index == 0:
                estimate = low if lo > high else lo
            elif index == _OVERFLOW_INDEX:
                estimate = hi
            else:
                estimate = (low * high) ** 0.5
            return min(max(estimate, lo), hi)
    return hi


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarize_metrics(metric_samples: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Reduce a sample buffer to the manifest's ``metrics`` structure.

    Histograms keep sparse bucket counts plus exact count/sum/min/max and
    bucket-estimated p50/p99; gauge series aggregate per sampled time
    ``t`` (mean/min/max/n across contributing trials), so a multi-trial
    run's series merge into one trajectory instead of interleaving.
    Like the telemetry summary, the result is observability metadata,
    excluded from every byte-identity comparison the runner makes.
    """
    histograms: Dict[str, Dict[str, Any]] = {}
    hist_buckets: Dict[str, Dict[int, int]] = {}
    series: Dict[str, Dict[str, Any]] = {}
    series_points: Dict[str, Dict[float, List[float]]] = {}
    pids: List[int] = []
    for sample in metric_samples:
        pid = sample.get("pid")
        if isinstance(pid, int) and pid not in pids:
            pids.append(pid)
        kind = sample.get("kind")
        name = str(sample.get("name"))
        value = sample.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        value = float(value)
        if kind == "hist":
            entry = histograms.setdefault(
                name,
                {
                    "category": str(sample.get("cat", "app")),
                    "count": 0,
                    "sum": 0.0,
                    "min": value,
                    "max": value,
                },
            )
            entry["count"] += 1
            entry["sum"] += value
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)
            buckets = hist_buckets.setdefault(name, {})
            index = bucket_index(value)
            buckets[index] = buckets.get(index, 0) + 1
        elif kind == "gauge":
            t = sample.get("t")
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                continue
            series.setdefault(name, {"category": str(sample.get("cat", "app"))})
            series_points.setdefault(name, {}).setdefault(float(t), []).append(value)

    for name, entry in histograms.items():
        buckets = hist_buckets[name]
        count = entry["count"]
        entry["mean"] = round(entry["sum"] / max(1, count), 6)
        entry["sum"] = round(entry["sum"], 6)
        entry["min"] = round(entry["min"], 6)
        entry["max"] = round(entry["max"], 6)
        entry["p50"] = round(
            _bucket_quantile(buckets, count, 0.50, entry["min"], entry["max"]), 6
        )
        entry["p99"] = round(
            _bucket_quantile(buckets, count, 0.99, entry["min"], entry["max"]), 6
        )
        entry["buckets"] = {str(index): buckets[index] for index in sorted(buckets)}

    for name, entry in series.items():
        points = []
        for t in sorted(series_points[name]):
            values = series_points[name][t]
            points.append(
                {
                    "t": round(t, 6),
                    "mean": round(sum(values) / len(values), 6),
                    "min": round(min(values), 6),
                    "max": round(max(values), 6),
                    "n": len(values),
                }
            )
        entry["points"] = points

    return {
        "format": METRICS_FORMAT,
        "histograms": {name: histograms[name] for name in sorted(histograms)},
        "series": {name: series[name] for name in sorted(series)},
        "pids": sorted(pids),
    }


def histogram_table(summary: Mapping[str, Any]) -> List[Dict[str, object]]:
    """The histogram breakdown as rows for ``format_table``."""
    histograms = summary.get("histograms") or {}
    rows: List[Dict[str, object]] = []
    for name in sorted(histograms):
        entry = histograms[name]
        rows.append(
            {
                "histogram": name,
                "category": entry.get("category", "app"),
                "count": entry.get("count", 0),
                "mean": entry.get("mean", 0.0),
                "p50": entry.get("p50", 0.0),
                "p99": entry.get("p99", 0.0),
                "max": entry.get("max", 0.0),
            }
        )
    return rows


def series_table(summary: Mapping[str, Any]) -> List[Dict[str, object]]:
    """One row per gauge series: its range over simulated time."""
    series = summary.get("series") or {}
    rows: List[Dict[str, object]] = []
    for name in sorted(series):
        points = series[name].get("points") or []
        if not points:
            continue
        rows.append(
            {
                "gauge": name,
                "category": series[name].get("category", "app"),
                "points": len(points),
                "first": points[0]["mean"],
                "last": points[-1]["mean"],
                "min": min(point["min"] for point in points),
                "max": max(point["max"] for point in points),
            }
        )
    return rows
