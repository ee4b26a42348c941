"""Manifest comparison: ``repro diff`` over two saved runs.

Two runs of the same scenario differ in three ways worth reporting:

* **provenance** -- scenario name, root seed, code version, worker count
  and trial count (whether the runs are even comparable);
* **parameters** -- the fully-resolved parameter dictionaries;
* **metrics** -- per-group deltas of every numeric summary statistic, with
  a 95%-confidence-interval overlap verdict wherever both runs carry
  ``<metric>_mean`` / ``<metric>_ci95`` columns (the aggregators in
  :mod:`repro.runner.aggregate` always emit both).

Runs without a summary (scenarios registered with no aggregator) fall back
to aggregating their per-trial rows on the fly, so ``repro diff`` works on
any pair of manifests.  All functions operate on loaded
:class:`~repro.runner.results.RunManifest` objects; the CLI wires them to
JSON paths.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.aggregate import StreamingAggregator
from repro.runner.results import RunManifest, jsonify

__all__ = ["diff_manifests", "format_diff", "straggler_rows", "summary_rows"]

#: A trial is a straggler when its wall time exceeds this multiple of the
#: run's median trial wall time (and the excess is not measurement noise).
STRAGGLER_FACTOR = 3.0

#: Statistic suffixes produced by :func:`repro.runner.aggregate.summarize`.
_STAT_SUFFIXES = ("_n", "_mean", "_stddev", "_ci95", "_min", "_max")

#: Row keys injected by the executor, not scenario metrics.
_ROW_BOOKKEEPING = ("trial", "seed", "root_seed")


def _is_stat_column(name: str) -> bool:
    return any(name.endswith(suffix) for suffix in _STAT_SUFFIXES)


def _numeric(value: object) -> Optional[float]:
    """The value as a float if it is a plain number (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def summary_rows(manifest: RunManifest) -> List[Dict[str, object]]:
    """The manifest's summary, or a synthesised one from per-trial rows.

    Scenarios registered without an aggregator still get a usable summary:
    every numeric per-trial column is reduced to the standard statistics.
    Shared by ``repro diff`` and the campaign report.
    """
    if manifest.summary:
        return [dict(row) for row in manifest.summary]
    aggregators: Dict[str, StreamingAggregator] = {}
    for row in manifest.rows:
        for key, value in row.items():
            if key in _ROW_BOOKKEEPING:
                continue
            number = _numeric(value)
            if number is None:
                continue
            aggregators.setdefault(key, StreamingAggregator()).push(number)
    synthesised: Dict[str, object] = {}
    for key in sorted(aggregators):
        synthesised.update(aggregators[key].as_row(prefix=key))
    return [synthesised] if synthesised else []


def straggler_rows(
    manifest: RunManifest, factor: float = STRAGGLER_FACTOR
) -> List[Dict[str, object]]:
    """Trials whose wall time is pathological for their run.

    Reads the manifest's ``trial_stats`` (per-trial wall time and worker
    pid, recorded by the executor since manifest format 1 grew the field;
    older manifests simply yield no rows).  A trial is flagged when its
    wall exceeds ``factor`` times the run's median trial wall *and* the
    excess is above scheduling noise (1 ms) -- the signature of a stuck
    worker or a pathological parameter cell rather than jitter.
    """
    walls: List[Tuple[int, float, object]] = []
    for stat in manifest.trial_stats:
        wall = _numeric(stat.get("wall_seconds"))
        trial = stat.get("trial")
        if wall is not None and isinstance(trial, int):
            walls.append((trial, wall, stat.get("pid", "")))
    if not walls:
        return []
    ordered = sorted(wall for _, wall, _ in walls)
    median = ordered[len(ordered) // 2]
    flagged: List[Dict[str, object]] = []
    for trial, wall, pid in walls:
        if wall > factor * median and wall - median > 1e-3:
            flagged.append(
                {
                    "trial": trial,
                    "pid": pid,
                    "wall_seconds": round(wall, 6),
                    "x_median": round(wall / median, 1) if median > 0 else float("inf"),
                }
            )
    return flagged


def _leading_keys(row: Mapping[str, object]) -> List[str]:
    keys: List[str] = []
    for key in row:
        if _is_stat_column(key):
            break
        keys.append(key)
    return keys


def _group_columns(rows_a, rows_b) -> List[str]:
    """Group-key columns shared by both summaries.

    ``summarize`` emits group keys first and statistic columns after, so
    only the *leading* non-statistic columns are keys -- trailing derived
    columns (e.g. a per-group pass/fail flag an aggregator appends) must
    not join the match key, or any group whose flag flipped between runs
    would silently vanish from the delta table.
    """
    if not rows_a or not rows_b:
        return []
    leading_b = set(_leading_keys(rows_b[0]))
    return [key for key in _leading_keys(rows_a[0]) if key in leading_b]


def _metric_stems(rows) -> set:
    """Metric names carrying a ``_mean`` column in a summary."""
    if not rows:
        return set()
    return {key[: -len("_mean")] for key in rows[0] if key.endswith("_mean")}


def diff_manifests(
    a: RunManifest,
    b: RunManifest,
    metrics: Optional[Sequence[str]] = None,
    straggler_factor: float = STRAGGLER_FACTOR,
) -> Dict[str, object]:
    """Structured comparison of two run manifests.

    Returns a dictionary with ``provenance`` / ``params`` / ``metrics``
    row lists (ready for :func:`~repro.runner.aggregate.format_table`),
    plus ``comparable`` (same scenario) and ``rows_identical`` flags.
    ``metrics`` restricts the metric table to the named stems;
    ``straggler_factor`` sets the wall-vs-median multiple above which a
    trial is flagged (``repro diff --straggler-factor``, default 3).
    """
    if straggler_factor <= 0:
        raise ValueError("straggler_factor must be positive")
    provenance: List[Dict[str, object]] = []
    for field in ("scenario", "seed", "version", "workers", "trial_count", "format"):
        value_a = getattr(a, field)
        value_b = getattr(b, field)
        provenance.append(
            {"field": field, "a": value_a, "b": value_b, "same": value_a == value_b}
        )

    params_a = jsonify(a.params)
    params_b = jsonify(b.params)
    params: List[Dict[str, object]] = []
    for key in sorted(set(params_a) | set(params_b)):
        value_a = params_a.get(key, "<absent>")
        value_b = params_b.get(key, "<absent>")
        if value_a != value_b:
            params.append({"param": key, "a": value_a, "b": value_b})

    rows_a = summary_rows(a)
    rows_b = summary_rows(b)
    group_columns = _group_columns(rows_a, rows_b)
    stems_a = _metric_stems(rows_a)
    stems_b = _metric_stems(rows_b)
    stems = sorted(stems_a & stems_b)
    only_a = sorted(stems_a - stems_b)
    only_b = sorted(stems_b - stems_a)
    missing = []
    if metrics:
        # A --metrics filter scopes the whole comparison, including the
        # mismatch check: metrics the user deliberately excluded must not
        # fail the diff.  But a requested metric that exists in *neither*
        # manifest is almost certainly a typo'd CI gate, not a vacuous
        # pass.
        requested = set(metrics)
        stems = [stem for stem in stems if stem in requested]
        only_a = [stem for stem in only_a if stem in requested]
        only_b = [stem for stem in only_b if stem in requested]
        missing = sorted(requested - stems_a - stems_b)

    def group_key(row: Mapping[str, object]) -> str:
        # JSON text, so a list-valued key column (a tuple parameter) matches too.
        return json.dumps([row.get(column) for column in group_columns], default=str)

    indexed_b = {group_key(row): row for row in rows_b}
    metric_rows: List[Dict[str, object]] = []
    for row_a in rows_a:
        row_b = indexed_b.get(group_key(row_a))
        if row_b is None:
            continue
        for stem in stems:
            mean_a = _numeric(row_a.get(f"{stem}_mean"))
            mean_b = _numeric(row_b.get(f"{stem}_mean"))
            if mean_a is None or mean_b is None:
                continue
            entry: Dict[str, object] = {column: row_a.get(column) for column in group_columns}
            entry["metric"] = stem
            entry["a_mean"] = round(mean_a, 6)
            entry["b_mean"] = round(mean_b, 6)
            entry["delta"] = round(mean_b - mean_a, 6)
            entry["delta_pct"] = (
                round(100.0 * (mean_b - mean_a) / abs(mean_a), 2) if mean_a else ""
            )
            ci_a = _numeric(row_a.get(f"{stem}_ci95"))
            ci_b = _numeric(row_b.get(f"{stem}_ci95"))
            if ci_a is not None and ci_b is not None:
                # Intervals [mean +/- ci] overlap <=> the means are within
                # the sum of the half-widths of each other.
                entry["ci_overlap"] = abs(mean_b - mean_a) <= ci_a + ci_b
            metric_rows.append(entry)

    return {
        "comparable": a.scenario == b.scenario,
        "rows_identical": a.trial_rows_equal(b),
        "provenance": provenance,
        "params": params,
        "metrics": metric_rows,
        # Pathological trial timings per manifest (informational only --
        # timing is observability, never part of the byte-identity
        # comparison or the exit code).
        "straggler_factor": straggler_factor,
        "stragglers_a": straggler_rows(a, factor=straggler_factor),
        "stragglers_b": straggler_rows(b, factor=straggler_factor),
        # Metrics present in exactly one manifest: a silent source of
        # misreadings (a delta table that *looks* complete but dropped a
        # metric).  Reported here and treated as a failure by the CLI.
        "metrics_only_a": only_a,
        "metrics_only_b": only_b,
        "metrics_missing": missing,
    }


def format_diff(diff: Mapping[str, object]) -> str:
    """Human-readable report for a :func:`diff_manifests` result."""
    from repro.runner.aggregate import format_table

    sections: List[str] = []
    if not diff["comparable"]:
        sections.append("WARNING: manifests are from different scenarios")
    sections.append("provenance")
    sections.append(format_table(diff["provenance"]))  # type: ignore[arg-type]
    if diff["params"]:
        sections.append("\nparameter differences")
        sections.append(format_table(diff["params"]))  # type: ignore[arg-type]
    else:
        sections.append("\nparameters: identical")
    if diff["metrics"]:
        sections.append("\nmetric deltas (b - a)")
        sections.append(format_table(diff["metrics"]))  # type: ignore[arg-type]
    else:
        sections.append("\nmetric deltas: none in common")
    missing = diff.get("metrics_missing") or []
    if missing:
        sections.append(
            "\nERROR: requested metrics exist in neither manifest "
            f"(typo in --metrics?): {', '.join(missing)}"
        )
    only_a = diff.get("metrics_only_a") or []
    only_b = diff.get("metrics_only_b") or []
    if only_a or only_b:
        sections.append(
            "\nERROR: metric sets differ -- these metrics exist in only one "
            "manifest and have no delta row above:"
        )
        if only_a:
            sections.append(f"  only in a: {', '.join(only_a)}")
        if only_b:
            sections.append(f"  only in b: {', '.join(only_b)}")
    factor = float(diff.get("straggler_factor", STRAGGLER_FACTOR))  # type: ignore[arg-type]
    for side in ("a", "b"):
        stragglers = diff.get(f"stragglers_{side}") or []
        if stragglers:
            sections.append(
                f"\nstraggler trials in {side} (> {factor:g}x the "
                "median trial wall; informational)"
            )
            sections.append(format_table(stragglers))  # type: ignore[arg-type]
    sections.append(
        "\nper-trial rows identical: " + ("yes" if diff["rows_identical"] else "no")
    )
    return "\n".join(sections)
