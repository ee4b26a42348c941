"""Metric collection for simulations and experiments.

A tiny, dependency-free metrics layer: a named time series of numeric
samples with summary statistics, plus a table formatter the experiment
drivers use to print paper-style rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Sequence, Tuple

__all__ = ["MetricSeries", "format_table", "linear_percentile"]


def linear_percentile(values: Iterable[float], q: float) -> float:
    """q-th percentile with linear interpolation (numpy's default method).

    The rank ``q/100 * (n - 1)`` is split into an integer part and a
    fraction; the result interpolates between the two bracketing order
    statistics -- exactly ``numpy.percentile(values, q)``.  The existing
    :meth:`MetricSeries.percentile` keeps its nearest-rank definition;
    latency p50/p99 rows use this one so they can be checked against the
    numpy oracle.  Returns 0.0 for an empty stream.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lower = math.floor(rank)
    fraction = rank - lower
    if lower + 1 >= len(ordered):
        return ordered[-1]
    return ordered[lower] * (1.0 - fraction) + ordered[lower + 1] * fraction


@dataclass
class MetricSeries:
    """A named series of ``(time, value)`` samples."""

    name: str
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        """Append one sample."""
        self.samples.append((time, float(value)))

    def values(self) -> List[float]:
        """All sample values in recording order."""
        return [value for _, value in self.samples]

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Number of samples."""
        return len(self.samples)

    def mean(self) -> float:
        """Arithmetic mean (0.0 for an empty series)."""
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0 <= q <= 100) using nearest-rank."""
        if not 0 <= q <= 100:
            raise ValueError("q must lie in [0, 100]")
        values = sorted(self.values())
        if not values:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(values)))
        return values[rank - 1]


def format_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Format dictionaries as a fixed-width text table (paper-style output).

    The columns are the first row's keys.
    """
    if not rows:
        return "(no rows)"
    chosen = list(rows[0].keys())
    widths = {column: len(str(column)) for column in chosen}
    for row in rows:
        for column in chosen:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    header = "  ".join(str(column).ljust(widths[column]) for column in chosen)
    separator = "  ".join("-" * widths[column] for column in chosen)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in chosen)
        )
    return "\n".join(lines)
