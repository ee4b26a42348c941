"""Streaming aggregation shared by scenario aggregators and reports.

:class:`StreamingAggregator` keeps Welford-style running moments so
aggregation is single-pass and constant-memory -- trial rows can be folded
in as they arrive without holding the whole run in memory.  ``summarize``
groups rows by key columns and reduces chosen value columns to
mean/stddev/95% confidence intervals.  Table rendering is shared with
:func:`repro.sim.metrics.format_table` so runner reports look exactly like
the paper-style tables the experiment drivers already print.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.sim.metrics import format_table

__all__ = ["StreamingAggregator", "summarize", "compact_summary", "format_table"]

#: Two-sided 95% normal quantile used for the confidence half-width.
_Z95 = 1.959963984540054

#: Decimal places :func:`summarize` rounds float statistics to.
_DIGITS = 6


class StreamingAggregator:
    """Single-pass mean / stddev / confidence-interval accumulator."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        """Fold one sample into the running moments (Welford update)."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Sequence[float]) -> "StreamingAggregator":
        """Fold many samples; returns self for chaining."""
        for value in values:
            self.push(value)
        return self

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def variance(self) -> float:
        """Sample variance (0.0 for fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance())

    def stderr(self) -> float:
        """Standard error of the mean."""
        if self._count < 1:
            return 0.0
        return self.stddev() / math.sqrt(self._count)

    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95% confidence interval."""
        return _Z95 * self.stderr()

    def as_row(self, prefix: str = "") -> Dict[str, object]:
        """Summary statistics as a flat row dictionary."""
        key = (prefix + "_") if prefix else ""
        return {
            f"{key}n": self.count,
            f"{key}mean": self.mean,
            f"{key}stddev": self.stddev(),
            f"{key}ci95": self.ci95_halfwidth(),
            f"{key}min": self.minimum,
            f"{key}max": self.maximum,
        }


def summarize(
    rows: Sequence[Mapping[str, object]],
    group_by: Sequence[str],
    values: Sequence[str],
) -> List[Dict[str, object]]:
    """Group ``rows`` by key columns and reduce value columns.

    Returns one row per group (in first-seen order) with
    ``<value>_mean/stddev/ci95/min/max`` columns for every value column,
    floats rounded to six decimals.  Rows missing a value column simply do
    not contribute to it.
    """
    groups: Dict[Tuple[object, ...], Dict[str, StreamingAggregator]] = {}
    order: List[Tuple[object, ...]] = []
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        if key not in groups:
            groups[key] = {value: StreamingAggregator() for value in values}
            order.append(key)
        for value in values:
            if value in row and row[value] is not None:
                groups[key][value].push(float(row[value]))  # type: ignore[arg-type]

    out: List[Dict[str, object]] = []
    for key in order:
        summary: Dict[str, object] = dict(zip(group_by, key))
        for value in values:
            aggregator = groups[key][value]
            for stat, number in aggregator.as_row(prefix=value).items():
                if isinstance(number, float):
                    number = round(number, _DIGITS)
                summary[stat] = number
        out.append(summary)
    return out


#: Statistic suffixes :func:`summarize` appends to each value column.
_SUMMARY_STATS = ("n", "mean", "stddev", "ci95", "min", "max")


def compact_summary(
    rows: Sequence[Mapping[str, object]],
    keep: Sequence[str] = ("n", "mean", "ci95"),
) -> List[Dict[str, object]]:
    """Drop :func:`summarize` statistic columns whose suffix is not in ``keep``.

    Scenarios with many value columns use this to keep printed summary
    tables readable; keeping ``mean`` and ``ci95`` preserves everything
    ``repro diff`` needs for delta and CI-overlap reporting.
    """
    drop = tuple(f"_{stat}" for stat in _SUMMARY_STATS if stat not in keep)
    return [
        {
            key: value
            for key, value in row.items()
            if not any(key.endswith(suffix) for suffix in drop)
        }
        for row in rows
    ]
