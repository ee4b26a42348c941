"""Aggregation tests: streaming moments against known inputs."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.runner.aggregate import StreamingAggregator, format_table, summarize


class TestStreamingAggregator:
    def test_known_inputs(self):
        aggregator = StreamingAggregator().extend([1.0, 2.0, 3.0, 4.0])
        assert aggregator.count == 4
        assert aggregator.mean == pytest.approx(2.5)
        assert aggregator.variance() == pytest.approx(5.0 / 3.0)
        assert aggregator.stddev() == pytest.approx(math.sqrt(5.0 / 3.0))
        assert aggregator.minimum == 1.0
        assert aggregator.maximum == 4.0

    def test_matches_statistics_module(self):
        values = [0.13, 2.7, -1.4, 3.14, 0.0, 8.25, -2.5]
        aggregator = StreamingAggregator().extend(values)
        assert aggregator.mean == pytest.approx(statistics.fmean(values))
        assert aggregator.stddev() == pytest.approx(statistics.stdev(values))

    def test_ci95_halfwidth(self):
        values = [1.0, 2.0, 3.0, 4.0]
        aggregator = StreamingAggregator().extend(values)
        expected = 1.959963984540054 * statistics.stdev(values) / math.sqrt(4)
        assert aggregator.ci95_halfwidth() == pytest.approx(expected)

    def test_empty_and_single_sample(self):
        empty = StreamingAggregator()
        assert empty.count == 0
        assert empty.mean == 0.0
        assert empty.stddev() == 0.0
        single = StreamingAggregator().extend([42.0])
        assert single.mean == 42.0
        assert single.stddev() == 0.0
        assert single.ci95_halfwidth() == 0.0

    def test_as_row_prefixing(self):
        row = StreamingAggregator().extend([1.0, 3.0]).as_row(prefix="loss")
        assert row["loss_n"] == 2
        assert row["loss_mean"] == pytest.approx(2.0)
        assert set(row) == {
            "loss_n",
            "loss_mean",
            "loss_stddev",
            "loss_ci95",
            "loss_min",
            "loss_max",
        }


class TestSummarize:
    ROWS = [
        {"group": "a", "value": 1.0},
        {"group": "a", "value": 3.0},
        {"group": "b", "value": 10.0},
        {"group": "b", "value": 20.0},
        {"group": "b", "value": 30.0},
    ]

    def test_grouped_statistics(self):
        summary = summarize(self.ROWS, group_by=("group",), values=("value",))
        assert len(summary) == 2
        by_group = {row["group"]: row for row in summary}
        assert by_group["a"]["value_n"] == 2
        assert by_group["a"]["value_mean"] == pytest.approx(2.0)
        assert by_group["b"]["value_mean"] == pytest.approx(20.0)
        assert by_group["b"]["value_stddev"] == pytest.approx(10.0)
        assert by_group["b"]["value_max"] == 30.0

    def test_first_seen_group_order(self):
        summary = summarize(self.ROWS, group_by=("group",), values=("value",))
        assert [row["group"] for row in summary] == ["a", "b"]

    def test_missing_values_skipped(self):
        rows = self.ROWS + [{"group": "a"}]
        summary = summarize(rows, group_by=("group",), values=("value",))
        assert summary[0]["value_n"] == 2

    def test_format_table_shared_with_metrics(self):
        from repro.sim import metrics

        assert format_table is metrics.format_table
        rendered = format_table(
            summarize(self.ROWS, group_by=("group",), values=("value",))
        )
        assert "value_mean" in rendered
