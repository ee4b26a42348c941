"""``BENCH_e2e.json``: the committed end-to-end trajectory.

Each entry is one side of one PR's before/after pair, ``{"pr", "side",
"ledger"}``.  A measured ``ledger`` is ``benchmarks/e2e/run.py --out``'s
output for that side, both sides run on one host.  An entry marked
``"backfilled": true`` holds the medians and quartiles of a table in
``docs/performance.md`` instead, with the host that table names.
"""

from __future__ import annotations

import collections
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "BENCH_e2e.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}


def _is_number(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@pytest.mark.parametrize("index", range(len(LEDGER)))
def test_entry_is_well_formed(index):
    entry = LEDGER[index]
    assert {"pr", "side", "ledger"} <= set(entry) <= {"pr", "side", "ledger", "backfilled"}
    assert isinstance(entry["pr"], int) and not isinstance(entry["pr"], bool)
    assert entry["pr"] > 0
    assert entry["side"] in ("parent", "change")
    assert entry.get("backfilled", True) is True
    ledger = entry["ledger"]
    assert isinstance(ledger["host"], dict) and ledger["host"]
    assert ledger["workloads"] and set(ledger["workloads"]) <= WORKLOADS
    for name, workload in ledger["workloads"].items():
        assert set(workload["end_to_end"]) == METRICS, name
        for metric, stats in workload["end_to_end"].items():
            assert _is_number(stats["median"]), (name, metric)


def test_entries_run_in_pr_order():
    prs = [entry["pr"] for entry in LEDGER]
    assert prs == sorted(prs)


def test_every_measured_pr_has_one_full_pair():
    measured = collections.defaultdict(list)
    backfilled = set()
    for entry in LEDGER:
        if entry.get("backfilled"):
            backfilled.add(entry["pr"])
        else:
            measured[entry["pr"]].append(entry)
    assert measured, "no measured pair yet"
    for pr, entries in measured.items():
        assert pr not in backfilled, pr
        assert sorted(entry["side"] for entry in entries) == ["change", "parent"], pr
        for entry in entries:
            assert set(entry["ledger"]["workloads"]) == WORKLOADS, (pr, entry["side"])
