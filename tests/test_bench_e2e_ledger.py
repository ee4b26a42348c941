"""``BENCH_e2e.json``: the committed end-to-end trajectory.

Each entry is one side of one PR's before/after pair, ``{"pr", "side",
"ledger"}``.  A measured ``ledger`` is ``benchmarks/e2e/run.py --out``'s
output for that side, both sides run on one host.  An entry marked
``"backfilled": true`` holds the medians and quartiles of an earlier
table instead (its ``source`` names the table), with the host that table
names.
"""

from __future__ import annotations

import collections
import json
from pathlib import Path

import pytest

from repro.schema import load
from repro.telemetry.ledger import ENTRY

ROOT = Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "BENCH_e2e.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("index", range(len(LEDGER)))
def test_entry_is_well_formed(index):
    """The shape is ``repro.telemetry.ledger.ENTRY``'s (what ``repro perf``
    reads); what it leaves open is checked here."""
    entry = LEDGER[index]
    load(ENTRY, entry, f"entry [{index}]")
    assert entry["side"] in ("parent", "change")
    assert entry.get("backfilled", True) is True
    assert set(entry["ledger"]["workloads"]) <= WORKLOADS
    for name, workload in entry["ledger"]["workloads"].items():
        assert set(workload["end_to_end"]) == METRICS, name


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
