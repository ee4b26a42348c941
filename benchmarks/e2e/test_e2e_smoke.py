"""Smoke test of the end-to-end benchmark at toy shapes (seconds, not minutes).

Checks what the driver's contract and ``BENCHMARK.json`` promise about one
run -- metric names, digest agreement between traced and untraced rounds,
attribution -- without measuring anything worth reporting.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as e2e  # noqa: E402  (needs the path above)
from e2e_trace import Span, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}


@pytest.fixture(scope="module")
def runs():
    """One traced run of every workload at its toy shape."""
    # A warm-up, one untraced and one traced round are enough to compare,
    # and nothing here is worth the ~0.1 s a round spends calibrating.
    patch = pytest.MonkeyPatch()
    patch.setattr(e2e, "MIN_ROUNDS", 2)
    patch.setattr(e2e, "calibrate", lambda: e2e.CALIBRATION_REFERENCE_S)
    try:
        yield {
            name: e2e.measure(workload, seed=3, seconds=0, trace=True, shape=workload.toy)
            for name, workload in e2e.WORKLOADS.items()
        }
    finally:
        patch.undo()


def test_benchmark_json_matches_the_code(runs):
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(e2e.WORKLOADS)
    assert [entry["why"] for entry in BENCHMARK["workloads"]] == [
        workload.why for workload in e2e.WORKLOADS.values()
    ]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    # Every declared per-layer metric is produced by some workload.
    assert set().union(*(run.per_layer for run in runs.values())) == PER_LAYER


@pytest.mark.parametrize("name", list(e2e.WORKLOADS))
def test_workload_at_toy_shape(runs, name):
    run = runs[name]
    # Correct means: invariants hold, no operation failed, and the traced
    # round's digest equals the untraced rounds'.
    assert run.correct, run.problems
    assert run.failed == 0 and run.attempted >= 1
    assert set(run.end_to_end) == END_TO_END
    assert set(run.per_layer) <= PER_LAYER
    assert all(value > 0 for value in run.end_to_end.values())
    assert run.per_layer["unattributed_share"] < 0.10

    # The written trace: self times add up to the root spans exactly.
    document = json.loads((e2e.OUT_DIR / f"trace_{name}.json").read_text(encoding="utf-8"))
    for round_ in document["rounds"]:
        spans = [Span(*row) for row in round_["spans"]]
        roots = [span for span in spans if span.parent_id < 0]
        assert {span.name for span in roots} == {"setup", "phase1", "phase2"}
        own = sum(totals.self_s for totals in self_times(spans).values())
        assert own == pytest.approx(sum(span.end - span.start for span in roots), rel=1e-9)
