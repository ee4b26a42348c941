"""The committed perf ledger through ``repro perf report|check``.

``BENCH_e2e.json`` is the one record of cost: ``report`` prints every
PR's parent and change medians per workload and end-to-end metric,
``check`` gates the last measured pair against the ``better`` / ``bound``
of ``BENCHMARK.json`` (exit 1 past a bound), and both refuse a malformed
ledger or ``BENCHMARK.json`` with exit 2 and ``error: ...``.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.runner.cli import main
from repro.telemetry import ledger

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = json.loads((ROOT / "BENCH_e2e.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(workload["name"] for workload in BENCHMARK["workloads"])
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
BOUNDS = ledger.load_bounds(ROOT / "BENCHMARK.json")


def side(pr, name, median=100.0, backfilled=False):
    """One ledger entry: every workload and metric at ``median``."""
    entry = {
        "pr": pr,
        "side": name,
        "ledger": {
            "host": {"nproc": 2},
            "workloads": {
                workload: {"end_to_end": {metric: {"median": median} for metric in METRICS}}
                for workload in WORKLOADS
            },
        },
    }
    if backfilled:
        entry["backfilled"] = True
    return entry


def pair(pr, parent=100.0, change=100.0, backfilled=False):
    return [side(pr, "parent", parent, backfilled), side(pr, "change", change, backfilled)]


def write(folder: Path, entries, benchmark=BENCHMARK) -> Path:
    """``entries`` as ``folder/BENCH_e2e.json``, ``benchmark`` beside it."""
    if benchmark is not None:
        (folder / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    path = folder / "BENCH_e2e.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def set_median(entries, workload, metric, value, side_name="change"):
    (entry,) = (entry for entry in entries[-2:] if entry["side"] == side_name)
    entry["ledger"]["workloads"][workload]["end_to_end"][metric]["median"] = value


class TestCommittedLedger:
    def test_report_defaults_to_the_root_ledger(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(["perf", "report"]) == 0
        out = capsys.readouterr().out
        assert f"{len(COMMITTED)} entries" in out
        assert "backfilled" in out

    @pytest.mark.parametrize("pr", sorted({entry["pr"] for entry in COMMITTED}))
    def test_report_prints_the_medians_of_each_pr(self, pr, capsys):
        assert main(["perf", "report", str(ROOT / "BENCH_e2e.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        entries = [entry for entry in COMMITTED if entry["pr"] == pr]
        for entry in entries:
            for workload, body in entry["ledger"]["workloads"].items():
                for metric, stats in body["end_to_end"].items():
                    (row,) = (
                        line.split() for line in lines
                        if line.split()[:3] == [workload, metric, str(pr)]
                    )
                    assert f"{stats['median']:.6g}" in row, (workload, metric)
                    assert ("backfilled" in row) == bool(entry.get("backfilled"))

    def test_check_passes_on_the_committed_file(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(["perf", "check"]) == 0
        out = capsys.readouterr().out
        last = max(entry["pr"] for entry in COMMITTED if not entry.get("backfilled"))
        assert f"PR {last} change vs parent" in out
        assert "every metric within its bound" in out

    @pytest.mark.parametrize("cut, code", [(0.30, 1), (0.20, 0)])
    def test_a_cut_past_the_bound_fails_and_is_named(self, tmp_path, capsys, cut, code):
        """``fill_prove`` ``ops_per_s`` may fall by its 25 % bound, no more."""
        entries = copy.deepcopy(COMMITTED)
        (change,) = (entry for entry in entries[-2:] if entry["side"] == "change")
        stats = change["ledger"]["workloads"]["fill_prove"]["end_to_end"]["ops_per_s"]
        stats["median"] *= 1 - cut
        assert main(["perf", "check", str(write(tmp_path, entries))]) == code
        out = capsys.readouterr().out
        if code:
            regressions = out.split("REGRESSIONS", 1)[1].splitlines()[3:]
            assert [line.split()[:2] for line in regressions] == [["fill_prove", "ops_per_s"]]
        else:
            assert "REGRESSIONS" not in out


class TestGate:
    @pytest.mark.parametrize(
        "metric, change, verdict",
        [
            ("ops_per_s", 75.0, "ok"),  # exactly at the 25 % bound
            ("ops_per_s", 74.9, "REGRESSED"),
            ("ops_per_s", 400.0, "ok"),  # an improvement never flags
            ("setup_s", 125.0, "ok"),
            ("setup_s", 125.1, "REGRESSED"),
            ("setup_s", 1.0, "ok"),
            ("peak_rss_mb", 110.0, "ok"),  # the 10 % bound
            ("peak_rss_mb", 110.1, "REGRESSED"),
        ],
    )
    def test_bound_per_direction(self, metric, change, verdict):
        entries = pair(7)
        set_median(entries, "table3_refresh", metric, change)
        pr, rows = ledger.gate(entries, BOUNDS)
        assert pr == 7
        assert len(rows) == len(WORKLOADS) * len(METRICS)
        flagged = [(row["workload"], row["metric"]) for row in rows if row["verdict"] != "ok"]
        assert flagged == ([("table3_refresh", metric)] if verdict == "REGRESSED" else [])

    def test_the_last_measured_pair_is_gated(self):
        entries = pair(3, change=10.0) + pair(5)
        assert ledger.gate(entries, BOUNDS)[0] == 5
        assert ledger.gate(entries[:2], BOUNDS)[0] == 3

    def test_a_backfilled_pair_is_never_gated(self, tmp_path, capsys):
        entries = pair(3) + pair(9, change=1.0, backfilled=True)
        assert ledger.gate(entries, BOUNDS)[0] == 3
        assert main(["perf", "check", str(write(tmp_path, entries))]) == 0
        assert "PR 3 change vs parent" in capsys.readouterr().out

    def test_a_zero_parent_median_gates_without_dividing(self):
        entries = pair(4, parent=0.0, change=0.0)
        assert all(row["verdict"] == "ok" for row in ledger.gate(entries, BOUNDS)[1])
        set_median(entries, "fill_prove", "setup_s", 0.5)
        flagged = [row for row in ledger.gate(entries, BOUNDS)[1] if row["verdict"] != "ok"]
        assert [(row["workload"], row["metric"]) for row in flagged] == [("fill_prove", "setup_s")]


class TestTrajectory:
    def test_rows_run_in_pr_order_per_workload_and_metric(self):
        rows = ledger.trajectory(pair(2, parent=10.0, change=20.0) + pair(1) + pair(3))
        assert len(rows) == 3 * len(WORKLOADS) * len(METRICS)
        keys = [(row["workload"], row["metric"], row["pr"]) for row in rows]
        assert keys == sorted(keys)
        (row,) = (row for row in rows if row["pr"] == 2 and row["metric"] == "ops_per_s"
                  and row["workload"] == "fill_prove")
        assert (row["parent"], row["change"], row["change/parent"]) == ("10", "20", "2.000")

    def test_a_pr_with_one_side_leaves_the_other_blank(self):
        rows = ledger.trajectory([side(6, "change", 5.0, backfilled=True)])
        assert {(row["parent"], row["change"], row["change/parent"], row["note"])
                for row in rows} == {("", "5", "", "backfilled")}

    def test_report_needs_no_benchmark_file(self, tmp_path, capsys):
        path = write(tmp_path, pair(1), benchmark=None)
        assert main(["perf", "report", str(path)]) == 0
        assert "fill_prove" in capsys.readouterr().out


def _mutated(edit):
    entries = pair(8)
    edit(entries)
    return entries


def _workloads(entries):
    return entries[1]["ledger"]["workloads"]


#: name: (what the ledger becomes, what the refusal names).
MALFORMED_LEDGERS = {
    "object-at-the-top": (lambda: {"entries": pair(8)}, "must be a list of entries"),
    "string-at-the-top": (lambda: "BENCH", "must be a list of entries"),
    "entry-not-an-object": (lambda: [*pair(8), 3], "ledger entry [2] must be"),
    "pr-missing": (lambda: _mutated(lambda e: e[0].pop("pr")), "'pr'"),
    "pr-zero": (lambda: _mutated(lambda e: e[0].update(pr=0)), "field 'pr'"),
    "pr-a-bool": (lambda: _mutated(lambda e: e[0].update(pr=True)), "field 'pr'"),
    "side-unknown": (lambda: _mutated(lambda e: e[1].update(side="both")), "field 'side'"),
    "backfilled-a-string": (
        lambda: _mutated(lambda e: e[1].update(backfilled="yes")), "field 'backfilled'",
    ),
    "unknown-key": (lambda: _mutated(lambda e: e[0].update(note="x")), "unknown keys"),
    "host-empty": (
        lambda: _mutated(lambda e: e[0]["ledger"].update(host={})), "field 'ledger.host'",
    ),
    "workloads-empty": (
        lambda: _mutated(lambda e: e[1]["ledger"].update(workloads={})),
        "field 'ledger.workloads'",
    ),
    "end-to-end-missing": (
        lambda: _mutated(lambda e: _workloads(e)["fill_prove"].pop("end_to_end")), "end_to_end",
    ),
    "median-null": (
        lambda: _mutated(lambda e: set_median(e, "fill_prove", "ops_per_s", None)),
        "end_to_end['ops_per_s'].median",
    ),
    "median-nan": (
        lambda: _mutated(lambda e: set_median(e, "fill_prove", "ops_per_s", math.nan)),
        "end_to_end['ops_per_s'].median",
    ),
    "median-negative": (
        lambda: _mutated(lambda e: set_median(e, "fill_prove", "setup_s", -1.0)),
        "end_to_end['setup_s'].median",
    ),
}


@pytest.mark.parametrize("verb", ["report", "check"])
@pytest.mark.parametrize("shape", sorted(MALFORMED_LEDGERS))
def test_a_malformed_ledger_is_refused(tmp_path, capsys, shape, verb):
    build, where = MALFORMED_LEDGERS[shape]
    assert main(["perf", verb, str(write(tmp_path, build()))]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and where in captured.err, captured.err
    assert "Traceback" not in captured.err


#: name: (what the last measured pair becomes, what ``check`` says).
UNGATEABLE = {
    "no-measured-pair": (pair(2, backfilled=True), "no measured pair"),
    "one-side-only": (pair(2)[:1], "exactly one parent and one change"),
    "a-side-twice": ([*pair(2), side(2, "change")], "exactly one parent and one change"),
    "a-metric-missing": (
        _mutated(lambda e: _workloads(e)["fill_prove"]["end_to_end"].pop("setup_s")),
        "fill_prove setup_s lacks",
    ),
    "a-workload-on-one-side": (
        _mutated(lambda e: _workloads(e).pop("campaign_sweep")), "campaign_sweep",
    ),
}


@pytest.mark.parametrize("shape", sorted(UNGATEABLE))
def test_a_pair_that_cannot_be_gated_is_refused(tmp_path, capsys, shape):
    entries, where = UNGATEABLE[shape]
    path = write(tmp_path, entries)
    assert main(["perf", "check", str(path)]) == 2
    assert where in capsys.readouterr().err
    assert main(["perf", "report", str(path)]) == 0


def _benchmark(edit):
    benchmark = copy.deepcopy(BENCHMARK)
    edit(benchmark)
    return benchmark


#: name: (BENCHMARK.json beside the ledger -- None: absent --, the refusal).
MALFORMED_BENCHMARKS = {
    "absent": (None, "BENCHMARK.json"),
    "end-to-end-missing": (_benchmark(lambda b: b.pop("end_to_end")), "'end_to_end'"),
    "better-sideways": (
        _benchmark(lambda b: b["end_to_end"][0].update(better="sideways")), "better must be",
    ),
    "bound-negative": (_benchmark(lambda b: b["end_to_end"][1].update(bound=-0.1)), "bound"),
    "bound-missing": (_benchmark(lambda b: b["end_to_end"][4].pop("bound")), "'bound'"),
    "a-list": ([1, 2], "must be"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_BENCHMARKS))
def test_a_missing_or_malformed_benchmark_file_is_refused(tmp_path, capsys, shape):
    benchmark, where = MALFORMED_BENCHMARKS[shape]
    path = write(tmp_path, pair(1), benchmark=None)
    if benchmark is not None:
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    assert main(["perf", "check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err, err


@pytest.mark.parametrize("text", ["", "{truncated", "[NaN"])
def test_a_ledger_that_is_not_json_is_refused(tmp_path, capsys, text):
    (tmp_path / "BENCH_e2e.json").write_text(text, encoding="utf-8")
    assert main(["perf", "report", str(tmp_path / "BENCH_e2e.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_a_missing_ledger_is_refused(tmp_path, capsys):
    assert main(["perf", "check", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize(
    "argv",
    [
        ["perf", "record", "BENCH_kernels.json"],
        ["perf", "report", "--history", "h.jsonl"],
        ["perf", "check", "--max-regression", "10"],
        ["bench", "churn", "--history", "none"],
    ],
)
def test_the_history_surface_is_gone(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_bench_leaves_no_perf_record_behind(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([
        "bench", "churn", "--seed", "0", "--set", "trials=2", "--set", "cycles=2",
        "--set", "files=4", "--workers", "1",
    ]) == 0
    assert "perf" not in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
