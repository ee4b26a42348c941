"""Per-trial profiling: raw-stats merging, pstats artifacts, CLI.

Profiling is the one observability layer that is allowed to cost wall
time while on (cProfile's tracing hook is not free) -- but the disabled
path must stay free and the merged artifact must be a *standard* pstats
file so the whole Python profiling toolbox opens it.  That rows stay
byte-identical with it on, alone or with the other two channels, is
proven in ``tests/test_telemetry_integration.py::TestInertness``.
"""

from __future__ import annotations

import json
import pstats

import pytest

from repro.runner.cli import main
from repro.telemetry import profile as profiling

CHURN_PARAMS = {"trials": 2, "cycles": 2, "files": 4}


@pytest.fixture(autouse=True)
def clean_profiling():
    profiling.reset()
    yield
    profiling.reset()


def busy(n: int) -> int:
    return sum(i * i for i in range(n))


class TestProfiledCall:
    def test_returns_result_and_stats(self):
        result, stats = profiling.profiled_call(busy, 100)
        assert result == busy(100)
        assert any(func[2] == "busy" for func in stats)
        # Each stats row is (cc, nc, tt, ct, callers).
        for cc, nc, tt, ct, callers in stats.values():
            assert cc <= nc or True  # shape check only
            assert isinstance(callers, dict)

    def test_disabled_by_default(self):
        assert not profiling.is_enabled()
        assert profiling.stats_buffer() == []

    def test_run_profiles_only_while_armed(self):
        assert profiling.run(busy, 100) == busy(100)
        assert profiling.stats_buffer() == []
        profiling.enable()
        assert profiling.run(busy, 100) == busy(100)
        (table,) = profiling.drain()
        assert any(func[2] == "busy" for func in table)


class TestMergeStats:
    def test_merging_sums_counts_and_times(self):
        _, first = profiling.profiled_call(busy, 1000)
        _, second = profiling.profiled_call(busy, 1000)
        merged = profiling.merge_stats([first, second])
        key = next(func for func in first if func[2] == "busy")
        assert merged[key][1] == first[key][1] + second[key][1]  # call counts
        assert merged[key][3] >= max(first[key][3], second[key][3])  # cumtime

    def test_merge_of_disjoint_tables_keeps_both(self):
        _, first = profiling.profiled_call(busy, 10)
        _, second = profiling.profiled_call(json.dumps, {"a": 1})
        merged = profiling.merge_stats([first, second])
        names = {func[2] for func in merged}
        assert "busy" in names
        assert len(merged) >= max(len(first), len(second))

    def test_merged_table_loads_as_pstats(self, tmp_path):
        _, first = profiling.profiled_call(busy, 1000)
        _, second = profiling.profiled_call(busy, 1000)
        path = profiling.write_pstats(
            tmp_path / "deep" / "profile.pstats",
            profiling.merge_stats([first, second]),
        )
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0  # type: ignore[attr-defined]
        assert any(func[2] == "busy" for func in stats.stats)  # type: ignore[attr-defined]

    def test_top_table_sorted_by_cumulative_time(self):
        _, stats = profiling.profiled_call(busy, 5000)
        rows = profiling.top_table(stats, limit=5)
        assert len(rows) <= 5
        cumtimes = [row["cumtime_ms"] for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)
        assert all("calls" in row and "function" in row for row in rows)


class TestCLI:
    def _run(self, tmp_path, extra=()):
        out_path = tmp_path / "churn.json"
        args = ["run", "churn", "--quiet", "--seed", "7"]
        for key, value in CHURN_PARAMS.items():
            args += ["--set", f"{key}={value}"]
        assert main(args + ["--out", str(out_path)] + list(extra)) == 0
        return out_path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_writes_loadable_pstats(self, tmp_path, capsys, workers):
        profile_dir = tmp_path / "prof"
        self._run(
            tmp_path,
            extra=["--profile", str(profile_dir), "--workers", str(workers)],
        )
        out = capsys.readouterr().out
        assert f"{CHURN_PARAMS['trials']} trial profiles merged" in out
        assert "top functions by cumulative time" in out
        stats = pstats.Stats(str(profile_dir / "profile.pstats"))
        functions = {func[2] for func in stats.stats}  # type: ignore[attr-defined]
        # The scenario's own trial function appears in the merged profile
        # even when executed inside forked pool workers.
        assert "run_churn_trial" in functions
        # Global recorder state is clean for the next command.
        assert not profiling.is_enabled()
        assert profiling.stats_buffer() == []
