"""Unit tests for :mod:`repro.telemetry` -- recorder, exporter, summary.

The recorder's contract has four legs, each pinned here:

* **channel** -- the one ``Channel`` state machine (enable / disable /
  reset / capture / extend / drain) behind spans, metrics and profiles,
  and the module-level names each of the three binds to its channel;
* **API** -- spans/counters record exactly the events their docstrings
  promise, in Chrome trace-event shape, and ``traced`` functions behave
  identically instrumented or not;
* **trace schema** -- a written artifact round-trips through
  :func:`~repro.telemetry.load_chrome_trace`'s structural validation,
  and malformed shapes are rejected loudly;
* **no-op path** -- with telemetry disabled, a span call is a bounded
  constant-time no-op (the property that makes ambient instrumentation
  of hot protocol paths acceptable).
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry import profile as profiling
from repro.telemetry import (
    CHANNELS,
    SUMMARY_FORMAT,
    Channel,
    counter_table,
    load_chrome_trace,
    phase_table,
    summarize_events,
    to_chrome_trace,
    write_chrome_trace,
    write_summary,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with every channel disabled and empty."""
    telemetry.reset_channels()
    yield
    telemetry.reset_channels()


class TestChannel:
    def test_starts_disabled_and_empty(self):
        channel = Channel("unit")
        assert not channel.is_enabled()
        assert channel.pending() == []

    def test_disable_keeps_buffer_reset_disarms_and_empties(self):
        channel = Channel("unit")
        channel.enable()
        channel.extend(["kept"])
        channel.disable()
        assert not channel.is_enabled()
        assert channel.pending() == ["kept"]
        channel.enable()
        channel.reset()
        assert not channel.is_enabled()
        assert channel.pending() == []

    def test_extend_drain_round_trip(self):
        channel = Channel("unit")
        channel.extend(["a", "b"])
        channel.extend(iter(["c"]))
        assert channel.drain() == ["a", "b", "c"]
        assert channel.pending() == []
        assert channel.drain() == []

    def test_capture_isolates_and_restores_buffer(self):
        channel = Channel("unit")
        channel.extend(["outer"])
        with channel.capture() as inner:
            channel.extend(["inner"])
            assert inner == ["inner"]
        assert channel.pending() == ["outer"]  # inner items did not leak
        channel.extend(inner)  # ... until merged back, envelope-style
        assert channel.pending() == ["outer", "inner"]

    def test_nested_capture_restores_the_outer_buffer(self):
        channel = Channel("unit")
        with channel.capture() as outer:
            channel.extend(["o1"])
            with channel.capture() as inner:
                channel.extend(["i"])
            channel.extend(["o2"])
        assert (outer, inner) == (["o1", "o2"], ["i"])
        assert channel.pending() == []

    def test_nested_capture_restores_the_outer_buffer_when_the_block_raises(self):
        channel = Channel("unit")
        channel.extend(["before"])
        with channel.capture() as outer:
            with pytest.raises(RuntimeError):
                with channel.capture():
                    channel.extend(["doomed"])
                    raise RuntimeError("boom")
            channel.extend(["after"])
        assert outer == ["after"]
        assert channel.pending() == ["before"]

    def test_three_registered_channels(self):
        assert list(CHANNELS) == ["spans", "metrics", "profile"]
        assert all(CHANNELS[name].name == name for name in CHANNELS)

    @pytest.mark.parametrize(
        "module, channel, pending",
        [
            (telemetry, "spans", "events"),
            (metrics, "metrics", "samples"),
            (profiling, "profile", "stats_buffer"),
        ],
    )
    def test_module_names_are_bound_to_their_channel(self, module, channel, pending):
        """No module re-implements the state machine: each name *is* the
        channel's method, so the ``Channel`` tests above cover all three."""
        bound = CHANNELS[channel]
        for name in ("enable", "disable", "is_enabled", "reset", "extend", "drain"):
            assert getattr(module, name) == getattr(bound, name)
        assert getattr(module, pending) == bound.pending
        if module is not profiling:  # run() appends; nothing captures alone
            assert module.capture == bound.capture

    def test_arm_sets_exactly_the_named_channels(self):
        assert telemetry.armed() == ()
        telemetry.arm(["metrics", "profile"])
        assert telemetry.armed() == ("metrics", "profile")
        assert not telemetry.is_enabled()
        telemetry.arm(("spans",))
        assert telemetry.armed() == ("spans",)
        assert not metrics.is_enabled() and not profiling.is_enabled()

    def test_capture_and_extend_channels_cover_the_named_channels_only(self):
        telemetry.arm(["spans", "metrics"])
        with telemetry.capture_channels(["spans", "metrics"]) as recorded:
            telemetry.counter("c")
            metrics.observe("h", 1.0)
        assert sorted(recorded) == ["metrics", "spans"]
        assert [event["name"] for event in recorded["spans"]] == ["c"]
        assert [sample["name"] for sample in recorded["metrics"]] == ["h"]
        assert telemetry.events() == [] and metrics.samples() == []
        telemetry.extend_channels(recorded)
        assert telemetry.events() == recorded["spans"]
        assert metrics.samples() == recorded["metrics"]
        telemetry.reset_channels()
        assert telemetry.armed() == ()
        assert all(channel.pending() == [] for channel in CHANNELS.values())


class TestRecorder:
    def test_disabled_records_nothing(self):
        with telemetry.span("phase", category="test", detail=1):
            pass
        telemetry.counter("hits", 3)
        telemetry.emit_span("late", 0.0, 1.0)
        assert telemetry.events() == []

    def test_disabled_span_is_shared_singleton(self):
        # The no-op path must not allocate per call.
        assert telemetry.span("a") is telemetry.span("b", category="x", arg=1)

    def test_span_records_complete_event(self):
        telemetry.enable()
        with telemetry.span("phase", category="test", batch=42):
            pass
        (event,) = telemetry.events()
        assert event["name"] == "phase"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["args"] == {"batch": 42}
        assert event["dur"] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)

    def test_span_duration_tracks_wall_time(self):
        telemetry.enable()
        with telemetry.span("sleep"):
            time.sleep(0.01)
        (event,) = telemetry.events()
        assert event["dur"] >= 10_000  # microseconds

    def test_emit_span_uses_explicit_endpoints_and_identity(self):
        telemetry.enable()
        telemetry.emit_span("queue", 2.0, 2.5, category="exec", n=1)
        (event,) = telemetry.events()
        assert event["ts"] == pytest.approx(2.0e6)
        assert event["dur"] == pytest.approx(0.5e6)
        assert (event["pid"], event["tid"]) == (os.getpid(), threading.get_ident())
        assert event["args"] == {"n": 1}

    def test_emit_span_clamps_negative_durations(self):
        telemetry.enable()
        telemetry.emit_span("skew", 5.0, 4.0)
        assert telemetry.events()[0]["dur"] == 0.0

    def test_counter_event_shape(self):
        telemetry.enable()
        telemetry.counter("draws", 17, category="kernel")
        (event,) = telemetry.events()
        assert event["ph"] == "C"
        assert event["name"] == "draws"
        assert event["args"] == {"value": 17}

    def test_traced_decorator_records_only_when_enabled(self):
        calls = []

        @telemetry.traced("work", category="test")
        def work(x):
            calls.append(x)
            return x * 2

        assert work(3) == 6
        assert telemetry.events() == []
        telemetry.enable()
        assert work(4) == 8
        assert calls == [3, 4]
        (event,) = telemetry.events()
        assert (event["name"], event["cat"]) == ("work", "test")

    def test_traced_preserves_function_metadata(self):
        @telemetry.traced("named")
        def documented():
            """Docstring survives wrapping."""

        assert documented.__name__ == "documented"
        assert "survives" in documented.__doc__


class TestTraceSchema:
    def _record_sample(self):
        telemetry.enable()
        with telemetry.span("alpha", category="test", k=1):
            telemetry.counter("hits", 2, category="test")
        return telemetry.drain()

    def test_round_trip_through_validation(self, tmp_path):
        events = self._record_sample()
        path = write_chrome_trace(
            tmp_path / "trace.json", events, metadata={"scenario": "unit", "seed": 5}
        )
        data = load_chrome_trace(path)
        assert data["displayTimeUnit"] == "ms"
        assert data["otherData"] == {"scenario": "unit", "seed": 5}
        phases = [event["ph"] for event in data["traceEvents"]]
        # One process_name metadata event, then the recorded counter+span.
        assert phases == ["M", "C", "X"]
        span = data["traceEvents"][-1]
        assert span["name"] == "alpha"
        assert span["args"] == {"k": 1}

    def test_written_bytes_are_sorted_one_space_json(self, tmp_path, monkeypatch):
        events = self._record_sample()
        metadata = {"seed": 5, "scenario": "unit"}
        # A bare file name writes into the working directory.
        monkeypatch.chdir(tmp_path)
        path = write_chrome_trace("trace.json", events, metadata=metadata)
        expected = json.dumps(to_chrome_trace(events, metadata), indent=1, sort_keys=True)
        assert (tmp_path / "trace.json").read_bytes() == (expected + "\n").encode("utf-8")
        assert path.read_bytes() == (tmp_path / "trace.json").read_bytes()

    def test_metadata_labels_first_pid_runner(self):
        events = [
            {"name": "a", "cat": "t", "ph": "X", "ts": 0, "dur": 1, "pid": 10, "tid": 1, "args": {}},
            {"name": "b", "cat": "t", "ph": "X", "ts": 0, "dur": 1, "pid": 20, "tid": 1, "args": {}},
        ]
        trace = to_chrome_trace(events)
        labels = [
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        ]
        assert labels == ["repro runner (pid 10)", "repro worker-20 (pid 20)"]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "must be a JSON object"),
            ({"displayTimeUnit": "ms"}, "traceEvents"),
            ({"traceEvents": {"not": "a list"}}, "traceEvents"),
            ({"traceEvents": ["bare string"]}, "not an object"),
            ({"traceEvents": [{"ph": "X", "ts": 0, "pid": 1, "tid": 1}]}, "name"),
            (
                {"traceEvents": [{"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 1}]},
                "unknown phase",
            ),
            (
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]},
                "without 'dur'",
            ),
            (
                {
                    "traceEvents": [
                        {"name": "x", "ph": "X", "ts": "soon", "dur": 1, "pid": 1, "tid": 1}
                    ]
                },
                "not a number",
            ),
        ],
    )
    def test_malformed_traces_rejected(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_chrome_trace(path)


class TestSummary:
    EVENTS = [
        {"name": "s", "cat": "k", "ph": "X", "ts": 0, "dur": 2000.0, "pid": 2, "tid": 1, "args": {}},
        {"name": "s", "cat": "k", "ph": "X", "ts": 0, "dur": 4000.0, "pid": 1, "tid": 1, "args": {}},
        {"name": "t", "cat": "e", "ph": "X", "ts": 0, "dur": 1000.0, "pid": 1, "tid": 1, "args": {}},
        {"name": "c", "cat": "k", "ph": "C", "ts": 0, "pid": 1, "tid": 1, "args": {"value": 5}},
        {"name": "c", "cat": "k", "ph": "C", "ts": 0, "pid": 2, "tid": 1, "args": {"value": 7}},
    ]

    def test_summarize_events_math(self):
        summary = summarize_events(self.EVENTS)
        assert summary["format"] == SUMMARY_FORMAT
        assert summary["pids"] == [1, 2]
        span = summary["spans"]["s"]
        assert span == {
            "category": "k",
            "count": 2,
            "total_ms": 6.0,
            "max_ms": 4.0,
            "mean_ms": 3.0,
        }
        assert summary["counters"] == {"c": 12}

    def test_phase_table_sorted_hottest_first(self):
        rows = phase_table(summarize_events(self.EVENTS))
        assert [row["span"] for row in rows] == ["s", "t"]
        assert rows[0]["total_ms"] == 6.0

    def test_counter_table(self):
        rows = counter_table(summarize_events(self.EVENTS))
        assert rows == [{"counter": "c", "total": 12}]

    def test_write_summary_stable_json(self, tmp_path):
        summary = summarize_events(self.EVENTS)
        path = write_summary(tmp_path / "telemetry.json", summary)
        assert json.loads(path.read_text()) == summary
        # Stable serialisation: a rewrite is byte-identical.
        first = path.read_bytes()
        write_summary(path, summary)
        assert path.read_bytes() == first


class TestNoOpOverhead:
    def test_disabled_span_is_cheap(self):
        """The disabled path must stay a constant-time boolean check.

        Bound: 200k disabled span entries in well under a second even on
        a loaded CI box (~5 us/call budget; the real cost is ~100 ns).
        """
        assert not telemetry.is_enabled()
        span = telemetry.span
        start = time.perf_counter()
        for _ in range(200_000):
            with span("hot.path"):
                pass
        elapsed = time.perf_counter() - start
        assert telemetry.events() == []
        assert elapsed < 1.0, f"disabled span path took {elapsed:.3f}s for 200k calls"

    def test_disabled_traced_function_is_cheap(self):
        @telemetry.traced("hot.fn")
        def noop():
            return None

        start = time.perf_counter()
        for _ in range(200_000):
            noop()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"disabled traced path took {elapsed:.3f}s for 200k calls"
