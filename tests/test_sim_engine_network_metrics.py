"""Tests for the simulation engine, network model and metrics."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector, format_table
from repro.sim.network import LatencyModel, SimulatedNetwork


class TestSimulationEngine:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 3.0
        assert engine.events_processed == 3

    def test_priority_breaks_ties(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda: order.append("low"), priority=5)
        engine.schedule(1.0, lambda: order.append("high"), priority=1)
        engine.run()
        assert order == ["high", "low"]

    def test_run_until_stops_at_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(2))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending_count() == 1

    def test_events_can_schedule_more_events(self):
        engine = SimulationEngine()
        fired = []

        def chain():
            fired.append(len(fired))
            if len(fired) < 5:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run()
        assert len(fired) == 5

    def test_stop_halts_processing(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_max_events_cap(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i), lambda: None)
        assert engine.run(max_events=4) == 4

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_same_time_events_pop_in_priority_then_insertion_order(self):
        """Regression: equal timestamps resolve by (priority, insertion),
        and lazy cancellation never perturbs that order."""
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda: order.append("p1-first"), priority=1)
        doomed = engine.schedule(1.0, lambda: order.append("doomed"), priority=0)
        engine.schedule(1.0, lambda: order.append("p0-second"), priority=0)
        engine.schedule(1.0, lambda: order.append("p1-second"), priority=1)
        engine.schedule(1.0, lambda: order.append("p0-third"), priority=0)
        assert engine.cancel(doomed)
        engine.run()
        assert order == ["p0-second", "p0-third", "p1-first", "p1-second"]

    def test_cancel_prevents_callback_and_is_idempotent(self):
        engine = SimulationEngine()
        fired = []
        keep = engine.schedule(1.0, lambda: fired.append("keep"))
        drop = engine.schedule(2.0, lambda: fired.append("drop"))
        assert engine.cancel(drop) is True
        assert engine.cancel(drop) is False  # already cancelled
        assert engine.pending_count() == 1
        engine.run()
        assert fired == ["keep"]
        assert engine.events_processed == 1
        assert engine.events_cancelled == 1
        assert engine.cancel(keep) is False  # already ran

    def test_cancelled_event_does_not_advance_clock(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        late = engine.schedule(9.0, lambda: fired.append(9))
        engine.cancel(late)
        engine.run()
        assert fired == [1]
        assert engine.now == 1.0
        assert engine.next_event_time() is None

    def test_cancel_head_then_step_runs_next_live_event(self):
        engine = SimulationEngine()
        fired = []
        head = engine.schedule(1.0, lambda: fired.append("head"))
        engine.schedule(2.0, lambda: fired.append("tail"))
        engine.cancel(head)
        event = engine.step()
        assert event is not None and event.time == 2.0
        assert fired == ["tail"]

    def test_run_until_with_only_cancelled_events_left(self):
        engine = SimulationEngine()
        event = engine.schedule(3.0, lambda: None)
        engine.cancel(event)
        assert engine.run(until=5.0) == 0
        assert engine.now == 5.0
        assert engine.pending_count() == 0


    def test_equal_time_and_priority_run_in_schedule_order_without_comparing_callbacks(self):
        """Ordering is settled by (time, priority, sequence) alone."""

        class Opaque:
            """A callback that refuses every comparison."""

            def __init__(self, log, name):
                self.log, self.name = log, name

            def __call__(self):
                self.log.append(self.name)

            def _refuse(self, other):
                raise AssertionError("the engine compared two callbacks")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
            __hash__ = object.__hash__

        engine = SimulationEngine()
        order = []
        for name in "abcdefgh":
            engine.schedule_at(1.0, Opaque(order, name), priority=3, label=name)
        engine.run()
        assert order == list("abcdefgh")

    def test_cancel_is_false_once_the_event_ran_or_was_cancelled(self):
        engine = SimulationEngine()
        ran = engine.schedule(1.0, lambda: None)
        dropped = engine.schedule(2.0, lambda: None)
        assert engine.step() is ran
        assert engine.cancel(ran) is False
        assert engine.cancel(dropped) is True
        assert engine.cancel(dropped) is False
        assert engine.events_cancelled == 1
        assert engine.step() is None  # only the tombstone was left
        assert engine.cancel(dropped) is False  # still False once reclaimed
        assert (engine.events_processed, engine.events_cancelled) == (1, 1)

    def test_accounting_across_tombstones_at_the_head_and_in_the_middle(self):
        engine = SimulationEngine()
        fired = []
        events = [
            engine.schedule_at(float(t), lambda t=t: fired.append(t)) for t in range(1, 7)
        ]
        for index in (0, 1, 3):  # the head twice over, and one in the middle
            assert engine.cancel(events[index])
        assert engine.pending_count() == 3
        assert engine.events_cancelled == 3
        assert engine.next_event_time() == 3.0
        assert engine.pending_count() == 3  # peeking reclaims tombstones only
        assert engine.step() is events[2]
        assert engine.next_event_time() == 5.0  # past the middle tombstone
        assert engine.cancel(events[5])
        assert engine.run() == 1
        assert fired == [3, 5]
        assert engine.now == 5.0
        assert engine.pending_count() == 0
        assert engine.next_event_time() is None
        assert (engine.events_processed, engine.events_cancelled) == (2, 4)

    def test_run_until_and_max_events_together(self):
        engine = SimulationEngine()
        fired = []
        for t in range(1, 9):
            engine.schedule_at(float(t), lambda t=t: fired.append(t))
        assert engine.run(until=6.0, max_events=4) == 4  # the cap binds first
        assert engine.now == 6.0  # ... and the clock still moves to until
        assert engine.run(until=6.5, max_events=4) == 2  # now until binds
        assert fired == [1, 2, 3, 4, 5, 6]
        assert engine.run(max_events=0) == 0
        assert engine.pending_count() == 2

    def test_stop_applies_to_the_current_run_only(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2.0, lambda: fired.append(2))
        engine.schedule(3.0, lambda: fired.append(3))
        assert engine.run(until=10.0) == 1
        engine.stop()  # between runs: forgotten by the next run
        assert engine.run() == 2
        assert fired == [1, 2, 3]

    def test_probe_sees_every_event_whether_stepped_or_run(self):
        """step() and run() are one loop, so the probe cannot miss an event."""
        engine = SimulationEngine()
        probed = []
        engine.metrics_probe = probed.append
        first = engine.schedule(2.0, lambda: None, label="first")
        engine.cancel(engine.schedule(3.0, lambda: None))
        engine.schedule(4.0, lambda: None)
        assert engine.step() is first
        assert engine.now == 2.0
        engine.run()
        assert probed == [2.0, 4.0]

    def test_nan_times_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(ValueError):
            engine.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            engine.schedule(float("nan"), lambda: None)
        assert engine.pending_count() == 0


class TestNetwork:
    def test_transfer_time_scales_with_size(self):
        latency = LatencyModel(base_latency_s=0.1, bandwidth_bytes_per_s=1000, jitter_fraction=0)
        assert latency.transfer_time(1000) == pytest.approx(1.1)
        assert latency.transfer_time(0) == pytest.approx(0.1)

    def test_transfer_records_and_counters(self):
        network = SimulatedNetwork(LatencyModel(jitter_fraction=0))
        message = network.transfer("a", "b", 500, now=1.0)
        assert message is not None
        assert message.delivered_at > 1.0
        assert network.bytes_sent["a"] == 500
        assert network.bytes_received["b"] == 500
        assert network.total_bytes_transferred() == 500

    def test_offline_nodes_fail_transfers(self):
        network = SimulatedNetwork()
        network.set_offline("b")
        assert network.transfer("a", "b", 100, now=0.0) is None
        network.set_offline("b", offline=False)
        assert network.transfer("a", "b", 100, now=0.0) is not None

    def test_meets_deadline(self):
        network = SimulatedNetwork(LatencyModel(base_latency_s=1.0, jitter_fraction=0))
        message = network.transfer("a", "b", 0, now=0.0)
        assert network.meets_deadline(message, deadline=2.0)
        assert not network.meets_deadline(message, deadline=0.5)
        assert not network.meets_deadline(None, deadline=10.0)

    def test_traffic_summary(self):
        network = SimulatedNetwork()
        network.transfer("a", "b", 10, now=0.0)
        network.transfer("b", "a", 20, now=0.0)
        summary = network.traffic_summary()
        assert summary["a"] == (10, 20)
        assert summary["b"] == (20, 10)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().transfer_time(-1)


class TestMetrics:
    def test_series_statistics(self):
        collector = MetricsCollector()
        for i, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            collector.record("usage", float(i), value)
        series = collector.series("usage")
        assert series.count() == 4
        assert series.mean() == pytest.approx(2.5)
        assert series.maximum() == 4.0
        assert series.minimum() == 1.0
        assert series.stddev() == pytest.approx(1.118, rel=0.01)
        assert series.percentile(50) == 2.0
        assert series.percentile(100) == 4.0

    def test_empty_series_statistics(self):
        collector = MetricsCollector()
        series = collector.series("empty")
        assert series.mean() == 0.0
        assert series.maximum() == 0.0
        assert series.stddev() == 0.0

    def test_percentile_bounds(self):
        collector = MetricsCollector()
        collector.record("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            collector.series("x").percentile(101)

    def test_summary_contains_all_series(self):
        collector = MetricsCollector()
        collector.record("a", 0.0, 1.0)
        collector.record("b", 0.0, 2.0)
        assert set(collector.summary()) == {"a", "b"}
        assert collector.names() == ["a", "b"]

    def test_format_table(self):
        rows = [{"x": 1, "y": "abc"}, {"x": 22, "y": "d"}]
        text = format_table(rows)
        assert "x" in text and "abc" in text
        assert len(text.splitlines()) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"
