"""Tests for the event log."""

from repro.core.events import CountingEventLog, EventLog, EventType


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(EventType.FILE_STORED, 1.0, "file#1", owner="c")
        log.emit(EventType.FILE_LOST, 2.0, "file#2")
        assert len(log) == 2
        assert log.count(EventType.FILE_STORED) == 1
        assert log.of_type(EventType.FILE_LOST)[0].subject == "file#2"
        assert log.last().event_type == EventType.FILE_LOST
        assert log.last(EventType.FILE_STORED).subject == "file#1"

    def test_last_of_missing_type_is_none(self):
        log = EventLog()
        assert log.last() is None
        assert log.last(EventType.FILE_LOST) is None

    def test_describe_contains_type_and_subject(self):
        log = EventLog()
        event = log.emit(EventType.SECTOR_REGISTERED, 3.5, "p#0", capacity=10)
        assert "sector_registered" in event.describe()
        assert "p#0" in event.describe()

    def test_iteration_order(self):
        log = EventLog()
        for i in range(5):
            log.emit(EventType.RENT_CHARGED, float(i), f"file#{i}")
        times = [event.time for event in log]
        assert times == sorted(times)

    def test_counting_log_emit_many_is_emit_repeated(self):
        loop, batch = CountingEventLog(), CountingEventLog()
        for _ in range(5):
            loop.emit(EventType.FILE_STORED, 1.0, "")
        batch.emit_many(EventType.FILE_STORED, 2)
        batch.emit_many(EventType.FILE_STORED, 3)
        batch.emit_many(EventType.FILE_LOST, 0)  # no counter springs up
        assert batch.counts() == loop.counts() == {EventType.FILE_STORED: 5}
        assert len(batch) == len(loop) == 5
