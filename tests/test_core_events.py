"""Tests for the event log."""

from repro.core.events import EventLog, EventType


class TestEventLog:
    def test_emit_counts_per_type(self):
        log = EventLog()
        log.emit(EventType.FILE_STORED)
        log.emit(EventType.FILE_LOST)
        assert len(log) == 2
        assert log.count(EventType.FILE_STORED) == 1
        assert log.count(EventType.FILE_LOST) == 1
        assert log.count(EventType.SECTOR_REGISTERED) == 0

    def test_emit_of_a_count_is_emit_repeated(self):
        loop, batch = EventLog(), EventLog()
        for _ in range(5):
            loop.emit(EventType.FILE_STORED)
        batch.emit(EventType.FILE_STORED, 2)
        batch.emit(EventType.FILE_STORED, 3)
        batch.emit(EventType.FILE_LOST, 0)
        for event_type in EventType:
            assert batch.count(event_type) == loop.count(event_type)
        assert batch.count(EventType.FILE_STORED) == 5
        assert len(batch) == len(loop) == 5
