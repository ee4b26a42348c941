"""Protocol event log.

Every externally observable protocol outcome -- files stored, proofs
missed, sectors corrupted, deposits confiscated, compensation paid -- is
appended to an :class:`EventLog`.  Experiments and tests read this log
instead of poking at protocol internals, which keeps the state machine free
to evolve and gives a single audit trail per simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["EventType", "ProtocolEvent", "EventLog", "CountingEventLog"]


class EventType(str, Enum):
    """Kinds of protocol events."""

    FILE_ADD_REQUESTED = "file_add_requested"
    FILE_STORED = "file_stored"
    FILE_UPLOAD_FAILED = "file_upload_failed"
    FILE_DISCARDED = "file_discarded"
    FILE_LOST = "file_lost"
    FILE_COMPENSATED = "file_compensated"
    FILE_REFRESH_STARTED = "file_refresh_started"
    FILE_REFRESH_COMPLETED = "file_refresh_completed"
    FILE_REFRESH_FAILED = "file_refresh_failed"
    SECTOR_REGISTERED = "sector_registered"
    SECTOR_DISABLED = "sector_disabled"
    SECTOR_REMOVED = "sector_removed"
    SECTOR_CORRUPTED = "sector_corrupted"
    DEPOSIT_PLEDGED = "deposit_pledged"
    DEPOSIT_REFUNDED = "deposit_refunded"
    DEPOSIT_CONFISCATED = "deposit_confiscated"
    PROVIDER_PUNISHED = "provider_punished"
    RENT_CHARGED = "rent_charged"
    RENT_DISTRIBUTED = "rent_distributed"
    TRAFFIC_FEE_PAID = "traffic_fee_paid"
    COLLISION_RESAMPLED = "collision_resampled"


@dataclass(frozen=True)
class ProtocolEvent:
    """One protocol event."""

    event_type: EventType
    time: float
    subject: str
    details: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Human readable one-liner for logs and examples."""
        return f"[t={self.time:.1f}] {self.event_type.value}: {self.subject} {self.details}"


class EventLog:
    """Append-only log of protocol events with simple query helpers."""

    def __init__(self) -> None:
        self._events: List[ProtocolEvent] = []

    def emit(
        self,
        event_type: EventType,
        time: float,
        subject: str,
        **details: Any,
    ) -> ProtocolEvent:
        """Record an event and return it."""
        event = ProtocolEvent(
            event_type=event_type, time=time, subject=subject, details=dict(details)
        )
        self._events.append(event)
        return event

    def all(self) -> List[ProtocolEvent]:
        """Every event in emission order."""
        return list(self._events)

    def of_type(self, event_type: EventType) -> List[ProtocolEvent]:
        """All events of a given type."""
        return [event for event in self._events if event.event_type == event_type]

    def count(self, event_type: EventType) -> int:
        """Number of events of a given type."""
        return sum(1 for event in self._events if event.event_type == event_type)

    def last(self, event_type: Optional[EventType] = None) -> Optional[ProtocolEvent]:
        """Latest event (optionally of a given type)."""
        if event_type is None:
            return self._events[-1] if self._events else None
        for event in reversed(self._events):
            if event.event_type == event_type:
                return event
        return None

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class CountingEventLog:
    """Event sink that keeps per-type counters instead of event objects.

    The columnar protocol engine targets million-file runs where an
    append-only object log would dominate peak RSS; experiments at that
    scale only consume the log through :meth:`count`, so this drop-in
    replacement keeps emission O(1) in memory.  Queries that need the
    event *objects* (``all``/``of_type``/``last``) report nothing -- code
    that depends on them should run on the object engine.
    """

    def __init__(self) -> None:
        self._counts: Dict[EventType, int] = {}

    def emit(
        self,
        event_type: EventType,
        time: float,
        subject: str,
        **details: Any,
    ) -> None:
        """Count an event (the payload is discarded)."""
        self._counts[event_type] = self._counts.get(event_type, 0) + 1

    def emit_many(self, event_type: EventType, count: int) -> None:
        """Count ``count`` events of one type (one update, not ``count``)."""
        if count:
            self._counts[event_type] = self._counts.get(event_type, 0) + count

    def count(self, event_type: EventType) -> int:
        """Number of events of a given type."""
        return self._counts.get(event_type, 0)

    def counts(self) -> Dict[EventType, int]:
        """Snapshot of every per-type counter."""
        return dict(self._counts)

    def all(self) -> List[ProtocolEvent]:
        """Counting mode retains no event objects."""
        return []

    def of_type(self, event_type: EventType) -> List[ProtocolEvent]:
        """Counting mode retains no event objects."""
        return []

    def last(self, event_type: Optional[EventType] = None) -> Optional[ProtocolEvent]:
        """Counting mode retains no event objects."""
        return None

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return iter(())

    def __len__(self) -> int:
        return sum(self._counts.values())
