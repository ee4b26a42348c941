"""Protocol event log.

Every externally observable protocol outcome -- files stored, proofs
missed, sectors corrupted, deposits confiscated, compensation paid -- is
counted in an :class:`EventLog`.  Experiments and tests read these counts
instead of poking at protocol internals, which keeps the state machine free
to evolve.  The log keeps one counter per event type, not event objects, so
emission stays O(1) in memory at a million files.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict

__all__ = ["EventType", "EventLog"]


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


class EventLog:
    """Per-type event counters."""

    def __init__(self) -> None:
        self._counts: Dict[EventType, int] = {}

    def emit(self, event_type: EventType, count: int = 1) -> None:
        """Count ``count`` events of one type."""
        self._counts[event_type] = self._counts.get(event_type, 0) + count

    def count(self, event_type: EventType) -> int:
        """Number of events of a given type."""
        return self._counts.get(event_type, 0)

    def __len__(self) -> int:
        return sum(self._counts.values())
