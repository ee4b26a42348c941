"""States of an on-chain sector record.

Figure 1 of the paper: ``sector : (owner, id, capacity, freeCap, state)``.
This is the *consensus* view of a sector -- the physical bytes live on a
provider's disk (:mod:`repro.storage.provider`); the engine keeps the
records as columns (:class:`repro.core.columnar.SectorTable`).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["SectorState"]


class SectorState(str, Enum):
    """Lifecycle states of an on-chain sector record."""

    #: Accepting new files.
    NORMAL = "normal"
    #: No longer accepting new files; waiting for its files to drain.
    DISABLED = "disable"
    #: Any bit lost -- deposit confiscated, every hosted replica unusable.
    CORRUPTED = "corrupted"
    #: Drained and removed from the network (deposit refunded).
    REMOVED = "removed"
