"""On-chain sector records.

Figure 1 of the paper: ``sector : (owner, id, capacity, freeCap, state)``.
This is the *consensus* view of a sector -- the physical bytes live on a
provider's disk (:mod:`repro.storage.provider`).  The record additionally
tracks the pledged deposit and how many replicas it currently stores so the
protocol can decide when a disabled sector may be removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["SectorState", "SectorRecord"]


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


@dataclass
class SectorRecord:
    """Consensus record of one registered sector."""

    owner: str
    sector_id: str
    capacity: int
    free_capacity: int
    state: SectorState = SectorState.NORMAL
    deposit: int = 0
    #: Number of replica allocations currently pointing at this sector
    #: (either as ``prev`` or as an in-flight ``next``).
    stored_replicas: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("sector capacity must be positive")
        if not 0 <= self.free_capacity <= self.capacity:
            raise ValueError("free capacity must lie within [0, capacity]")

    # ------------------------------------------------------------------
    # Capacity bookkeeping
    # ------------------------------------------------------------------
    @property
    def used_capacity(self) -> int:
        """Bytes committed to replicas."""
        return self.capacity - self.free_capacity

    def reserve(self, size: int) -> None:
        """Reserve ``size`` bytes for an incoming replica."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size > self.free_capacity:
            raise ValueError(
                f"sector {self.sector_id}: cannot reserve {size} bytes, "
                f"only {self.free_capacity} free"
            )
        self.free_capacity -= size
        self.stored_replicas += 1

    def release(self, size: int) -> None:
        """Release ``size`` bytes previously reserved."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if self.free_capacity + size > self.capacity:
            raise ValueError(
                f"sector {self.sector_id}: releasing {size} bytes would exceed capacity"
            )
        self.free_capacity += size
        self.stored_replicas = max(0, self.stored_replicas - 1)

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------
    @property
    def accepts_new_files(self) -> bool:
        """True if the sector may receive new replicas."""
        return self.state == SectorState.NORMAL

    @property
    def is_corrupted(self) -> bool:
        """True once the sector has collapsed."""
        return self.state == SectorState.CORRUPTED

    @property
    def is_drained(self) -> bool:
        """True when a disabled sector no longer stores any replica."""
        return self.state == SectorState.DISABLED and self.stored_replicas == 0
