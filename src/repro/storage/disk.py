"""Physical disk model with corruption injection.

The unit the adversary attacks.  A disk holds named regions of bytes (one
region per sealed replica or Capacity Replica); corrupting the disk makes
every read of its contents fail, which matches the paper's definition: *a
sector is collapsed as long as any bit in this sector is lost*.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Disk", "DiskCorruptedError", "DiskFullError"]


class DiskCorruptedError(Exception):
    """Raised when reading from a corrupted disk."""


class DiskFullError(Exception):
    """Raised when a write would exceed the disk capacity."""


class Disk:
    """A fixed-capacity disk holding named byte regions."""

    def __init__(self, disk_id: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("disk capacity must be positive")
        self.disk_id = disk_id
        self.capacity = capacity
        self._regions: Dict[str, bytes] = {}
        self._corrupted = False

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes currently written."""
        return sum(len(data) for data in self._regions.values())

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self.used

    # ------------------------------------------------------------------
    # Region IO
    # ------------------------------------------------------------------
    def write(self, name: str, data: bytes) -> None:
        """Write (or overwrite) a named region."""
        existing = len(self._regions[name]) if name in self._regions else 0
        if self.used - existing + len(data) > self.capacity:
            raise DiskFullError(
                f"disk {self.disk_id}: writing {len(data)} bytes exceeds capacity"
            )
        self._regions[name] = data

    def read(self, name: str) -> bytes:
        """Read a region; raises if the disk is corrupted."""
        if self._corrupted:
            raise DiskCorruptedError(f"disk {self.disk_id} is corrupted")
        data = self._regions.get(name)
        if data is None:
            raise KeyError(f"disk {self.disk_id} has no region {name!r}")
        return data

    def delete(self, name: str) -> bool:
        """Remove a region; returns whether it existed."""
        return self._regions.pop(name, None) is not None

    # ------------------------------------------------------------------
    # Corruption
    # ------------------------------------------------------------------
    def corrupt(self) -> None:
        """Corrupt the whole disk (adversary or hardware failure)."""
        self._corrupted = True

    @property
    def is_corrupted(self) -> bool:
        """True once the disk is corrupted."""
        return self._corrupted

    def healthy(self) -> bool:
        """Convenience inverse of :attr:`is_corrupted`."""
        return not self.is_corrupted
