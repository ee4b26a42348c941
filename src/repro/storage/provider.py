"""Storage provider actor: disks, sectors and swapping.

A provider rents out disk space divided into sectors (each an integer
multiple of ``minCapacity``), stores every file replica as its raw bytes,
keeps the free space of each sector filled with Capacity Replicas (DRep,
Section III-D), and swaps replicas in and out when the network refreshes
storage locations.  Sealing is a modelled cost
(:class:`repro.crypto.porep.PoRepParams`), not a transform of the stored
bytes: nothing reads a sealed replica, so a file region holds the file and
a Capacity Replica is a zero-filled region the disk counts by size.  No
storage proof (proof of spacetime) is produced: the protocol's health
oracle stands in for it.

This is the *physical* half of a provider.  The on-chain half (deposits,
allocation entries, punishments) lives in :mod:`repro.core.columnar`; the
simulation scenario wires the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.storage.disk import Disk

__all__ = ["ProviderSector", "StorageProvider", "SectorFullError"]


class SectorFullError(Exception):
    """Raised when a sector cannot hold an additional replica."""


@dataclass
class _StoredReplica:
    """Book-keeping for one replica held in a sector."""

    region: str
    size: int


class ProviderSector:
    """One sector: a fixed-capacity slice of a provider's disk.

    The sector keeps its unsealed space below one Capacity-Replica size by
    filling free space with CRs, as DRep requires, so that the whole sector
    is provable at all times.
    """

    def __init__(
        self,
        provider: "StorageProvider",
        sector_id: str,
        capacity: int,
        capacity_replica_size: int,
    ) -> None:
        if capacity <= 0:
            raise ValueError("sector capacity must be positive")
        if capacity_replica_size <= 0:
            raise ValueError("capacity_replica_size must be positive")
        self.provider = provider
        self.sector_id = sector_id
        self.capacity = capacity
        self.capacity_replica_size = capacity_replica_size
        self._files: Dict[bytes, _StoredReplica] = {}
        self._capacity_replicas: List[_StoredReplica] = []
        self._next_cr_index = 0
        # Running totals of the two collections above, kept in step by
        # store_file / remove_file / refill / evict.
        self._file_bytes = 0
        self._cr_bytes = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def used_by_files(self) -> int:
        """Bytes of file replicas stored."""
        return self._file_bytes

    @property
    def free_capacity(self) -> int:
        """Capacity not used by file replicas (CRs do not count as used)."""
        return self.capacity - self.used_by_files

    @property
    def capacity_replica_count(self) -> int:
        """Number of Capacity Replicas currently held."""
        return len(self._capacity_replicas)

    def unsealed_space(self) -> int:
        """Bytes covered by neither file replicas nor CRs.

        DRep requires this to stay below one CR size; :meth:`refill_capacity_replicas`
        maintains the invariant.
        """
        return self.capacity - self._file_bytes - self._cr_bytes

    # ------------------------------------------------------------------
    # Capacity replicas (DRep)
    # ------------------------------------------------------------------
    def refill_capacity_replicas(self) -> int:
        """Generate CRs until unsealed space is below one CR size.

        Returns how many CRs were (re)generated.  Regeneration does not need
        a fresh SNARK because CR roots were verified at registration
        (Section III-D); its modelled cost is
        :meth:`~repro.crypto.porep.PoRepParams.recovery_time`.
        """
        created = 0
        while (
            self.unsealed_space() >= self.capacity_replica_size
            and self.provider.disk.free >= self.capacity_replica_size
        ):
            region = f"{self.sector_id}/cr/{self._next_cr_index}"
            self._next_cr_index += 1
            self.provider.disk.write(region, bytes(self.capacity_replica_size))
            self._capacity_replicas.append(
                _StoredReplica(region=region, size=self.capacity_replica_size)
            )
            self._cr_bytes += self.capacity_replica_size
            created += 1
        return created

    def _evict_capacity_replicas(self, needed: int) -> None:
        """Drop CRs until ``needed`` bytes fit both the sector and the disk."""
        while self._capacity_replicas and (
            self.provider.disk.free < needed or self.unsealed_space() < needed
        ):
            victim = self._capacity_replicas.pop()
            self._cr_bytes -= victim.size
            self.provider.disk.delete(victim.region)

    # ------------------------------------------------------------------
    # File replicas
    # ------------------------------------------------------------------
    def store_file(self, file_root: bytes, data: bytes) -> None:
        """Store ``data`` as the replica of ``file_root`` in this sector.

        Re-storing a root overwrites its region, so the old bytes never
        linger on the disk.
        """
        if len(data) > self.free_capacity:
            raise SectorFullError(
                f"sector {self.sector_id}: {len(data)} bytes exceed free capacity "
                f"{self.free_capacity}"
            )
        region = f"{self.sector_id}/file/{file_root.hex()}"
        self._evict_capacity_replicas(len(data))
        self.provider.disk.write(region, data)
        replaced = self._files.get(file_root)
        if replaced is not None:
            self._file_bytes -= replaced.size
        self._file_bytes += len(data)
        self._files[file_root] = _StoredReplica(region=region, size=len(data))
        self.refill_capacity_replicas()

    def remove_file(self, file_root: bytes) -> bool:
        """Remove the replica of the file with ``file_root`` (discard/swap-out)."""
        stored = self._files.pop(file_root, None)
        if stored is None:
            return False
        self._file_bytes -= stored.size
        self.provider.disk.delete(stored.region)
        self.refill_capacity_replicas()
        return True

    def holds_file(self, file_root: bytes) -> bool:
        """True if the sector holds a replica for ``file_root``."""
        return file_root in self._files

    def read_raw_file(self, file_root: bytes) -> bytes:
        """Return the raw file bytes (retrieval and swap transfers)."""
        stored = self._files.get(file_root)
        if stored is None:
            raise KeyError(
                f"sector {self.sector_id} holds no replica for root {file_root.hex()[:16]}"
            )
        return self.provider.disk.read(stored.region)


class StorageProvider:
    """A provider actor owning one disk and any number of sectors on it."""

    def __init__(self, name: str, disk_capacity: int) -> None:
        self.name = name
        self.disk = Disk(disk_id=f"{name}/disk", capacity=disk_capacity)
        self._sectors: Dict[str, ProviderSector] = {}

    # ------------------------------------------------------------------
    # Sectors
    # ------------------------------------------------------------------
    def create_sector(
        self, sector_id: str, capacity: int, capacity_replica_size: int
    ) -> ProviderSector:
        """Carve a new sector out of the provider's disk and fill it with CRs."""
        allocated = sum(sector.capacity for sector in self._sectors.values())
        if allocated + capacity > self.disk.capacity:
            raise ValueError(
                f"provider {self.name}: sector capacity {capacity} exceeds remaining "
                f"disk space {self.disk.capacity - allocated}"
            )
        if sector_id in self._sectors:
            raise ValueError(f"sector id {sector_id!r} already used")
        sector = ProviderSector(self, sector_id, capacity, capacity_replica_size)
        self._sectors[sector_id] = sector
        sector.refill_capacity_replicas()
        return sector

    def sector(self, sector_id: str) -> ProviderSector:
        """Look up a sector by id."""
        return self._sectors[sector_id]

    def sectors(self) -> List[ProviderSector]:
        """All sectors owned by this provider."""
        return list(self._sectors.values())

    def total_capacity(self) -> int:
        """Sum of all sector capacities."""
        return sum(sector.capacity for sector in self._sectors.values())

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Corrupt the provider's disk: every sector on it collapses."""
        self.disk.corrupt()

    def is_healthy(self) -> bool:
        """True if the disk has not been corrupted."""
        return self.disk.healthy()
