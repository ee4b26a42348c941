"""Storage provider actor: disks, sectors, sealing, proving and swapping.

A provider rents out disk space divided into sectors (each an integer
multiple of ``minCapacity``), seals every stored file into a replica with
PoRep under a provider-specific key, keeps the free space of each sector
filled with Capacity Replicas (DRep, Section III-D), answers WindowPoSt
challenges, and swaps replicas in and out when the network refreshes
storage locations.

This is the *physical* half of a provider.  The on-chain half (deposits,
allocation entries, punishments) lives in :mod:`repro.core.protocol`; the
simulation scenario wires the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.hashing import ContentId, derive_key
from repro.crypto.porep import PoRepParams, PoRepProver, SealedReplica
from repro.crypto.post import PoStChallenge, PoStProof, WindowPoSt
from repro.storage.disk import Disk, DiskCorruptedError

__all__ = ["ProviderSector", "StorageProvider", "SectorFullError"]


class SectorFullError(Exception):
    """Raised when a sector cannot hold an additional replica."""


@dataclass
class _StoredReplica:
    """Book-keeping for one replica held in a sector."""

    region: str
    replica: SealedReplica
    file_root: bytes
    size: int
    is_capacity_replica: bool


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
        (Section III-D), so the cost charged by the simulation is only the
        sealing time.
        """
        created = 0
        while (
            self.unsealed_space() >= self.capacity_replica_size
            and self.provider.disk.free >= self.capacity_replica_size
        ):
            region = f"{self.sector_id}/cr/{self._next_cr_index}"
            self._next_cr_index += 1
            replica = self.provider.porep.capacity_replica(
                self.capacity_replica_size,
                self.provider.sealing_key(self.sector_id, region),
            )
            self.provider.disk.write(region, replica.data)
            self._capacity_replicas.append(
                _StoredReplica(
                    region=region,
                    replica=replica,
                    file_root=replica.commitment.data_root,
                    size=self.capacity_replica_size,
                    is_capacity_replica=True,
                )
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
    def store_file(self, file_root: bytes, data: bytes) -> SealedReplica:
        """Seal ``data`` and store the replica in this sector."""
        if len(data) > self.free_capacity:
            raise SectorFullError(
                f"sector {self.sector_id}: {len(data)} bytes exceed free capacity "
                f"{self.free_capacity}"
            )
        region = f"{self.sector_id}/file/{ContentId.of(data).short(16)}"
        key = self.provider.sealing_key(self.sector_id, region)
        replica = self.provider.porep.setup(data, key)
        self._evict_capacity_replicas(len(data))
        self.provider.disk.write(region, replica.data)
        replaced = self._files.get(file_root)
        if replaced is not None:
            self._file_bytes -= replaced.size
        self._file_bytes += len(data)
        self._files[file_root] = _StoredReplica(
            region=region,
            replica=replica,
            file_root=file_root,
            size=len(data),
            is_capacity_replica=False,
        )
        self.refill_capacity_replicas()
        return replica

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

    def stored_file_roots(self) -> List[bytes]:
        """Roots of all file replicas currently held."""
        return list(self._files)

    def read_raw_file(self, file_root: bytes) -> bytes:
        """Unseal and return the raw file bytes (used for swap transfers)."""
        stored = self._require(file_root)
        sealed_bytes = self.provider.disk.read(stored.region)
        key = self.provider.sealing_key(self.sector_id, stored.region)
        replica = SealedReplica(data=sealed_bytes, commitment=stored.replica.commitment)
        return self.provider.porep.unseal(replica, key)

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def prove_file(self, file_root: bytes, challenge: PoStChallenge) -> PoStProof:
        """Answer a WindowPoSt challenge for one file replica.

        Reads the replica bytes from disk, so a corrupted disk raises
        :class:`DiskCorruptedError` and no proof can be produced -- the
        behaviour the protocol's punishment logic depends on.
        """
        stored = self._require(file_root)
        sealed_bytes = self.provider.disk.read(stored.region)
        replica = SealedReplica(data=sealed_bytes, commitment=stored.replica.commitment)
        return self.provider.window_post.prove(
            replica, challenge, self.provider.name.encode("utf-8")
        )

    def commitment_for(self, file_root: bytes):
        """Replica commitment for ``file_root`` (needed to build challenges)."""
        return self._require(file_root).replica.commitment

    def _require(self, file_root: bytes) -> _StoredReplica:
        stored = self._files.get(file_root)
        if stored is None:
            raise KeyError(
                f"sector {self.sector_id} holds no replica for root {file_root.hex()[:16]}"
            )
        return stored


class StorageProvider:
    """A provider actor owning one disk and any number of sectors on it."""

    def __init__(
        self,
        name: str,
        disk_capacity: int,
        porep_params: Optional[PoRepParams] = None,
        window_post: Optional[WindowPoSt] = None,
        secret_seed: Optional[bytes] = None,
    ) -> None:
        self.name = name
        self.disk = Disk(disk_id=f"{name}/disk", capacity=disk_capacity)
        self.porep = PoRepProver(porep_params)
        self.window_post = window_post or WindowPoSt()
        self._secret_seed = secret_seed or derive_key(b"provider-secret", name)
        self._sectors: Dict[str, ProviderSector] = {}

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def sealing_key(self, sector_id: str, region: str) -> bytes:
        """Provider- and region-specific sealing key (Sybil resistance)."""
        return derive_key(self._secret_seed, f"{sector_id}:{region}")

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
