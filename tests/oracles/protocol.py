"""The readable Figure 1 spec of the FileInsurer protocol.

One Python object per sector record, file descriptor and replica
allocation, and one method per rule of Figures 4-9: File Add / Confirm /
Prove / Discard / Get, Sector Register / Disable, and the Auto tasks
(CheckAlloc, CheckProof, Refresh, CheckRefresh) plus periodic rent.

This is the engine the program ran before it kept one protocol state
layout.  :class:`repro.core.columnar.ColumnarProtocol` must leave exactly
the state this spec leaves for every operation stream -- same PRNG
consumption, same kernel calls, same ledger operations in the same order
-- and every engine differential (the state machine of
``test_engine_machine.py``, ``test_core_columnar.py``, the columnar
benchmark) compares against it.  It shares with the program only what is not state
layout: the pending list, the event log, the selector, fees, deposits and
the ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.chain.ledger import InsufficientFundsError, Ledger
from repro.core.allocation import AllocState
from repro.core.deposit import CompensationShortfallError, InsuranceFund
from repro.core.events import EventLog, EventType
from repro.core.fees import FeeEngine, TrafficEscrow
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.core.pending import (
    CHECK_ALLOC,
    CHECK_PROOF,
    CHECK_REFRESH,
    RENT_PERIOD,
    PendingList,
)
from repro.core.protocol import ProtocolError, RefreshNotice
from repro.core.sector import SectorState
from repro.core.selector import CapacitySelector
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import KernelBackend
from repro.kernels.sampling import MAX_TOTAL_WEIGHT

__all__ = [
    "AllocEntry",
    "AllocationTable",
    "FileDescriptor",
    "FileInsurerProtocol",
    "SectorRecord",
    "fingerprint",
    "random_sector",
    "select_batch",
]


# ======================================================================
# Figure 1's records
# ======================================================================
@dataclass
class SectorRecord:
    """``sector : (owner, id, capacity, freeCap, state)``, plus the pledged
    deposit."""

    owner: str
    sector_id: str
    capacity: int
    free_capacity: int
    state: SectorState = SectorState.NORMAL
    deposit: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("sector capacity must be positive")
        if not 0 <= self.free_capacity <= self.capacity:
            raise ValueError("free capacity must lie within [0, capacity]")

    @property
    def used_capacity(self) -> int:
        return self.capacity - self.free_capacity

    def reserve(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        if size > self.free_capacity:
            raise ValueError(
                f"sector {self.sector_id}: cannot reserve {size} bytes, "
                f"only {self.free_capacity} free"
            )
        self.free_capacity -= size

    def release(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        if self.free_capacity + size > self.capacity:
            raise ValueError(
                f"sector {self.sector_id}: releasing {size} bytes would exceed capacity"
            )
        self.free_capacity += size

    @property
    def accepts_new_files(self) -> bool:
        return self.state == SectorState.NORMAL

    @property
    def is_corrupted(self) -> bool:
        return self.state == SectorState.CORRUPTED

    @property
    def is_drained(self) -> bool:
        # Replicas are positive sizes, so no free byte is missing exactly
        # when none is reserved.
        return self.state == SectorState.DISABLED and self.free_capacity == self.capacity


@dataclass
class FileDescriptor:
    """``fileDescriptor : (size, value, merkleRoot, cp, cntdown, state)``,
    plus the owner, the id and the fee / compensation totals."""

    file_id: int
    owner: str
    size: int
    value: int
    merkle_root: bytes
    replica_count: int
    countdown: int = -1
    state: FileState = FileState.PENDING
    rent_paid: int = 0
    compensation_received: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("file size must be non-negative")
        if self.value <= 0:
            raise ValueError("file value must be positive")
        if self.replica_count <= 0:
            raise ValueError("replica count must be positive")

    @property
    def is_active(self) -> bool:
        return self.state in (FileState.PENDING, FileState.NORMAL)

    def describe(self) -> str:
        return (
            f"file#{self.file_id} owner={self.owner} size={self.size} "
            f"value={self.value} cp={self.replica_count} state={self.state.value}"
        )


@dataclass
class AllocEntry:
    """``allocEntry : (prev, next, last, state)`` of one replica."""

    prev: Optional[str] = None
    next: Optional[str] = None
    last_proof: float = -1.0
    state: AllocState = AllocState.ALLOC


class AllocationTable:
    """``allocTable : {(fileDescriptor, index) -> allocEntry}``."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], AllocEntry] = {}
        self._by_file: Dict[int, List[int]] = {}

    def set(self, file_id: int, index: int, entry: AllocEntry) -> None:
        if (file_id, index) not in self._entries:
            self._by_file.setdefault(file_id, []).append(index)
        self._entries[(file_id, index)] = entry

    def get(self, file_id: int, index: int) -> AllocEntry:
        return self._entries[(file_id, index)]

    def try_get(self, file_id: int, index: int) -> Optional[AllocEntry]:
        return self._entries.get((file_id, index))

    def has(self, file_id: int, index: int) -> bool:
        return (file_id, index) in self._entries

    def remove_file(self, file_id: int) -> int:
        indices = self._by_file.pop(file_id, [])
        for index in indices:
            del self._entries[(file_id, index)]
        return len(indices)

    def entries_for_file(self, file_id: int) -> List[Tuple[int, AllocEntry]]:
        """All ``(index, entry)`` pairs of one file, ordered by index."""
        indices = self._by_file.get(file_id)
        if not indices:
            return []
        return [(index, self._entries[(file_id, index)]) for index in sorted(indices)]

    def entries_on_sector(self, sector_id: str) -> List[Tuple[int, int, AllocEntry]]:
        """All ``(file_id, index, entry)`` whose prev or next is ``sector_id``."""
        return [
            (key[0], key[1], entry)
            for key, entry in self._entries.items()
            if entry.prev == sector_id or entry.next == sector_id
        ]

    def file_is_lost(self, file_id: int) -> bool:
        """A file is missing iff every sector storing it is corrupted."""
        entries = self.entries_for_file(file_id)
        if not entries:
            return False
        return all(entry.state == AllocState.CORRUPTED for _, entry in entries)

    def replica_locations(self, file_id: int) -> List[Optional[str]]:
        return [entry.prev for _, entry in self.entries_for_file(file_id)]

    def __len__(self) -> int:
        return len(self._entries)


def select_batch(
    selector: CapacitySelector, sizes: List[int], free: Dict[str, int]
) -> List[Optional[str]]:
    """Figure 4's placement of a replica set against the free capacities
    ``free`` (sector id -> bytes), as sector ids (``None``: every attempt
    collided)."""
    keys = selector._sampler._keys
    column = [0 if key is None else free[key] for key in keys]
    return [None if slot < 0 else keys[slot] for slot in selector.select_batch_slots(sizes, column)]


def random_sector(selector: CapacitySelector) -> str:
    """``RandomSector()``: one capacity-proportional draw, as a sector id."""
    return selector._sampler._keys[selector.random_slot()]


# ======================================================================
# The state machine
# ======================================================================
class FileInsurerProtocol:
    """On-chain state machine of the FileInsurer DSN, one object per record."""

    def __init__(
        self,
        params: Optional[ProtocolParams] = None,
        ledger: Optional[Ledger] = None,
        prng: Optional[DeterministicPRNG] = None,
        health_oracle: Optional[Callable[[str], bool]] = None,
        auto_prove: bool = False,
        charge_fees: bool = True,
        backend: Optional[Union[str, KernelBackend]] = None,
        draw_batch: int = 1,
    ) -> None:
        self.params = params or ProtocolParams.small_test()
        self.ledger = ledger or Ledger()
        self.prng = prng or DeterministicPRNG.from_int(2022, domain="fileinsurer-protocol")
        self.events = EventLog()
        self.selector = CapacitySelector(
            self.prng.spawn("sector-selection"), backend=backend, draw_batch=draw_batch
        )
        self.fund = InsuranceFund(self.ledger)
        self.fees = FeeEngine(self.ledger, self.params)
        self.pending = PendingList()
        self.alloc = AllocationTable()
        self.health_oracle = health_oracle
        self.auto_prove = auto_prove
        self.charge_fees = charge_fees

        self.now = 0.0
        self.sectors: Dict[str, SectorRecord] = {}
        self.files: Dict[int, FileDescriptor] = {}
        self._sector_counter: Dict[str, int] = {}
        self._traffic_escrows: Dict[Tuple[int, int], TrafficEscrow] = {}
        self.refresh_notices: List[RefreshNotice] = []

        self.total_value_stored = 0
        self.total_value_lost = 0
        self.total_value_compensated = 0
        self.files_lost = 0
        self.files_stored = 0

        if self.charge_fees:
            self.pending.schedule(self.now + self.params.rent_period, RENT_PERIOD)

    # ==================================================================
    # Time
    # ==================================================================
    def advance_time(self, until: float) -> None:
        """Advance the clock to ``until``, executing due Auto tasks in
        order; every maximal run of one kind goes to its handler whole."""
        if not until >= self.now:
            raise ValueError("time cannot move backwards")
        while True:
            next_time = self.pending.peek_time()
            if next_time is None or next_time > until:
                break
            self.now = max(self.now, next_time)
            kinds, file_ids, indexes = self.pending.pop_due_arrays(self.now)
            ends = (np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist()
            ends.append(len(kinds))
            i = 0
            for j in ends:
                kind = kinds[i]
                if kind == CHECK_PROOF:
                    self._check_proof_run(file_ids[i:j])
                elif kind == CHECK_ALLOC:
                    self._check_alloc_run(file_ids[i:j])
                elif kind == CHECK_REFRESH:
                    self._check_refresh_run(file_ids[i:j], indexes[i:j])
                else:
                    for _ in range(i, j):
                        self._auto_rent_period()
                i = j
        self.now = until

    def _check_alloc_run(self, file_ids: np.ndarray) -> None:
        for file_id in file_ids.tolist():
            self._auto_check_alloc(file_id)

    def _check_proof_run(self, file_ids: np.ndarray) -> None:
        for file_id in file_ids.tolist():
            self._auto_check_proof(file_id)

    def _check_refresh_run(self, file_ids: np.ndarray, indexes: np.ndarray) -> None:
        for file_id, index in zip(file_ids.tolist(), indexes.tolist()):
            self._auto_check_refresh(file_id, index)

    def run_until_idle(self, max_time: Optional[float] = None) -> None:
        while True:
            next_time = self.pending.peek_time()
            if next_time is None:
                break
            if max_time is not None and next_time > max_time:
                self.advance_time(max_time)
                return
            self.advance_time(next_time)

    # ==================================================================
    # Sector protocol
    # ==================================================================
    def sector_register(self, owner: str, capacity: int) -> str:
        """``Sector Register``: pledge a deposit and add the sector."""
        if capacity <= 0 or capacity % self.params.min_capacity != 0:
            raise ProtocolError(
                "sector capacity must be a positive multiple of min_capacity"
            )
        selectable = self.selector.total_weight + capacity
        if selectable >= MAX_TOTAL_WEIGHT:
            raise ProtocolError(
                f"sector capacity {capacity} would bring the selectable total to "
                f"{selectable}, at or past the sampler's bound of 2**62"
            )
        count = self._sector_counter.get(owner, 0)
        self._sector_counter[owner] = count + 1
        sector_id = f"{owner}#{count}"
        deposit = 0
        if self.charge_fees:
            deposit = self.params.sector_deposit(capacity)
            try:
                self.fees.charge_gas(owner, "sector_register")
                self.fund.pledge(sector_id, owner, deposit)
            except InsufficientFundsError as exc:
                self._sector_counter[owner] = count
                raise ProtocolError(
                    f"cannot cover gas and a deposit of {deposit}: {exc}"
                ) from exc
        self.sectors[sector_id] = SectorRecord(
            owner=owner,
            sector_id=sector_id,
            capacity=capacity,
            free_capacity=capacity,
            deposit=deposit,
        )
        self.selector.add_sector(sector_id, capacity)
        self.events.emit(EventType.SECTOR_REGISTERED)
        if deposit:
            self.events.emit(EventType.DEPOSIT_PLEDGED)
        return sector_id

    def sector_disable(self, owner: str, sector_id: str) -> None:
        """``Sector Disable``: the sector stops accepting new files."""
        record = self._sector(sector_id)
        if record.owner != owner:
            raise ProtocolError(f"{owner} does not own sector {sector_id}")
        if record.state != SectorState.NORMAL:
            raise ProtocolError(f"sector {sector_id} is not in normal state")
        if self.charge_fees:
            self.fees.charge_gas(owner, "sector_disable")
        record.state = SectorState.DISABLED
        self.selector.remove_sector(sector_id)
        self.events.emit(EventType.SECTOR_DISABLED)
        self._maybe_remove_sector(record)

    # ==================================================================
    # File protocol -- client requests
    # ==================================================================
    def file_add(self, owner: str, size: int, value: int, merkle_root: bytes) -> int:
        """``File Add``: the one-file :meth:`file_add_batch`."""
        return self.file_add_batch(owner, [size], [value], merkle_root)[0]

    def file_add_batch(
        self, owner: str, sizes: List[int], values: List[int], merkle_root: bytes
    ) -> List[int]:
        """Batched ``File Add``.

        Every file is validated before any state changes; the admission
        limits cut the batch at the first file that would exceed them
        (raising if that is the first); gas for the admitted prefix is
        charged first; all placements are one kernel call; the per-file
        bookkeeping then stops after the first file whose placement failed.
        """
        if len(sizes) != len(values):
            raise ProtocolError("file_add_batch: sizes and values must align")
        sizes = [int(size) for size in sizes]
        values = [int(value) for value in values]
        for size in sizes:
            if size <= 0:
                raise ProtocolError("file size must be positive")
            if size > self.params.size_limit:
                raise ProtocolError(
                    f"file size {size} exceeds size_limit={self.params.size_limit}; "
                    "use repro.core.large_files to segment it first"
                )
        for value in values:
            if value <= 0 or value % self.params.min_value:
                raise ProtocolError(
                    "file value must be a positive multiple of "
                    f"min_value={self.params.min_value}"
                )
        if not sizes:
            return []
        replica_counts = [self.params.replica_count(value) for value in values]
        admitted = self._admitted_prefix(sizes, values, replica_counts)
        gas_ok = admitted
        if self.charge_fees:
            for index in range(admitted):
                try:
                    self.fees.charge_gas(owner, "file_add")
                except InsufficientFundsError:
                    if index == 0:
                        raise
                    gas_ok = index
                    break
        expanded = [sizes[i] for i in range(gas_ok) for _ in range(replica_counts[i])]
        free = {sector_id: record.free_capacity for sector_id, record in self.sectors.items()}
        placements = select_batch(self.selector, expanded, free)
        ids: List[int] = []
        cursor = 0
        for i in range(gas_ok):
            drawn = placements[cursor : cursor + replica_counts[i]]
            cursor += replica_counts[i]
            ids.append(self._place_file(owner, sizes[i], values[i], merkle_root, drawn))
            if None in drawn:
                break
        return ids

    def _place_file(
        self,
        owner: str,
        size: int,
        value: int,
        merkle_root: bytes,
        placements: List[Optional[str]],
    ) -> int:
        """Figure 4 for one admitted file: reserve each drawn sector and
        schedule ``Auto CheckAlloc``; the first ``None`` fails the upload."""
        file_id = len(self.files)
        descriptor = FileDescriptor(
            file_id=file_id,
            owner=owner,
            size=size,
            value=value,
            merkle_root=merkle_root,
            replica_count=len(placements),
        )
        self.files[file_id] = descriptor
        self.events.emit(EventType.FILE_ADD_REQUESTED)
        for index, sector_id in enumerate(placements):
            if sector_id is None:
                self._remove_file(descriptor)
                descriptor.state = FileState.FAILED
                self.events.emit(EventType.FILE_UPLOAD_FAILED)
                return file_id
            record = self.sectors[sector_id]
            record.reserve(size)
            self.alloc.set(file_id, index, AllocEntry(next=sector_id))
            if self.charge_fees:
                escrow = self.fees.commit_traffic_fee(owner, record.owner, size)
                self._traffic_escrows[(file_id, index)] = escrow
        deadline = self.now + self.params.transfer_deadline(size)
        self.pending.schedule(deadline, CHECK_ALLOC, file_id)
        return file_id

    def _admitted_prefix(
        self, sizes: List[int], values: List[int], replica_counts: List[int]
    ) -> int:
        """Longest batch prefix the admission limits accept, each file
        assuming its predecessors were fully placed."""
        total_capacity = self.total_capacity()
        if total_capacity <= 0:
            raise ProtocolError("no registered capacity in the network")
        max_value = self.params.max_value_capacity(total_capacity)
        replica_budget = total_capacity / self.params.redundancy_factor
        base_value = self.total_value_stored - self.total_value_lost
        base_bytes = self.stored_replica_bytes()
        admitted = 0
        cumulative_value = 0
        cumulative_bytes = 0
        for size, value, replica_count in zip(sizes, values, replica_counts):
            if base_value + cumulative_value + value > max_value:
                break
            if base_bytes + cumulative_bytes + size * replica_count > replica_budget:
                break
            cumulative_value += value
            cumulative_bytes += size * replica_count
            admitted += 1
        if admitted == 0:
            self._check_admission(sizes[0], values[0], replica_counts[0])
        return admitted

    def _check_admission(self, size: int, value: int, replica_count: int) -> None:
        """Theorem 1's value limit and the redundant-capacity byte budget."""
        total_capacity = self.total_capacity()
        max_value = self.params.max_value_capacity(total_capacity)
        projected_value = (self.total_value_stored - self.total_value_lost) + value
        if projected_value > max_value:
            raise ProtocolError(
                f"value limit exceeded: storing {value} would bring the total to "
                f"{projected_value} > Nm_v*minValue = {max_value}"
            )
        replica_budget = total_capacity / self.params.redundancy_factor
        projected_replica_bytes = self.stored_replica_bytes() + size * replica_count
        raise ProtocolError(
            f"capacity limit exceeded: {projected_replica_bytes} replica bytes "
            f"would exceed the redundant-capacity budget of {replica_budget:.0f}"
        )

    def confirm_batch(self, file_ids: List[int]) -> List[int]:
        """``File Confirm`` of every awaiting replica of ``file_ids`` by its
        sector's owner; returns the ids now fully confirmed."""
        confirmed: List[int] = []
        for file_id in file_ids:
            descriptor = self.files.get(file_id)
            if descriptor is None or descriptor.state != FileState.PENDING:
                continue
            entries = self.alloc.entries_for_file(file_id)
            if not entries:
                continue
            complete = True
            for index, entry in entries:
                if entry.state == AllocState.ALLOC and entry.next is not None:
                    self.file_confirm(
                        self.sectors[entry.next].owner, file_id, index, entry.next
                    )
                if entry.state != AllocState.CONFIRM:
                    complete = False
            if complete:
                confirmed.append(file_id)
        return confirmed

    def file_discard(self, owner: str, file_id: int) -> None:
        """``File Discard``: removed at the next ``Auto CheckProof``."""
        descriptor = self._file(file_id)
        if descriptor.owner != owner:
            raise ProtocolError(f"{owner} does not own file#{file_id}")
        if not descriptor.is_active:
            raise ProtocolError(f"file#{file_id} is not active")
        if self.charge_fees:
            self.fees.charge_gas(owner, "file_discard")
        descriptor.state = FileState.DISCARDED
        self.events.emit(EventType.FILE_DISCARDED)

    def file_locations(self, file_id: int) -> List[Optional[str]]:
        """``File Get`` support: current sector of every replica."""
        self._file(file_id)
        return self.alloc.replica_locations(file_id)

    # ==================================================================
    # File protocol -- provider requests
    # ==================================================================
    def file_confirm(self, provider: str, file_id: int, index: int, sector_id: str) -> None:
        """``File Confirm``: a sector acknowledges receipt of a replica."""
        record = self._sector(sector_id)
        if record.owner != provider:
            raise ProtocolError(f"{provider} does not own sector {sector_id}")
        entry = self.alloc.try_get(file_id, index)
        if entry is None:
            raise ProtocolError(f"no allocation for file#{file_id} replica {index}")
        if entry.next != sector_id or entry.state != AllocState.ALLOC:
            raise ProtocolError(
                f"allocation of file#{file_id}[{index}] is not awaiting {sector_id}"
            )
        entry.state = AllocState.CONFIRM
        escrow = self._traffic_escrows.pop((file_id, index), None)
        if escrow is not None:
            self.fees.release_traffic_fee(escrow)
            self.events.emit(EventType.TRAFFIC_FEE_PAID)

    def file_prove(self, provider: str, file_id: int, index: int, sector_id: str) -> None:
        """``File Prove``: record a storage proof for one replica, now."""
        record = self._sector(sector_id)
        if record.owner != provider:
            raise ProtocolError(f"{provider} does not own sector {sector_id}")
        entry = self.alloc.try_get(file_id, index)
        if entry is None:
            raise ProtocolError(f"no allocation for file#{file_id} replica {index}")
        if entry.prev != sector_id:
            raise ProtocolError(
                f"sector {sector_id} is not the current host of file#{file_id}[{index}]"
            )
        entry.last_proof = max(entry.last_proof, self.now)

    # ==================================================================
    # Auto tasks
    # ==================================================================
    def _auto_check_alloc(self, file_id: int) -> None:
        """``Auto CheckAlloc`` (Figure 7)."""
        descriptor = self.files.get(file_id)
        if descriptor is None or descriptor.state not in (FileState.PENDING, FileState.DISCARDED):
            return
        entries = self.alloc.entries_for_file(file_id)
        unconfirmed = [
            index
            for index, entry in entries
            if entry.state not in (AllocState.CONFIRM, AllocState.CORRUPTED)
        ]
        if unconfirmed or descriptor.state == FileState.DISCARDED:
            self._remove_file(descriptor)
            descriptor.state = FileState.FAILED
            self.events.emit(EventType.FILE_UPLOAD_FAILED)
            return
        for _, entry in entries:
            if entry.state == AllocState.CONFIRM:
                entry.prev, entry.next = entry.next, None
                entry.last_proof = self.now
                entry.state = AllocState.NORMAL
            else:  # corrupted during the transfer window
                entry.prev = entry.next = None
                entry.last_proof = -1.0
                entry.state = AllocState.CORRUPTED
        descriptor.state = FileState.NORMAL
        descriptor.countdown = self._sample_refresh_countdown()
        self.files_stored += 1
        self.total_value_stored += descriptor.value
        self.pending.schedule(self.now + self.params.proof_cycle, CHECK_PROOF, file_id)
        self.events.emit(EventType.FILE_STORED)

    def _auto_check_proof(self, file_id: int) -> None:
        """``Auto CheckProof`` (Figure 8)."""
        descriptor = self.files.get(file_id)
        if descriptor is None or descriptor.state in (FileState.LOST, FileState.FAILED):
            return
        # 1. Charge the client for the next cycle (or force-discard).
        if self.charge_fees and descriptor.state == FileState.NORMAL:
            if not self.fees.can_afford_cycle(
                descriptor.owner, descriptor.size, descriptor.replica_count
            ):
                descriptor.state = FileState.DISCARDED
                self.events.emit(EventType.FILE_DISCARDED)
            else:
                descriptor.rent_paid += self.fees.charge_cycle(
                    descriptor.owner, descriptor.size, descriptor.replica_count
                )
                self.events.emit(EventType.RENT_CHARGED)
        # 2. Check proof freshness for every replica still hosted somewhere.
        if self.auto_prove and self.health_oracle is not None:
            self._credit_automatic_proofs(file_id)
        for _, entry in self.alloc.entries_for_file(file_id):
            if entry.state == AllocState.CORRUPTED or entry.prev is None:
                continue
            hosting = self.sectors[entry.prev]
            if hosting.is_corrupted:
                entry.state = AllocState.CORRUPTED
                continue
            if entry.last_proof < self.now - self.params.proof_deadline:
                self._handle_sector_corruption(hosting)
            elif entry.last_proof < self.now - self.params.proof_due:
                self._punish(hosting.owner, self.params.late_proof_penalty)
        # 3. Resolve the file's fate.
        if descriptor.state == FileState.DISCARDED:
            self._remove_file(descriptor)
            return
        if self.alloc.file_is_lost(file_id):
            self._handle_file_loss(descriptor)
            return
        # 4. Schedule the next checkpoint and maybe a refresh.
        self.pending.schedule(self.now + self.params.proof_cycle, CHECK_PROOF, file_id)
        descriptor.countdown -= 1
        if descriptor.countdown <= 0:
            index = self.prng.randint(0, descriptor.replica_count - 1)
            self._auto_refresh(file_id, index)

    def _auto_refresh(self, file_id: int, index: int) -> None:
        """``Auto Refresh`` (Figure 9): move one replica to a random sector."""
        descriptor = self.files[file_id]
        if descriptor.state != FileState.NORMAL:
            return
        entry = self.alloc.try_get(file_id, index)
        if entry is None or entry.state != AllocState.NORMAL or len(self.selector) == 0:
            # Replica unavailable or mid-transfer, or nowhere to go: postpone.
            descriptor.countdown = self._sample_refresh_countdown()
            return
        target = random_sector(self.selector)
        record = self.sectors[target]
        if record.free_capacity < descriptor.size or not record.accepts_new_files:
            # Collision: the paper resamples the countdown and tries later.
            self.events.emit(EventType.COLLISION_RESAMPLED)
            descriptor.countdown = self._sample_refresh_countdown()
            return
        record.reserve(descriptor.size)
        entry.next = target
        entry.state = AllocState.ALLOC
        deadline = self.now + self.params.transfer_deadline(descriptor.size)
        self.pending.schedule(deadline, CHECK_REFRESH, file_id, index)
        self.refresh_notices.append(
            RefreshNotice(file_id, index, entry.prev, target, deadline)
        )
        self.events.emit(EventType.FILE_REFRESH_STARTED)

    def _auto_check_refresh(self, file_id: int, index: int) -> None:
        """``Auto CheckRefresh`` (Figure 9)."""
        descriptor = self.files.get(file_id)
        entry = self.alloc.try_get(file_id, index)
        if descriptor is None or entry is None:
            return
        if descriptor.state != FileState.NORMAL:
            # Discarded or lost while the swap was in flight.
            self._release_next_reservation(descriptor, entry)
            return
        if entry.state == AllocState.CONFIRM:
            old_sector = entry.prev
            entry.prev, entry.next = entry.next, None
            entry.last_proof = self.now
            entry.state = AllocState.NORMAL
            if old_sector is not None:
                self._release_replica_from_sector(old_sector, descriptor.size)
            descriptor.countdown = self._sample_refresh_countdown()
            self.events.emit(EventType.FILE_REFRESH_COMPLETED)
            return
        if entry.state == AllocState.CORRUPTED:
            return  # CheckProof accounts for the loss
        # The swap was not confirmed in time: punish the parties and retry.
        failed_target = entry.next
        if failed_target is not None:
            self._release_next_reservation(descriptor, entry)
            self._punish(self.sectors[failed_target].owner, self.params.refresh_failure_penalty)
        for _, other in self.alloc.entries_for_file(file_id):
            if other.prev is not None and other.state != AllocState.CORRUPTED:
                self._punish(self.sectors[other.prev].owner, self.params.refresh_failure_penalty)
        entry.state = AllocState.NORMAL
        self.events.emit(EventType.FILE_REFRESH_FAILED)
        self._auto_refresh(file_id, index)

    def _auto_rent_period(self) -> None:
        """Distribute the period's rent to healthy sectors and reschedule."""
        healthy = [
            (record.sector_id, record.owner, record.capacity)
            for record in self._live_sectors()
        ]
        if self.fees.rent.distribute(healthy):
            self.events.emit(EventType.RENT_DISTRIBUTED)
        self.pending.schedule(self.now + self.params.rent_period, RENT_PERIOD)

    # ==================================================================
    # Corruption handling and compensation
    # ==================================================================
    def crash_sector(self, sector_id: str) -> None:
        """Collapse a sector now: deposit confiscated, replicas corrupted."""
        self._handle_sector_corruption(self._sector(sector_id))

    def _handle_sector_corruption(self, record: SectorRecord) -> None:
        if record.is_corrupted or record.state == SectorState.REMOVED:
            return
        record.state = SectorState.CORRUPTED
        self.selector.remove_sector(record.sector_id)
        if self.charge_fees and self.fund.deposit_of(record.sector_id) > 0:
            self.fund.confiscate(record.sector_id)
            self.events.emit(EventType.DEPOSIT_CONFISCATED)
        self.events.emit(EventType.SECTOR_CORRUPTED)
        for _, _, entry in self.alloc.entries_on_sector(record.sector_id):
            if entry.prev == record.sector_id and entry.state != AllocState.CORRUPTED:
                entry.state = AllocState.CORRUPTED
            if entry.next == record.sector_id and entry.state in (
                AllocState.ALLOC,
                AllocState.CONFIRM,
            ):
                # The target collapsed: an in-flight refresh falls back to
                # its current host; an initial allocation loses the replica.
                entry.next = None
                previous = self.sectors.get(entry.prev) if entry.prev else None
                if previous is not None and not previous.is_corrupted:
                    entry.state = AllocState.NORMAL
                else:
                    entry.state = AllocState.CORRUPTED

    def _handle_file_loss(self, descriptor: FileDescriptor) -> None:
        descriptor.state = FileState.LOST
        self.files_lost += 1
        self.total_value_lost += descriptor.value
        self.events.emit(EventType.FILE_LOST)
        if self.charge_fees:
            compensation = descriptor.value * self.params.min_value
            try:
                paid = self.fund.compensate(descriptor.owner, compensation)
            except CompensationShortfallError:
                paid = self.fund.total_compensated - self.total_value_compensated
            descriptor.compensation_received += paid
            self.total_value_compensated += paid
            self.events.emit(EventType.FILE_COMPENSATED)
        self._remove_file(descriptor)

    # ==================================================================
    # Internal helpers
    # ==================================================================
    def _punish(self, owner: str, amount: int) -> None:
        """Burn up to ``amount`` of the owner's balance; always recorded."""
        if self.charge_fees and amount > 0:
            burned = min(amount, self.ledger.balance(owner))
            if burned > 0:
                self.ledger.burn(owner, burned)
        self.events.emit(EventType.PROVIDER_PUNISHED)

    def _credit_automatic_proofs(self, file_id: int) -> None:
        """Credit a proof, now, to every hosted replica the oracle calls
        healthy (the host keeps proving while a swap is in flight)."""
        for _, entry in self.alloc.entries_for_file(file_id):
            if entry.state == AllocState.CORRUPTED or entry.prev is None:
                continue
            if self.sectors[entry.prev].is_corrupted:
                continue
            if self.health_oracle(entry.prev):
                entry.last_proof = self.now

    def _sample_refresh_countdown(self) -> int:
        """``SampleExp(AvgRefresh)`` rounded up to at least one checkpoint."""
        return max(1, int(math.ceil(self.prng.expovariate(self.params.avg_refresh))))

    def _release_replica_from_sector(self, sector_id: str, size: int) -> None:
        record = self.sectors[sector_id]
        if record.is_corrupted or record.state == SectorState.REMOVED:
            return
        record.release(size)
        self._maybe_remove_sector(record)

    def _release_next_reservation(self, descriptor: FileDescriptor, entry: AllocEntry) -> None:
        if entry.next is None:
            return
        self._release_replica_from_sector(entry.next, descriptor.size)
        entry.next = None
        if entry.state in (AllocState.ALLOC, AllocState.CONFIRM):
            entry.state = AllocState.NORMAL if entry.prev is not None else AllocState.CORRUPTED

    def _remove_file(self, descriptor: FileDescriptor) -> None:
        """Remove a file and all of its allocations from the network."""
        for index, entry in self.alloc.entries_for_file(descriptor.file_id):
            escrow = self._traffic_escrows.pop((descriptor.file_id, index), None)
            if escrow is not None:
                self.fees.refund_traffic_fee(escrow)
            for sector_id in dict.fromkeys((entry.prev, entry.next)):
                if sector_id is not None:
                    self._release_replica_from_sector(sector_id, descriptor.size)
        self.alloc.remove_file(descriptor.file_id)
        if descriptor.state == FileState.NORMAL:
            descriptor.state = FileState.DISCARDED

    def _maybe_remove_sector(self, record: SectorRecord) -> None:
        """Remove a drained disabled sector and refund its deposit."""
        if not record.is_drained:
            return
        record.state = SectorState.REMOVED
        self.selector.remove_sector(record.sector_id)
        if self.charge_fees and self.fund.deposit_of(record.sector_id) > 0:
            self.fund.refund(record.sector_id)
            self.events.emit(EventType.DEPOSIT_REFUNDED)
        self.events.emit(EventType.SECTOR_REMOVED)

    def _sector(self, sector_id: str) -> SectorRecord:
        record = self.sectors.get(sector_id)
        if record is None:
            raise ProtocolError(f"unknown sector {sector_id}")
        return record

    def _file(self, file_id: int) -> FileDescriptor:
        descriptor = self.files.get(file_id)
        if descriptor is None:
            raise ProtocolError(f"unknown file#{file_id}")
        return descriptor

    # ==================================================================
    # Aggregate queries
    # ==================================================================
    def _live_sectors(self) -> List[SectorRecord]:
        return [
            record
            for record in self.sectors.values()
            if record.state in (SectorState.NORMAL, SectorState.DISABLED)
        ]

    def total_capacity(self) -> int:
        return sum(record.capacity for record in self._live_sectors())

    def weighted_sector_count(self) -> float:
        return self.total_capacity() / self.params.min_capacity

    def weighted_value_count(self) -> float:
        total = sum(d.value for d in self.files.values() if d.state == FileState.NORMAL)
        return total / self.params.min_value

    def stored_replica_bytes(self) -> int:
        return sum(record.used_capacity for record in self._live_sectors())

    def value_loss_ratio(self) -> float:
        if self.total_value_stored == 0:
            return 0.0
        return self.total_value_lost / self.total_value_stored

    def active_files(self) -> List[FileDescriptor]:
        return [d for d in self.files.values() if d.state == FileState.NORMAL]

    def snapshot(self) -> Dict[str, float]:
        return {
            "time": self.now,
            "sectors": float(
                sum(1 for s in self.sectors.values() if s.state == SectorState.NORMAL)
            ),
            "total_capacity": float(self.total_capacity()),
            "files_stored": float(self.files_stored),
            "files_lost": float(self.files_lost),
            "value_stored": float(self.total_value_stored),
            "value_lost": float(self.total_value_lost),
            "value_compensated": float(self.total_value_compensated),
            "collisions": float(self.selector.collisions),
        }


# ======================================================================
# The state both engines are compared on
# ======================================================================
def fingerprint(protocol):
    """Canonical structure of everything consensus-visible."""
    sectors = {
        sid: (
            rec.owner,
            int(rec.capacity),
            int(rec.free_capacity),
            int(rec.deposit),
            rec.state.value,
        )
        for sid, rec in sorted(protocol.sectors.items())
    }
    files = {
        fid: (
            desc.owner,
            int(desc.size),
            int(desc.value),
            int(desc.replica_count),
            int(desc.countdown),
            desc.state.value,
            int(desc.rent_paid),
            int(desc.compensation_received),
        )
        for fid, desc in sorted(protocol.files.items())
    }
    alloc = {
        (int(fid), int(idx)): (
            entry.prev,
            entry.next,
            float(entry.last_proof),
            entry.state.value,
        )
        for fid in protocol.files
        for idx, entry in protocol.alloc.entries_for_file(fid)
    }
    ledger = {
        account.address: (int(account.balance), int(account.escrowed))
        for account in sorted(protocol.ledger._accounts.values(), key=lambda a: a.address)
    }
    events = {
        event_type.value: protocol.events.count(event_type)
        for event_type in EventType
    }
    aggregates = dict(protocol.snapshot())
    aggregates["total_value_lost"] = protocol.total_value_lost
    return {
        "sectors": sectors,
        "files": files,
        "alloc": sorted(alloc.items()),
        "pending": protocol.pending.tasks(),
        "ledger": sorted(ledger.items()),
        "events": events,
        "aggregates": aggregates,
    }
