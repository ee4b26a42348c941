"""The FileInsurer protocol state machine.

Implements the on-chain behaviour of Figures 4-9 of the paper:

* the **File** protocol (client side: Add / Discard / Get; provider side:
  Confirm / Prove);
* the **Sector** protocol (Register / Disable);
* the **Auto** tasks (CheckAlloc, CheckProof, Refresh, CheckRefresh) driven
  by the pending list, plus periodic rent distribution;
* deposits, confiscation and full compensation (the insurance scheme);
* the fee mechanism (traffic fee, storage rent, prepaid gas).

The class is a pure state machine over simulated time: callers submit
requests and advance the clock with :meth:`advance_time`, which executes
due pending-list tasks in deterministic order.  Physical storage (disks,
sealing, proofs) lives in :mod:`repro.storage`; the simulation scenario in
:mod:`repro.sim.scenario` wires the two together, while protocol-level
experiments drive this class directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.chain.gas import GasSchedule
from repro.chain.ledger import InsufficientFundsError, Ledger
from repro.core.allocation import AllocEntry, AllocState, AllocationTable
from repro.core.deposit import CompensationShortfallError, InsuranceFund
from repro.core.events import EventLog, EventType
from repro.core.fees import FeeEngine, TrafficEscrow
from repro.core.file_descriptor import FileDescriptor, FileState
from repro.core.params import ProtocolParams
from repro.core.pending import PendingList, PendingTask
from repro.core.sector import SectorRecord, SectorState
from repro.core.selector import CapacitySelector
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import KernelBackend
from repro.telemetry import counter, metrics, traced

__all__ = ["FileInsurerProtocol", "ProtocolError", "RefreshNotice"]


class ProtocolError(Exception):
    """Raised when a request violates the protocol rules."""


@dataclass(frozen=True)
class RefreshNotice:
    """Notification that a replica must be swapped between sectors.

    Emitted by ``Auto Refresh`` so the simulation layer can perform the
    physical transfer; the network only learns the outcome through the
    subsequent ``File Confirm`` / ``Auto CheckRefresh``.
    """

    file_id: int
    replica_index: int
    source_sector: Optional[str]
    target_sector: str
    deadline: float


class FileInsurerProtocol:
    """On-chain state machine of the FileInsurer DSN."""

    # Pending-list task kinds.
    TASK_CHECK_ALLOC = "auto_check_alloc"
    TASK_CHECK_PROOF = "auto_check_proof"
    TASK_CHECK_REFRESH = "auto_check_refresh"
    TASK_RENT_PERIOD = "auto_rent_period"

    def __init__(
        self,
        params: Optional[ProtocolParams] = None,
        ledger: Optional[Ledger] = None,
        prng: Optional[DeterministicPRNG] = None,
        gas_schedule: Optional[GasSchedule] = None,
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
        #: ``RandomSector()`` draws go through the backend-dispatched
        #: ``batch_weighted_draw`` kernel (:mod:`repro.kernels`): sector
        #: choices are deterministic in the protocol seed and bit-identical
        #: across backends (``backend=None`` resolves like ``"auto"``).
        #: The selector keeps its per-slot free table incrementally (every
        #: reservation/release below reports to it), so no kernel call
        #: scans the sector records; ``draw_batch`` > 1 prefetches that
        #: many plain refresh-target draws per kernel call.
        self.selector = CapacitySelector(
            self.prng.spawn("sector-selection"),
            backend=backend,
            draw_batch=draw_batch,
        )
        self.backend = self.selector.backend
        self.fund = InsuranceFund(self.ledger)
        self.fees = FeeEngine(self.ledger, self.params, gas_schedule)
        self.pending = PendingList()
        self.alloc = AllocationTable()

        #: When set (and ``auto_prove`` is True) the protocol asks this
        #: oracle whether a sector's physical storage is healthy and, if so,
        #: credits its proofs automatically each checkpoint.  Used by
        #: protocol-level experiments that do not simulate physical proofs.
        self.health_oracle = health_oracle
        self.auto_prove = auto_prove
        #: Protocol-level experiments that only study placement can disable
        #: fee charging so clients do not need funded accounts.
        self.charge_fees = charge_fees

        self.now = 0.0
        self.sectors: Dict[str, SectorRecord] = {}
        self.files: Dict[int, FileDescriptor] = {}
        self._next_file_id = 0
        self._sector_counter: Dict[str, int] = {}
        self._traffic_escrows: Dict[Tuple[int, int], TrafficEscrow] = {}
        self.refresh_notices: List[RefreshNotice] = []

        # Aggregate statistics used by analysis and experiments.
        self.total_value_stored = 0
        self.total_value_lost = 0
        self.total_value_compensated = 0
        self.files_lost = 0
        self.files_stored = 0

        # Running admission aggregates: total_capacity() and
        # stored_replica_bytes() are on the File Add hot path (every
        # admission check reads both), so they are maintained
        # incrementally instead of scanning every sector record.  The
        # *_scan variants recompute them the original way; the regression
        # suite pins the two against each other.
        self._agg_capacity = 0
        self._agg_used = 0
        #: Sector corruptions seen so far: the epoch of every sector and
        #: allocation state a vectorised sweep derived (the columnar engine
        #: re-derives its proof-sweep mask whenever this moves mid-run).
        self._corruption_events = 0

        if self.charge_fees:
            self.pending.schedule(
                self.now + self.params.rent_period, self.TASK_RENT_PERIOD
            )

    # ==================================================================
    # Time
    # ==================================================================
    def advance_time(self, until: float) -> None:
        """Advance the clock to ``until``, executing due Auto tasks in order."""
        # Written as "not >=" so a NaN ``until``, for which the loop's exit
        # test is never true, is refused along with times in the past.
        if not until >= self.now:
            raise ValueError("time cannot move backwards")
        while True:
            next_time = self.pending.peek_time()
            if next_time is None or next_time > until:
                break
            self.now = max(self.now, next_time)
            for task in self.pending.pop_due(self.now):
                self._execute_task(task)
        self.now = until
        if metrics.is_enabled():
            self._record_gauges()

    def _record_gauges(self) -> None:
        """Gauge snapshots at ``self.now`` (observability only, no RNG)."""
        metrics.gauge(
            "protocol.refresh_backlog",
            self.now,
            float(self.pending.count_kind(self.TASK_CHECK_REFRESH)),
            category="protocol",
        )
        metrics.gauge(
            "protocol.pending_tasks", self.now, float(len(self.pending)),
            category="protocol",
        )
        metrics.gauge(
            "protocol.total_deposit",
            self.now,
            float(
                self.fund.total_pledged
                - self.fund.total_refunded
                - self.fund.total_confiscated
            ),
            category="protocol",
        )

    def run_until_idle(self, max_time: Optional[float] = None) -> None:
        """Advance time until the pending list drains (or ``max_time``)."""
        while not self.pending.is_empty():
            next_time = self.pending.peek_time()
            if next_time is None:
                break
            if max_time is not None and next_time > max_time:
                self.advance_time(max_time)
                return
            self.advance_time(next_time)

    def _execute_task(self, task: PendingTask) -> None:
        if task.kind == self.TASK_CHECK_ALLOC:
            self._auto_check_alloc(task.payload["file_id"])
        elif task.kind == self.TASK_CHECK_PROOF:
            self._auto_check_proof(task.payload["file_id"])
        elif task.kind == self.TASK_CHECK_REFRESH:
            self._auto_check_refresh(task.payload["file_id"], task.payload["index"])
        elif task.kind == self.TASK_RENT_PERIOD:
            self._auto_rent_period()
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown pending task kind {task.kind!r}")

    # ==================================================================
    # Sector protocol
    # ==================================================================
    def sector_register(self, owner: str, capacity: int) -> str:
        """``Sector Register``: pledge a deposit and add the sector.

        Returns the new sector id.  The deposit is proportional to the
        sector capacity (Section IV-B) and is locked in escrow.
        """
        if capacity <= 0 or capacity % self.params.min_capacity != 0:
            raise ProtocolError(
                "sector capacity must be a positive multiple of min_capacity"
            )
        count = self._sector_counter.get(owner, 0)
        self._sector_counter[owner] = count + 1
        sector_id = f"{owner}#{count}"

        deposit = 0
        if self.charge_fees:
            deposit = self.params.sector_deposit(
                capacity, self.params.max_value_capacity(self.total_capacity() + capacity)
            )
            try:
                self.fees.charge_gas(owner, "sector_register")
                self.fund.pledge(sector_id, owner, deposit)
            except InsufficientFundsError as exc:
                self._sector_counter[owner] = count
                raise ProtocolError(
                    f"cannot cover gas and a deposit of {deposit}: {exc}"
                ) from exc

        record = SectorRecord(
            owner=owner,
            sector_id=sector_id,
            capacity=capacity,
            free_capacity=capacity,
            deposit=deposit,
            registered_at=self.now,
        )
        self.sectors[sector_id] = record
        self._agg_capacity += capacity
        self.selector.add_sector(sector_id, capacity)
        self.events.emit(
            EventType.SECTOR_REGISTERED,
            self.now,
            sector_id,
            owner=owner,
            capacity=capacity,
            deposit=deposit,
        )
        if deposit:
            self.events.emit(
                EventType.DEPOSIT_PLEDGED, self.now, sector_id, owner=owner, amount=deposit
            )
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
        self.events.emit(EventType.SECTOR_DISABLED, self.now, sector_id, owner=owner)
        self._maybe_remove_sector(record)

    # ==================================================================
    # File protocol -- client requests
    # ==================================================================
    @traced("protocol.file_add", category="protocol")
    def file_add(self, owner: str, size: int, value: int, merkle_root: bytes) -> int:
        """``File Add``: allocate ``cp`` sectors for a new file.

        Returns the file id.  The client must afterwards transmit the file
        to the owners of the selected sectors before the transfer deadline;
        the providers acknowledge with :meth:`file_confirm`.
        """
        if size <= 0:
            raise ProtocolError("file size must be positive")
        if size > self.params.size_limit:
            raise ProtocolError(
                f"file size {size} exceeds size_limit={self.params.size_limit}; "
                "use repro.core.large_files to segment it first"
            )
        replica_count = self.params.replica_count(value)
        self._check_admission(size, value, replica_count)
        if self.charge_fees:
            self.fees.charge_gas(owner, "file_add")

        return self._place_file(
            owner, size, value, merkle_root,
            self.selector.select_batch([size] * replica_count),
        )

    @traced("protocol.file_add_batch", category="protocol")
    def file_add_batch(
        self,
        owner: str,
        sizes: List[int],
        values: List[int],
        merkle_root: bytes,
    ) -> List[int]:
        """Batched ``File Add``: admit and place many files per kernel call.

        The batch is one protocol operation with defined semantics on both
        storage engines (object and columnar), so their states stay
        bit-identical:

        * every file is validated up front (any malformed size/value
          rejects the whole batch before any state change);
        * the admission limits are applied to the *prefix*: files are
          admitted in order, each assuming its predecessors were fully
          placed; the first file that would exceed a limit truncates the
          batch there (if that is the very first file, the batch raises
          exactly like per-file ``File Add`` would);
        * gas for the admitted prefix is charged first and all replica
          placements run as a single ``batch_weighted_draw`` call; per-file
          bookkeeping then replays in order and stops after the first file
          whose placement failed (its descriptor is kept in state
          ``failed``, matching per-file semantics).

        Returns the ids of every descriptor created; the last id may name
        a failed upload, which callers treat as the fill stopping point.
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
            if value <= 0:
                raise ProtocolError("file value must be positive")
        if not sizes:
            return []
        replica_counts = [self.params.replica_count(value) for value in values]
        admitted = self._admitted_prefix(sizes, values, replica_counts)
        gas_ok = admitted
        if self.charge_fees:
            for index in range(admitted):
                try:
                    self.fees.charge_gas(owner, "file_add")
                except InsufficientFundsError as exc:
                    if index == 0:
                        raise ProtocolError(
                            f"cannot cover File Add gas: {exc}"
                        ) from exc
                    gas_ok = index
                    break
        expanded = [
            sizes[i] for i in range(gas_ok) for _ in range(replica_counts[i])
        ]
        placements = self.selector.select_batch(expanded)
        ids: List[int] = []
        cursor = 0
        for i in range(gas_ok):
            drawn = placements[cursor : cursor + replica_counts[i]]
            cursor += replica_counts[i]
            ids.append(self._place_file(owner, sizes[i], values[i], merkle_root, drawn))
            if None in drawn:
                break  # failed upload: the batch's remaining placements are discarded
        return ids

    def _place_file(
        self,
        owner: str,
        size: int,
        value: int,
        merkle_root: bytes,
        placements: List[Optional[str]],
    ) -> int:
        """The per-file body of ``File Add`` (Figure 4), after admission.

        ``placements`` holds the sector drawn for each replica (``None``
        where every attempt collided).  Creates the descriptor, reserves
        each replica's space and schedules ``Auto CheckAlloc``; on the
        first ``None`` the upload fails and its reservations are undone.
        Returns the file id.
        """
        file_id = self._next_file_id
        self._next_file_id += 1
        self.files[file_id] = FileDescriptor(
            file_id=file_id,
            owner=owner,
            size=size,
            value=value,
            merkle_root=merkle_root,
            replica_count=len(placements),
            created_at=self.now,
        )
        # Re-fetch so mutations below go through the storage engine (a
        # plain dict returns the same object; the columnar engine returns
        # a view over its tables).
        descriptor = self.files[file_id]
        self.events.emit(
            EventType.FILE_ADD_REQUESTED,
            self.now,
            f"file#{file_id}",
            owner=owner,
            size=size,
            value=value,
            replicas=len(placements),
        )
        for index, sector_id in enumerate(placements):
            if sector_id is None:
                # Cannot place the replica anywhere: fail the upload.
                self._remove_file(descriptor, reason="no capacity")
                descriptor.state = FileState.FAILED
                self.events.emit(
                    EventType.FILE_UPLOAD_FAILED,
                    self.now,
                    f"file#{file_id}",
                    reason="no sector with sufficient free capacity",
                )
                return file_id
            record = self.sectors[sector_id]
            self._reserve_space(record, size)
            entry = AllocEntry(prev=None, next=sector_id, last_proof=-1.0, state=AllocState.ALLOC)
            self.alloc.set(file_id, index, entry)
            if self.charge_fees:
                escrow = self.fees.commit_traffic_fee(owner, record.owner, size)
                self._traffic_escrows[(file_id, index)] = escrow
        deadline = self.now + self.params.transfer_deadline(size)
        self.pending.schedule(deadline, self.TASK_CHECK_ALLOC, file_id=file_id)
        return file_id

    def _admitted_prefix(
        self, sizes: List[int], values: List[int], replica_counts: List[int]
    ) -> int:
        """Longest batch prefix the admission limits accept.

        Each file is checked assuming its predecessors in the batch were
        fully placed (the batch stops at the first placement failure, so
        a file never observes a partially placed predecessor).  Raises --
        with per-file ``_check_admission``'s exact message -- when even
        the first file is refused.
        """
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
            raise ProtocolError(
                "file batch rejected by admission limits"
            )  # pragma: no cover - _check_admission raised already
        return admitted

    def confirm_batch(self, file_ids: List[int]) -> List[int]:
        """Confirm every awaiting replica of ``file_ids`` on behalf of its
        selected sector's owner.

        Drives the same per-entry ``File Confirm`` transitions providers
        would submit individually (in ``(file, index)`` order, including
        traffic-fee release), which is what the experiment drivers do in a
        loop today.  Returns the ids whose replicas are now all confirmed.
        """
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
                    entry = self.alloc.get(file_id, index)
                if entry.state != AllocState.CONFIRM:
                    complete = False
            if complete:
                confirmed.append(file_id)
        return confirmed

    def file_discard(self, owner: str, file_id: int) -> None:
        """``File Discard``: mark the file as discarded.

        The file is physically removed at the next ``Auto CheckProof``
        (matching Figure 8); discarding an already-lost file is an error.
        """
        descriptor = self._file(file_id)
        if descriptor.owner != owner:
            raise ProtocolError(f"{owner} does not own file#{file_id}")
        if not descriptor.is_active:
            raise ProtocolError(f"file#{file_id} is not active")
        if self.charge_fees:
            self.fees.charge_gas(owner, "file_discard")
        descriptor.state = FileState.DISCARDED
        self.events.emit(EventType.FILE_DISCARDED, self.now, f"file#{file_id}", owner=owner)

    def file_locations(self, file_id: int) -> List[Optional[str]]:
        """``File Get`` support: current sector of every replica.

        Retrieval itself happens off-chain (Retrieval Market / BitSwap); the
        chain only serves the location and hash information.
        """
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
        self._release_traffic_escrow(provider, file_id, index)

    def _release_traffic_escrow(self, provider: str, file_id: int, index: int) -> None:
        """Pay the confirmed replica's traffic fee out of escrow, if any."""
        escrow = self._traffic_escrows.pop((file_id, index), None)
        if escrow is not None:
            self.fees.release_traffic_fee(escrow)
            self.events.emit(
                EventType.TRAFFIC_FEE_PAID,
                self.now,
                f"file#{file_id}[{index}]",
                provider=provider,
                amount=escrow.amount,
            )

    def file_prove(
        self,
        provider: str,
        file_id: int,
        index: int,
        sector_id: str,
        proof_time: Optional[float] = None,
        proof_valid: bool = True,
    ) -> None:
        """``File Prove``: record a storage proof for one replica.

        ``proof_valid`` stands in for the WindowPoSt verification outcome;
        the simulation layer verifies real proofs and passes the result
        here, while protocol-level tests can exercise the invalid path
        directly.
        """
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
        if not proof_valid:
            raise ProtocolError("invalid storage proof")
        when = self.now if proof_time is None else proof_time
        if when > self.now:
            raise ProtocolError("proof timestamp lies in the future")
        entry.last_proof = max(entry.last_proof, when)

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
            reason = "discarded before storage" if descriptor.state == FileState.DISCARDED else (
                f"{len(unconfirmed)} of {len(entries)} sectors never confirmed"
            )
            self._remove_file(descriptor, reason=reason)
            descriptor.state = FileState.FAILED
            self.events.emit(
                EventType.FILE_UPLOAD_FAILED, self.now, f"file#{file_id}", reason=reason
            )
            return

        for index, entry in entries:
            if entry.state == AllocState.CONFIRM:
                entry.prev = entry.next
                entry.next = None
                entry.last_proof = self.now
                entry.state = AllocState.NORMAL
            else:  # corrupted during the transfer window
                entry.prev = None
                entry.next = None
                entry.last_proof = -1.0
                entry.state = AllocState.CORRUPTED
        descriptor.state = FileState.NORMAL
        descriptor.countdown = self._sample_refresh_countdown()
        self.files_stored += 1
        self.total_value_stored += descriptor.value
        self.pending.schedule(
            self.now + self.params.proof_cycle, self.TASK_CHECK_PROOF, file_id=file_id
        )
        self.events.emit(
            EventType.FILE_STORED,
            self.now,
            f"file#{file_id}",
            owner=descriptor.owner,
            sectors=[entry.prev for _, entry in entries],
        )

    def _auto_check_proof(self, file_id: int) -> None:
        """``Auto CheckProof`` (Figure 8)."""
        descriptor = self.files.get(file_id)
        if descriptor is None:
            return
        if descriptor.state in (FileState.LOST, FileState.FAILED):
            return

        # 1. Charge the client for the next cycle (or force-discard).
        if self.charge_fees and descriptor.state == FileState.NORMAL:
            if not self.fees.can_afford_cycle(
                descriptor.owner, descriptor.size, descriptor.replica_count
            ):
                descriptor.state = FileState.DISCARDED
                self.events.emit(
                    EventType.FILE_DISCARDED,
                    self.now,
                    f"file#{file_id}",
                    owner=descriptor.owner,
                    reason="insufficient funds",
                )
            else:
                charged = self.fees.charge_cycle(
                    descriptor.owner, descriptor.size, descriptor.replica_count
                )
                descriptor.rent_paid += charged
                self.events.emit(
                    EventType.RENT_CHARGED,
                    self.now,
                    f"file#{file_id}",
                    owner=descriptor.owner,
                    amount=charged,
                )

        # 2. Check proof freshness for every replica still hosted somewhere.
        if self.auto_prove and self.health_oracle is not None:
            self._credit_automatic_proofs(file_id)
        for index, entry in self.alloc.entries_for_file(file_id):
            if entry.state == AllocState.CORRUPTED or entry.prev is None:
                continue
            hosting = self.sectors.get(entry.prev)
            if hosting is None or hosting.is_corrupted:
                entry.state = AllocState.CORRUPTED
                continue
            if entry.last_proof < self.now - self.params.proof_deadline:
                self._handle_sector_corruption(hosting, reason="proof deadline exceeded")
            elif entry.last_proof < self.now - self.params.proof_due:
                self._punish(hosting.owner, self.params.late_proof_penalty, "late proof")

        # 3. Resolve the file's fate.
        if descriptor.state == FileState.DISCARDED:
            self._remove_file(descriptor, reason="discarded")
            return
        if self.alloc.file_is_lost(file_id):
            self._handle_file_loss(descriptor)
            return

        # 4. Schedule the next checkpoint and maybe a refresh.
        self.pending.schedule(
            self.now + self.params.proof_cycle, self.TASK_CHECK_PROOF, file_id=file_id
        )
        descriptor.countdown -= 1
        if descriptor.countdown <= 0:
            index = self.prng.randint(0, descriptor.replica_count - 1)
            self._auto_refresh(file_id, index)

    @traced("protocol.refresh", category="protocol")
    def _auto_refresh(self, file_id: int, index: int) -> None:
        """``Auto Refresh`` (Figure 9): move one replica to a random sector."""
        descriptor = self.files.get(file_id)
        if descriptor is None or descriptor.state != FileState.NORMAL:
            return
        entry = self.alloc.try_get(file_id, index)
        if entry is None or entry.state != AllocState.NORMAL:
            # Replica unavailable (corrupted) or mid-transfer: postpone.
            descriptor.countdown = self._sample_refresh_countdown()
            return
        if len(self.selector) == 0:
            descriptor.countdown = self._sample_refresh_countdown()
            return
        target = self.selector.random_sector()
        record = self.sectors[target]
        if record.free_capacity < descriptor.size or not record.accepts_new_files:
            # Collision: the paper resamples the countdown and tries later.
            self.events.emit(
                EventType.COLLISION_RESAMPLED,
                self.now,
                f"file#{file_id}[{index}]",
                target=target,
            )
            descriptor.countdown = self._sample_refresh_countdown()
            return

        self._reserve_space(record, descriptor.size)
        entry.next = target
        entry.state = AllocState.ALLOC
        deadline = self.now + self.params.transfer_deadline(descriptor.size)
        self.pending.schedule(
            deadline, self.TASK_CHECK_REFRESH, file_id=file_id, index=index
        )
        notice = RefreshNotice(
            file_id=file_id,
            replica_index=index,
            source_sector=entry.prev,
            target_sector=target,
            deadline=deadline,
        )
        self.refresh_notices.append(notice)
        counter("protocol.refresh_notices", category="protocol")
        self.events.emit(
            EventType.FILE_REFRESH_STARTED,
            self.now,
            f"file#{file_id}[{index}]",
            source=entry.prev,
            target=target,
        )

    def _auto_check_refresh(self, file_id: int, index: int) -> None:
        """``Auto CheckRefresh`` (Figure 9)."""
        descriptor = self.files.get(file_id)
        if descriptor is None:
            return
        entry = self.alloc.try_get(file_id, index)
        if entry is None:
            return
        if descriptor.state != FileState.NORMAL:
            # File discarded or lost while the swap was in flight; release
            # the reservation made on the target sector.
            self._release_next_reservation(descriptor, entry)
            return

        if entry.state == AllocState.CONFIRM:
            old_sector = entry.prev
            entry.prev = entry.next
            entry.next = None
            entry.last_proof = self.now
            entry.state = AllocState.NORMAL
            if old_sector is not None:
                self._release_replica_from_sector(old_sector, descriptor.size)
            descriptor.countdown = self._sample_refresh_countdown()
            self.events.emit(
                EventType.FILE_REFRESH_COMPLETED,
                self.now,
                f"file#{file_id}[{index}]",
                source=old_sector,
                target=entry.prev,
            )
            return

        if entry.state == AllocState.CORRUPTED:
            # Either end collapsed mid-swap; nothing to punish, CheckProof
            # will account for the loss.
            return

        # The swap was not confirmed in time: punish the parties and retry.
        failed_target = entry.next
        if failed_target is not None:
            self._release_next_reservation(descriptor, entry)
            target_record = self.sectors.get(failed_target)
            if target_record is not None:
                self._punish(
                    target_record.owner,
                    self.params.refresh_failure_penalty,
                    "refresh target never confirmed",
                )
        for _, other in self.alloc.entries_for_file(file_id):
            if other.prev is not None and other.state != AllocState.CORRUPTED:
                hosting = self.sectors.get(other.prev)
                if hosting is not None:
                    self._punish(
                        hosting.owner,
                        self.params.refresh_failure_penalty,
                        "replica holder during failed refresh",
                    )
        entry.state = AllocState.NORMAL
        self.events.emit(
            EventType.FILE_REFRESH_FAILED,
            self.now,
            f"file#{file_id}[{index}]",
            target=failed_target,
        )
        self._auto_refresh(file_id, index)

    def _auto_rent_period(self) -> None:
        """Distribute the period's rent to healthy sectors and reschedule."""
        healthy = [
            (record.sector_id, record.owner, record.capacity)
            for record in self.sectors.values()
            if record.state in (SectorState.NORMAL, SectorState.DISABLED)
        ]
        payout = self.fees.rent.distribute(healthy)
        if payout:
            self.events.emit(
                EventType.RENT_DISTRIBUTED, self.now, "rent-period", payout=payout
            )
        self.pending.schedule(self.now + self.params.rent_period, self.TASK_RENT_PERIOD)

    # ==================================================================
    # Corruption handling and compensation
    # ==================================================================
    def crash_sector(self, sector_id: str, detected: bool = True) -> None:
        """Simulate the collapse of a sector.

        With ``detected=True`` (default) the network reacts immediately as
        it would after the proof deadline: the deposit is confiscated and
        every hosted replica is marked corrupted.  With ``detected=False``
        only the physical loss is modelled; detection happens later through
        missed proofs (requires the simulation to stop submitting proofs
        for this sector).
        """
        record = self._sector(sector_id)
        if not detected:
            return
        self._handle_sector_corruption(record, reason="external crash")

    def _handle_sector_corruption(self, record: SectorRecord, reason: str) -> None:
        if record.is_corrupted:
            return
        record.state = SectorState.CORRUPTED
        self._agg_capacity -= record.capacity
        self._agg_used -= record.used_capacity
        self._corruption_events += 1
        self.selector.remove_sector(record.sector_id)
        confiscated = 0
        if self.charge_fees and self.fund.deposit_of(record.sector_id) > 0:
            confiscated = self.fund.confiscate(record.sector_id)
            self.events.emit(
                EventType.DEPOSIT_CONFISCATED,
                self.now,
                record.sector_id,
                owner=record.owner,
                amount=confiscated,
                reason=reason,
            )
        self.events.emit(
            EventType.SECTOR_CORRUPTED, self.now, record.sector_id, reason=reason
        )
        # Every allocation pointing at this sector loses its replica.
        for file_id, index, entry in self.alloc.entries_on_sector(record.sector_id):
            if entry.prev == record.sector_id and entry.state != AllocState.CORRUPTED:
                entry.state = AllocState.CORRUPTED
            if entry.next == record.sector_id and entry.state in (
                AllocState.ALLOC,
                AllocState.CONFIRM,
            ):
                # The *target* of an allocation collapsed.  For an initial
                # allocation (no prev) the replica is gone; for an in-flight
                # refresh the predecessor still stores it, so the entry
                # simply falls back to normal on its current host.
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
        self.events.emit(
            EventType.FILE_LOST,
            self.now,
            f"file#{descriptor.file_id}",
            owner=descriptor.owner,
            value=descriptor.value,
        )
        if self.charge_fees:
            compensation = descriptor.value * self.params.min_value
            try:
                paid = self.fund.compensate(descriptor.owner, compensation)
            except CompensationShortfallError:
                # The fund already paid whatever the pool could cover.
                paid = self.fund.total_compensated - self.total_value_compensated
            descriptor.compensation_received += paid
            self.total_value_compensated += paid
            self.events.emit(
                EventType.FILE_COMPENSATED,
                self.now,
                f"file#{descriptor.file_id}",
                owner=descriptor.owner,
                amount=paid,
                full=paid >= compensation,
            )
        self._remove_file(descriptor, reason="lost")

    # ==================================================================
    # Internal helpers
    # ==================================================================
    def _punish(self, owner: str, amount: int, reason: str) -> int:
        """Punish a misbehaving provider by burning part of its balance.

        The paper leaves the punishment mechanism abstract ("punish
        e.prev"); we burn up to ``amount`` tokens from the owner's
        spendable balance and always record the event so experiments can
        count punishments even when the owner is broke.
        """
        burned = 0
        if self.charge_fees and amount > 0:
            available = self.ledger.balance(owner)
            burned = min(amount, available)
            if burned > 0:
                self.ledger.burn(owner, burned)
        self.events.emit(
            EventType.PROVIDER_PUNISHED,
            self.now,
            owner,
            amount=burned,
            requested=amount,
            reason=reason,
        )
        return burned

    def _credit_automatic_proofs(self, file_id: int) -> None:
        """Credit proofs for healthy sectors when running with a health oracle.

        Matches File Prove semantics: the current host (``prev``) must keep
        proving even while a refresh swap is in flight (entry state
        ``alloc``/``confirm``), so any non-corrupted entry with a host is
        credited.
        """
        for _, entry in self.alloc.entries_for_file(file_id):
            if entry.state == AllocState.CORRUPTED or entry.prev is None:
                continue
            hosting = self.sectors.get(entry.prev)
            if hosting is None or hosting.is_corrupted:
                continue
            if self.health_oracle is not None and self.health_oracle(entry.prev):
                entry.last_proof = self.now

    def _check_admission(self, size: int, value: int, replica_count: int) -> None:
        """Enforce the network's design limits before accepting a file.

        Two restrictions back Theorem 1 and the storage-randomness analysis:

        * the total value stored may not exceed ``Nm_v * minValue``
          (``capPara`` value units per capacity unit);
        * total replica bytes may not exceed ``1/redundancy_factor`` of the
          total capacity (the redundant-capacity assumption).
        """
        total_capacity = self.total_capacity()
        if total_capacity <= 0:
            raise ProtocolError("no registered capacity in the network")
        max_value = self.params.max_value_capacity(total_capacity)
        projected_value = (self.total_value_stored - self.total_value_lost) + value
        if projected_value > max_value:
            raise ProtocolError(
                f"value limit exceeded: storing {value} would bring the total to "
                f"{projected_value} > Nm_v*minValue = {max_value}"
            )
        replica_budget = total_capacity / self.params.redundancy_factor
        projected_replica_bytes = self.stored_replica_bytes() + size * replica_count
        if projected_replica_bytes > replica_budget:
            raise ProtocolError(
                f"capacity limit exceeded: {projected_replica_bytes} replica bytes "
                f"would exceed the redundant-capacity budget of {replica_budget:.0f}"
            )

    def _sample_refresh_countdown(self) -> int:
        """``SampleExp(AvgRefresh)`` rounded up to at least one checkpoint."""
        return max(1, int(math.ceil(self.prng.expovariate(self.params.avg_refresh))))

    def _sample_refresh_countdowns(self, count: int) -> np.ndarray:
        """``count`` :meth:`_sample_refresh_countdown` draws, one stream read."""
        samples = self.prng.expovariates(self.params.avg_refresh, count)
        return np.maximum(np.ceil(samples), 1.0).astype(np.int64)

    def _reserve_space(self, record: SectorRecord, size: int) -> None:
        """Reserve replica space, keeping the running aggregates and the
        selector's free table in sync with the record."""
        record.reserve(size)
        self._agg_used += size
        self.selector.set_free(record.sector_id, record.free_capacity)

    def _release_space(self, record: SectorRecord, size: int) -> None:
        """Inverse of :meth:`_reserve_space` (callers guard the state)."""
        record.release(size)
        self._agg_used -= size
        self.selector.set_free(record.sector_id, record.free_capacity)

    def _release_replica_from_sector(self, sector_id: str, size: int) -> None:
        record = self.sectors.get(sector_id)
        if record is None or record.is_corrupted or record.state == SectorState.REMOVED:
            return
        self._release_space(record, size)
        self._maybe_remove_sector(record)

    def _release_next_reservation(self, descriptor: FileDescriptor, entry: AllocEntry) -> None:
        if entry.next is None:
            return
        self._release_replica_from_sector(entry.next, descriptor.size)
        entry.next = None
        if entry.state == AllocState.ALLOC or entry.state == AllocState.CONFIRM:
            entry.state = AllocState.NORMAL if entry.prev is not None else AllocState.CORRUPTED

    def _remove_file(self, descriptor: FileDescriptor, reason: str) -> None:
        """Remove a file and all of its allocations from the network."""
        for index, entry in self.alloc.entries_for_file(descriptor.file_id):
            escrow = self._traffic_escrows.pop((descriptor.file_id, index), None)
            if escrow is not None:
                self.fees.refund_traffic_fee(escrow)
            for sector_id in {entry.prev, entry.next}:
                if sector_id is not None:
                    self._release_replica_from_sector(sector_id, descriptor.size)
        self.alloc.remove_file(descriptor.file_id)
        if descriptor.state == FileState.NORMAL:
            descriptor.state = FileState.DISCARDED
        if descriptor.state == FileState.DISCARDED and descriptor.is_active is False:
            pass  # terminal state already recorded by callers

    def _maybe_remove_sector(self, record: SectorRecord) -> None:
        """Remove a drained disabled sector and refund its deposit."""
        if not record.is_drained:
            return
        record.state = SectorState.REMOVED
        self._agg_capacity -= record.capacity
        self._agg_used -= record.used_capacity
        self.selector.remove_sector(record.sector_id)
        if self.charge_fees and self.fund.deposit_of(record.sector_id) > 0:
            refunded = self.fund.refund(record.sector_id)
            self.events.emit(
                EventType.DEPOSIT_REFUNDED,
                self.now,
                record.sector_id,
                owner=record.owner,
                amount=refunded,
            )
        self.events.emit(EventType.SECTOR_REMOVED, self.now, record.sector_id)

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
    # Aggregate queries (used by analysis, experiments and the chain app)
    # ==================================================================
    def total_capacity(self) -> int:
        """Total capacity of all non-removed, non-corrupted sectors.

        O(1): maintained incrementally by sector registration, corruption
        and removal (see :meth:`total_capacity_scan` for the original
        full-scan definition, kept as the regression oracle).
        """
        return self._agg_capacity

    def total_capacity_scan(self) -> int:
        """:meth:`total_capacity` recomputed by scanning every record."""
        return sum(
            record.capacity
            for record in self.sectors.values()
            if record.state in (SectorState.NORMAL, SectorState.DISABLED)
        )

    def weighted_sector_count(self) -> float:
        """``Ns``: total capacity measured in units of ``min_capacity``."""
        return self.total_capacity() / self.params.min_capacity

    def weighted_value_count(self) -> float:
        """``Nv``: total stored value measured in units of ``min_value``."""
        total = sum(
            descriptor.value
            for descriptor in self.files.values()
            if descriptor.state == FileState.NORMAL
        )
        return total / self.params.min_value

    def stored_replica_bytes(self) -> int:
        """Total bytes of replicas currently reserved in sectors.

        O(1): maintained incrementally by every reservation/release and by
        sector corruption/removal (see :meth:`stored_replica_bytes_scan`).
        """
        return self._agg_used

    def stored_replica_bytes_scan(self) -> int:
        """:meth:`stored_replica_bytes` recomputed by scanning records."""
        return sum(
            record.used_capacity
            for record in self.sectors.values()
            if record.state in (SectorState.NORMAL, SectorState.DISABLED)
        )

    def value_loss_ratio(self) -> float:
        """``gamma_lost``: lost value over total value ever stored."""
        if self.total_value_stored == 0:
            return 0.0
        return self.total_value_lost / self.total_value_stored

    def active_files(self) -> List[FileDescriptor]:
        """Descriptors of files currently stored (state ``normal``)."""
        return [d for d in self.files.values() if d.state == FileState.NORMAL]

    def snapshot(self) -> Dict[str, float]:
        """A summary dictionary for experiment reports."""
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
