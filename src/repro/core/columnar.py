"""The FileInsurer protocol engine: Figures 4-9 over structure-of-arrays state.

Implements the on-chain behaviour of the paper:

* the **File** protocol (client side: Add / Discard / Get; provider side:
  Confirm / Prove);
* the **Sector** protocol (Register / Disable);
* the **Auto** tasks (CheckAlloc, CheckProof, Refresh, CheckRefresh) driven
  by the pending list, plus periodic rent distribution;
* deposits, confiscation and full compensation (the insurance scheme);
* the fee mechanism (traffic fee, storage rent, prepaid gas).

:class:`ColumnarProtocol` is a pure state machine over simulated time:
callers submit requests and advance the clock with
:meth:`~ColumnarProtocol.advance_time`, which executes due pending-list
tasks in deterministic order.  Physical storage (disks, sectors, replicas)
lives in :mod:`repro.storage`; :mod:`repro.sim.scenario` wires the two
together, while protocol-level experiments drive this class directly.

**State layout.**  At the scales Theorem 1 talks about (10^6 files across
10^5 providers) one Python object per file descriptor and per replica
would dominate peak RSS and wall-clock, so sector, file and replica state
live in numpy columns (:class:`SectorTable`, :class:`FileTable`,
:class:`ColumnarAllocationTable`).  The long index columns -- the
allocation table's ``prev`` / ``next`` / ``block_start`` and the pending
list's file ids and replica indices -- are int32, and every table refuses
to grow past 2**31 - 1 rows so that they cannot wrap; columns that hold a
value (sizes, values, capacity, countdowns, rent, times) stay int64 /
float64.  The engine reads and writes them by row index:

* a per-file rule is a *row form* -- it touches the rows of its file and
  builds no per-row object;
* a rule applied to many files at once -- batched ``File Add`` admission
  and placement, the ``CheckAlloc``, ``CheckProof`` and ``CheckRefresh``
  runs, the ``Auto Refresh`` starts of a proof round -- is one vectorised
  sweep over the columns (placements and refresh targets are drawn by
  :mod:`repro.kernels`).

Read-only views (:class:`SectorView`, :class:`FileView`,
:class:`AllocEntryView`) serve the dict/record API callers read the state
through; the engine itself builds none.

**Equivalence contract.**  The readable Figure 1 spec -- one object per
record, one method per rule -- is ``tests/oracles/protocol.py``.  This
engine must be bit-equivalent to it: same PRNG consumption order, same
kernel-call sequence, same ledger operations in the same order, same
per-row state.  File Add admission and CheckAlloc have one form each, over
the columns: a CheckAlloc run stores its settled uploads with column
writes and removes the others one at a time, in task order.  The
CheckProof and CheckRefresh sweeps only take over the files and tasks for
which the columns prove the spec would have performed the same
independent transitions (no rent in the proof sweep; a normal, not-lost
file whose live replicas all sit on healthy sectors; a confirmed
refresh); every other file of such a run takes the per-file row form in
task order.  The engine differential, the state machine of
``tests/test_engine_machine.py``, enforces this the same way
``tests/test_kernels_equivalence.py`` pins the kernels to their oracle.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

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
    grown_rows,
)
from repro.core.protocol import ProtocolError, RefreshNotice
from repro.core.sector import SectorState
from repro.core.selector import CapacitySelector
from repro.crypto.prng import DeterministicPRNG, exp_countdowns
from repro.kernels import KernelBackend
from repro.kernels.sampling import MAX_TOTAL_WEIGHT
from repro.telemetry import counter, is_enabled, metrics, traced

__all__ = [
    "ColumnarProtocol",
    "SectorTable",
    "FileTable",
    "ColumnarAllocationTable",
]

# ----------------------------------------------------------------------
# Enum <-> int8 code maps (order is part of the storage format)
# ----------------------------------------------------------------------
_SECTOR_STATES = (
    SectorState.NORMAL,
    SectorState.DISABLED,
    SectorState.CORRUPTED,
    SectorState.REMOVED,
)
_S_NORMAL, _S_DISABLED, _S_CORRUPTED, _S_REMOVED = range(len(_SECTOR_STATES))

_FILE_STATES = (
    FileState.PENDING,
    FileState.NORMAL,
    FileState.DISCARDED,
    FileState.LOST,
    FileState.FAILED,
)
_FILE_CODE = {state: code for code, state in enumerate(_FILE_STATES)}
_F_PENDING, _F_NORMAL, _F_DISCARDED, _F_LOST, _F_FAILED = range(len(_FILE_STATES))

#: Allocation-entry codes; ``-1`` marks an absent (never set / removed) row.
_ALLOC_STATES = (
    AllocState.ALLOC,
    AllocState.CONFIRM,
    AllocState.NORMAL,
    AllocState.CORRUPTED,
)
_A_ALLOC, _A_CONFIRM, _A_NORMAL, _A_CORRUPTED = range(len(_ALLOC_STATES))
_ABSENT = -1

#: Integers below this bound convert to float64 without rounding.
_EXACT_FLOAT_INT = 1 << 53


def _grow(array: np.ndarray, needed: int, fill: Any = 0) -> np.ndarray:
    """Return ``array`` grown (amortised doubling) to hold ``needed`` rows.

    Past 2**31 - 1 rows it raises ``ValueError`` before allocating
    (:func:`~repro.core.pending.grown_rows`, the bound of the int32 index
    columns).
    """
    if len(array) >= needed:
        return array
    grown = np.full(grown_rows(len(array), needed), fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _appears_once(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``values`` (non-negative ids) occurring once."""
    return np.bincount(values)[values] == 1


# ======================================================================
# Sector table
# ======================================================================
class SectorView:
    """Read-only proxy over one :class:`SectorTable` row (a sector record:
    Figure 1's ``(owner, id, capacity, freeCap, state)`` plus the pledged
    deposit)."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: "SectorTable", row: int) -> None:
        self._table = table
        self._row = row

    @property
    def sector_id(self) -> str:
        return self._table.sector_ids[self._row]

    @property
    def owner(self) -> str:
        return self._table.owners[self._row]

    @property
    def capacity(self) -> int:
        return int(self._table.capacity[self._row])

    @property
    def deposit(self) -> int:
        return self._table.deposit[self._row]

    @property
    def free_capacity(self) -> int:
        return int(self._table.free[self._row])

    @property
    def state(self) -> SectorState:
        return _SECTOR_STATES[self._table.state[self._row]]

    @property
    def accepts_new_files(self) -> bool:
        return self._table.state[self._row] == _S_NORMAL

    @property
    def is_corrupted(self) -> bool:
        return self._table.state[self._row] == _S_CORRUPTED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SectorView({self.sector_id}, state={self.state.value})"


class SectorTable:
    """Structure-of-arrays sector store with a dict-of-records facade.

    ``capacity``, ``free`` and ``state`` are the only record of sector
    capacity: the selector reads ``free`` at each placement, the network
    totals are scans over it, and a disabled sector is drained exactly
    when ``free == capacity`` (every reservation and release moves the
    free bytes by a positive file size).
    """

    def __init__(self) -> None:
        self.sector_ids: List[str] = []
        self.owners: List[str] = []
        self.capacity = np.empty(0, dtype=np.int64)
        self.free = np.empty(0, dtype=np.int64)
        self.state = np.empty(0, dtype=np.int8)
        #: Pledged deposits as Python ints: a deposit is the capacity times
        #: the deposit ratio, which no fixed-width column bounds.
        self.deposit: List[int] = []
        self._rows: Dict[str, int] = {}

    def append(self, sector_id: str, owner: str, capacity: int, deposit: int) -> int:
        """Add a normal, empty sector; returns its row."""
        row = len(self.sector_ids)
        self.sector_ids.append(sector_id)
        self.owners.append(owner)
        self.deposit.append(deposit)
        self.capacity = _grow(self.capacity, row + 1)
        self.free = _grow(self.free, row + 1)
        self.state = _grow(self.state, row + 1)
        self.capacity[row] = capacity
        self.free[row] = capacity
        self.state[row] = _S_NORMAL
        self._rows[sector_id] = row
        return row

    def row_of(self, sector_id: str) -> int:
        """Table row of a sector id (KeyError if unknown)."""
        return self._rows[sector_id]

    # -- dict facade ---------------------------------------------------
    def __getitem__(self, sector_id: str) -> SectorView:
        return SectorView(self, self._rows[sector_id])

    def get(self, sector_id: str) -> Optional[SectorView]:
        row = self._rows.get(sector_id)
        return None if row is None else SectorView(self, row)

    def __contains__(self, sector_id: str) -> bool:
        return sector_id in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self.sector_ids)

    def __len__(self) -> int:
        return len(self.sector_ids)

    def keys(self) -> List[str]:
        return list(self.sector_ids)

    def values(self) -> Iterator[SectorView]:
        return (SectorView(self, row) for row in range(len(self.sector_ids)))

    def items(self) -> Iterator[Tuple[str, SectorView]]:
        return (
            (sector_id, SectorView(self, row))
            for row, sector_id in enumerate(self.sector_ids)
        )


# ======================================================================
# File table
# ======================================================================
class FileView:
    """Read-only proxy over one :class:`FileTable` row (a descriptor:
    Figure 1's ``(size, value, merkleRoot, cp, cntdown, state)`` plus the
    owner, the id and the rent / compensation totals)."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: "FileTable", row: int) -> None:
        self._table = table
        self._row = row

    @property
    def file_id(self) -> int:
        return self._row

    @property
    def owner(self) -> str:
        return self._table.owners[self._row]

    @property
    def size(self) -> int:
        return int(self._table.size[self._row])

    @property
    def value(self) -> int:
        return int(self._table.value[self._row])

    @property
    def merkle_root(self) -> bytes:
        return self._table.merkle_roots[self._row]

    @property
    def replica_count(self) -> int:
        return int(self._table.replica_count[self._row])

    @property
    def countdown(self) -> int:
        return int(self._table.countdown[self._row])

    @property
    def state(self) -> FileState:
        return _FILE_STATES[self._table.state[self._row]]

    @property
    def rent_paid(self) -> int:
        return int(self._table.rent_paid[self._row])

    @property
    def compensation_received(self) -> int:
        return int(self._table.compensation[self._row])

    @property
    def is_active(self) -> bool:
        """True while the network still maintains this file."""
        return self._table.state[self._row] in (_F_PENDING, _F_NORMAL)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileView(file#{self.file_id}, state={self.state.value})"


class FileTable:
    """Structure-of-arrays file-descriptor store, keyed by file id.

    File ids are assigned sequentially by the protocol and descriptors are
    never deleted (terminal states are recorded in place), so the file id
    doubles as the table row.
    """

    def __init__(self) -> None:
        self.owners: List[str] = []
        self.merkle_roots: List[bytes] = []
        self.size = np.empty(0, dtype=np.int64)
        self.value = np.empty(0, dtype=np.int64)
        self.replica_count = np.empty(0, dtype=np.int32)
        self.state = np.empty(0, dtype=np.int8)
        self.countdown = np.empty(0, dtype=np.int64)
        self.rent_paid = np.empty(0, dtype=np.int64)
        self.compensation = np.empty(0, dtype=np.int64)
        self._n = 0

    def append_batch(
        self,
        owner: str,
        sizes: np.ndarray,
        values: np.ndarray,
        replica_counts: np.ndarray,
        merkle_root: bytes,
    ) -> np.ndarray:
        """Bulk-append pending descriptors; returns the assigned ids."""
        count = len(sizes)
        start = self._n
        for name in (
            "size", "value", "replica_count", "state", "countdown", "rent_paid",
            "compensation",
        ):
            setattr(self, name, _grow(getattr(self, name), start + count))
        self.owners.extend([owner] * count)
        self.merkle_roots.extend([merkle_root] * count)
        rows = np.arange(start, start + count)
        self.size[rows] = sizes
        self.value[rows] = values
        self.replica_count[rows] = replica_counts
        self.state[rows] = _F_PENDING
        self.countdown[rows] = -1
        self.rent_paid[rows] = 0
        self.compensation[rows] = 0
        self._n += count
        return rows

    def state_of(self, file_id: int) -> Optional[FileState]:
        """State of a file, ``None`` for an unknown id (builds no view)."""
        return _FILE_STATES[self.state.item(file_id)] if file_id in self else None

    def with_state(self, state: FileState) -> List[int]:
        """Ids of the files in ``state``, ascending."""
        return np.flatnonzero(self.state[: self._n] == _FILE_CODE[state]).tolist()

    # -- dict facade ---------------------------------------------------
    def __getitem__(self, file_id: int) -> FileView:
        if file_id not in self:
            raise KeyError(file_id)
        return FileView(self, int(file_id))

    def get(self, file_id: int) -> Optional[FileView]:
        return FileView(self, int(file_id)) if file_id in self else None

    def __contains__(self, file_id: int) -> bool:
        return isinstance(file_id, (int, np.integer)) and 0 <= file_id < self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def keys(self) -> List[int]:
        return list(range(self._n))

    def values(self) -> Iterator[FileView]:
        return (FileView(self, row) for row in range(self._n))

    def items(self) -> Iterator[Tuple[int, FileView]]:
        return ((row, FileView(self, row)) for row in range(self._n))


# ======================================================================
# Allocation table
# ======================================================================
class AllocEntryView:
    """Read-only proxy over one replica row (Figure 1's ``allocEntry``).

    ``prev``/``next`` are stored as sector table rows (``-1`` for None)
    and translated to sector id strings at the view boundary.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: "ColumnarAllocationTable", row: int) -> None:
        self._table = table
        self._row = row

    def _sector_id(self, row: int) -> Optional[str]:
        return None if row < 0 else self._table.sectors.sector_ids[row]

    @property
    def prev(self) -> Optional[str]:
        return self._sector_id(int(self._table.prev[self._row]))

    @property
    def next(self) -> Optional[str]:
        return self._sector_id(int(self._table.next[self._row]))

    @property
    def last_proof(self) -> float:
        return float(self._table.last_proof[self._row])

    @property
    def state(self) -> AllocState:
        return _ALLOC_STATES[self._table.state[self._row]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocEntryView(prev={self.prev}, next={self.next}, "
            f"last_proof={self.last_proof}, state={self.state.value})"
        )


class ColumnarAllocationTable:
    """Replica allocations as contiguous per-file row blocks.

    A file's ``replica_count`` rows are allocated as one contiguous block
    when File Add places it, so a file's entries are a slice and the
    entries on a sector one vectorised comparison.  Absent rows -- never
    set, or cleared by ``remove_file`` -- carry state code ``-1``.

    The index columns -- ``prev`` / ``next`` (sector rows) and
    ``block_start`` (a row per file id) -- are int32, while ``last_proof``
    keeps float64; ``_grow`` refuses any table of more than 2**31 - 1
    rows, so every stored index fits.
    """

    def __init__(self, files: FileTable, sectors: SectorTable) -> None:
        self.files = files
        self.sectors = sectors
        self.prev = np.empty(0, dtype=np.int32)
        self.next = np.empty(0, dtype=np.int32)
        self.last_proof = np.empty(0, dtype=np.float64)
        self.state = np.empty(0, dtype=np.int8)
        #: Block start per file id (-1 while unallocated).
        self.block_start = np.empty(0, dtype=np.int32)
        self._rows = 0

    # -- block management ---------------------------------------------
    def _ensure_blocks(self, file_id: int) -> None:
        if len(self.block_start) <= file_id:
            self.block_start = _grow(self.block_start, file_id + 1, fill=-1)

    def allocate_blocks(self, file_ids: np.ndarray) -> None:
        """Reserve every file's contiguous rows: one span, file order."""
        if len(file_ids) == 0:
            return
        self._ensure_blocks(int(file_ids.max()))
        taken = np.nonzero(self.block_start[file_ids] >= 0)[0]
        if len(taken):
            raise KeyError(
                f"file#{int(file_ids[taken[0]])} already has an allocation block"
            )
        counts = self.files.replica_count[file_ids].astype(np.int64)
        total = int(counts.sum())
        start = self._rows
        needed = start + total
        self.prev = _grow(self.prev, needed, fill=-1)
        self.next = _grow(self.next, needed, fill=-1)
        self.last_proof = _grow(self.last_proof, needed, fill=-1.0)
        self.state = _grow(self.state, needed, fill=_ABSENT)
        self.prev[start:needed] = -1
        self.next[start:needed] = -1
        self.last_proof[start:needed] = -1.0
        self.state[start:needed] = _ABSENT
        self.block_start[file_ids] = start + np.cumsum(counts) - counts
        self._rows = needed

    def block_rows(self, file_ids: np.ndarray) -> np.ndarray:
        """Concatenated row indices of the files' blocks (vectorised)."""
        counts = self.files.replica_count[file_ids].astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Output position p of a block that starts at output offset o holds
        # row ``start + (p - o)``: one repeat of ``start - o``, one ramp.
        rows = np.repeat(self.block_start[file_ids] - (np.cumsum(counts) - counts), counts)
        rows += np.arange(total, dtype=np.int64)
        return rows

    def span(self, file_id: int) -> range:
        """The rows of the file's block (empty if it has none)."""
        if 0 <= file_id < len(self.block_start):
            start = self.block_start.item(file_id)
            if start >= 0:
                return range(start, start + self.files.replica_count.item(file_id))
        return range(0)

    def row_of(self, file_id: int, index: int) -> int:
        """Table row of a present replica entry, ``-1`` if there is none."""
        if 0 <= file_id < len(self.block_start) and index >= 0:
            start = self.block_start.item(file_id)
            if start >= 0 and index < self.files.replica_count.item(file_id):
                row = start + index
                if self.state.item(row) != _ABSENT:
                    return row
        return -1

    def remove_file(self, file_id: int) -> None:
        """Drop every allocation of ``file_id``."""
        span = self.span(file_id)
        if not span:
            return
        self.state[span.start : span.stop] = _ABSENT
        self.block_start[file_id] = -1

    # -- queries -------------------------------------------------------
    def entries_for_file(self, file_id: int) -> List[Tuple[int, AllocEntryView]]:
        """All present ``(index, entry)`` pairs of one file, by index."""
        return [
            (index, AllocEntryView(self, row))
            for index, row in enumerate(self.span(file_id))
            if self.state.item(row) != _ABSENT
        ]

    def file_is_lost(self, file_id: int) -> bool:
        """True if the file has entries and every one is corrupted: a file
        is missing iff all sectors storing it are corrupted."""
        span = self.span(file_id)
        states = [
            state
            for state in self.state[span.start : span.stop].tolist()
            if state != _ABSENT
        ]
        return bool(states) and all(state == _A_CORRUPTED for state in states)

    def replica_locations(self, file_id: int) -> List[Optional[str]]:
        """Current sector of each replica (``None`` while allocating)."""
        span = self.span(file_id)
        ids = self.sectors.sector_ids
        return [
            None if host < 0 else ids[host]
            for host, state in zip(
                self.prev[span.start : span.stop].tolist(),
                self.state[span.start : span.stop].tolist(),
            )
            if state != _ABSENT
        ]

    def awaiting(self, file_id: int) -> List[Tuple[int, str]]:
        """``(index, sector id)`` of every replica allocated to a sector
        that has not confirmed it yet."""
        span = self.span(file_id)
        ids = self.sectors.sector_ids
        return [
            (index, ids[target])
            for index, (target, state) in enumerate(
                zip(
                    self.next[span.start : span.stop].tolist(),
                    self.state[span.start : span.stop].tolist(),
                )
            )
            if state == _A_ALLOC and target >= 0
        ]

    def files_hosted_on(self, sector_ids: List[str]) -> Set[int]:
        """Ids of the files with a replica currently on one of the sectors."""
        hosts = [self.sectors.row_of(sector_id) for sector_id in sector_ids]
        n = self._rows
        hits = np.flatnonzero(np.isin(self.prev[:n], hosts) & (self.state[:n] != _ABSENT))
        if len(hits) == 0:
            return set()
        # Present rows always belong to a live block, and live block
        # starts are strictly increasing in file id (blocks are allocated
        # in file order), so a binary search over the live starts maps
        # each row back to its owning file.
        starts = self.block_start[: len(self.files)]
        live = np.flatnonzero(starts >= 0)
        owners = live[np.searchsorted(starts[live], hits, side="right") - 1]
        return set(owners.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.state[: self._rows] != _ABSENT))


# ======================================================================
# The protocol engine
# ======================================================================
class ColumnarProtocol:
    """On-chain state machine of the FileInsurer DSN over columnar state.

    See the module docstring for the state layout and the equivalence
    contract with the spec in ``tests/oracles/protocol.py``.
    """

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
        #: ``RandomSector()`` draws go through the ``batch_weighted_draw``
        #: kernel (:mod:`repro.kernels`): sector choices are deterministic
        #: in the protocol seed and bit-identical on the kernel oracle
        #: (``backend`` injects one; ``None`` runs the vectorized kernels).
        #: A placement hands it ``sectors.free`` gathered in slot order;
        #: ``draw_batch`` > 1 prefetches that many plain refresh-target
        #: draws per kernel call.
        self.selector = CapacitySelector(
            self.prng.spawn("sector-selection"),
            backend=backend,
            draw_batch=draw_batch,
        )
        self.fund = InsuranceFund(self.ledger)
        self.fees = FeeEngine(self.ledger, self.params)
        self.pending = PendingList()
        self.sectors = SectorTable()
        self.files = FileTable()
        self.alloc = ColumnarAllocationTable(self.files, self.sectors)

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
        self._sector_counter: Dict[str, int] = {}
        self._traffic_escrows: Dict[Tuple[int, int], TrafficEscrow] = {}
        self.refresh_notices: List[RefreshNotice] = []

        # Aggregate statistics used by analysis and experiments.
        self.total_value_stored = 0
        self.total_value_lost = 0
        self.total_value_compensated = 0
        self.files_lost = 0
        self.files_stored = 0

        #: Sector corruptions seen so far: the epoch of every sector and
        #: allocation state a vectorised sweep derived (the proof sweep
        #: re-derives its mask whenever this moves mid-run).
        self._corruption_events = 0
        #: Sampler slot -> sector table row (a recycled slot keeps its last
        #: sector's row, or -1; it has weight 0 and is never drawn).
        self._slot_to_row = np.empty(0, dtype=np.int64)
        #: Cache of ``params.replica_count`` per distinct value.
        self._replica_count_cache: Dict[int, int] = {}

        if self.charge_fees:
            self.pending.schedule(self.now + self.params.rent_period, RENT_PERIOD)

    # ==================================================================
    # Time
    # ==================================================================
    @traced("protocol.advance_time", category="protocol")
    def advance_time(self, until: float) -> None:
        """Advance the clock to ``until``, executing due Auto tasks in order.

        The tasks due at one time go to their handlers by run: every
        maximal run of one kind is handed over whole, in task order.
        """
        # Written as "not >=" so a NaN ``until``, for which the loop's exit
        # test is never true, is refused along with times in the past.
        if not until >= self.now:
            raise ValueError("time cannot move backwards")
        while True:
            next_time = self.pending.peek_time()
            if next_time is None or next_time > until:
                break
            self.now = max(self.now, next_time)
            kinds, file_ids, indexes = self.pending.pop_due_arrays(self.now)
            # One comparison finds where the kind changes, so the loop below
            # pays per run (a handful per cycle), never per task.
            ends = (np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist()
            ends.append(len(kinds))  # at least one task is due here
            i = 0
            for j in ends:
                kind = kinds[i]
                if kind == CHECK_PROOF:
                    self._check_proof_run(file_ids[i:j])
                elif kind == CHECK_ALLOC:
                    self._check_alloc_run(file_ids[i:j])
                elif kind == CHECK_REFRESH:
                    self._check_refresh_run(file_ids[i:j], indexes[i:j])
                elif kind == RENT_PERIOD:
                    for _ in range(i, j):
                        self._auto_rent_period()
                else:  # pragma: no cover - defensive
                    raise ProtocolError(f"unknown pending task kind {kind}")
                i = j
        self.now = until
        if metrics.is_enabled():
            self._record_gauges()
        if is_enabled():
            # Refresh-target draws only happen inside CheckProof runs, so
            # once per advance covers them -- never once per draw.
            names = ("hits", "refills", "flushed")
            for name, amount in zip(names, self.selector.take_prefetch_counts()):
                if amount:
                    counter(f"protocol.prefetch.{name}", amount, category="protocol")

    def _record_gauges(self) -> None:
        """Gauge snapshots at ``self.now`` (observability only, no RNG)."""
        metrics.gauge(
            "protocol.refresh_backlog",
            self.now,
            float(self.pending.count_kind(CHECK_REFRESH)),
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
        """``Sector Register``: pledge a deposit and add the sector.

        Returns the new sector id.  The deposit is proportional to the
        sector capacity (Section IV-B) and is locked in escrow.
        """
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

        row = self.sectors.append(sector_id, owner, capacity, deposit)
        self.selector.add_sector(sector_id, capacity)
        slot = self.selector.slot_of(sector_id)
        self._slot_to_row = _grow(self._slot_to_row, slot + 1, fill=-1)
        self._slot_to_row[slot] = row
        self.events.emit(EventType.SECTOR_REGISTERED)
        if deposit:
            self.events.emit(EventType.DEPOSIT_PLEDGED)
        return sector_id

    def sector_disable(self, owner: str, sector_id: str) -> None:
        """``Sector Disable``: the sector stops accepting new files."""
        row = self._sector_row(sector_id)
        if self.sectors.owners[row] != owner:
            raise ProtocolError(f"{owner} does not own sector {sector_id}")
        if self.sectors.state.item(row) != _S_NORMAL:
            raise ProtocolError(f"sector {sector_id} is not in normal state")
        if self.charge_fees:
            self.fees.charge_gas(owner, "sector_disable")
        self.sectors.state[row] = _S_DISABLED
        self.selector.remove_sector(sector_id)
        self.events.emit(EventType.SECTOR_DISABLED)
        self._maybe_remove_sector(row)

    # ==================================================================
    # File protocol -- client requests
    # ==================================================================
    @traced("protocol.file_add", category="protocol")
    def file_add(self, owner: str, size: int, value: int, merkle_root: bytes) -> int:
        """``File Add``: allocate ``cp`` sectors for a new file.

        The one-file :meth:`file_add_batch`, so the two refuse a request
        alike.  Returns the file id.  The client must afterwards transmit
        the file to the owners of the selected sectors before the transfer
        deadline; the providers acknowledge with :meth:`file_confirm`.
        """
        return self.file_add_batch(owner, [size], [value], merkle_root)[0]

    @traced("protocol.file_add_batch", category="protocol")
    def file_add_batch(
        self,
        owner: str,
        sizes: List[int],
        values: List[int],
        merkle_root: bytes,
    ) -> List[int]:
        """Batched ``File Add``: admit and place many files per kernel call.

        * every file is validated up front: a size or value the protocol
          does not accept rejects the whole batch with
          :class:`ProtocolError` before any state change;
        * the admission limits are applied to the *prefix*: files are
          admitted in order, each assuming its predecessors were fully
          placed; the first file that would exceed a limit truncates the
          batch there (if that is the very first file, the batch raises
          :class:`ProtocolError`);
        * gas for the admitted prefix is charged first -- a client who
          cannot pay for the first file gets the ledger's
          :class:`InsufficientFundsError`, as every other request does --
          and all replica placements run as a single
          ``batch_weighted_draw`` call; the batch then stops after the
          first file whose placement failed (its descriptor is kept in
          state ``failed``, with no allocations);
        * with fees on, each placed replica escrows its traffic fee, in
          ``(file, replica)`` order.

        Returns the ids of every descriptor created; the last id may name
        a failed upload, which callers treat as the fill stopping point.
        """
        if len(sizes) != len(values):
            raise ProtocolError("file_add_batch: sizes and values must align")
        size_arr = np.asarray(sizes, dtype=np.int64)
        value_arr = np.asarray(values, dtype=np.int64)
        # Validation order (first offending entry wins): sizes, then values.
        bad_sizes = np.nonzero(
            (size_arr <= 0) | (size_arr > self.params.size_limit)
        )[0]
        if len(bad_sizes):
            size = int(size_arr[bad_sizes[0]])
            if size <= 0:
                raise ProtocolError("file size must be positive")
            raise ProtocolError(
                f"file size {size} exceeds size_limit={self.params.size_limit}; "
                "use repro.core.large_files to segment it first"
            )
        min_value = self.params.min_value
        if bool(np.any((value_arr <= 0) | (value_arr % min_value != 0))):
            raise ProtocolError(
                f"file value must be a positive multiple of min_value={min_value}"
            )
        if len(size_arr) == 0:
            return []
        # Replica counts depend only on the value; resolve each distinct
        # value once instead of per file.
        unique_values, value_index = np.unique(value_arr, return_inverse=True)
        replica_counts = np.array(
            [self._replica_count_of(int(value)) for value in unique_values],
            dtype=np.int64,
        )[value_index]
        admitted = self._admitted_prefix(size_arr, value_arr, replica_counts)
        if self.charge_fees:
            for index in range(admitted):
                try:
                    self.fees.charge_gas(owner, "file_add")
                except InsufficientFundsError:
                    if index == 0:
                        raise
                    admitted = index
                    break
        size_arr = size_arr[:admitted]
        value_arr = value_arr[:admitted]
        replica_counts = replica_counts[:admitted]

        expanded_sizes = np.repeat(size_arr, replica_counts)
        slots = self.selector.select_batch_slots(
            expanded_sizes,
            self.sectors.free[self._slot_to_row[: self.selector.slot_count]],
        )
        placed = slots >= 0
        ends = np.cumsum(replica_counts)
        starts = ends - replica_counts
        failures_per_file = np.add.reduceat(~placed, starts) if len(placed) else np.zeros(0)
        fully_placed = failures_per_file == 0
        if bool(fully_placed.all()):
            complete = admitted
            truncated = False
        else:
            complete = int(np.argmin(fully_placed))
            truncated = True

        created = complete + (1 if truncated else 0)
        file_ids = self.files.append_batch(
            owner,
            size_arr[:created],
            value_arr[:created],
            replica_counts[:created],
            merkle_root,
        )
        if created:
            self.alloc._ensure_blocks(int(file_ids[-1]))
        self.events.emit(EventType.FILE_ADD_REQUESTED, created)
        if truncated:
            # The failed upload keeps its descriptor (state failed) but no
            # allocations or reservations.
            self.files.state[file_ids[-1]] = _F_FAILED
            self.events.emit(EventType.FILE_UPLOAD_FAILED)

        if complete > 0:
            ok_ids = file_ids[:complete]
            replica_span = int(ends[complete - 1])
            ok_rows = self._slot_to_row[slots[:replica_span]]
            ok_sizes = expanded_sizes[:replica_span]
            # Allocation blocks: contiguous rows per file, state ALLOC,
            # next = selected sector, awaiting File Confirm.
            self.alloc.allocate_blocks(ok_ids)
            rows = self.alloc.block_rows(ok_ids)
            self.alloc.next[rows] = ok_rows
            self.alloc.state[rows] = _A_ALLOC
            # Sector reservations: one vectorised debit.
            np.subtract.at(self.sectors.free, ok_rows, ok_sizes)
            if self.charge_fees:
                indexes = np.arange(replica_span) - np.repeat(
                    starts[:complete], replica_counts[:complete]
                )
                owners = self.sectors.owners
                for file_id, index, sector_row, size in zip(
                    np.repeat(ok_ids, replica_counts[:complete]).tolist(),
                    indexes.tolist(),
                    ok_rows.tolist(),
                    ok_sizes.tolist(),
                ):
                    self._traffic_escrows[(file_id, index)] = (
                        self.fees.commit_traffic_fee(owner, owners[sector_row], size)
                    )
            # One CheckAlloc per stored file, one append in file order.  The
            # deadline is linear in the size, so a column of sizes gives the
            # column of per-file deadlines, float for float.
            self.pending.schedule_columns(
                self.now + self.params.transfer_deadline(size_arr[:complete]),
                np.full(complete, CHECK_ALLOC),
                ok_ids,
                np.full(complete, -1),
            )
        return file_ids.tolist()

    def _admitted_prefix(
        self, sizes: np.ndarray, values: np.ndarray, replica_counts: np.ndarray
    ) -> int:
        """Longest batch prefix the admission limits accept.

        Theorem 1's value limit (``Nm_v * minValue``) and the
        redundant-capacity byte budget (``1/redundancy_factor`` of the total
        capacity), each file checked as if its predecessors in the batch
        were fully placed: two cumulative sums.  They are int64 while every
        running total stays below 2**53 (no sum wraps, and the byte budget's
        float comparison is exact), Python ints past that.  Raises when even
        the first file is refused, naming the limit.
        """
        total_capacity, free_bytes = self._live_totals()
        if total_capacity <= 0:
            raise ProtocolError("no registered capacity in the network")
        max_value = self.params.max_value_capacity(total_capacity)
        replica_budget = total_capacity / self.params.redundancy_factor
        base_value = self.total_value_stored - self.total_value_lost
        base_bytes = total_capacity - free_bytes
        count = len(sizes)
        value_limit = min(max_value, _EXACT_FLOAT_INT)
        if (
            base_value + int(values.max()) * count >= _EXACT_FLOAT_INT
            or base_bytes + int(sizes.max()) * int(replica_counts.max()) * count
            >= _EXACT_FLOAT_INT
        ):
            sizes, values, replica_counts = (
                column.astype(object) for column in (sizes, values, replica_counts)
            )
            value_limit = max_value
        value_totals = base_value + np.cumsum(values)
        byte_totals = base_bytes + np.cumsum(sizes * replica_counts)
        refused = (value_totals > value_limit) | (byte_totals > replica_budget)
        if not refused[0]:
            return int(np.argmax(refused)) if refused.any() else count
        if value_totals[0] > value_limit:
            raise ProtocolError(
                f"value limit exceeded: storing {int(values[0])} would bring the "
                f"total to {int(value_totals[0])} > Nm_v*minValue = {max_value}"
            )
        raise ProtocolError(
            f"capacity limit exceeded: {int(byte_totals[0])} replica bytes would "
            f"exceed the redundant-capacity budget of {replica_budget:.0f}"
        )

    def _replica_count_of(self, value: int) -> int:
        cached = self._replica_count_cache.get(value)
        if cached is None:
            cached = self.params.replica_count(value)
            self._replica_count_cache[value] = cached
        return cached

    @traced("protocol.confirm_batch", category="protocol")
    def confirm_batch(self, file_ids: List[int]) -> List[int]:
        """Confirm every awaiting replica of ``file_ids`` on behalf of its
        selected sector's owner.

        The same per-entry ``File Confirm`` transitions providers would
        submit individually, in ``(file, index)`` order (traffic fees are
        paid out of escrow in that order).  Returns the ids whose replicas
        are now all confirmed.
        """
        fids = np.asarray(file_ids, dtype=np.int64)
        fids = fids[(fids >= 0) & (fids < len(self.files))]
        if len(fids) == 0:
            return []
        has_block = np.zeros(len(fids), dtype=bool)
        in_range = fids < len(self.alloc.block_start)
        has_block[in_range] = self.alloc.block_start[fids[in_range]] >= 0
        candidates = fids[(self.files.state[fids] == _F_PENDING) & has_block]
        if len(candidates) == 0:
            return []
        rows = self.alloc.block_rows(candidates)
        awaiting = (self.alloc.state[rows] == _A_ALLOC) & (self.alloc.next[rows] >= 0)
        self.alloc.state[rows[awaiting]] = _A_CONFIRM
        counts = self.files.replica_count[candidates].astype(np.int64)
        starts = np.cumsum(counts) - counts
        if self._traffic_escrows:
            indexes = np.arange(len(rows)) - np.repeat(starts, counts)
            for file_id, index in zip(
                np.repeat(candidates, counts)[awaiting].tolist(),
                indexes[awaiting].tolist(),
            ):
                self._release_traffic_escrow(file_id, index)
        # A file counts as confirmed when every present entry is CONFIRM.
        states = self.alloc.state[rows]
        present = states != _ABSENT
        ok_entries = np.add.reduceat(present & (states == _A_CONFIRM), starts)
        any_present = np.add.reduceat(present, starts)
        complete = (ok_entries == counts) & (any_present > 0)
        return candidates[complete].tolist()

    def file_discard(self, owner: str, file_id: int) -> None:
        """``File Discard``: mark the file as discarded.

        The file is physically removed at the next ``Auto CheckProof``
        (matching Figure 8); discarding an already-lost file is an error.
        """
        self._check_file(file_id)
        if self.files.owners[file_id] != owner:
            raise ProtocolError(f"{owner} does not own file#{file_id}")
        if self.files.state.item(file_id) not in (_F_PENDING, _F_NORMAL):
            raise ProtocolError(f"file#{file_id} is not active")
        if self.charge_fees:
            self.fees.charge_gas(owner, "file_discard")
        self.files.state[file_id] = _F_DISCARDED
        self.events.emit(EventType.FILE_DISCARDED)

    def file_locations(self, file_id: int) -> List[Optional[str]]:
        """``File Get`` support: current sector of every replica.

        Retrieval itself happens off-chain (Retrieval Market / BitSwap); the
        chain only serves the location and hash information.
        """
        self._check_file(file_id)
        return self.alloc.replica_locations(file_id)

    # ==================================================================
    # File protocol -- provider requests
    # ==================================================================
    def file_confirm(self, provider: str, file_id: int, index: int, sector_id: str) -> None:
        """``File Confirm``: a sector acknowledges receipt of a replica."""
        sector_row = self._sector_row(sector_id)
        if self.sectors.owners[sector_row] != provider:
            raise ProtocolError(f"{provider} does not own sector {sector_id}")
        row = self.alloc.row_of(file_id, index)
        if row < 0:
            raise ProtocolError(f"no allocation for file#{file_id} replica {index}")
        if (
            self.alloc.next.item(row) != sector_row
            or self.alloc.state.item(row) != _A_ALLOC
        ):
            raise ProtocolError(
                f"allocation of file#{file_id}[{index}] is not awaiting {sector_id}"
            )
        self.alloc.state[row] = _A_CONFIRM
        self._release_traffic_escrow(file_id, index)

    def _release_traffic_escrow(self, file_id: int, index: int) -> None:
        """Pay the confirmed replica's traffic fee out of escrow, if any."""
        escrow = self._traffic_escrows.pop((file_id, index), None)
        if escrow is not None:
            self.fees.release_traffic_fee(escrow)
            self.events.emit(EventType.TRAFFIC_FEE_PAID)

    def file_prove(self, provider: str, file_id: int, index: int, sector_id: str) -> None:
        """``File Prove``: record a storage proof for one replica, now.

        No layer produces or verifies a real proof of spacetime: a call is
        an accepted proof.  Experiments that run the proof rounds hand the
        protocol a health oracle (``auto_prove``), which stands in for the
        proofs of every healthy sector.
        """
        sector_row = self._sector_row(sector_id)
        if self.sectors.owners[sector_row] != provider:
            raise ProtocolError(f"{provider} does not own sector {sector_id}")
        row = self.alloc.row_of(file_id, index)
        if row < 0:
            raise ProtocolError(f"no allocation for file#{file_id} replica {index}")
        if self.alloc.prev.item(row) != sector_row:
            raise ProtocolError(
                f"sector {sector_id} is not the current host of file#{file_id}[{index}]"
            )
        self.alloc.last_proof[row] = max(self.alloc.last_proof.item(row), self.now)

    # ==================================================================
    # Auto tasks, one file at a time (row forms)
    # ==================================================================
    def _auto_check_proof(self, file_id: int) -> None:
        """``Auto CheckProof`` (Figure 8)."""
        files, alloc, sectors = self.files, self.alloc, self.sectors
        if file_id not in files:
            return
        state = files.state.item(file_id)
        if state == _F_LOST or state == _F_FAILED:
            return

        # 1. Charge the client for the next cycle (or force-discard).
        if self.charge_fees and state == _F_NORMAL:
            owner = files.owners[file_id]
            size = files.size.item(file_id)
            replicas = files.replica_count.item(file_id)
            if not self.fees.can_afford_cycle(owner, size, replicas):
                files.state[file_id] = state = _F_DISCARDED
                self.events.emit(EventType.FILE_DISCARDED)
            else:
                files.rent_paid[file_id] += self.fees.charge_cycle(owner, size, replicas)
                self.events.emit(EventType.RENT_CHARGED)

        # 2. Check proof freshness for every replica still hosted somewhere.
        if self.auto_prove and self.health_oracle is not None:
            self._credit_automatic_proofs(file_id)
        missed = self.now - self.params.proof_deadline
        late = self.now - self.params.proof_due
        for row in alloc.span(file_id):
            entry_state = alloc.state.item(row)
            host = alloc.prev.item(row)
            if entry_state == _ABSENT or entry_state == _A_CORRUPTED or host < 0:
                continue
            if sectors.state.item(host) == _S_CORRUPTED:
                alloc.state[row] = _A_CORRUPTED
                continue
            last_proof = alloc.last_proof.item(row)
            if last_proof < missed:
                self._handle_sector_corruption(host)
            elif last_proof < late:
                self._punish(sectors.owners[host], self.params.late_proof_penalty)

        # 3. Resolve the file's fate.
        if state == _F_DISCARDED:
            self._remove_file(file_id)
            return
        if alloc.file_is_lost(file_id):
            self._handle_file_loss(file_id)
            return

        # 4. Schedule the next checkpoint and maybe a refresh.
        self.pending.schedule(self.now + self.params.proof_cycle, CHECK_PROOF, file_id)
        countdown = files.countdown.item(file_id) - 1
        files.countdown[file_id] = countdown
        if countdown <= 0:
            index = self.prng.randint(0, files.replica_count.item(file_id) - 1)
            self._auto_refresh(file_id, index)

    def _credit_automatic_proofs(self, file_id: int) -> None:
        """Credit proofs for healthy sectors when running with a health oracle.

        Matches File Prove semantics: the current host (``prev``) must keep
        proving even while a refresh swap is in flight (entry state
        ``alloc``/``confirm``), so any non-corrupted entry with a host is
        credited.
        """
        alloc, sectors, oracle = self.alloc, self.sectors, self.health_oracle
        for row in alloc.span(file_id):
            entry_state = alloc.state.item(row)
            host = alloc.prev.item(row)
            if entry_state == _ABSENT or entry_state == _A_CORRUPTED or host < 0:
                continue
            if sectors.state.item(host) == _S_CORRUPTED:
                continue
            if oracle(sectors.sector_ids[host]):
                alloc.last_proof[row] = self.now

    @traced("protocol.refresh", category="protocol")
    def _auto_refresh(self, file_id: int, index: int) -> None:
        """``Auto Refresh`` (Figure 9): move one replica to a random sector."""
        files, alloc, sectors = self.files, self.alloc, self.sectors
        if files.state.item(file_id) != _F_NORMAL:
            return
        row = alloc.row_of(file_id, index)
        if row < 0 or alloc.state.item(row) != _A_NORMAL or len(self.selector) == 0:
            # Replica unavailable (corrupted) or mid-transfer, or nowhere
            # to go: postpone.
            files.countdown[file_id] = self._sample_refresh_countdown()
            return
        target = self._slot_to_row.item(self.selector.random_slot())
        size = files.size.item(file_id)
        free = sectors.free.item(target) - size
        if free < 0 or sectors.state.item(target) != _S_NORMAL:
            # Collision: the paper resamples the countdown and tries later.
            self.events.emit(EventType.COLLISION_RESAMPLED)
            files.countdown[file_id] = self._sample_refresh_countdown()
            return

        sectors.free[target] = free
        sector_ids = sectors.sector_ids
        alloc.next[row] = target
        alloc.state[row] = _A_ALLOC
        deadline = self.now + self.params.transfer_deadline(size)
        self.pending.schedule(deadline, CHECK_REFRESH, file_id, index)
        source = alloc.prev.item(row)
        self.refresh_notices.append(
            RefreshNotice(
                file_id,
                index,
                None if source < 0 else sector_ids[source],
                sector_ids[target],
                deadline,
            )
        )
        counter("protocol.refresh_notices", category="protocol")
        self.events.emit(EventType.FILE_REFRESH_STARTED)

    def _auto_check_refresh(self, file_id: int, index: int) -> None:
        """``Auto CheckRefresh`` (Figure 9)."""
        files, alloc = self.files, self.alloc
        if file_id not in files:
            return
        row = alloc.row_of(file_id, index)
        if row < 0:
            return
        if files.state.item(file_id) != _F_NORMAL:
            # File discarded or lost while the swap was in flight; release
            # the reservation made on the target sector.
            self._release_next_reservation(file_id, row)
            return

        entry_state = alloc.state.item(row)
        if entry_state == _A_CONFIRM:
            old_host = alloc.prev.item(row)
            alloc.prev[row] = alloc.next.item(row)
            alloc.next[row] = -1
            alloc.last_proof[row] = self.now
            alloc.state[row] = _A_NORMAL
            if old_host >= 0:
                self._release_replica_from_sector(old_host, files.size.item(file_id))
            files.countdown[file_id] = self._sample_refresh_countdown()
            self.events.emit(EventType.FILE_REFRESH_COMPLETED)
            return

        if entry_state == _A_CORRUPTED:
            # Either end collapsed mid-swap; nothing to punish, CheckProof
            # will account for the loss.
            return

        # The swap was not confirmed in time: punish the parties and retry.
        owners = self.sectors.owners
        penalty = self.params.refresh_failure_penalty
        failed_target = alloc.next.item(row)
        if failed_target >= 0:
            self._release_next_reservation(file_id, row)
            self._punish(owners[failed_target], penalty)
        for other in alloc.span(file_id):
            other_state = alloc.state.item(other)
            host = alloc.prev.item(other)
            if other_state != _ABSENT and other_state != _A_CORRUPTED and host >= 0:
                self._punish(owners[host], penalty)
        alloc.state[row] = _A_NORMAL
        self.events.emit(EventType.FILE_REFRESH_FAILED)
        self._auto_refresh(file_id, index)

    def _auto_rent_period(self) -> None:
        """Distribute the period's rent to healthy sectors and reschedule."""
        sectors = self.sectors
        states = sectors.state[: len(sectors)]
        live = np.flatnonzero((states == _S_NORMAL) | (states == _S_DISABLED))
        healthy = [
            (sectors.sector_ids[row], sectors.owners[row], capacity)
            for row, capacity in zip(live.tolist(), sectors.capacity[live].tolist())
        ]
        if self.fees.rent.distribute(healthy):
            self.events.emit(EventType.RENT_DISTRIBUTED)
        self.pending.schedule(self.now + self.params.rent_period, RENT_PERIOD)


    # ==================================================================
    # Auto tasks, a same-time run at a time (vectorised sweeps)
    # ==================================================================
    @traced("protocol.check_alloc_run", category="protocol")
    def _check_alloc_run(self, file_ids: np.ndarray) -> None:
        """``Auto CheckAlloc`` (Figure 7) for a run of same-time tasks.

        Only files still ``PENDING`` or ``DISCARDED`` act.  A pending file
        with no present row ``ALLOC`` or ``NORMAL`` is *stored* in columns:
        confirmed rows get their host and a proof at ``now``; a row
        corrupted in transfer never had a host (its ``prev`` and
        ``last_proof`` are still -1) and only loses its target; the
        countdowns are one draw in task order, the checkpoints one append.
        Every other file *failed* and is removed in task order, which keeps
        the ledger refunds in the spec's order.  A run never names a file
        twice (``file_add_batch`` schedules one CheckAlloc per created file
        and ``allocate_blocks`` refuses a second block), so it is not
        deduplicated.
        """
        files, alloc = self.files, self.alloc
        states = files.state[file_ids]
        is_pending = states == _F_PENDING
        failing = states == _F_DISCARDED
        pending = file_ids[is_pending]
        if len(pending):
            rows = alloc.block_rows(pending)
            row_states = alloc.state[rows]
            unsettled = (row_states == _A_ALLOC) | (row_states == _A_NORMAL)
            if unsettled.any():  # else every pending file is stored
                counts = files.replica_count[pending].astype(np.int64)
                failing[is_pending] = np.add.reduceat(unsettled, np.cumsum(counts) - counts) > 0
                kept = np.repeat(~failing[is_pending], counts)
                rows, row_states = rows[kept], row_states[kept]
        failed = file_ids[failing].tolist()
        for file_id in failed:
            self._remove_file(file_id)
            files.state[file_id] = _F_FAILED
        self.events.emit(EventType.FILE_UPLOAD_FAILED, len(failed))
        stored = pending[~failing[is_pending]]
        if len(stored) == 0:
            return
        confirmed = rows[row_states == _A_CONFIRM]
        alloc.prev[confirmed] = alloc.next[confirmed]
        alloc.last_proof[confirmed] = self.now
        alloc.state[confirmed] = _A_NORMAL
        alloc.next[rows] = -1
        files.state[stored] = _F_NORMAL
        files.countdown[stored] = self._sample_refresh_countdowns(len(stored))
        self.files_stored += len(stored)
        self.total_value_stored += int(files.value[stored].sum())
        self.pending.schedule_batch(self.now + self.params.proof_cycle, CHECK_PROOF, stored)
        self.events.emit(EventType.FILE_STORED, len(stored))

    @traced("protocol.check_proof_run", category="protocol")
    def _check_proof_run(self, file_ids: np.ndarray) -> None:
        """A run of same-time CheckProof tasks: one masked sweep.

        The run is processed in task order as alternating *[vector
        stretch] [one scalar file]*: files :meth:`_proof_sweep_mask` clears
        are swept with column writes, every other file goes through the
        per-file :meth:`_auto_check_proof`.  Only that scalar call can
        corrupt a sector (``proof deadline exceeded``), so the mask of the
        remaining tail is re-derived exactly when ``_corruption_events``
        -- an epoch counter -- moved during it.  Without automatic proofs,
        or with rent to charge per cycle, no file qualifies for the sweep
        and the run is per-file from the start.
        """
        scalar_files, start, total = 0, 0, len(file_ids)
        if self.charge_fees or not self.auto_prove or self.health_oracle is None:
            for file_id in file_ids.tolist():
                self._auto_check_proof(file_id)
            scalar_files = start = total
        while start < total:
            tail = file_ids[start:]
            vector, proof_rows, offsets = self._proof_sweep_mask(tail)
            epoch = self._corruption_events
            cursor = 0
            for scalar in np.nonzero(~vector)[0].tolist():
                self._proof_stretch(
                    tail[cursor:scalar], proof_rows[offsets[cursor] : offsets[scalar]]
                )
                self._auto_check_proof(int(tail[scalar]))
                scalar_files += 1
                cursor = scalar + 1
                if self._corruption_events != epoch:
                    break
            else:
                self._proof_stretch(tail[cursor:], proof_rows[offsets[cursor] :])
                cursor = len(tail)
            start += cursor
        counter(
            "protocol.proof_sweep.vector_files",
            total - scalar_files,
            category="protocol",
        )
        counter("protocol.proof_sweep.scalar_files", scalar_files, category="protocol")

    def _proof_sweep_mask(
        self, file_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-file vector eligibility of a CheckProof run, from the columns.

        A file is swept when it appears once in the run, is ``NORMAL``, not
        lost (some present row not ``CORRUPTED``), and every live row
        (present, not ``CORRUPTED``, hosted) sits on a sector that is not
        corrupted and that the health oracle calls healthy.  For such a
        file Figure 8 reduces to independent writes: every live row is
        credited a proof at ``now`` (which can breach no deadline),
        ``CORRUPTED`` rows are skipped, the file is neither discarded nor
        lost.  The sweep needs placement-only mode (no rent per cycle) and
        automatic proving; the oracle is consulted once per distinct live
        host instead of once per replica, so it must be pure within one
        ``advance_time`` -- the purity contract of the vectorised sweeps.

        A *clean* run -- every candidate row live, every distinct host
        healthy: every healthy cycle -- skips the per-file reductions.
        They could only answer "swept, every row credited", so the rows
        are the candidates' blocks and the offsets their replica counts.

        Returns ``(vector, proof_rows, offsets)``: the mask, the live rows
        of the swept files in task order, and the ``len + 1`` offsets that
        slice ``proof_rows`` by run position.
        """
        count = len(file_ids)
        vector = np.zeros(count, dtype=bool)
        offsets = np.zeros(count + 1, dtype=np.int64)
        no_rows = np.empty(0, dtype=np.int64)
        limit = min(len(self.files), len(self.alloc.block_start))
        if (
            self.charge_fees
            or not self.auto_prove
            or self.health_oracle is None
            or limit == 0
        ):
            return vector, no_rows, offsets
        known = (file_ids >= 0) & (file_ids < limit)
        ids = np.where(known, file_ids, 0)
        candidate = (
            known
            & (self.files.state[ids] == _F_NORMAL)
            & (self.alloc.block_start[ids] >= 0)
            & _appears_once(ids)
        )
        positions = np.nonzero(candidate)[0]
        if len(positions) == 0:
            return vector, no_rows, offsets
        candidates = file_ids[positions]
        rows = self.alloc.block_rows(candidates)
        replicas = self.files.replica_count[candidates].astype(np.int64)
        starts = np.cumsum(replicas) - replicas
        states = self.alloc.state[rows]
        hosts = self.alloc.prev[rows]
        available = (states != _ABSENT) & (
            states != _A_CORRUPTED
        )
        live = available & (hosts >= 0)
        live_hosts = hosts[live]
        distinct = np.nonzero(np.bincount(live_hosts, minlength=len(self.sectors)))[0]
        standing = distinct[
            self.sectors.state[distinct] != _S_CORRUPTED
        ]
        well = [
            sector_row
            for sector_row in standing.tolist()
            if self.health_oracle(self.sectors.sector_ids[sector_row])
        ]
        if len(well) == len(distinct) and bool(live.all()):
            # Clean run: no reduction below has anything left to decide.
            vector[positions] = True
            offsets[positions + 1] = replicas
            np.cumsum(offsets, out=offsets)
            return vector, rows, offsets
        healthy = np.zeros(len(self.sectors), dtype=bool)
        healthy[well] = True
        sick = np.zeros(len(rows), dtype=bool)
        sick[live] = ~healthy[live_hosts]
        swept = (np.add.reduceat(available, starts) > 0) & (
            np.add.reduceat(sick, starts) == 0
        )
        vector[positions] = swept
        credited = live & np.repeat(swept, replicas)
        offsets[positions + 1] = np.add.reduceat(credited, starts)
        np.cumsum(offsets, out=offsets)
        return vector, rows[credited], offsets

    def _proof_stretch(self, file_ids: np.ndarray, proof_rows: np.ndarray) -> None:
        """Sweep one stretch of mask-cleared files with column writes.

        Files whose countdown ran out start a refresh
        (:meth:`_start_refreshes`).  The next checkpoints and the
        CheckRefresh tasks are one append, interleaved as the per-file
        loop schedules them: the CheckProof tasks up to and including a
        refreshing file, then that file's CheckRefresh.
        """
        if len(file_ids) == 0:
            return
        self.alloc.last_proof[proof_rows] = self.now
        countdowns = self.files.countdown[file_ids] - 1
        self.files.countdown[file_ids] = countdowns
        next_checkpoint = self.now + self.params.proof_cycle
        due = np.nonzero(countdowns <= 0)[0]
        if len(due) == 0:
            self.pending.schedule_batch(next_checkpoint, CHECK_PROOF, file_ids)
            return
        picked, indexes, deadlines = self._start_refreshes(file_ids[due])
        started = due[picked]
        total = len(file_ids) + len(started)
        refresh = np.zeros(total, dtype=bool)
        refresh[started + np.arange(1, len(started) + 1)] = True
        times = np.full(total, next_checkpoint)
        times[refresh] = deadlines
        kinds = np.full(total, CHECK_PROOF, dtype=np.int64)
        kinds[refresh] = CHECK_REFRESH
        tasks = np.empty(total, dtype=np.int64)
        tasks[~refresh] = file_ids
        tasks[refresh] = file_ids[started]
        replica = np.full(total, -1, dtype=np.int64)
        replica[refresh] = indexes
        self.pending.schedule_columns(times, kinds, tasks, replica)

    def _start_refreshes(
        self, file_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``Auto Refresh`` (Figure 9) for the due files of one proof stretch.

        Sequential decisions, columnar effects.  What one file decides
        depends on the files before it -- the PRNG stream, the selector's
        prefetch buffer, the room earlier refreshes of this stretch left on
        a target -- so the decisions are one loop in task order over plain
        ints, consuming both random streams exactly as per-file
        :meth:`_auto_refresh` calls would: the replica index; then, unless
        that replica is mid-transfer or corrupted or no sector is
        selectable (postponed: new countdown), the next prefetched target;
        a target without room is a collision (new countdown).  What was
        decided is then written at once.  The mask guarantees ``NORMAL``
        files that appear once, so every file owns the rows it touches.

        The PRNG stream is read as one window: a replica index is
        ``randint``'s rejection sampling done on the window's bytes, a new
        countdown reserves the next 7 bytes and all of them are decoded
        after the loop, and the unread tail goes back to the generator,
        which ends in the state per-file reads would leave.

        Returns the started refreshes: positions in ``file_ids``, replica
        indexes, CheckRefresh deadlines.
        """
        prng = self.prng
        random_slot = self.selector.random_slot
        selectable = len(self.selector) > 0
        replica_state = self.alloc.state
        slot_to_row = self._slot_to_row
        free = self.sectors.free
        sector_state = self.sectors.state
        normal_replica = _A_NORMAL
        normal_sector = _S_NORMAL
        replica_counts = self.files.replica_count[file_ids].tolist()
        # A replica index is ``randint`` over ``[0, replicas)``: it reads
        # ``width`` bytes, keeps their top ``replicas.bit_length()`` bits
        # and rejects an index past the last.
        draw_shape: Dict[int, Tuple[int, int]] = {}
        for replicas in set(replica_counts):
            bits = replicas.bit_length()
            width = (bits + 7) // 8
            draw_shape[replicas] = (width, 8 * width - bits)
        # Four bytes per due file (an index draw takes one or two, a
        # countdown seven); a stretch that needs more reads another chunk.
        chunk = 4 * len(file_ids) + 64
        window = prng.random_bytes(chunk)
        end = len(window)
        cursor = 0
        room: Dict[int, int] = {}  # target row -> bytes free after this stretch's reservations
        picked: List[int] = []
        indexes: List[int] = []
        target_rows: List[int] = []
        resampled: List[int] = []
        countdown_offsets: List[int] = []
        collided = 0
        try:
            for position, (replicas, block, size) in enumerate(
                zip(
                    replica_counts,
                    self.alloc.block_start[file_ids].tolist(),
                    self.files.size[file_ids].tolist(),
                )
            ):
                width, shift = draw_shape[replicas]
                while True:
                    if cursor + width + 7 > end:  # room for a countdown after the index
                        window += prng.random_bytes(chunk)
                        end = len(window)
                    if width == 1:
                        index = window[cursor] >> shift
                    else:
                        index = int.from_bytes(window[cursor : cursor + width], "big") >> shift
                    cursor += width
                    if index < replicas:
                        break
                if selectable and replica_state.item(block + index) == normal_replica:
                    target = slot_to_row.item(random_slot())
                    left = room[target] if target in room else free.item(target)
                    if left >= size and sector_state.item(target) == normal_sector:
                        room[target] = left - size
                        picked.append(position)
                        indexes.append(index)
                        target_rows.append(target)
                        continue
                    collided += 1
                resampled.append(position)
                countdown_offsets.append(cursor)
                cursor += 7
        finally:
            prng.unread(end - cursor)

        self.files.countdown[file_ids[resampled]] = exp_countdowns(
            window, self.params.avg_refresh, countdown_offsets
        )
        self.events.emit(EventType.COLLISION_RESAMPLED, collided)
        started = file_ids[picked]
        index_array = np.asarray(indexes, dtype=np.int64)
        rows = self.alloc.block_start[started] + index_array
        targets = np.asarray(target_rows, dtype=np.int64)
        sizes = self.files.size[started]
        self.alloc.next[rows] = targets
        self.alloc.state[rows] = _A_ALLOC
        np.subtract.at(free, targets, sizes)
        size_list = sizes.tolist()
        deadline_of = {
            size: self.now + self.params.transfer_deadline(size)
            for size in set(size_list)
        }
        deadlines = [deadline_of[size] for size in size_list]
        sector_ids = self.sectors.sector_ids
        sources = [
            None if source < 0 else sector_ids[source]
            for source in self.alloc.prev[rows].tolist()
        ]
        self.refresh_notices.extend(
            map(
                RefreshNotice,
                started.tolist(),
                indexes,
                sources,
                [sector_ids[target] for target in target_rows],
                deadlines,
            )
        )
        self.events.emit(EventType.FILE_REFRESH_STARTED, len(picked))
        for name, amount in (
            ("protocol.refresh_start.vector_files", len(file_ids)),
            ("protocol.refresh_start.postponed", len(resampled) - collided),
            ("protocol.refresh_start.collided", collided),
            ("protocol.refresh_notices", len(picked)),
        ):
            counter(name, amount, category="protocol")
        return (
            np.asarray(picked, dtype=np.int64),
            index_array,
            np.asarray(deadlines, dtype=np.float64),
        )

    @traced("protocol.check_refresh_run", category="protocol")
    def _check_refresh_run(self, file_ids: np.ndarray, indexes: np.ndarray) -> None:
        """A run of same-time CheckRefresh tasks, completions vectorised.

        Maximal stretches of plain completions -- ``NORMAL`` file with one
        task in the run (so its new countdown is one column write),
        ``CONFIRM`` entry, old host not ``DISABLED`` (draining a disabled
        sector may remove it and refund its deposit) -- are applied with
        column writes; every other task takes the per-file
        :meth:`_auto_check_refresh` in task order.  No task can change
        another task's eligibility (each touches only its own row, and
        nothing here disables a sector), so one mask serves the whole run.

        A run of one task has nothing to batch and takes the row form: the
        mask costs a dozen array operations, several times the one task
        (``fullstack_churn``'s runs are nearly all single tasks,
        ``fill_prove``'s thousands long).
        """
        total = len(file_ids)
        vector = np.zeros(total, dtype=bool)
        rows = np.zeros(total, dtype=np.int64)
        limit = min(len(self.files), len(self.alloc.block_start))
        if total > 1 and limit and self.alloc._rows:
            known = (file_ids >= 0) & (file_ids < limit) & (indexes >= 0)
            ids = np.where(known, file_ids, 0)
            known &= (
                (self.files.state[ids] == _F_NORMAL)
                & (self.alloc.block_start[ids] >= 0)
                & (indexes < self.files.replica_count[ids])
            )
            rows = np.where(known, self.alloc.block_start[ids] + indexes, 0)
            old = self.alloc.prev[rows]
            vector = (
                known
                & (self.alloc.state[rows] == _A_CONFIRM)
                & (self.alloc.next[rows] >= 0)
                & (
                    (old < 0)
                    | (
                        self.sectors.state[np.maximum(old, 0)]
                        != _S_DISABLED
                    )
                )
                & _appears_once(ids)
            )
        scalar_tasks = np.nonzero(~vector)[0].tolist()
        cursor = 0
        for scalar in scalar_tasks:
            self._refresh_stretch(file_ids[cursor:scalar], rows[cursor:scalar])
            self._auto_check_refresh(int(file_ids[scalar]), int(indexes[scalar]))
            cursor = scalar + 1
        self._refresh_stretch(file_ids[cursor:], rows[cursor:])
        counter(
            "protocol.refresh_check.vector_tasks",
            total - len(scalar_tasks),
            category="protocol",
        )
        counter(
            "protocol.refresh_check.scalar_tasks",
            len(scalar_tasks),
            category="protocol",
        )

    def _refresh_stretch(self, file_ids: np.ndarray, rows: np.ndarray) -> None:
        """Complete one stretch of confirmed swaps (Figure 9) in columns."""
        if len(rows) == 0:
            return
        old = self.alloc.prev[rows]
        self.alloc.prev[rows] = self.alloc.next[rows]
        self.alloc.next[rows] = -1
        self.alloc.last_proof[rows] = self.now
        self.alloc.state[rows] = _A_NORMAL
        # Release the old hosts; corrupted or removed ones keep no books.
        releasing = old >= 0
        releasing[releasing] = (
            self.sectors.state[old[releasing]] == _S_NORMAL
        )
        released = old[releasing]
        sizes = self.files.size[file_ids[releasing]]
        np.add.at(self.sectors.free, released, sizes)
        self.files.countdown[file_ids] = self._sample_refresh_countdowns(len(file_ids))
        self.events.emit(EventType.FILE_REFRESH_COMPLETED, len(file_ids))


    # ==================================================================
    # Corruption handling and compensation
    # ==================================================================
    def crash_sector(self, sector_id: str) -> None:
        """Simulate the collapse of a sector.

        The network reacts immediately as it would after the proof
        deadline: the deposit is confiscated and every hosted replica is
        marked corrupted.  (A collapse the network only detects through
        missed proofs is a sector the health oracle reports sick.)
        """
        self._handle_sector_corruption(self._sector_row(sector_id))

    def _handle_sector_corruption(self, row: int) -> None:
        sectors = self.sectors
        state = sectors.state.item(row)
        if state == _S_CORRUPTED or state == _S_REMOVED:
            return  # it holds no replica and no deposit any more
        sector_id = sectors.sector_ids[row]
        sectors.state[row] = _S_CORRUPTED
        self._corruption_events += 1
        self.selector.remove_sector(sector_id)
        if self.charge_fees and self.fund.deposit_of(sector_id) > 0:
            self.fund.confiscate(sector_id)
            self.events.emit(EventType.DEPOSIT_CONFISCATED)
        self.events.emit(EventType.SECTOR_CORRUPTED)
        # Every allocation pointing at this sector loses its replica.  Each
        # row's transitions depend on that row alone, so they are column
        # writes over all rows at once.
        n = self.alloc._rows
        prev, nxt, state = self.alloc.prev[:n], self.alloc.next[:n], self.alloc.state[:n]
        state[(prev == row) & (state != _ABSENT) & (state != _A_CORRUPTED)] = _A_CORRUPTED
        # The *target* of an allocation collapsed.  For an initial
        # allocation (no prev) the replica is gone; for an in-flight
        # refresh the predecessor still stores it, so the entry simply
        # falls back to normal on its current host.
        targets = np.flatnonzero((nxt == row) & ((state == _A_ALLOC) | (state == _A_CONFIRM)))
        nxt[targets] = -1
        hosts = prev[targets]
        standing = (hosts >= 0) & (sectors.state[np.maximum(hosts, 0)] != _S_CORRUPTED)
        state[targets] = np.where(standing, _A_NORMAL, _A_CORRUPTED)

    def _handle_file_loss(self, file_id: int) -> None:
        files = self.files
        files.state[file_id] = _F_LOST
        value = files.value.item(file_id)
        self.files_lost += 1
        self.total_value_lost += value
        self.events.emit(EventType.FILE_LOST)
        if self.charge_fees:
            compensation = value * self.params.min_value
            try:
                paid = self.fund.compensate(files.owners[file_id], compensation)
            except CompensationShortfallError:
                # The fund already paid whatever the pool could cover.
                paid = self.fund.total_compensated - self.total_value_compensated
            files.compensation[file_id] += paid
            self.total_value_compensated += paid
            self.events.emit(EventType.FILE_COMPENSATED)
        self._remove_file(file_id)

    # ==================================================================
    # Internal helpers
    # ==================================================================
    def _punish(self, owner: str, amount: int) -> None:
        """Punish a misbehaving provider by burning part of its balance.

        The paper leaves the punishment mechanism abstract ("punish
        e.prev"); we burn up to ``amount`` tokens from the owner's
        spendable balance and always record the event so experiments can
        count punishments even when the owner is broke.
        """
        if self.charge_fees and amount > 0:
            burned = min(amount, self.ledger.balance(owner))
            if burned > 0:
                self.ledger.burn(owner, burned)
        self.events.emit(EventType.PROVIDER_PUNISHED)

    def _sample_refresh_countdown(self) -> int:
        """``SampleExp(AvgRefresh)`` rounded up to at least one checkpoint."""
        return max(1, int(math.ceil(self.prng.expovariate(self.params.avg_refresh))))

    def _sample_refresh_countdowns(self, count: int) -> np.ndarray:
        """``count`` :meth:`_sample_refresh_countdown` draws, one stream read."""
        return exp_countdowns(self.prng.random_bytes(7 * count), self.params.avg_refresh)

    def _release_replica_from_sector(self, row: int, size: int) -> None:
        """Give a replica's space back to its sector (corrupted and removed
        sectors keep no books), removing a drained disabled sector."""
        sectors = self.sectors
        state = sectors.state.item(row)
        if state == _S_CORRUPTED or state == _S_REMOVED:
            return
        sectors.free[row] += size
        self._maybe_remove_sector(row)

    def _release_next_reservation(self, file_id: int, row: int) -> None:
        alloc = self.alloc
        target = alloc.next.item(row)
        if target < 0:
            return
        self._release_replica_from_sector(target, self.files.size.item(file_id))
        alloc.next[row] = -1
        if alloc.state.item(row) in (_A_ALLOC, _A_CONFIRM):
            alloc.state[row] = _A_NORMAL if alloc.prev.item(row) >= 0 else _A_CORRUPTED

    def _remove_file(self, file_id: int) -> None:
        """Remove a file and all of its allocations from the network."""
        files, alloc = self.files, self.alloc
        size = files.size.item(file_id)
        for index, row in enumerate(alloc.span(file_id)):
            if alloc.state.item(row) == _ABSENT:
                continue
            escrow = self._traffic_escrows.pop((file_id, index), None)
            if escrow is not None:
                self.fees.refund_traffic_fee(escrow)
            # A refresh may have drawn the replica's own host as its target:
            # that host then holds the size twice and gives it back twice.
            host, target = alloc.prev.item(row), alloc.next.item(row)
            if host >= 0:
                self._release_replica_from_sector(host, size)
            if target >= 0:
                self._release_replica_from_sector(target, size)
        alloc.remove_file(file_id)
        if files.state.item(file_id) == _F_NORMAL:
            files.state[file_id] = _F_DISCARDED

    def _maybe_remove_sector(self, row: int) -> None:
        """Remove a drained disabled sector and refund its deposit."""
        sectors = self.sectors
        if (
            sectors.state.item(row) != _S_DISABLED
            or sectors.free.item(row) != sectors.capacity.item(row)
        ):
            return
        sectors.state[row] = _S_REMOVED
        sector_id = sectors.sector_ids[row]
        self.selector.remove_sector(sector_id)
        if self.charge_fees and self.fund.deposit_of(sector_id) > 0:
            self.fund.refund(sector_id)
            self.events.emit(EventType.DEPOSIT_REFUNDED)
        self.events.emit(EventType.SECTOR_REMOVED)

    def _sector_row(self, sector_id: str) -> int:
        try:
            return self.sectors.row_of(sector_id)
        except KeyError:
            raise ProtocolError(f"unknown sector {sector_id}") from None

    def _check_file(self, file_id: int) -> None:
        if file_id not in self.files:
            raise ProtocolError(f"unknown file#{file_id}")

    # ==================================================================
    # Aggregate queries (used by analysis and experiments)
    # ==================================================================
    def _live_totals(self) -> Tuple[int, int]:
        """Capacity and free bytes summed over the normal and disabled
        sectors, exactly."""
        n = len(self.sectors)
        live = self.sectors.state[:n] <= _S_DISABLED  # the two lowest codes
        capacity = self.sectors.capacity[:n][live]
        free = self.sectors.free[:n][live]
        # The int64 sums cannot wrap while max * count stays below 2**62
        # (DrawTable's rule); 0 <= free <= capacity, so one bound serves both.
        if int(capacity.max(initial=0)).bit_length() + capacity.size.bit_length() <= 62:
            return int(capacity.sum()), int(free.sum())
        return sum(capacity.tolist()), sum(free.tolist())

    def total_capacity(self) -> int:
        """Total capacity of all non-removed, non-corrupted sectors."""
        return self._live_totals()[0]

    def weighted_sector_count(self) -> float:
        """``Ns``: total capacity measured in units of ``min_capacity``."""
        return self.total_capacity() / self.params.min_capacity

    def weighted_value_count(self) -> float:
        """``Nv``: total stored value measured in units of ``min_value``."""
        n = len(self.files)
        normal = self.files.state[:n] == _F_NORMAL
        return int(self.files.value[:n][normal].sum()) / self.params.min_value

    def value_loss_ratio(self) -> float:
        """``gamma_lost``: lost value over total value ever stored."""
        if self.total_value_stored == 0:
            return 0.0
        return self.total_value_lost / self.total_value_stored

    def active_files(self) -> List[FileView]:
        """Descriptors of files currently stored (state ``normal``)."""
        return [FileView(self.files, row) for row in self.files.with_state(FileState.NORMAL)]

    def snapshot(self) -> Dict[str, float]:
        """A summary dictionary for experiment reports."""
        n = len(self.sectors)
        return {
            "time": self.now,
            "sectors": float(np.count_nonzero(self.sectors.state[:n] == _S_NORMAL)),
            "total_capacity": float(self.total_capacity()),
            "files_stored": float(self.files_stored),
            "files_lost": float(self.files_lost),
            "value_stored": float(self.total_value_stored),
            "value_lost": float(self.total_value_lost),
            "value_compensated": float(self.total_value_compensated),
            "collisions": float(self.selector.collisions),
        }
