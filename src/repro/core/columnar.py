"""Columnar (structure-of-arrays) protocol state for million-file runs.

The object-model :class:`~repro.core.protocol.FileInsurerProtocol` keeps
one Python object per file descriptor and per replica allocation.  At the
scales Theorem 1 talks about (10^6 files across 10^5 providers) that
representation dominates both peak RSS and wall-clock, long before the
capacity bound itself becomes interesting.  (The pending list and the
event log are already columns and counters in both engines.)

This module keeps the *semantics* of the object model -- it subclasses
the protocol and leaves every rule untouched -- but swaps the state
layout underneath:

* :class:`SectorTable`, :class:`FileTable` and
  :class:`ColumnarAllocationTable` hold sector, file and replica state in
  numpy ``int64``/``float64``/``int8`` columns; the dict/dataclass API
  the protocol code uses is served by transient *views*
  (:class:`SectorView`, :class:`FileView`, :class:`AllocEntryView`) that
  read and write the arrays directly, so no per-row Python object
  outlives the statement that touched it;
* the protocol hot paths -- batched ``File Add`` placement, the
  ``CheckAlloc``, ``CheckProof`` and ``CheckRefresh`` runs
  ``advance_time`` dispatches, the ``Auto Refresh`` starts of a proof
  round -- are overridden with vectorised sweeps over the tables that
  dispatch into :mod:`repro.kernels`, and ``File Confirm`` with row
  arithmetic.

**Equivalence contract.**  :class:`ColumnarProtocol` must be
bit-equivalent to the object model: same PRNG consumption order, same
kernel-call sequence, same ledger operations in the same order, same
per-row state.  The vectorised sweeps therefore only take over the
files and tasks for which the columns prove the object model would have
performed the same independent transitions (no fees in the sweep; a
normal, not-lost file whose live replicas all sit on healthy sectors; a
confirmed refresh); every other file of the same run takes the inherited
per-file method in task order, which operates on the views and is
equivalent by construction.
The differential suites in ``tests/test_core_columnar.py`` and the
hypothesis pack enforce this the same way
``tests/test_kernels_equivalence.py`` pins the kernels to their oracle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.allocation import AllocState
from repro.core.events import EventType
from repro.core.file_descriptor import FileDescriptor, FileState
from repro.core.pending import CHECK_ALLOC, CHECK_PROOF, CHECK_REFRESH
from repro.core.protocol import FileInsurerProtocol, ProtocolError, RefreshNotice
from repro.core.sector import SectorRecord, SectorState
from repro.telemetry import counter, traced

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
_SECTOR_CODE = {state: code for code, state in enumerate(_SECTOR_STATES)}

_FILE_STATES = (
    FileState.PENDING,
    FileState.NORMAL,
    FileState.DISCARDED,
    FileState.LOST,
    FileState.FAILED,
)
_FILE_CODE = {state: code for code, state in enumerate(_FILE_STATES)}

#: Allocation-entry codes; ``-1`` marks an absent (never set / removed) row.
_ALLOC_STATES = (
    AllocState.ALLOC,
    AllocState.CONFIRM,
    AllocState.NORMAL,
    AllocState.CORRUPTED,
)
_ALLOC_CODE = {state: code for code, state in enumerate(_ALLOC_STATES)}
_ABSENT = -1

#: Integers below this bound convert to float64 without rounding.
_EXACT_FLOAT_INT = 1 << 53


def _grow(array: np.ndarray, needed: int, fill: Any = 0) -> np.ndarray:
    """Return ``array`` grown (amortised doubling) to hold ``needed`` rows."""
    if len(array) >= needed:
        return array
    grown = np.full(max(needed, 2 * len(array), 16), fill, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _appears_once(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``values`` (non-negative ids) occurring once."""
    return np.bincount(values)[values] == 1


# ======================================================================
# Sector table
# ======================================================================
class SectorView:
    """Read/write proxy over one :class:`SectorTable` row.

    Mirrors :class:`~repro.core.sector.SectorRecord` exactly, including
    the reserve/release guard rails, so inherited protocol code cannot
    tell the difference.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: "SectorTable", row: int) -> None:
        self._table = table
        self._row = row

    # -- identity ------------------------------------------------------
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
        return int(self._table.deposit[self._row])

    # -- mutable columns ----------------------------------------------
    @property
    def free_capacity(self) -> int:
        return int(self._table.free[self._row])

    @free_capacity.setter
    def free_capacity(self, value: int) -> None:
        self._table.free[self._row] = int(value)

    @property
    def stored_replicas(self) -> int:
        return int(self._table.stored[self._row])

    @stored_replicas.setter
    def stored_replicas(self, value: int) -> None:
        self._table.stored[self._row] = int(value)

    @property
    def state(self) -> SectorState:
        return _SECTOR_STATES[self._table.state[self._row]]

    @state.setter
    def state(self, value: SectorState) -> None:
        self._table.state[self._row] = _SECTOR_CODE[value]

    # -- SectorRecord behaviour ---------------------------------------
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
        self._table.free[self._row] -= size
        self._table.stored[self._row] += 1

    def release(self, size: int) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        if self.free_capacity + size > self.capacity:
            raise ValueError(
                f"sector {self.sector_id}: releasing {size} bytes would exceed capacity"
            )
        self._table.free[self._row] += size
        self._table.stored[self._row] = max(0, self.stored_replicas - 1)

    @property
    def accepts_new_files(self) -> bool:
        return self._table.state[self._row] == _SECTOR_CODE[SectorState.NORMAL]

    @property
    def is_corrupted(self) -> bool:
        return self._table.state[self._row] == _SECTOR_CODE[SectorState.CORRUPTED]

    @property
    def is_drained(self) -> bool:
        return (
            self._table.state[self._row] == _SECTOR_CODE[SectorState.DISABLED]
            and self.stored_replicas == 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SectorView({self.sector_id}, state={self.state.value})"


class SectorTable:
    """Structure-of-arrays sector store with a dict-of-records facade."""

    def __init__(self) -> None:
        self.sector_ids: List[str] = []
        self.owners: List[str] = []
        self.capacity = np.empty(0, dtype=np.int64)
        self.free = np.empty(0, dtype=np.int64)
        self.deposit = np.empty(0, dtype=np.int64)
        self.stored = np.empty(0, dtype=np.int64)
        self.state = np.empty(0, dtype=np.int8)
        self._rows: Dict[str, int] = {}

    def row_of(self, sector_id: str) -> int:
        """Table row of a sector id (KeyError if unknown)."""
        return self._rows[sector_id]

    # -- dict facade ---------------------------------------------------
    def __setitem__(self, sector_id: str, record: SectorRecord) -> None:
        if sector_id in self._rows:
            raise KeyError(f"sector {sector_id!r} already ingested")
        row = len(self.sector_ids)
        self.sector_ids.append(sector_id)
        self.owners.append(record.owner)
        self.capacity = _grow(self.capacity, row + 1)
        self.free = _grow(self.free, row + 1)
        self.deposit = _grow(self.deposit, row + 1)
        self.stored = _grow(self.stored, row + 1)
        self.state = _grow(self.state, row + 1)
        self.capacity[row] = record.capacity
        self.free[row] = record.free_capacity
        self.deposit[row] = record.deposit
        self.stored[row] = record.stored_replicas
        self.state[row] = _SECTOR_CODE[record.state]
        self._rows[sector_id] = row

    def __getitem__(self, sector_id: str) -> SectorView:
        return SectorView(self, self._rows[sector_id])

    def get(self, sector_id: str) -> Optional[SectorView]:
        row = self._rows.get(sector_id)
        return None if row is None else SectorView(self, row)

    def view(self, row: int) -> SectorView:
        return SectorView(self, row)

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
    """Read/write proxy over one :class:`FileTable` row (a descriptor)."""

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

    @countdown.setter
    def countdown(self, value: int) -> None:
        self._table.countdown[self._row] = int(value)

    @property
    def state(self) -> FileState:
        return _FILE_STATES[self._table.state[self._row]]

    @state.setter
    def state(self, value: FileState) -> None:
        self._table.state[self._row] = _FILE_CODE[value]

    @property
    def rent_paid(self) -> int:
        return int(self._table.rent_paid[self._row])

    @rent_paid.setter
    def rent_paid(self, value: int) -> None:
        self._table.rent_paid[self._row] = int(value)

    @property
    def compensation_received(self) -> int:
        return int(self._table.compensation[self._row])

    @compensation_received.setter
    def compensation_received(self, value: int) -> None:
        self._table.compensation[self._row] = int(value)

    # -- FileDescriptor predicates ------------------------------------
    @property
    def is_active(self) -> bool:
        return self.state in (FileState.PENDING, FileState.NORMAL)

    def describe(self) -> str:
        return (
            f"file#{self.file_id} owner={self.owner} size={self.size} "
            f"value={self.value} cp={self.replica_count} state={self.state.value}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileView({self.describe()})"


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

    def _ensure(self, needed: int) -> None:
        self.size = _grow(self.size, needed)
        self.value = _grow(self.value, needed)
        self.replica_count = _grow(self.replica_count, needed)
        self.state = _grow(self.state, needed)
        self.countdown = _grow(self.countdown, needed)
        self.rent_paid = _grow(self.rent_paid, needed)
        self.compensation = _grow(self.compensation, needed)

    # -- dict facade ---------------------------------------------------
    def __setitem__(self, file_id: int, descriptor: FileDescriptor) -> None:
        if file_id != self._n:
            raise KeyError(
                f"file ids are assigned sequentially; expected {self._n}, got {file_id}"
            )
        self._ensure(self._n + 1)
        self.owners.append(descriptor.owner)
        self.merkle_roots.append(descriptor.merkle_root)
        self.size[file_id] = descriptor.size
        self.value[file_id] = descriptor.value
        self.replica_count[file_id] = descriptor.replica_count
        self.state[file_id] = _FILE_CODE[descriptor.state]
        self.countdown[file_id] = descriptor.countdown
        self.rent_paid[file_id] = descriptor.rent_paid
        self.compensation[file_id] = descriptor.compensation_received
        self._n += 1

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
        self._ensure(start + count)
        self.owners.extend([owner] * count)
        self.merkle_roots.extend([merkle_root] * count)
        rows = np.arange(start, start + count)
        self.size[rows] = sizes
        self.value[rows] = values
        self.replica_count[rows] = replica_counts
        self.state[rows] = _FILE_CODE[FileState.PENDING]
        self.countdown[rows] = -1
        self.rent_paid[rows] = 0
        self.compensation[rows] = 0
        self._n += count
        return rows

    def __getitem__(self, file_id: int) -> FileView:
        if not 0 <= file_id < self._n:
            raise KeyError(file_id)
        return FileView(self, file_id)

    def get(self, file_id: int) -> Optional[FileView]:
        if not isinstance(file_id, (int, np.integer)) or not 0 <= file_id < self._n:
            return None
        return FileView(self, int(file_id))

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
    """Read/write proxy over one replica row.

    ``prev``/``next`` are stored as sector table rows (``-1`` for None)
    and translated to/from sector id strings at the view boundary, so the
    inherited protocol code keeps speaking sector ids.
    """

    __slots__ = ("_table", "_row")

    def __init__(self, table: "ColumnarAllocationTable", row: int) -> None:
        self._table = table
        self._row = row

    def _translate_out(self, value: int) -> Optional[str]:
        return None if value < 0 else self._table.sectors.sector_ids[value]

    def _translate_in(self, sector_id: Optional[str]) -> int:
        return -1 if sector_id is None else self._table.sectors.row_of(sector_id)

    @property
    def prev(self) -> Optional[str]:
        return self._translate_out(int(self._table.prev[self._row]))

    @prev.setter
    def prev(self, sector_id: Optional[str]) -> None:
        self._table.prev[self._row] = self._translate_in(sector_id)

    @property
    def next(self) -> Optional[str]:
        return self._translate_out(int(self._table.next[self._row]))

    @next.setter
    def next(self, sector_id: Optional[str]) -> None:
        self._table.next[self._row] = self._translate_in(sector_id)

    @property
    def last_proof(self) -> float:
        return float(self._table.last_proof[self._row])

    @last_proof.setter
    def last_proof(self, value: float) -> None:
        self._table.last_proof[self._row] = float(value)

    @property
    def state(self) -> AllocState:
        return _ALLOC_STATES[self._table.state[self._row]]

    @state.setter
    def state(self, value: AllocState) -> None:
        self._table.state[self._row] = _ALLOC_CODE[value]

    @property
    def current_sector(self) -> Optional[str]:
        return self.prev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocEntryView(prev={self.prev}, next={self.next}, "
            f"last_proof={self.last_proof}, state={self.state.value})"
        )


class ColumnarAllocationTable:
    """Replica allocations as contiguous per-file row blocks.

    A file's ``replica_count`` rows are allocated as one contiguous block
    the first time an entry is set (File Add writes index 0 first), so
    ``entries_for_file`` is a slice and ``entries_on_sector`` a single
    vectorised comparison.  Absent rows -- never set, or cleared by
    ``remove_file`` -- carry state code ``-1``.
    """

    def __init__(self, files: FileTable, sectors: SectorTable) -> None:
        self.files = files
        self.sectors = sectors
        self.prev = np.empty(0, dtype=np.int64)
        self.next = np.empty(0, dtype=np.int64)
        self.last_proof = np.empty(0, dtype=np.float64)
        self.state = np.empty(0, dtype=np.int8)
        #: Block start per file id (-1 while unallocated).
        self.block_start = np.empty(0, dtype=np.int64)
        self._rows = 0
        self._live = 0

    # -- block management ---------------------------------------------
    def _ensure_blocks(self, file_id: int) -> None:
        if len(self.block_start) <= file_id:
            self.block_start = _grow(self.block_start, file_id + 1, fill=-1)

    def _ensure_rows(self, needed: int) -> None:
        self.prev = _grow(self.prev, needed, fill=-1)
        self.next = _grow(self.next, needed, fill=-1)
        self.last_proof = _grow(self.last_proof, needed, fill=-1.0)
        self.state = _grow(self.state, needed, fill=_ABSENT)

    def _block(self, file_id: int) -> Optional[Tuple[int, int]]:
        if file_id >= len(self.block_start):
            return None
        start = int(self.block_start[file_id])
        if start < 0:
            return None
        return start, int(self.files.replica_count[file_id])

    def allocate_block(self, file_id: int) -> int:
        """Reserve the file's contiguous rows; returns the start row."""
        self._ensure_blocks(file_id)
        if self.block_start[file_id] >= 0:
            raise KeyError(f"file#{file_id} already has an allocation block")
        count = int(self.files.replica_count[file_id])
        start = self._rows
        self._ensure_rows(start + count)
        self.prev[start : start + count] = -1
        self.next[start : start + count] = -1
        self.last_proof[start : start + count] = -1.0
        self.state[start : start + count] = _ABSENT
        self.block_start[file_id] = start
        self._rows += count
        return start

    def allocate_blocks(self, file_ids: np.ndarray) -> None:
        """Batch :meth:`allocate_block`: one contiguous span, file order."""
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
        self._ensure_rows(start + total)
        self.prev[start : start + total] = -1
        self.next[start : start + total] = -1
        self.last_proof[start : start + total] = -1.0
        self.state[start : start + total] = _ABSENT
        self.block_start[file_ids] = start + np.cumsum(counts) - counts
        self._rows += total

    def block_rows(self, file_ids: np.ndarray) -> np.ndarray:
        """Concatenated row indices of the files' blocks (vectorised)."""
        starts = self.block_start[file_ids]
        counts = self.files.replica_count[file_ids].astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        ramp = np.arange(total, dtype=np.int64) - offsets
        return np.repeat(starts, counts) + ramp

    # -- AllocationTable API ------------------------------------------
    def set(self, file_id: int, index: int, entry) -> None:
        block = self._block(file_id)
        if block is None:
            self.allocate_block(file_id)
            block = self._block(file_id)
        start, count = block
        if not 0 <= index < count:
            raise IndexError(
                f"replica index {index} out of range for file#{file_id} ({count})"
            )
        row = start + index
        if self.state[row] == _ABSENT:
            self._live += 1
        self.prev[row] = -1 if entry.prev is None else self.sectors.row_of(entry.prev)
        self.next[row] = -1 if entry.next is None else self.sectors.row_of(entry.next)
        self.last_proof[row] = entry.last_proof
        self.state[row] = _ALLOC_CODE[entry.state]

    def get(self, file_id: int, index: int) -> AllocEntryView:
        entry = self.try_get(file_id, index)
        if entry is None:
            raise KeyError((file_id, index))
        return entry

    def row_of(self, file_id: int, index: int) -> int:
        """Table row of a present replica entry, ``-1`` if there is none."""
        if not 0 <= file_id < len(self.block_start):
            return -1
        start = int(self.block_start[file_id])
        if start < 0 or not 0 <= index < self.files.replica_count[file_id]:
            return -1
        row = start + index
        return -1 if self.state[row] == _ABSENT else row

    def try_get(self, file_id: int, index: int) -> Optional[AllocEntryView]:
        row = self.row_of(file_id, index)
        return None if row < 0 else AllocEntryView(self, row)

    def has(self, file_id: int, index: int) -> bool:
        return self.try_get(file_id, index) is not None

    def remove_file(self, file_id: int) -> int:
        block = self._block(file_id)
        if block is None:
            return 0
        start, count = block
        present = int(np.sum(self.state[start : start + count] != _ABSENT))
        self.state[start : start + count] = _ABSENT
        self.block_start[file_id] = -1
        self._live -= present
        return present

    def entries_for_file(self, file_id: int) -> List[Tuple[int, AllocEntryView]]:
        block = self._block(file_id)
        if block is None:
            return []
        start, count = block
        return [
            (index, AllocEntryView(self, start + index))
            for index in range(count)
            if self.state[start + index] != _ABSENT
        ]

    def entries_on_sector(self, sector_id: str) -> List[Tuple[int, int, AllocEntryView]]:
        row = self.sectors._rows.get(sector_id)
        if row is None:
            return []
        prev = self.prev[: self._rows]
        nxt = self.next[: self._rows]
        present = self.state[: self._rows] != _ABSENT
        hits = np.nonzero(((prev == row) | (nxt == row)) & present)[0]
        if len(hits) == 0:
            return []
        # Present rows always belong to a live block, and live block
        # starts are strictly increasing in file id (blocks are allocated
        # in file order), so a binary search over the live starts maps
        # each hit row back to its owning file.
        starts = self.block_start[: len(self.files)]
        live = np.nonzero(starts >= 0)[0]
        positions = np.searchsorted(starts[live], hits, side="right") - 1
        out: List[Tuple[int, int, AllocEntryView]] = []
        for hit, position in zip(hits, positions):
            file_id = int(live[position])
            index = int(hit) - int(starts[file_id])
            out.append((file_id, index, AllocEntryView(self, int(hit))))
        return out

    def file_is_lost(self, file_id: int) -> bool:
        block = self._block(file_id)
        if block is None:
            return False
        start, count = block
        states = self.state[start : start + count]
        present = states != _ABSENT
        if not present.any():
            return False
        return bool(np.all(states[present] == _ALLOC_CODE[AllocState.CORRUPTED]))

    def replica_locations(self, file_id: int) -> List[Optional[str]]:
        return [
            entry.current_sector for _, entry in self.entries_for_file(file_id)
        ]

    def __len__(self) -> int:
        return self._live


# ======================================================================
# The columnar protocol engine
# ======================================================================
class ColumnarProtocol(FileInsurerProtocol):
    """:class:`FileInsurerProtocol` over structure-of-arrays state.

    Inherits every protocol rule, the pending list and the event log;
    swaps the state layout for columnar tables served through views, and
    overrides the hot paths (batched File Add placement, the
    CheckAlloc/CheckProof/CheckRefresh runs) with vectorised sweeps that
    leave to the inherited per-file code whatever their preconditions do
    not cover.  See the module docstring for the equivalence contract.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.sectors = SectorTable()
        self.files = FileTable()
        self.alloc = ColumnarAllocationTable(self.files, self.sectors)
        #: Sampler slot -> sector table row (vectorised placement lookup)
        #: and its inverse (vectorised release on a selectable sector).
        self._slot_to_row = np.empty(0, dtype=np.int64)
        self._row_to_slot = np.empty(0, dtype=np.int64)
        #: Cache of ``params.replica_count`` per distinct value.
        self._replica_count_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Sector protocol
    # ------------------------------------------------------------------
    def sector_register(self, owner: str, capacity: int) -> str:
        sector_id = super().sector_register(owner, capacity)
        slot = self.selector.slot_of(sector_id)
        self._slot_to_row = _grow(self._slot_to_row, slot + 1, fill=-1)
        row = self.sectors.row_of(sector_id)
        self._slot_to_row[slot] = row
        self._row_to_slot = _grow(self._row_to_slot, row + 1, fill=-1)
        self._row_to_slot[row] = slot
        return sector_id

    # ------------------------------------------------------------------
    # Batched File Add (vectorised fast path)
    # ------------------------------------------------------------------
    @traced("protocol.file_add_batch", category="protocol")
    def file_add_batch(
        self,
        owner: str,
        sizes: List[int],
        values: List[int],
        merkle_root: bytes,
    ) -> List[int]:
        # The vectorised sweep covers the placement-only regime (no fee
        # bookkeeping per replica); everything else inherits the generic
        # batch, which produces identical state through the views.
        if self.charge_fees:
            return super().file_add_batch(owner, sizes, values, merkle_root)
        if len(sizes) != len(values):
            raise ProtocolError("file_add_batch: sizes and values must align")
        size_arr = np.asarray(sizes, dtype=np.int64)
        value_arr = np.asarray(values, dtype=np.int64)
        # Validation order (first offending entry wins) matches the base
        # batch exactly: sizes first, then values.
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
        admitted = self._admitted_prefix_columns(size_arr, value_arr, replica_counts)
        size_arr = size_arr[:admitted]
        value_arr = value_arr[:admitted]
        replica_counts = replica_counts[:admitted]

        expanded_sizes = np.repeat(size_arr, replica_counts)
        slots = self.selector.select_batch_slots(expanded_sizes)
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
        self._next_file_id += created
        if created:
            self.alloc._ensure_blocks(int(file_ids[-1]))
        self.events.emit(EventType.FILE_ADD_REQUESTED, created)
        if truncated:
            # The failed upload keeps its descriptor (state failed) but no
            # allocations or reservations, matching per-file semantics.
            self.files.state[file_ids[-1]] = _FILE_CODE[FileState.FAILED]
            self.events.emit(EventType.FILE_UPLOAD_FAILED)

        if complete > 0:
            ok_ids = file_ids[:complete]
            replica_span = int(ends[complete - 1])
            ok_slots = slots[:replica_span]
            ok_rows = self._slot_to_row[ok_slots]
            ok_sizes = expanded_sizes[:replica_span]
            # Allocation blocks: contiguous rows per file, state ALLOC,
            # next = selected sector, awaiting File Confirm.
            self.alloc.allocate_blocks(ok_ids)
            rows = self.alloc.block_rows(ok_ids)
            self.alloc.prev[rows] = -1
            self.alloc.next[rows] = ok_rows
            self.alloc.last_proof[rows] = -1.0
            self.alloc.state[rows] = _ALLOC_CODE[AllocState.ALLOC]
            self.alloc._live += len(rows)
            # Sector reservations, aggregates and the selector's
            # free table -- one vectorised debit each.
            np.subtract.at(self.sectors.free, ok_rows, ok_sizes)
            np.add.at(self.sectors.stored, ok_rows, 1)
            self._agg_used += int(ok_sizes.sum())
            self.selector.debit_slots(ok_slots, ok_sizes)
            # One CheckAlloc per stored file, one append in file order.
            # Transfer deadlines depend only on the file size: compute one
            # per distinct size.
            distinct, size_index = np.unique(size_arr[:complete], return_inverse=True)
            transfer_deadline = self.params.transfer_deadline
            deadline_of = np.array(
                [self.now + transfer_deadline(size) for size in distinct.tolist()]
            )
            self.pending.schedule_columns(
                deadline_of[size_index],
                np.full(complete, CHECK_ALLOC),
                ok_ids,
                np.full(complete, -1),
            )
        return file_ids.tolist()

    def _admitted_prefix_columns(
        self, sizes: np.ndarray, values: np.ndarray, replica_counts: np.ndarray
    ) -> int:
        """:meth:`_admitted_prefix` as two cumulative-sum comparisons.

        Exact while every running total stays below 2**53 -- no int64 sum
        wraps and the int64 -> float64 step of the byte-budget comparison
        loses nothing, so each comparison is the Python int / float one.
        Larger totals, and a batch refused at its first file (which raises
        per-file ``File Add``'s message), take the scalar loop.
        """
        total_capacity = self.total_capacity()
        base_value = self.total_value_stored - self.total_value_lost
        base_bytes = self.stored_replica_bytes()
        count = len(sizes)
        largest_replica_set = int(sizes.max()) * int(replica_counts.max())
        if (
            total_capacity > 0
            and base_value + int(values.max()) * count < _EXACT_FLOAT_INT
            and base_bytes + largest_replica_set * count < _EXACT_FLOAT_INT
        ):
            max_value = min(
                self.params.max_value_capacity(total_capacity), _EXACT_FLOAT_INT
            )
            replica_budget = total_capacity / self.params.redundancy_factor
            refused = (base_value + np.cumsum(values) > max_value) | (
                base_bytes + np.cumsum(sizes * replica_counts) > replica_budget
            )
            admitted = int(np.argmax(refused)) if refused.any() else count
            if admitted:
                return admitted
        return self._admitted_prefix(
            sizes.tolist(), values.tolist(), replica_counts.tolist()
        )

    def _replica_count_of(self, value: int) -> int:
        cached = self._replica_count_cache.get(value)
        if cached is None:
            cached = self.params.replica_count(value)
            self._replica_count_cache[value] = cached
        return cached

    @traced("protocol.confirm_batch", category="protocol")
    def confirm_batch(self, file_ids: List[int]) -> List[int]:
        if self.charge_fees:
            return super().confirm_batch(file_ids)
        fids = np.asarray(file_ids, dtype=np.int64)
        fids = fids[(fids >= 0) & (fids < len(self.files))]
        if len(fids) == 0:
            return []
        has_block = np.zeros(len(fids), dtype=bool)
        in_range = fids < len(self.alloc.block_start)
        has_block[in_range] = self.alloc.block_start[fids[in_range]] >= 0
        pending_mask = (
            self.files.state[fids] == _FILE_CODE[FileState.PENDING]
        ) & has_block
        candidates = fids[pending_mask]
        if len(candidates) == 0:
            return []
        rows = self.alloc.block_rows(candidates)
        states = self.alloc.state[rows]
        awaiting = (states == _ALLOC_CODE[AllocState.ALLOC]) & (
            self.alloc.next[rows] >= 0
        )
        self.alloc.state[rows[awaiting]] = _ALLOC_CODE[AllocState.CONFIRM]
        # A file counts as confirmed when every present entry is CONFIRM.
        states = self.alloc.state[rows]
        counts = self.files.replica_count[candidates].astype(np.int64)
        starts = np.cumsum(counts) - counts
        present = states != _ABSENT
        confirm = states == _ALLOC_CODE[AllocState.CONFIRM]
        ok_entries = np.add.reduceat(present & confirm, starts)
        any_present = np.add.reduceat(present, starts)
        complete = (ok_entries == counts) & (any_present > 0)
        return candidates[complete].tolist()

    def file_confirm(self, provider: str, file_id: int, index: int, sector_id: str) -> None:
        """``File Confirm`` on table rows: same rules, no view constructed."""
        sector_row = self.sectors._rows.get(sector_id)
        if sector_row is None:
            raise ProtocolError(f"unknown sector {sector_id}")
        if self.sectors.owners[sector_row] != provider:
            raise ProtocolError(f"{provider} does not own sector {sector_id}")
        row = self.alloc.row_of(file_id, index)
        if row < 0:
            raise ProtocolError(f"no allocation for file#{file_id} replica {index}")
        if (
            self.alloc.next[row] != sector_row
            or self.alloc.state[row] != _ALLOC_CODE[AllocState.ALLOC]
        ):
            raise ProtocolError(
                f"allocation of file#{file_id}[{index}] is not awaiting {sector_id}"
            )
        self.alloc.state[row] = _ALLOC_CODE[AllocState.CONFIRM]
        self._release_traffic_escrow(file_id, index)

    # ------------------------------------------------------------------
    # Time: the runs advance_time dispatches, as vectorised sweeps
    # ------------------------------------------------------------------
    @traced("protocol.check_alloc_run", category="protocol")
    def _check_alloc_run(self, file_ids: np.ndarray) -> None:
        """A run of same-time CheckAlloc tasks, vectorised when uniform.

        Fast path: every file is still pending with a live block whose
        entries are all confirmed -- the common case after a batched fill.
        The refresh countdowns are one batched draw, in task order (the
        PRNG stream is part of the equivalence contract).
        """
        eligible = (
            len(file_ids) > 0
            and bool(np.all(file_ids >= 0))
            and bool(np.all(file_ids < len(self.files)))
            and bool(np.all(file_ids < len(self.alloc.block_start)))
            and bool(np.all(_appears_once(file_ids)))
            and bool(
                np.all(self.files.state[file_ids] == _FILE_CODE[FileState.PENDING])
            )
            and bool(np.all(self.alloc.block_start[file_ids] >= 0))
        )
        if eligible:
            rows = self.alloc.block_rows(file_ids)
            eligible = len(rows) > 0 and bool(
                np.all(self.alloc.state[rows] == _ALLOC_CODE[AllocState.CONFIRM])
            )
        if not eligible:
            super()._check_alloc_run(file_ids)
            return
        self.alloc.prev[rows] = self.alloc.next[rows]
        self.alloc.next[rows] = -1
        self.alloc.last_proof[rows] = self.now
        self.alloc.state[rows] = _ALLOC_CODE[AllocState.NORMAL]
        self.files.state[file_ids] = _FILE_CODE[FileState.NORMAL]
        self.files.countdown[file_ids] = self._sample_refresh_countdowns(len(file_ids))
        self.files_stored += len(file_ids)
        self.total_value_stored += int(self.files.value[file_ids].sum())
        self.pending.schedule_batch(
            self.now + self.params.proof_cycle, CHECK_PROOF, file_ids
        )
        self.events.emit(EventType.FILE_STORED, len(file_ids))

    @traced("protocol.check_proof_run", category="protocol")
    def _check_proof_run(self, file_ids: np.ndarray) -> None:
        """A run of same-time CheckProof tasks: one masked sweep.

        The run is processed in task order as alternating *[vector
        stretch] [one scalar file]*: files :meth:`_proof_sweep_mask` clears
        are swept with column writes, every other file goes through the
        inherited :meth:`_auto_check_proof`.  Only that scalar call can
        corrupt a sector (``proof deadline exceeded``), so the mask of the
        remaining tail is re-derived exactly when ``_corruption_events``
        -- an epoch counter -- moved during it.
        """
        scalar_files = 0
        start, total = 0, len(file_ids)
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
            & (self.files.state[ids] == _FILE_CODE[FileState.NORMAL])
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
            states != _ALLOC_CODE[AllocState.CORRUPTED]
        )
        live = available & (hosts >= 0)
        live_hosts = hosts[live]
        distinct = np.nonzero(np.bincount(live_hosts, minlength=len(self.sectors)))[0]
        standing = distinct[
            self.sectors.state[distinct] != _SECTOR_CODE[SectorState.CORRUPTED]
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

        Returns the started refreshes: positions in ``file_ids``, replica
        indexes, CheckRefresh deadlines.
        """
        randint = self.prng.randint
        resample = self._sample_refresh_countdown
        random_slot = self.selector.random_slot
        selectable = len(self.selector) > 0
        replica_state = self.alloc.state
        slot_to_row = self._slot_to_row
        free = self.sectors.free
        sector_state = self.sectors.state
        normal_replica = _ALLOC_CODE[AllocState.NORMAL]
        normal_sector = _SECTOR_CODE[SectorState.NORMAL]
        room: Dict[int, int] = {}  # target row -> bytes free after this stretch's reservations
        picked: List[int] = []
        indexes: List[int] = []
        slots: List[int] = []
        resampled: List[int] = []
        countdowns: List[int] = []
        collided = 0
        for position, (replicas, block, size) in enumerate(
            zip(
                self.files.replica_count[file_ids].tolist(),
                self.alloc.block_start[file_ids].tolist(),
                self.files.size[file_ids].tolist(),
            )
        ):
            index = randint(0, replicas - 1)
            if selectable and replica_state[block + index] == normal_replica:
                slot = random_slot()
                target = slot_to_row.item(slot)
                left = room[target] if target in room else free.item(target)
                if left >= size and sector_state[target] == normal_sector:
                    room[target] = left - size
                    picked.append(position)
                    indexes.append(index)
                    slots.append(slot)
                    continue
                collided += 1
            resampled.append(position)
            countdowns.append(resample())

        self.files.countdown[file_ids[resampled]] = countdowns
        self.events.emit(EventType.COLLISION_RESAMPLED, collided)
        started = file_ids[picked]
        index_array = np.asarray(indexes, dtype=np.int64)
        slot_array = np.asarray(slots, dtype=np.int64)
        rows = self.alloc.block_start[started] + index_array
        targets = slot_to_row[slot_array]
        sizes = self.files.size[started]
        self.alloc.next[rows] = targets
        self.alloc.state[rows] = _ALLOC_CODE[AllocState.ALLOC]
        np.subtract.at(free, targets, sizes)
        np.add.at(self.sectors.stored, targets, 1)
        self._agg_used += int(sizes.sum())
        self.selector.debit_slots(slot_array, sizes)
        size_list = sizes.tolist()
        deadline_of = {
            size: self.now + self.params.transfer_deadline(size)
            for size in set(size_list)
        }
        deadlines = [deadline_of[size] for size in size_list]
        sector_ids = self.sectors.sector_ids
        self.refresh_notices.extend(
            RefreshNotice(
                file_id,
                index,
                None if source < 0 else sector_ids[source],
                sector_ids[target],
                deadline,
            )
            for file_id, index, source, target, deadline in zip(
                started.tolist(),
                indexes,
                self.alloc.prev[rows].tolist(),
                targets.tolist(),
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
        column writes; every other task takes the inherited
        :meth:`_auto_check_refresh` in task order.  No task can change
        another task's eligibility (each touches only its own row, and
        nothing here disables a sector), so one mask serves the whole run.
        """
        total = len(file_ids)
        vector = np.zeros(total, dtype=bool)
        rows = np.zeros(total, dtype=np.int64)
        limit = min(len(self.files), len(self.alloc.block_start))
        if limit and self.alloc._rows:
            known = (file_ids >= 0) & (file_ids < limit) & (indexes >= 0)
            ids = np.where(known, file_ids, 0)
            known &= (
                (self.files.state[ids] == _FILE_CODE[FileState.NORMAL])
                & (self.alloc.block_start[ids] >= 0)
                & (indexes < self.files.replica_count[ids])
            )
            rows = np.where(known, self.alloc.block_start[ids] + indexes, 0)
            old = self.alloc.prev[rows]
            vector = (
                known
                & (self.alloc.state[rows] == _ALLOC_CODE[AllocState.CONFIRM])
                & (self.alloc.next[rows] >= 0)
                & (
                    (old < 0)
                    | (
                        self.sectors.state[np.maximum(old, 0)]
                        != _SECTOR_CODE[SectorState.DISABLED]
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
        self.alloc.state[rows] = _ALLOC_CODE[AllocState.NORMAL]
        # Release the old hosts; corrupted or removed ones keep no books.
        releasing = old >= 0
        releasing[releasing] = (
            self.sectors.state[old[releasing]] == _SECTOR_CODE[SectorState.NORMAL]
        )
        released = old[releasing]
        sizes = self.files.size[file_ids[releasing]]
        np.add.at(self.sectors.free, released, sizes)
        np.subtract.at(self.sectors.stored, released, 1)
        self.sectors.stored[released] = np.maximum(self.sectors.stored[released], 0)
        self._agg_used -= int(sizes.sum())
        # A normal sector is always selectable, hence has a slot.
        self.selector.debit_slots(self._row_to_slot[released], -sizes)
        self.files.countdown[file_ids] = self._sample_refresh_countdowns(len(file_ids))
        self.events.emit(EventType.FILE_REFRESH_COMPLETED, len(file_ids))

    # ------------------------------------------------------------------
    # Vectorised aggregate queries
    # ------------------------------------------------------------------
    def weighted_value_count(self) -> float:
        n = len(self.files)
        normal = self.files.state[:n] == _FILE_CODE[FileState.NORMAL]
        total = int(self.files.value[:n][normal].sum()) if n else 0
        return total / self.params.min_value

    def active_files(self) -> List[FileView]:
        n = len(self.files)
        normal = np.nonzero(self.files.state[:n] == _FILE_CODE[FileState.NORMAL])[0]
        return [FileView(self.files, int(row)) for row in normal]

    def snapshot(self) -> Dict[str, float]:
        n = len(self.sectors)
        normal = int(
            np.sum(self.sectors.state[:n] == _SECTOR_CODE[SectorState.NORMAL])
        ) if n else 0
        return {
            "time": self.now,
            "sectors": float(normal),
            "total_capacity": float(self.total_capacity()),
            "files_stored": float(self.files_stored),
            "files_lost": float(self.files_lost),
            "value_stored": float(self.total_value_stored),
            "value_lost": float(self.total_value_lost),
            "value_compensated": float(self.total_value_compensated),
            "collisions": float(self.selector.collisions),
        }
