"""The pending list: tasks executed automatically at future times.

Figure 1: ``pendingList : {time -> [task, task, ...]}``.  The network
executes, at each time point, every task scheduled for it; tasks due at the
same time execute in scheduling order, which keeps the simulation
deterministic.

Every task is one of the four automatic tasks below and names at most a
file and one of its replicas, so the list is four columns -- time, kind,
file id, replica index (``-1`` where unused) -- appended in scheduling
order.  A sorted order over the live rows is (re)built lazily whenever an
unsorted tail row becomes due, ties by append position: a million
scheduled checkpoints cost a few arrays, not a million task objects.

File ids and replica indices are int32 columns (times stay float64).  The
list refuses to grow past :data:`MAX_ROWS` = 2**31 - 1 rows, the bound the
protocol's tables share, which keeps every id that reaches it in range.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "PendingList",
    "CHECK_ALLOC",
    "CHECK_PROOF",
    "CHECK_REFRESH",
    "RENT_PERIOD",
    "MAX_ROWS",
    "grown_rows",
]

#: The task kinds, as the ``kind`` column stores them.
CHECK_ALLOC, CHECK_PROOF, CHECK_REFRESH, RENT_PERIOD = range(4)

#: Most rows a table may hold: row, file and sector indices are int32
#: columns, and numpy's int64 -> int32 assignment wraps without a check.
MAX_ROWS = 2**31 - 1


def grown_rows(current: int, needed: int) -> int:
    """Rows to allocate when a table of ``current`` rows must hold
    ``needed``: amortised doubling (at least 16), never past
    :data:`MAX_ROWS`; more than :data:`MAX_ROWS` raises ``ValueError``."""
    if needed > MAX_ROWS:
        raise ValueError(
            f"{needed} rows requested; int32 index columns hold at most "
            f"2**31 - 1 = {MAX_ROWS} rows"
        )
    return min(max(needed, 2 * current, 16), MAX_ROWS)


class PendingList:
    """Pending-task queue over sorted column segments."""

    def __init__(self) -> None:
        self._time = np.empty(16, dtype=np.float64)
        self._kind = np.empty(16, dtype=np.int16)
        self._file = np.empty(16, dtype=np.int32)
        self._index = np.empty(16, dtype=np.int32)
        self._n = 0
        self._order = np.empty(0, dtype=np.int64)
        self._order_times = np.empty(0, dtype=np.float64)
        self._pos = 0
        self._sorted_upto = 0
        self._tail_min = math.inf

    def _append(self, count: int) -> slice:
        """Room for ``count`` more rows; returns their slice."""
        start = self._n
        if start + count > len(self._time):
            size = grown_rows(len(self._time), start + count)
            for name in ("_time", "_kind", "_file", "_index"):
                column = getattr(self, name)
                grown = np.empty(size, dtype=column.dtype)
                grown[:start] = column[:start]
                setattr(self, name, grown)
        self._n = start + count
        return slice(start, self._n)

    # -- scheduling ----------------------------------------------------
    def schedule(self, time: float, kind: int, file_id: int = -1, index: int = -1) -> None:
        """Schedule one task of ``kind`` to execute at ``time``."""
        row = self._append(1).start
        self._time[row] = time
        self._kind[row] = kind
        self._file[row] = file_id
        self._index[row] = index
        if time < self._tail_min:
            self._tail_min = time

    def schedule_batch(self, time: float, kind: int, file_ids: np.ndarray) -> None:
        """Append one task of ``kind`` per file id, all due at ``time``."""
        if len(file_ids) == 0:
            return
        rows = self._append(len(file_ids))
        self._time[rows] = time
        self._kind[rows] = kind
        self._file[rows] = file_ids
        self._index[rows] = -1
        self._tail_min = min(self._tail_min, time)

    def schedule_columns(
        self,
        times: np.ndarray,
        kinds: np.ndarray,
        file_ids: np.ndarray,
        indexes: np.ndarray,
    ) -> None:
        """Append one task per row, in row order."""
        if len(times) == 0:
            return
        rows = self._append(len(times))
        self._time[rows] = times
        self._kind[rows] = kinds
        self._file[rows] = file_ids
        self._index[rows] = indexes
        self._tail_min = min(self._tail_min, float(times.min()))

    # -- ordering ------------------------------------------------------
    def _live_indices(self) -> np.ndarray:
        remaining = self._order[self._pos :]
        tail = np.arange(self._sorted_upto, self._n, dtype=np.int64)
        if len(remaining) == 0:
            return tail
        if len(tail) == 0:
            return remaining
        return np.concatenate([remaining, tail])

    def _resort(self) -> None:
        """Compact consumed rows and rebuild the sorted order."""
        live = np.sort(self._live_indices())  # ascending = append order
        count = len(live)
        for column in (self._time, self._kind, self._file, self._index):
            column[:count] = column[live]
        self._n = count
        self._order = np.argsort(self._time[:count], kind="stable")
        self._order_times = self._time[self._order]
        self._pos = 0
        self._sorted_upto = count
        self._tail_min = math.inf

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending task, or None when empty."""
        head = math.inf
        if self._pos < len(self._order):
            head = float(self._order_times[self._pos])
        head = min(head, self._tail_min)
        return None if head == math.inf else head

    def pop_due_arrays(self, now: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove every task due at or before ``now``; returns their
        ``(kind, file_id, index)`` columns in execution order."""
        if self._tail_min <= now:
            self._resort()
        end = max(int(np.searchsorted(self._order_times, now, side="right")), self._pos)
        due = self._order[self._pos : end]
        self._pos = end
        return self._kind[due], self._file[due], self._index[due]

    # -- inspection ----------------------------------------------------
    def __len__(self) -> int:
        return (len(self._order) - self._pos) + (self._n - self._sorted_upto)

    def count_kind(self, kind: int) -> int:
        """Tasks of one kind still queued (observability helper)."""
        return int(np.count_nonzero(self._kind[self._live_indices()] == kind))

    def tasks(self) -> List[Tuple[float, int, int, int]]:
        """``(time, kind, file_id, index)`` of every queued task, in
        execution order (for inspection)."""
        live = self._live_indices()
        order = live[np.lexsort((live, self._time[live]))]
        return list(
            zip(
                self._time[order].tolist(),
                self._kind[order].tolist(),
                self._file[order].tolist(),
                self._index[order].tolist(),
            )
        )
