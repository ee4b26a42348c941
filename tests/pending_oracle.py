"""The heap the pending list used to be, kept as its differential oracle.

``repro.core.pending.PendingList`` stores tasks as columns and sorts them
lazily; this ``(time, sequence)`` heap is what it replaced, and its pop
order *defines* "every task due, in time order, ties in scheduling order".
``test_core_structures.py`` replays scripted and hypothesis-generated
operation streams on both.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

import numpy as np


class HeapPendingList:
    """The pending list's API over a heap keyed on ``(time, sequence)``."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, int, int]] = []
        self._sequence = itertools.count()

    def schedule(self, time: float, kind: int, file_id: int = -1, index: int = -1) -> None:
        heapq.heappush(self._heap, (time, next(self._sequence), kind, file_id, index))

    def schedule_batch(self, time: float, kind: int, file_ids: np.ndarray) -> None:
        for file_id in file_ids.tolist():
            self.schedule(time, kind, file_id)

    def schedule_columns(
        self,
        times: np.ndarray,
        kinds: np.ndarray,
        file_ids: np.ndarray,
        indexes: np.ndarray,
    ) -> None:
        for row in zip(times.tolist(), kinds.tolist(), file_ids.tolist(), indexes.tolist()):
            self.schedule(*row)

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> List[Tuple[int, int, int]]:
        """``(kind, file_id, index)`` of every task due at or before ``now``."""
        due = []
        while self._heap and self._heap[0][0] <= now:
            _, _, kind, file_id, index = heapq.heappop(self._heap)
            due.append((kind, file_id, index))
        return due

    def __len__(self) -> int:
        return len(self._heap)

    def count_kind(self, kind: int) -> int:
        return sum(1 for task in self._heap if task[2] == kind)

    def tasks(self) -> List[Tuple[float, int, int, int]]:
        return [(time, kind, f, i) for time, _, kind, f, i in sorted(self._heap)]
