"""The pending list: tasks executed automatically at future times.

Figure 1: ``pendingList : {time -> [task, task, ...]}``.  The network
executes, at each time point, every task scheduled for it.  Because the gas
for these tasks is prepaid, each task records the operation label used to
bound its gas.  The implementation is a heap keyed on ``(time, seq)`` so
tasks at the same time execute in scheduling order, which keeps the
simulation deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["PendingTask", "PendingList"]


@dataclass(frozen=True)
class PendingTask:
    """One scheduled task."""

    time: float
    kind: str
    payload: Dict[str, Any]
    sequence: int

    def describe(self) -> str:
        """Human readable summary."""
        return f"t={self.time:.1f} {self.kind}({self.payload})"


class PendingList:
    """Priority queue of tasks ordered by execution time."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, PendingTask]] = []
        self._sequence = itertools.count()

    def schedule(self, time: float, kind: str, **payload: Any) -> PendingTask:
        """Schedule ``kind`` with ``payload`` to execute at ``time``."""
        task = PendingTask(
            time=time, kind=kind, payload=dict(payload), sequence=next(self._sequence)
        )
        heapq.heappush(self._heap, (time, task.sequence, task))
        return task

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending task, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> List[PendingTask]:
        """Remove and return all tasks due at or before ``now`` in order."""
        due: List[PendingTask] = []
        while self._heap and self._heap[0][0] <= now:
            due.append(heapq.heappop(self._heap)[2])
        return due

    def __len__(self) -> int:
        return len(self._heap)

    def count_kind(self, kind: str) -> int:
        """Tasks of one kind still queued (observability helper)."""
        return sum(1 for _, _, task in self._heap if task.kind == kind)

    def is_empty(self) -> bool:
        """True when no task remains."""
        return not self._heap

    def tasks(self) -> List[PendingTask]:
        """Snapshot of pending tasks in execution order (for inspection)."""
        return [task for _, _, task in sorted(self._heap)]
