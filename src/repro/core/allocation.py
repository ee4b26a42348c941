"""The allocation table.

Figure 1: ``allocTable : {(fileDescriptor, index) -> allocEntry}`` where an
entry is ``(prev, next, last, state)``.  The table is part of consensus and
must support fast random access; we key it on ``(file_id, replica_index)``.

Entry states follow the paper exactly:

* ``alloc``     -- the replica is being (re)allocated to ``next``;
* ``confirm``   -- the ``next`` sector confirmed receipt of the file;
* ``normal``    -- ``prev`` currently stores the replica;
* ``corrupted`` -- ``prev`` is corrupted (the replica is unavailable).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

__all__ = ["AllocState", "AllocEntry", "AllocationTable"]


class AllocState(str, Enum):
    """State of one replica allocation."""

    ALLOC = "alloc"
    CONFIRM = "confirm"
    NORMAL = "normal"
    CORRUPTED = "corrupted"


@dataclass
class AllocEntry:
    """Allocation entry for one replica of one file."""

    prev: Optional[str] = None
    next: Optional[str] = None
    last_proof: float = -1.0
    state: AllocState = AllocState.ALLOC

    @property
    def current_sector(self) -> Optional[str]:
        """The sector currently responsible for storing the replica."""
        return self.prev


class AllocationTable:
    """Random-access map from ``(file_id, replica_index)`` to entries."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], AllocEntry] = {}
        # Per-file index so entries_for_file / remove_file stay O(replicas)
        # instead of scanning the whole table (quadratic during fills).
        self._by_file: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def set(self, file_id: int, index: int, entry: AllocEntry) -> None:
        """Insert or replace the entry for ``(file_id, index)``."""
        if (file_id, index) not in self._entries:
            self._by_file.setdefault(file_id, []).append(index)
        self._entries[(file_id, index)] = entry

    def get(self, file_id: int, index: int) -> AllocEntry:
        """Return the entry for ``(file_id, index)`` (KeyError if absent)."""
        return self._entries[(file_id, index)]

    def try_get(self, file_id: int, index: int) -> Optional[AllocEntry]:
        """Return the entry or ``None`` if the allocation does not exist."""
        return self._entries.get((file_id, index))

    def has(self, file_id: int, index: int) -> bool:
        """True if the allocation exists."""
        return (file_id, index) in self._entries

    def remove_file(self, file_id: int) -> int:
        """Drop every allocation of ``file_id``; returns how many were removed."""
        indices = self._by_file.pop(file_id, [])
        for index in indices:
            del self._entries[(file_id, index)]
        return len(indices)

    # ------------------------------------------------------------------
    # Queries used by the protocol and experiments
    # ------------------------------------------------------------------
    def entries_for_file(self, file_id: int) -> List[Tuple[int, AllocEntry]]:
        """All ``(index, entry)`` pairs of one file, ordered by index."""
        indices = self._by_file.get(file_id)
        if not indices:
            return []
        return [
            (index, self._entries[(file_id, index)]) for index in sorted(indices)
        ]

    def entries_on_sector(self, sector_id: str) -> List[Tuple[int, int, AllocEntry]]:
        """All ``(file_id, index, entry)`` whose prev or next is ``sector_id``."""
        return [
            (key[0], key[1], entry)
            for key, entry in self._entries.items()
            if entry.prev == sector_id or entry.next == sector_id
        ]

    def file_is_lost(self, file_id: int) -> bool:
        """True if every allocation of ``file_id`` is corrupted.

        Matches the paper's definition: a file is missing if and only if all
        sectors storing it are corrupted.
        """
        entries = self.entries_for_file(file_id)
        if not entries:
            return False
        return all(entry.state == AllocState.CORRUPTED for _, entry in entries)

    def replica_locations(self, file_id: int) -> List[Optional[str]]:
        """Current sector of each replica of ``file_id`` (None while allocating)."""
        return [entry.current_sector for _, entry in self.entries_for_file(file_id)]

    def __len__(self) -> int:
        return len(self._entries)
