"""States of an allocation-table entry.

Figure 1: ``allocTable : {(fileDescriptor, index) -> allocEntry}`` where an
entry is ``(prev, next, last, state)``; the engine keeps the table as
columns (:class:`repro.core.columnar.ColumnarAllocationTable`).

Entry states follow the paper exactly:

* ``alloc``     -- the replica is being (re)allocated to ``next``;
* ``confirm``   -- the ``next`` sector confirmed receipt of the file;
* ``normal``    -- ``prev`` currently stores the replica;
* ``corrupted`` -- ``prev`` is corrupted (the replica is unavailable).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["AllocState"]


class AllocState(str, Enum):
    """State of one replica allocation."""

    ALLOC = "alloc"
    CONFIRM = "confirm"
    NORMAL = "normal"
    CORRUPTED = "corrupted"
