"""What the FileInsurer protocol says back to its callers.

The state machine itself -- Figures 4-9 -- is
:class:`repro.core.columnar.ColumnarProtocol`; this module holds the two
values it hands out: the error a refused request raises and the notice
``Auto Refresh`` emits for the simulation layer.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["ProtocolError", "RefreshNotice"]


class ProtocolError(Exception):
    """Raised when a request violates the protocol rules."""


class RefreshNotice(NamedTuple):
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
