"""States of an on-chain file descriptor.

Figure 1: ``fileDescriptor : (size, value, merkleRoot, cp, cntdown, state)``;
the engine keeps the descriptors as columns
(:class:`repro.core.columnar.FileTable`).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["FileState"]


class FileState(str, Enum):
    """Lifecycle states of a stored file."""

    #: Allocation requested; waiting for every selected sector to confirm.
    PENDING = "pending"
    #: Stored and maintained by the network.
    NORMAL = "normal"
    #: The client asked to discard the file (or ran out of tokens).
    DISCARDED = "discard"
    #: Every replica was destroyed; the owner has been compensated.
    LOST = "lost"
    #: Upload failed before the file was ever stored.
    FAILED = "failed"
