"""On-chain file descriptors.

Figure 1: ``fileDescriptor : (size, value, merkleRoot, cp, cntdown, state)``.
We additionally record the owning client (the compensation recipient), the
file id assigned by the protocol and cumulative accounting fields used by
the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["FileState", "FileDescriptor"]


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


@dataclass
class FileDescriptor:
    """Consensus record of one stored file."""

    file_id: int
    owner: str
    size: int
    value: int
    merkle_root: bytes
    replica_count: int
    countdown: int = -1
    state: FileState = FileState.PENDING
    #: Total rent charged to the owner so far (for fee accounting tests).
    rent_paid: int = 0
    #: Compensation received if the file was lost.
    compensation_received: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("file size must be non-negative")
        if self.value <= 0:
            raise ValueError("file value must be positive")
        if self.replica_count <= 0:
            raise ValueError("replica count must be positive")

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """True while the network still maintains this file."""
        return self.state in (FileState.PENDING, FileState.NORMAL)

    def describe(self) -> str:
        """Human readable summary."""
        return (
            f"file#{self.file_id} owner={self.owner} size={self.size} "
            f"value={self.value} cp={self.replica_count} state={self.state.value}"
        )
