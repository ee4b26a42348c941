"""Client actor: prepares files for upload and verifies retrieved bytes.

Clients declare a file's size, value and Merkle root in a ``File Add``
request, transmit the raw bytes to the selected providers, and check any
retrieved payload against the on-chain root.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.crypto.merkle import MerkleTree

__all__ = ["PreparedFile", "StorageClient"]


@dataclass(frozen=True)
class PreparedFile:
    """A file ready to be offered to the DSN."""

    name: str
    data: bytes
    merkle_root: bytes
    size: int
    value: int


class StorageClient:
    """A client of the DSN."""

    #: Merkle chunk size of the roots the client declares.
    chunk_size = 4096

    def __init__(self, name: str) -> None:
        self.name = name

    def prepare_file(self, name: str, data: bytes, value: int) -> PreparedFile:
        """Compute the Merkle root before upload."""
        if value <= 0:
            raise ValueError("file value must be positive")
        merkle_root = MerkleTree.from_data(data, self.chunk_size).root
        return PreparedFile(
            name=name, data=data, merkle_root=merkle_root, size=len(data), value=value
        )

    def verify_retrieved(self, merkle_root: bytes, payload: bytes) -> bool:
        """Check retrieved bytes against the on-chain Merkle root."""
        return MerkleTree.from_data(payload, self.chunk_size).root == merkle_root
