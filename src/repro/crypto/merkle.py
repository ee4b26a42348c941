"""Merkle roots.

File descriptors in FileInsurer carry the Merkle root of the file
(``f.merkleRoot``), and PoRep commitments are Merkle roots over sealed
replica chunks.  This module provides a binary Merkle tree with domain
separation between leaves and internal nodes (to rule out second-preimage
tricks).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.crypto.hashing import hash_concat

__all__ = ["MerkleTree", "chunk_bytes"]

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
DEFAULT_CHUNK_SIZE = 1024


def _hash_leaf(data: bytes) -> bytes:
    return hash_concat(_LEAF_PREFIX, data)


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hash_concat(_NODE_PREFIX, left, right)


def chunk_bytes(data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[bytes]:
    """Split ``data`` into fixed-size chunks (the last may be shorter).

    An empty input produces a single empty chunk so that every file,
    including the empty file, has a well-defined Merkle root.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if not data:
        return [b""]
    return [data[i : i + chunk_size] for i in range(0, len(data), chunk_size)]


class MerkleTree:
    """The root of a binary Merkle tree over byte-string leaves.

    Odd nodes are promoted (not duplicated) to the next level, which avoids
    the duplicated-leaf ambiguity of the Bitcoin construction.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("MerkleTree requires at least one leaf")
        level = [_hash_leaf(leaf) for leaf in leaves]
        while len(level) > 1:
            nxt = [_hash_node(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
            if len(level) % 2 == 1:
                nxt.append(level[-1])
            level = nxt
        #: The Merkle root.
        self.root: bytes = level[0]

    @classmethod
    def from_data(cls, data: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE) -> "MerkleTree":
        """Build a tree over fixed-size chunks of ``data``."""
        return cls(chunk_bytes(data, chunk_size))
