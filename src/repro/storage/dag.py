"""Merkle DAG: chunking files into linked, content-addressed blocks.

IPFS represents a file as a DAG whose leaves are fixed-size chunks and
whose internal nodes list the content ids of their children.  FileInsurer
stores the hashes and locations of files on chain, so anyone can rebuild
the DAG and address files through IPFS paths (Section VI-F).  This module
builds DAGs into a :class:`ContentStore` and reassembles files from one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.crypto.hashing import ContentId, hash_concat
from repro.storage.content_store import BlockNotFoundError, ContentStore

__all__ = ["DagNode", "MerkleDag"]

DEFAULT_CHUNK_SIZE = 4096
DEFAULT_FANOUT = 16

_LEAF_TAG = b"L"
_NODE_TAG = b"N"


@dataclass(frozen=True)
class DagNode:
    """A decoded internal DAG node listing its children."""

    children: tuple
    total_size: int

    def encode(self) -> bytes:
        """Serialise the node for content addressing."""
        parts = [_NODE_TAG, self.total_size.to_bytes(8, "big")]
        for child in self.children:
            parts.append(child.digest)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "DagNode":
        """Decode a serialised internal node."""
        if not data.startswith(_NODE_TAG):
            raise ValueError("not an internal DAG node")
        total_size = int.from_bytes(data[1:9], "big")
        body = data[9:]
        if len(body) % 32 != 0:
            raise ValueError("malformed DAG node body")
        children = tuple(
            ContentId(body[i : i + 32]) for i in range(0, len(body), 32)
        )
        return cls(children=children, total_size=total_size)


class MerkleDag:
    """Builds and reads chunked Merkle DAGs in a content store."""

    def __init__(
        self,
        store: ContentStore,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.store = store
        self.chunk_size = chunk_size
        self.fanout = fanout

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_file(self, data: bytes) -> ContentId:
        """Chunk ``data``, store every node, and return the root cid."""
        leaves: List[ContentId] = []
        if not data:
            leaves.append(self.store.put(_LEAF_TAG))
        for offset in range(0, len(data), self.chunk_size):
            chunk = data[offset : offset + self.chunk_size]
            leaves.append(self.store.put(_LEAF_TAG + chunk))
        return self._link(leaves, total_size=len(data))

    def _link(self, cids: List[ContentId], total_size: int) -> ContentId:
        level = cids
        while len(level) > 1:
            next_level: List[ContentId] = []
            for i in range(0, len(level), self.fanout):
                group = level[i : i + self.fanout]
                node = DagNode(children=tuple(group), total_size=total_size)
                next_level.append(self.store.put(node.encode()))
            level = next_level
        if len(level) == 1 and self._is_leaf(level[0]):
            # Wrap single-leaf files in a root node so every file root is
            # an internal node carrying the total size.
            node = DagNode(children=tuple(level), total_size=total_size)
            return self.store.put(node.encode())
        return level[0]

    def _is_leaf(self, cid: ContentId) -> bool:
        return self.store.get(cid).startswith(_LEAF_TAG)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_file(self, root: ContentId) -> bytes:
        """Reassemble the file under ``root`` from the store."""
        block = self.store.get(root)
        if block.startswith(_LEAF_TAG):
            return block[1:]
        node = DagNode.decode(block)
        return b"".join(self.read_file(child) for child in node.children)

    def file_size(self, root: ContentId) -> int:
        """Total size recorded in the root node (leaf roots return length)."""
        block = self.store.get(root)
        if block.startswith(_LEAF_TAG):
            return len(block) - 1
        return DagNode.decode(block).total_size

    def collect_cids(self, root: ContentId) -> List[ContentId]:
        """All content ids reachable from ``root`` (root first)."""
        block = self.store.get(root)
        result = [root]
        if block.startswith(_NODE_TAG):
            node = DagNode.decode(block)
            for child in node.children:
                result.extend(self.collect_cids(child))
        return result

    def verify(self, root: ContentId) -> bool:
        """Check that the whole DAG under ``root`` is present and intact."""
        try:
            self.read_file(root)
        except (BlockNotFoundError, ValueError):  # missing / malformed node
            return False
        return True
