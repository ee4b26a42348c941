"""Client actor: prepares files, uploads them, retrieves and verifies.

Clients declare a file's size, value and Merkle root in a ``File Add``
request, transmit the raw bytes to the selected providers, and later
retrieve any file from whichever provider answers the BitSwap want-list
first (Retrieval Market).  Clients that care about privacy encrypt before
uploading; we model that as an optional client-side XOR encryption with a
per-client key, which is sufficient to exercise the "uploaded files are
public" caveat from Section III-A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.hashing import ContentId, derive_key
from repro.crypto.merkle import MerkleTree
from repro.crypto.prng import DeterministicPRNG, xor_bytes
from repro.storage.bitswap import BitSwapNetwork, BitSwapNode
from repro.storage.content_store import ContentStore
from repro.storage.dag import MerkleDag

__all__ = ["PreparedFile", "StorageClient"]


@dataclass(frozen=True)
class PreparedFile:
    """A file ready to be offered to the DSN."""

    name: str
    data: bytes
    merkle_root: bytes
    size: int
    value: int
    encrypted: bool

    @property
    def content_id(self) -> ContentId:
        """Content id of the (possibly encrypted) payload."""
        return ContentId.of(self.data)


class StorageClient:
    """A client of the DSN."""

    def __init__(
        self,
        name: str,
        bitswap: Optional[BitSwapNetwork] = None,
        chunk_size: int = 4096,
    ) -> None:
        self.name = name
        self.chunk_size = chunk_size
        self._encryption_key = derive_key(b"client-secret", name)
        self._prepared: Dict[bytes, PreparedFile] = {}
        self.store = ContentStore()
        self.dag = MerkleDag(self.store, chunk_size=chunk_size)
        self.peer: Optional[BitSwapNode] = None
        if bitswap is not None:
            self.peer = bitswap.create_peer(f"client:{name}", store=self.store)

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def prepare_file(
        self, name: str, data: bytes, value: int, encrypt: bool = False
    ) -> PreparedFile:
        """Compute the Merkle root (and optionally encrypt) before upload."""
        if value <= 0:
            raise ValueError("file value must be positive")
        payload = self._encrypt(data) if encrypt else data
        merkle_root = MerkleTree.from_data(payload, self.chunk_size).root
        prepared = PreparedFile(
            name=name,
            data=payload,
            merkle_root=merkle_root,
            size=len(payload),
            value=value,
            encrypted=encrypt,
        )
        self._prepared[merkle_root] = prepared
        return prepared

    def prepared(self, merkle_root: bytes) -> PreparedFile:
        """Look up a prepared file by its Merkle root."""
        return self._prepared[merkle_root]

    def prepared_files(self) -> List[PreparedFile]:
        """All files this client has prepared."""
        return list(self._prepared.values())

    def _encrypt(self, data: bytes) -> bytes:
        stream = DeterministicPRNG(self._encryption_key, domain="client-encrypt")
        return xor_bytes(data, stream.random_bytes(len(data)))

    def decrypt(self, payload: bytes) -> bytes:
        """Invert client-side encryption (XOR pad is an involution)."""
        return self._encrypt(payload)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify_retrieved(self, merkle_root: bytes, payload: bytes) -> bool:
        """Check retrieved bytes against the on-chain Merkle root."""
        return MerkleTree.from_data(payload, self.chunk_size).root == merkle_root

    # ------------------------------------------------------------------
    # Retrieval (off-chain, via BitSwap)
    # ------------------------------------------------------------------
    def retrieve_via_bitswap(
        self, cid: ContentId, hint_peers: Optional[List[str]] = None
    ) -> bytes:
        """Fetch a payload block from the retrieval market."""
        if self.peer is None:
            raise RuntimeError(f"client {self.name} is not connected to BitSwap")
        return self.peer.fetch_block(cid, hint_peers=hint_peers)
