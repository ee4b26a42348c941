"""BitSwap-style block exchange between peers.

Retrieval in FileInsurer happens off-chain through IPFS's BitSwap protocol
(Sections III-E, VI-F): a client announces a want-list, peers that hold the
wanted blocks respond, and transferred bytes are accounted so the traffic
fee and the Retrieval Market can settle.  This module provides that
exchange over the in-process peer registry, including the per-peer byte
counters the retrieval-market scenario reads and the selfish providers of
Section VI-E.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.hashing import ContentId
from repro.storage.content_store import BlockNotFoundError, ContentStore
from repro.storage.dht import DHTNetwork, DHTNode

__all__ = ["BitSwapNode", "BitSwapNetwork"]


class BitSwapNode:
    """One peer participating in block exchange."""

    def __init__(
        self,
        name: str,
        store: ContentStore,
        network: "BitSwapNetwork",
        dht_node: Optional[DHTNode] = None,
        serves_retrievals: bool = True,
    ) -> None:
        self.name = name
        self.store = store
        self.network = network
        self.dht_node = dht_node
        #: Selfish providers (Section VI-E) set this to False: they store
        #: blocks and pass proofs but refuse to serve retrieval requests.
        self.serves_retrievals = serves_retrievals
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def handle_want(self, cid: ContentId) -> Optional[bytes]:
        """Serve a wanted block if held and willing."""
        if not self.serves_retrievals:
            return None
        if not self.store.has(cid):
            return None
        data = self.store.get(cid)
        self.bytes_sent += len(data)
        return data

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def fetch_block(self, cid: ContentId, hint_peers: Optional[List[str]] = None) -> bytes:
        """Fetch one block, locating providers through the DHT if needed."""
        if self.store.has(cid):
            return self.store.get(cid)
        candidates: List[str] = list(hint_peers or [])
        if self.dht_node is not None:
            candidates.extend(sorted(self.dht_node.find_providers(cid)))
        for peer_name in candidates:
            if peer_name == self.name:
                continue
            peer = self.network.peer(peer_name)
            if peer is None:
                continue
            data = peer.handle_want(cid)
            if data is None:
                continue
            self.store.put_verified(cid, data)
            return data
        raise BlockNotFoundError(cid)


class BitSwapNetwork:
    """In-process registry of BitSwap peers."""

    def __init__(self, dht: Optional[DHTNetwork] = None) -> None:
        self.dht = dht
        self._peers: Dict[str, BitSwapNode] = {}

    def create_peer(
        self,
        name: str,
        bootstrap: Optional[str] = None,
        serves_retrievals: bool = True,
    ) -> BitSwapNode:
        """Create a peer, joining it to the DHT if the network has one."""
        if name in self._peers:
            raise ValueError(f"peer {name!r} already exists")
        dht_node = None
        if self.dht is not None:
            dht_node = self.dht.create_node(name, bootstrap=bootstrap)
        peer = BitSwapNode(
            name=name,
            store=ContentStore(),
            network=self,
            dht_node=dht_node,
            serves_retrievals=serves_retrievals,
        )
        self._peers[name] = peer
        return peer

    def peer(self, name: str) -> Optional[BitSwapNode]:
        """Look up a peer by name."""
        return self._peers.get(name)
