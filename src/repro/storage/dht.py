"""Kademlia-style distributed hash table for provider records.

IPFS routing locates which peers hold a given content id through a DHT.
This module implements the pieces the DSN needs: XOR-distance node ids,
k-bucket routing tables, iterative lookup, and provider-record storage
(``cid -> set of peer ids``).  It runs in-process -- the "network" is the
:class:`DHTNetwork` registry -- but the lookup logic follows the Kademlia
algorithm so routing behaviour (O(log n) hops) is faithful.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.crypto.hashing import ContentId, hash_bytes

__all__ = ["DHTNode", "DHTNetwork"]

ID_BITS = 256
DEFAULT_BUCKET_SIZE = 20
#: Lookup concurrency: how many of the closest unqueried nodes each round asks.
ALPHA = 3


def node_id_from_name(name: str) -> int:
    """Derive a 256-bit node id from a peer name."""
    return int.from_bytes(hash_bytes(name.encode("utf-8")), "big")


def key_from_cid(cid: ContentId) -> int:
    """Map a content id into the DHT key space."""
    return int.from_bytes(cid.digest, "big")


def xor_distance(a: int, b: int) -> int:
    """Kademlia XOR distance."""
    return a ^ b


class _RoutingTable:
    """k-bucket routing table for one node."""

    def __init__(self, owner_id: int, bucket_size: int) -> None:
        self.owner_id = owner_id
        self.bucket_size = bucket_size
        self._buckets: List[List[int]] = [[] for _ in range(ID_BITS)]

    def _bucket_index(self, node_id: int) -> int:
        distance = xor_distance(self.owner_id, node_id)
        if distance == 0:
            return 0
        return distance.bit_length() - 1

    def add(self, node_id: int) -> None:
        if node_id == self.owner_id:
            return
        bucket = self._buckets[self._bucket_index(node_id)]
        if node_id in bucket:
            bucket.remove(node_id)
            bucket.append(node_id)
            return
        if len(bucket) < self.bucket_size:
            bucket.append(node_id)
        else:
            # Simplified eviction: drop the least recently seen entry.  A
            # real implementation pings it first; liveness is not modelled
            # at this layer.
            bucket.pop(0)
            bucket.append(node_id)

    def closest(self, target: int, count: int) -> List[int]:
        """The ``count`` known node ids closest to ``target``."""
        known = [node_id for bucket in self._buckets for node_id in bucket]
        known.sort(key=lambda node_id: xor_distance(node_id, target))
        return known[:count]


class DHTNode:
    """One DHT participant."""

    def __init__(
        self,
        name: str,
        network: "DHTNetwork",
        bucket_size: int = DEFAULT_BUCKET_SIZE,
    ) -> None:
        self.name = name
        self.node_id = node_id_from_name(name)
        self.network = network
        self.routing_table = _RoutingTable(self.node_id, bucket_size)
        self._provider_records: Dict[int, Set[str]] = {}
        self.lookup_hops = 0

    # ------------------------------------------------------------------
    # RPC surface (called by peers through the network registry)
    # ------------------------------------------------------------------
    def rpc_find_node(self, target: int, caller_id: int) -> List[int]:
        """Return the closest known nodes to ``target``."""
        self.routing_table.add(caller_id)
        return self.routing_table.closest(target, self.routing_table.bucket_size)

    def rpc_store_provider(self, key: int, provider_name: str, caller_id: int) -> None:
        """Store a provider record for ``key``."""
        self.routing_table.add(caller_id)
        self._provider_records.setdefault(key, set()).add(provider_name)

    def rpc_get_providers(self, key: int, caller_id: int) -> Set[str]:
        """Return provider records held locally for ``key``."""
        self.routing_table.add(caller_id)
        return set(self._provider_records.get(key, set()))

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def bootstrap(self, peer_name: str) -> None:
        """Join the network through ``peer_name``."""
        peer = self.network.node(peer_name)
        self.routing_table.add(peer.node_id)
        peer.routing_table.add(self.node_id)
        self.iterative_find_node(self.node_id)

    def iterative_find_node(self, target: int) -> List[int]:
        """Iterative Kademlia lookup of the nodes closest to ``target``."""
        shortlist = self.routing_table.closest(target, ALPHA) or [self.node_id]
        queried: Set[int] = set()
        closest_seen = sorted(shortlist, key=lambda n: xor_distance(n, target))
        self.lookup_hops = 0
        while True:
            unqueried = [n for n in closest_seen if n not in queried][:ALPHA]
            if not unqueried:
                break
            self.lookup_hops += 1
            for node_id in unqueried:
                queried.add(node_id)
                peer = self.network.node_by_id(node_id)
                if peer is None:
                    continue
                for found in peer.rpc_find_node(target, self.node_id):
                    self.routing_table.add(found)
                    if found not in closest_seen:
                        closest_seen.append(found)
            closest_seen.sort(key=lambda n: xor_distance(n, target))
            closest_seen = closest_seen[: self.routing_table.bucket_size]
        return closest_seen

    def provide(self, cid: ContentId) -> None:
        """Announce that this node can provide ``cid``."""
        key = key_from_cid(cid)
        for node_id in self._closest_live_nodes(key):
            peer = self.network.node_by_id(node_id)
            if peer is not None:
                peer.rpc_store_provider(key, self.name, self.node_id)

    def find_providers(self, cid: ContentId) -> Set[str]:
        """Find peer names providing ``cid``."""
        key = key_from_cid(cid)
        providers: Set[str] = set()
        for node_id in self._closest_live_nodes(key):
            peer = self.network.node_by_id(node_id)
            if peer is not None:
                providers |= peer.rpc_get_providers(key, self.node_id)
        return providers

    def _closest_live_nodes(self, key: int) -> List[int]:
        closest = self.iterative_find_node(key)
        # Include self: small networks may route records to the caller.
        if self.node_id not in closest:
            closest.append(self.node_id)
        closest.sort(key=lambda n: xor_distance(n, key))
        return closest[: self.routing_table.bucket_size]


class DHTNetwork:
    """In-process registry of DHT nodes standing in for the real network."""

    def __init__(self, bucket_size: int = DEFAULT_BUCKET_SIZE) -> None:
        self.bucket_size = bucket_size
        self._nodes: Dict[str, DHTNode] = {}
        self._by_id: Dict[int, DHTNode] = {}

    def create_node(self, name: str, bootstrap: Optional[str] = None) -> DHTNode:
        """Create and register a node, optionally bootstrapping via a peer."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")
        node = DHTNode(name, self, bucket_size=self.bucket_size)
        self._nodes[name] = node
        self._by_id[node.node_id] = node
        if bootstrap is not None and bootstrap in self._nodes:
            node.bootstrap(bootstrap)
        return node

    def node(self, name: str) -> DHTNode:
        """Look up a node by name."""
        return self._nodes[name]

    def node_by_id(self, node_id: int) -> Optional[DHTNode]:
        """Look up a node by its 256-bit id."""
        return self._by_id.get(node_id)

    def __len__(self) -> int:
        return len(self._nodes)
