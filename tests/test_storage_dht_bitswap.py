"""Tests for the Kademlia-style DHT and the BitSwap exchange."""

import pytest

from repro.crypto.hashing import ContentId
from repro.storage.bitswap import BitSwapNetwork
from repro.storage.content_store import BlockNotFoundError
from repro.storage.dht import DHTNetwork, node_id_from_name, xor_distance


def build_dht(n_nodes: int) -> DHTNetwork:
    network = DHTNetwork()
    network.create_node("node-0")
    for index in range(1, n_nodes):
        network.create_node(f"node-{index}", bootstrap="node-0")
    return network


class TestDHTRouting:
    def test_node_ids_are_unique_and_stable(self):
        assert node_id_from_name("a") == node_id_from_name("a")
        assert node_id_from_name("a") != node_id_from_name("b")

    def test_xor_distance_properties(self):
        a, b = node_id_from_name("a"), node_id_from_name("b")
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)

    def test_duplicate_node_rejected(self):
        network = DHTNetwork()
        network.create_node("x")
        with pytest.raises(ValueError):
            network.create_node("x")

    def test_provider_records_found_across_network(self):
        network = build_dht(12)
        cid = ContentId.of(b"the file")
        network.node("node-3").provide(cid)
        providers = network.node("node-9").find_providers(cid)
        assert "node-3" in providers

    def test_multiple_providers_all_discoverable(self):
        network = build_dht(10)
        cid = ContentId.of(b"shared file")
        for name in ("node-1", "node-4", "node-7"):
            network.node(name).provide(cid)
        found = network.node("node-2").find_providers(cid)
        assert {"node-1", "node-4", "node-7"} <= found

    def test_lookup_hops_scale_logarithmically(self):
        network = build_dht(30)
        node = network.node("node-15")
        node.iterative_find_node(node_id_from_name("target"))
        assert 1 <= node.lookup_hops <= 10


class TestBitSwap:
    def test_fetch_block_via_dht(self):
        dht = DHTNetwork()
        network = BitSwapNetwork(dht=dht)
        holder = network.create_peer("holder")
        network.create_peer("relay", bootstrap="holder")
        fetcher = network.create_peer("fetcher", bootstrap="holder")
        cid = holder.store.put(b"block data")
        holder.dht_node.provide(cid)
        assert fetcher.fetch_block(cid) == b"block data"
        assert fetcher.store.has(cid)

    def test_fetch_with_hint_peers_without_dht(self):
        network = BitSwapNetwork()
        holder = network.create_peer("holder")
        fetcher = network.create_peer("fetcher")
        cid = holder.store.put(b"hinted block")
        assert fetcher.fetch_block(cid, hint_peers=["holder"]) == b"hinted block"

    def test_missing_block_raises(self):
        network = BitSwapNetwork()
        network.create_peer("a")
        fetcher = network.create_peer("b")
        with pytest.raises(BlockNotFoundError):
            fetcher.fetch_block(ContentId.of(b"nope"), hint_peers=["a"])

    def test_selfish_peer_refuses_to_serve(self):
        network = BitSwapNetwork()
        selfish = network.create_peer("selfish", serves_retrievals=False)
        fetcher = network.create_peer("fetcher")
        cid = selfish.store.put(b"hoarded")
        with pytest.raises(BlockNotFoundError):
            fetcher.fetch_block(cid, hint_peers=["selfish"])

    def test_transfer_accounting(self):
        network = BitSwapNetwork()
        holder = network.create_peer("holder")
        fetcher = network.create_peer("fetcher")
        cid = holder.store.put(b"12345678")
        fetcher.fetch_block(cid, hint_peers=["holder"])
        assert holder.bytes_sent == 8
        assert fetcher.store.get(cid) == b"12345678"

    def test_local_block_not_refetched(self):
        network = BitSwapNetwork()
        peer = network.create_peer("solo")
        other = network.create_peer("other")
        cid = peer.store.put(b"mine")
        other.store.put(b"mine")
        assert peer.fetch_block(cid, hint_peers=["other"]) == b"mine"
        assert other.bytes_sent == 0

    def test_duplicate_peer_rejected(self):
        network = BitSwapNetwork()
        network.create_peer("dup")
        with pytest.raises(ValueError):
            network.create_peer("dup")
