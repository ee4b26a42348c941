"""Integration tests: the retrieval market over DHT/BitSwap, selfish
providers (Section VI-E) and large-file segmentation through the protocol
(Section VI-C)."""

import pytest

from repro.core.file_descriptor import FileState
from repro.core.large_files import LargeFileCodec
from repro.crypto.hashing import ContentId
from repro.storage.bitswap import BitSwapNetwork
from repro.storage.content_store import BlockNotFoundError
from repro.storage.dag import MerkleDag
from repro.storage.dht import DHTNetwork

from oracles.harness import apply, deploy


class TestRetrievalMarket:
    """File Get is served off-chain: DHT lookup + BitSwap exchange."""

    def build_market(self, provider_count=4, selfish=()):
        dht = DHTNetwork()
        bitswap = BitSwapNetwork(dht=dht)
        providers = []
        for index in range(provider_count):
            name = f"prov-{index}"
            peer = bitswap.create_peer(
                name,
                bootstrap="prov-0" if index else None,
                serves_retrievals=name not in selfish,
            )
            providers.append(peer)
        client = bitswap.create_peer("client", bootstrap="prov-0")
        return bitswap, providers, client

    def test_client_fetches_full_dag_from_providers(self):
        bitswap, providers, client = self.build_market()
        # A provider holds the file as a chunked Merkle DAG and announces it.
        holder = providers[1]
        dag = MerkleDag(holder.store, chunk_size=256)
        data = b"retrieval market payload " * 100
        root = dag.add_file(data)
        for cid in dag.collect_cids(root):
            holder.dht_node.provide(cid)
        # The client fetches every block of the DAG via BitSwap.
        for cid in dag.collect_cids(root):
            assert client.fetch_block(cid) == holder.store.get(cid)
            assert client.store.has(cid)
        assert holder.bytes_sent >= len(data)

    def test_selfish_provider_does_not_serve_but_others_do(self):
        bitswap, providers, client = self.build_market(selfish={"prov-1"})
        data = b"selfish provider scenario " * 50
        cid = ContentId.of(data)
        # Both a selfish and an honest provider hold the block.
        providers[1].store.put(data)
        providers[2].store.put(data)
        providers[1].dht_node.provide(cid)
        providers[2].dht_node.provide(cid)
        fetched = client.fetch_block(cid)
        assert fetched == data
        assert providers[1].bytes_sent == 0
        assert providers[2].bytes_sent == len(data)

    def test_all_holders_selfish_blocks_retrieval(self):
        bitswap, providers, client = self.build_market(selfish={"prov-1"})
        data = b"hoarded data"
        cid = providers[1].store.put(data)
        providers[1].dht_node.provide(cid)
        with pytest.raises(BlockNotFoundError):
            client.fetch_block(cid)


class TestLargeFileThroughProtocol:
    """Section VI-C: oversized files enter the DSN as erasure-coded segments."""

    def test_oversized_file_rejected_then_stored_as_segments(self):
        # Enough sectors that all segment replicas fit the redundancy budget.
        protocol = deploy(
            providers=24, capacity_mb=1, backend="vectorized", seed=21, cap_para=1000.0
        )
        params = protocol.params
        oversized = params.size_limit + 1024
        payload = b"L" * oversized
        with pytest.raises(Exception):
            protocol.file_add("client", oversized, 4, b"\x00" * 32)

        codec = LargeFileCodec(size_limit=params.size_limit // 4, k=params.k)
        segmented = codec.split(payload, value=4)
        segment_ids = []
        for segment in segmented.segments:
            assert apply(protocol, ("add", segment.size, segment.value)) is None
            segment_ids.append(len(protocol.files) - 1)
        protocol.run_until_idle(max_time=protocol.now + 1000.0)
        states = [protocol.files[i].state for i in segment_ids]
        assert all(state == FileState.NORMAL for state in states)

        # Losing half of the segments (e.g. because the sectors hosting them
        # collapse) still lets the client reassemble the original file.
        surviving = list(segmented.segments)[: segmented.total_segments // 2]
        assert codec.reassemble(segmented, surviving) == payload

    def test_segment_values_preserve_compensation_economics(self):
        codec = LargeFileCodec(size_limit=1 << 16, k=3)
        value = 6
        segmented = codec.split(b"E" * (1 << 18), value=value)
        # Per-segment value is 2*value/k, so losing the whole file (all
        # segments) yields compensation at least the original value while a
        # recoverable subset loss over-compensates slightly -- matching the
        # paper's "value 2*value/k per segment" rule.
        total_segment_value = sum(seg.value for seg in segmented.segments)
        assert total_segment_value >= value


class TestDeterminism:
    def test_identical_seeds_identical_histories(self):
        outcomes = []
        for _ in range(2):
            protocol = deploy(providers=4, capacity_mb=1, backend="vectorized", seed=5)
            placements = []
            for _ in range(10):
                file_id = protocol.file_add("client", 2048, 1, b"\x01" * 32)
                placements.append(tuple(
                    entry.next for _, entry in protocol.alloc.entries_for_file(file_id)
                ))
            outcomes.append(placements)
        assert outcomes[0] == outcomes[1]
