"""Tests for the content store and Merkle DAG."""

import pytest

from repro.crypto.hashing import ContentId
from repro.storage.content_store import BlockNotFoundError, ContentStore
from repro.storage.dag import DagNode, MerkleDag


class TestContentStore:
    def test_put_get_roundtrip(self):
        store = ContentStore()
        cid = store.put(b"hello")
        assert store.get(cid) == b"hello"
        assert store.has(cid)
        assert cid in store

    def test_get_missing_raises(self):
        store = ContentStore()
        with pytest.raises(BlockNotFoundError):
            store.get(ContentId.of(b"missing"))

    def test_put_verified_checks_hash(self):
        store = ContentStore()
        cid = ContentId.of(b"real")
        with pytest.raises(ValueError):
            store.put_verified(cid, b"fake")
        store.put_verified(cid, b"real")
        assert store.get(cid) == b"real"

    def test_delete(self):
        store = ContentStore()
        cid = store.put(b"x")
        assert store.delete(cid)
        assert not store.delete(cid)
        assert not store.has(cid)

    def test_size_and_len(self):
        store = ContentStore()
        store.put(b"aaa")
        store.put(b"bb")
        assert len(store) == 2
        assert store.size_bytes() == 5

    def test_idempotent_put(self):
        store = ContentStore()
        c1 = store.put(b"same")
        c2 = store.put(b"same")
        assert c1 == c2
        assert len(store) == 1


def reassemble(store, root):
    """The file under ``root``: its leaf blocks in depth-first order."""
    return b"".join(
        block[1:]
        for block in (store.get(cid) for cid in MerkleDag(store).collect_cids(root))
        if block.startswith(b"L")
    )


class TestMerkleDag:
    def test_roundtrip_small_file(self):
        store = ContentStore()
        dag = MerkleDag(store, chunk_size=16)
        data = b"tiny"
        root = dag.add_file(data)
        assert reassemble(store, root) == data

    def test_roundtrip_multi_level(self):
        store = ContentStore()
        dag = MerkleDag(store, chunk_size=8, fanout=2)
        data = bytes(range(200)) * 3
        root = dag.add_file(data)
        assert reassemble(store, root) == data

    def test_empty_file(self):
        store = ContentStore()
        dag = MerkleDag(store, chunk_size=8)
        root = dag.add_file(b"")
        assert reassemble(store, root) == b""

    def test_same_content_same_root(self):
        store = ContentStore()
        dag = MerkleDag(store, chunk_size=8)
        assert dag.add_file(b"abc" * 10) == dag.add_file(b"abc" * 10)

    def test_different_content_different_root(self):
        store = ContentStore()
        dag = MerkleDag(store, chunk_size=8)
        assert dag.add_file(b"abc" * 10) != dag.add_file(b"abd" * 10)

    def test_collect_cids_covers_all_chunks(self):
        store = ContentStore()
        dag = MerkleDag(store, chunk_size=10, fanout=2)
        data = b"y" * 95
        root = dag.add_file(data)
        cids = dag.collect_cids(root)
        assert root in cids
        assert len(cids) >= 10  # leaves plus internal nodes

    def test_dag_node_encode_decode(self):
        children = (ContentId.of(b"a"), ContentId.of(b"b"))
        node = DagNode(children=children, total_size=123)
        decoded = DagNode.decode(node.encode())
        assert decoded.children == children
        assert decoded.total_size == 123

    def test_invalid_parameters(self):
        store = ContentStore()
        with pytest.raises(ValueError):
            MerkleDag(store, chunk_size=0)
        with pytest.raises(ValueError):
            MerkleDag(store, fanout=1)
