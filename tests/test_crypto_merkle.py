"""Tests for Merkle roots."""

import pytest

from repro.crypto.hashing import hash_concat
from repro.crypto.merkle import MerkleTree, chunk_bytes


class TestChunkBytes:
    def test_exact_multiple(self):
        chunks = chunk_bytes(b"aabb", 2)
        assert chunks == [b"aa", b"bb"]

    def test_remainder_chunk(self):
        chunks = chunk_bytes(b"aabbc", 2)
        assert chunks == [b"aa", b"bb", b"c"]

    def test_empty_input_single_empty_chunk(self):
        assert chunk_bytes(b"", 4) == [b""]

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_bytes(b"abc", 0)


class TestMerkleTree:
    def test_single_leaf_root_is_the_prefixed_leaf_hash(self):
        assert MerkleTree([b"only"]).root == hash_concat(b"\x00", b"only")

    def test_root_changes_with_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_changes_with_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_empty_leaves_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_from_data_matches_manual_chunks(self):
        data = bytes(range(200))
        assert MerkleTree.from_data(data, 64).root == MerkleTree(chunk_bytes(data, 64)).root
