"""Tests for content identifiers and hashing helpers."""

import pytest

from repro.crypto.hashing import ContentId, hash_bytes, hash_concat


class TestHashBytes:
    def test_deterministic(self):
        assert hash_bytes(b"abc") == hash_bytes(b"abc")

    def test_differs_for_different_input(self):
        assert hash_bytes(b"abc") != hash_bytes(b"abd")

    def test_digest_length(self):
        assert len(hash_bytes(b"")) == 32


class TestHashConcat:
    def test_length_framing_prevents_ambiguity(self):
        assert hash_concat(b"ab", b"c") != hash_concat(b"a", b"bc")

    def test_empty_parts_are_distinct_from_no_parts(self):
        assert hash_concat(b"") != hash_concat()

    def test_order_matters(self):
        assert hash_concat(b"a", b"b") != hash_concat(b"b", b"a")


class TestContentId:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ContentId(b"short")

    def test_orderable_and_hashable(self):
        a = ContentId.of(b"a")
        b = ContentId.of(b"b")
        assert len({a, b}) == 2
        assert sorted([a, b]) in ([a, b], [b, a])

    def test_short_prefix(self):
        cid = ContentId.of(b"hello")
        assert cid.hex.startswith(cid.short(8))
        assert len(cid.short(8)) == 8
