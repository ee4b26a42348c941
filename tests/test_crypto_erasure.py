"""Tests for the Reed-Solomon erasure code."""

import pytest

from repro.crypto.erasure import GF256, ReedSolomonCode, Shard


class TestGF256:
    def test_add_is_xor(self):
        assert GF256.add(0b1010, 0b0110) == 0b1100

    def test_mul_identity_and_zero(self):
        assert GF256.mul(1, 77) == 77
        assert GF256.mul(0, 77) == 0

    def test_inverse(self):
        for value in (1, 2, 3, 77, 255):
            assert GF256.mul(value, GF256.inv(value)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_division_consistent_with_multiplication(self):
        a, b = 87, 131
        assert GF256.mul(GF256.div(a, b), b) == a


class TestReedSolomon:
    def test_roundtrip_all_shards(self):
        code = ReedSolomonCode(4, 2)
        data = bytes(range(256)) * 3
        shards = code.encode(data)
        assert len(shards) == 6
        assert code.decode(shards) == data

    def test_roundtrip_with_only_data_shards(self):
        code = ReedSolomonCode(3, 3)
        data = b"hello erasure coding world"
        shards = code.encode(data)
        assert code.decode(shards[:3]) == data

    def test_roundtrip_with_parity_only_subset(self):
        code = ReedSolomonCode(3, 3)
        data = b"parity reconstruction test payload"
        shards = code.encode(data)
        subset = shards[3:]  # only parity shards
        assert code.decode(subset) == data

    def test_roundtrip_with_mixed_subset(self):
        code = ReedSolomonCode(4, 4)
        data = b"x" * 100 + b"y" * 57
        shards = code.encode(data)
        subset = [shards[0], shards[5], shards[2], shards[7]]
        assert code.decode(subset) == data

    def test_too_few_shards_raises(self):
        code = ReedSolomonCode(4, 2)
        shards = code.encode(b"some data")
        with pytest.raises(ValueError):
            code.decode(shards[:3])

    def test_empty_data_roundtrip(self):
        code = ReedSolomonCode(2, 2)
        shards = code.encode(b"")
        assert code.decode(shards[2:]) == b""

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCode(200, 100)

    def test_shard_index_out_of_range_rejected(self):
        code = ReedSolomonCode(2, 1)
        shards = code.encode(b"abc")
        bad = [Shard(index=9, data=shards[0].data)] + list(shards[1:])
        with pytest.raises(ValueError):
            code.decode(bad)
