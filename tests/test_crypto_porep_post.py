"""Tests for the simulated PoRep sealing."""

import pytest

from repro.crypto.porep import PoRepParams, PoRepProver


@pytest.fixture
def prover():
    return PoRepProver(PoRepParams(chunk_size=64))


class TestPoRepSealing:
    def test_seal_unseal_roundtrip(self, prover):
        # Sealing is a keyed XOR stream, so sealing the replica again under
        # the same key unseals it.
        data = b"the raw file contents" * 10
        replica = prover.setup(data, b"key-1")
        assert prover.setup(replica.data, b"key-1").data == data

    def test_sealed_bytes_differ_from_raw(self, prover):
        data = b"the raw file contents" * 10
        replica = prover.setup(data, b"key-1")
        assert replica.data != data
        assert replica.size == len(data)

    def test_different_keys_give_different_replicas(self, prover):
        data = b"same data" * 20
        r1 = prover.setup(data, b"key-1")
        r2 = prover.setup(data, b"key-2")
        assert r1.data != r2.data
        assert r1.commitment.replica_root != r2.commitment.replica_root

    def test_same_key_is_deterministic(self, prover):
        data = b"same data" * 20
        assert prover.setup(data, b"key").data == prover.setup(data, b"key").data

    def test_unseal_with_wrong_key_garbles(self, prover):
        data = b"secret" * 30
        replica = prover.setup(data, b"key-1")
        assert prover.setup(replica.data, b"key-2").data != data

    def test_capacity_replica_is_sealed_zeros(self, prover):
        cr = prover.capacity_replica(128, b"cr-key")
        assert cr.size == 128
        assert cr == prover.setup(bytes(128), b"cr-key")


class TestPoRepCostModel:
    def test_cost_model_scales_with_size(self):
        params = PoRepParams(seal_seconds_per_gib=3600.0, snark_seconds=600.0)
        small = params.seal_time(1 << 20)
        large = params.seal_time(1 << 30)
        assert large > small
        assert params.recovery_time(1 << 30) < params.seal_time(1 << 30)

