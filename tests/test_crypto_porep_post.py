"""Tests for the simulated PoRep and PoSt schemes."""

import pytest

from repro.crypto.porep import PoRepParams, PoRepProver, PoRepVerifier
from repro.crypto.post import WindowPoSt


@pytest.fixture
def prover():
    return PoRepProver(PoRepParams(chunk_size=64))


@pytest.fixture
def verifier():
    return PoRepVerifier(PoRepParams(chunk_size=64))


class TestPoRepSealing:
    def test_seal_unseal_roundtrip(self, prover):
        data = b"the raw file contents" * 10
        replica = prover.setup(data, b"key-1")
        assert prover.unseal(replica, b"key-1") == data

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
        assert prover.unseal(replica, b"key-2") != data

    def test_capacity_replica_is_sealed_zeros(self, prover):
        cr = prover.capacity_replica(128, b"cr-key")
        assert cr.size == 128
        assert prover.unseal(cr, b"cr-key") == bytes(128)


class TestPoRepVerification:
    def test_valid_proof_verifies(self, prover, verifier):
        data = b"data" * 64
        replica = prover.setup(data, b"key")
        proof = prover.prove(replica, b"key")
        assert verifier.verify(proof, b"key")

    def test_proof_bound_to_key(self, prover, verifier):
        data = b"data" * 64
        replica = prover.setup(data, b"key")
        proof = prover.prove(replica, b"key")
        assert not verifier.verify(proof, b"other-key")

    def test_commitment_matches_raw_data(self, prover, verifier):
        data = b"data" * 64
        replica = prover.setup(data, b"key")
        assert verifier.verify_commitment_against_data(replica.commitment, data)
        assert not verifier.verify_commitment_against_data(replica.commitment, data + b"x")

    def test_cost_model_scales_with_size(self):
        params = PoRepParams(seal_seconds_per_gib=3600.0, snark_seconds=600.0)
        small = params.seal_time(1 << 20)
        large = params.seal_time(1 << 30)
        assert large > small
        assert params.recovery_time(1 << 30) < params.seal_time(1 << 30)


class TestWindowPoSt:
    def test_honest_prover_passes(self, prover):
        post = WindowPoSt(challenge_count=3, chunk_size=64)
        data = b"replica contents" * 50
        replica = prover.setup(data, b"key")
        challenge = post.make_challenge(replica.commitment, epoch=5, beacon_value=b"beacon")
        proof = post.prove(replica, challenge, prover_id=b"provider-1")
        assert post.verify(proof)

    def test_challenge_is_deterministic_per_epoch(self, prover):
        post = WindowPoSt(challenge_count=3, chunk_size=64)
        replica = prover.setup(b"x" * 1000, b"key")
        c1 = post.make_challenge(replica.commitment, 5, b"beacon")
        c2 = post.make_challenge(replica.commitment, 5, b"beacon")
        c3 = post.make_challenge(replica.commitment, 6, b"beacon")
        assert c1.chunk_indices == c2.chunk_indices
        assert c1.randomness != c3.randomness

    def test_wrong_replica_rejected_at_prove_time(self, prover):
        post = WindowPoSt(chunk_size=64)
        replica_a = prover.setup(b"a" * 500, b"key")
        replica_b = prover.setup(b"b" * 500, b"key")
        challenge = post.make_challenge(replica_a.commitment, 1, b"beacon")
        with pytest.raises(ValueError):
            post.prove(replica_b, challenge, b"provider")

    def test_tampered_chunk_fails_verification(self, prover):
        post = WindowPoSt(challenge_count=2, chunk_size=64)
        replica = prover.setup(b"z" * 700, b"key")
        challenge = post.make_challenge(replica.commitment, 1, b"beacon")
        proof = post.prove(replica, challenge, b"provider")
        tampered = type(proof)(
            challenge=proof.challenge,
            chunks=tuple(b"\x00" * len(c) for c in proof.chunks),
            merkle_proofs=proof.merkle_proofs,
            prover_id=proof.prover_id,
        )
        assert not post.verify(tampered)

    def test_small_replica_fewer_challenges(self, prover):
        post = WindowPoSt(challenge_count=10, chunk_size=64)
        replica = prover.setup(b"tiny", b"key")
        challenge = post.make_challenge(replica.commitment, 1, b"beacon")
        assert len(challenge.chunk_indices) == 1
