"""Simulated Proof-of-Spacetime (WindowPoSt).

Filecoin's WindowPoSt periodically proves a provider still holds its
sealed replicas; FileInsurer's File Prove requests carry WindowPoSt-style
proofs.

The simulation issues beacon-derived challenges naming random chunks of a
sealed replica; the prover answers with those chunks plus Merkle inclusion
proofs against the replica commitment.  A provider whose disk lost the
replica (or any challenged chunk) cannot answer, which is the only property
the higher layers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.crypto.hashing import hash_concat
from repro.crypto.merkle import MerkleProof, MerkleTree, chunk_bytes
from repro.crypto.porep import ReplicaCommitment, SealedReplica
from repro.crypto.prng import DeterministicPRNG

__all__ = ["PoStChallenge", "PoStProof", "WindowPoSt"]


@dataclass(frozen=True)
class PoStChallenge:
    """A storage challenge: prove possession of specific replica chunks."""

    replica_root: bytes
    chunk_indices: tuple
    epoch: int
    randomness: bytes


@dataclass(frozen=True)
class PoStProof:
    """Response to a :class:`PoStChallenge`."""

    challenge: PoStChallenge
    chunks: tuple
    merkle_proofs: tuple
    prover_id: bytes


class WindowPoSt:
    """Periodic proof that a sealed replica is still held in full."""

    def __init__(self, challenge_count: int = 4, chunk_size: int = 1024) -> None:
        if challenge_count <= 0:
            raise ValueError("challenge_count must be positive")
        self.challenge_count = challenge_count
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    # Challenge generation (network side)
    # ------------------------------------------------------------------
    def make_challenge(
        self, commitment: ReplicaCommitment, epoch: int, beacon_value: bytes
    ) -> PoStChallenge:
        """Derive a deterministic challenge from the beacon for ``epoch``."""
        total_chunks = max(1, -(-commitment.size // self.chunk_size))
        randomness = hash_concat(
            b"window-post", commitment.replica_root, epoch.to_bytes(8, "big"), beacon_value
        )
        prng = DeterministicPRNG(randomness, domain="post-challenge")
        count = min(self.challenge_count, total_chunks)
        indices = tuple(prng.sample_indices(total_chunks, count))
        return PoStChallenge(
            replica_root=commitment.replica_root,
            chunk_indices=indices,
            epoch=epoch,
            randomness=randomness,
        )

    # ------------------------------------------------------------------
    # Proving (provider side)
    # ------------------------------------------------------------------
    def prove(
        self, replica: SealedReplica, challenge: PoStChallenge, prover_id: bytes
    ) -> PoStProof:
        """Answer ``challenge`` using the sealed replica bytes on disk."""
        if replica.commitment.replica_root != challenge.replica_root:
            raise ValueError("challenge targets a different replica")
        chunks = chunk_bytes(replica.data, self.chunk_size)
        tree = MerkleTree(chunks)
        selected = tuple(chunks[i] for i in challenge.chunk_indices)
        proofs = tuple(tree.prove(i) for i in challenge.chunk_indices)
        return PoStProof(
            challenge=challenge,
            chunks=selected,
            merkle_proofs=proofs,
            prover_id=prover_id,
        )

    # ------------------------------------------------------------------
    # Verification (network side)
    # ------------------------------------------------------------------
    def verify(self, proof: PoStProof) -> bool:
        """Check every challenged chunk against the replica commitment."""
        challenge = proof.challenge
        if len(proof.chunks) != len(challenge.chunk_indices):
            return False
        if len(proof.merkle_proofs) != len(challenge.chunk_indices):
            return False
        for chunk, merkle_proof, index in zip(
            proof.chunks, proof.merkle_proofs, challenge.chunk_indices
        ):
            if merkle_proof.leaf_index != index:
                return False
            if not isinstance(merkle_proof, MerkleProof):
                return False
            expected_leaf = MerkleTree([chunk]).leaf_hash(0)
            if merkle_proof.leaf_hash != expected_leaf:
                return False
            if not merkle_proof.verify(challenge.replica_root):
                return False
        return True
