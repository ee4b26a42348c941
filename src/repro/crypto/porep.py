"""Simulated Proof-of-Replication (PoRep).

Filecoin's PoRep turns a file ``D`` into a provider-specific replica
``R = PoRep.setup(D, ek)`` and proves, via a SNARK over the encoding graph,
that the replica is a genuine encoding of ``D`` under key ``ek``.  The
protocol-level properties FileInsurer uses are:

1. replicas are bound to an encryption key (so one provider cannot serve
   another provider's replica, defeating Sybil attacks);
2. the replica can be decoded back to the raw file, and re-encoded from the
   raw file if it is lost (this is what makes DRep cheap);
3. sealing is slow and sequential while verification is fast;
4. the verifier only needs the replica commitment (a Merkle root), not the
   replica itself.

We reproduce those properties with a keyed pseudorandom stream cipher as
the sealing transform and a hash/Merkle commitment scheme as the "SNARK".
The simulated proof is checked by recomputing the commitment relation,
which only a prover holding the actual replica (or the raw data plus the
key) can satisfy.  An explicit cost model records how long real sealing and
proving would take, so higher layers can charge realistic time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from repro.crypto.hashing import ContentId, derive_key, hash_concat
from repro.crypto.merkle import MerkleTree, chunk_bytes
from repro.crypto.prng import DeterministicPRNG, xor_bytes

__all__ = [
    "PoRepParams",
    "SealedReplica",
    "ReplicaCommitment",
    "PoRepProof",
    "PoRepProver",
    "PoRepVerifier",
]


@dataclass(frozen=True)
class PoRepParams:
    """Cost model and encoding parameters for the simulated PoRep.

    ``seal_seconds_per_gib`` and ``snark_seconds`` are *modelled* costs used
    by the simulation's clock; they do not slow the host Python process.
    The defaults are in the ballpark of published Filecoin sealing numbers
    but any value works -- the protocol only needs sealing to be much more
    expensive than verification.
    """

    chunk_size: int = 1024
    seal_seconds_per_gib: float = 3600.0
    snark_seconds: float = 600.0
    verify_seconds: float = 0.01

    def seal_time(self, size_bytes: int) -> float:
        """Modelled wall-clock seconds to seal ``size_bytes`` of data."""
        gib = size_bytes / float(1 << 30)
        return gib * self.seal_seconds_per_gib + self.snark_seconds

    def recovery_time(self, size_bytes: int) -> float:
        """Modelled seconds to re-derive a replica from raw data.

        Re-derivation skips the SNARK (the commitment was already verified
        once), which is exactly the saving DRep exploits.
        """
        gib = size_bytes / float(1 << 30)
        return gib * self.seal_seconds_per_gib


@dataclass(frozen=True)
class ReplicaCommitment:
    """Public commitment to a sealed replica (``comm_r``) and its raw data."""

    data_root: bytes
    replica_root: bytes
    encryption_key_id: bytes
    size: int


@dataclass(frozen=True)
class SealedReplica:
    """A sealed replica held by a provider."""

    data: bytes
    commitment: ReplicaCommitment

    @property
    def size(self) -> int:
        """Size in bytes of the sealed replica (equals the raw size)."""
        return len(self.data)

    @property
    def replica_id(self) -> ContentId:
        """Content id of the sealed bytes."""
        return ContentId.of(self.data)


@dataclass(frozen=True)
class PoRepProof:
    """Simulated SNARK proving a replica encodes committed data under a key."""

    commitment: ReplicaCommitment
    binding: bytes

    def is_well_formed(self) -> bool:
        """Cheap structural check (stand-in for SNARK syntax validation)."""
        return len(self.binding) == 32


def _keystream(key: bytes, length: int) -> bytes:
    return DeterministicPRNG(key, domain="porep-seal").random_bytes(length)


@lru_cache(maxsize=16)
def _zero_data_root(size: int, chunk_size: int) -> bytes:
    """Merkle root of ``size`` zero bytes: the ``data_root`` of every such CR."""
    return MerkleTree.from_data(bytes(size), chunk_size).root


class PoRepProver:
    """Provider-side PoRep operations: setup (sealing), proving, unsealing."""

    def __init__(self, params: Optional[PoRepParams] = None) -> None:
        self.params = params or PoRepParams()

    def setup(self, data: bytes, encryption_key: bytes) -> SealedReplica:
        """Seal ``data`` under ``encryption_key`` and return the replica.

        The sealing transform is a keyed XOR stream -- invertible (property
        2), key-dependent (property 1) and deterministic so a lost replica
        can be recomputed bit-for-bit from the raw data (DRep recovery).
        """
        sealed = xor_bytes(data, _keystream(encryption_key, len(data)))
        data_root = MerkleTree.from_data(data, self.params.chunk_size).root
        return self._commit(sealed, data_root, encryption_key)

    def _commit(
        self, sealed: bytes, data_root: bytes, encryption_key: bytes
    ) -> SealedReplica:
        commitment = ReplicaCommitment(
            data_root=data_root,
            replica_root=MerkleTree.from_data(sealed, self.params.chunk_size).root,
            encryption_key_id=hash_concat(b"porep-key", encryption_key),
            size=len(sealed),
        )
        return SealedReplica(data=sealed, commitment=commitment)

    def unseal(self, replica: SealedReplica, encryption_key: bytes) -> bytes:
        """Recover the raw data from a sealed replica."""
        return xor_bytes(replica.data, _keystream(encryption_key, len(replica.data)))

    def prove(self, replica: SealedReplica, encryption_key: bytes) -> PoRepProof:
        """Produce the (simulated) SNARK binding replica, data and key."""
        binding = hash_concat(
            b"porep-proof",
            replica.commitment.data_root,
            replica.commitment.replica_root,
            encryption_key,
        )
        return PoRepProof(commitment=replica.commitment, binding=binding)

    def capacity_replica(self, size: int, encryption_key: bytes) -> SealedReplica:
        """Seal an all-zeros region of ``size`` bytes (a Capacity Replica).

        CRs prove that free sector space is really available.  Because the
        raw data is all zeros, a discarded CR can always be regenerated --
        and the sealed bytes are the keystream itself, with a ``data_root``
        that depends only on ``(size, chunk_size)``.
        """
        return self._commit(
            _keystream(encryption_key, size),
            _zero_data_root(size, self.params.chunk_size),
            encryption_key,
        )


class PoRepVerifier:
    """Network-side verification of PoRep proofs.

    Real verification checks a SNARK against ``comm_d``/``comm_r``.  The
    simulation recomputes the binding hash given the claimed key id; a
    prover who never sealed the data cannot produce a binding that matches
    both roots, so the acceptance condition is equivalent for our purposes.
    """

    def __init__(self, params: Optional[PoRepParams] = None) -> None:
        self.params = params or PoRepParams()

    def verify(self, proof: PoRepProof, encryption_key: bytes) -> bool:
        """Verify ``proof`` against the encryption key it claims to use."""
        if not proof.is_well_formed():
            return False
        if proof.commitment.encryption_key_id != hash_concat(b"porep-key", encryption_key):
            return False
        expected = hash_concat(
            b"porep-proof",
            proof.commitment.data_root,
            proof.commitment.replica_root,
            encryption_key,
        )
        return expected == proof.binding

    def verify_commitment_against_data(
        self, commitment: ReplicaCommitment, data: bytes
    ) -> bool:
        """Check that ``commitment.data_root`` really commits to ``data``."""
        root = MerkleTree.from_data(data, self.params.chunk_size).root
        return root == commitment.data_root and commitment.size == len(data)
