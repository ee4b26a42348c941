"""Simulated Proof-of-Replication (PoRep): a cost model and a sealing probe.

Filecoin's PoRep turns a file ``D`` into a provider-specific replica
``R = PoRep.setup(D, ek)`` and proves, via a SNARK over the encoding graph,
that the replica is a genuine encoding of ``D`` under key ``ek``.  What
FileInsurer's DRep argument (Section III-D) takes from it is the cost:
sealing is slow and needs a SNARK, while re-deriving a replica from the raw
file skips the SNARK.  :class:`PoRepParams` models exactly that clock.

Sealing is a modelled cost, not a transform of stored bytes: a provider
sector stores raw file bytes and size-only Capacity Replicas
(:mod:`repro.storage.provider`), because nothing reads a sealed replica.
:class:`PoRepProver` keeps the keyed stream-cipher sealing and the Merkle
commitments only as the target of the e2e ledger's ``crypto.*`` probes; no
scenario, example or CLI path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.crypto.hashing import hash_concat
from repro.crypto.merkle import MerkleTree
from repro.crypto.prng import DeterministicPRNG, xor_bytes

__all__ = ["PoRepParams", "SealedReplica", "ReplicaCommitment", "PoRepProver"]


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


def _keystream(key: bytes, length: int) -> bytes:
    return DeterministicPRNG(key, domain="porep-seal").random_bytes(length)


@lru_cache(maxsize=16)
def _zero_data_root(size: int, chunk_size: int) -> bytes:
    """Merkle root of ``size`` zero bytes: the ``data_root`` of every such CR."""
    return MerkleTree.from_data(bytes(size), chunk_size).root


class PoRepProver:
    """Provider-side PoRep sealing: replicas and their commitments."""

    def __init__(self, params: Optional[PoRepParams] = None) -> None:
        self.params = params or PoRepParams()

    def setup(self, data: bytes, encryption_key: bytes) -> SealedReplica:
        """Seal ``data`` under ``encryption_key`` and return the replica.

        The sealing transform is a keyed XOR stream -- invertible,
        key-dependent and deterministic, so a lost replica can be recomputed
        bit-for-bit from the raw data (DRep recovery).
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

