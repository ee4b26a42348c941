"""Cryptographic substrate for the FileInsurer reproduction.

This package provides every cryptographic building block the FileInsurer
protocol relies on:

* :mod:`repro.crypto.hashing` -- SHA-256 based content identifiers.
* :mod:`repro.crypto.merkle` -- Merkle trees, roots and inclusion proofs.
* :mod:`repro.crypto.prng` -- a deterministic, seedable pseudorandom
  generator used to expand a short random beacon into the long stream of
  public random bits the protocol consumes.
* :mod:`repro.crypto.porep` -- a simulated Proof-of-Replication scheme
  (sealing, replica commitments and proof verification).
* :mod:`repro.crypto.post` -- simulated WindowPoSt challenge-response
  proofs of spacetime.
* :mod:`repro.crypto.erasure` -- a Reed-Solomon erasure code over GF(2^8)
  used for the extremely-large-file segmentation of Section VI-C.

The PoRep and PoSt schemes are *simulations*: sealing is a keyed
pseudorandom transform and proofs are hash commitments.  The properties the
protocol actually depends on -- replicas are provider-specific, proofs can
only be produced from data that is really held, verification is cheap, and
replicas can be re-derived from the raw file -- are all preserved.  See
the :mod:`repro.crypto.porep` module docstring for the substitution
rationale.
"""

from repro.crypto.erasure import ReedSolomonCode
from repro.crypto.hashing import ContentId, hash_bytes, hash_concat
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.porep import PoRepParams, PoRepProver, PoRepVerifier, SealedReplica
from repro.crypto.post import PoStChallenge, PoStProof, WindowPoSt
from repro.crypto.prng import DeterministicPRNG, xor_bytes

__all__ = [
    "ContentId",
    "DeterministicPRNG",
    "MerkleProof",
    "MerkleTree",
    "PoRepParams",
    "PoRepProver",
    "PoRepVerifier",
    "PoStChallenge",
    "PoStProof",
    "ReedSolomonCode",
    "SealedReplica",
    "WindowPoSt",
    "hash_bytes",
    "hash_concat",
    "xor_bytes",
]
