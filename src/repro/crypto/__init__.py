"""Cryptographic substrate for the FileInsurer reproduction.

This package provides the cryptographic building blocks the FileInsurer
protocol relies on:

* :mod:`repro.crypto.hashing` -- SHA-256 based content identifiers.
* :mod:`repro.crypto.merkle` -- Merkle roots.
* :mod:`repro.crypto.prng` -- a deterministic, seedable pseudorandom
  generator used to expand a short random beacon into the long stream of
  public random bits the protocol consumes.
* :mod:`repro.crypto.porep` -- a simulated Proof-of-Replication sealing
  (replicas and their commitments).
* :mod:`repro.crypto.erasure` -- a Reed-Solomon erasure code over GF(2^8)
  used for the extremely-large-file segmentation of Section VI-C.

Sealing is a *simulation*: a keyed pseudorandom transform.  The properties
the protocol depends on -- replicas are provider-specific and can be
re-derived from the raw file -- are preserved.  No storage proof is
produced or verified; the protocol's health oracle stands in for them.
See the :mod:`repro.crypto.porep` module docstring.
"""

from repro.crypto.erasure import ReedSolomonCode
from repro.crypto.hashing import ContentId, hash_bytes, hash_concat
from repro.crypto.merkle import MerkleTree
from repro.crypto.porep import PoRepParams, PoRepProver, SealedReplica
from repro.crypto.prng import DeterministicPRNG, xor_bytes

__all__ = [
    "ContentId",
    "DeterministicPRNG",
    "MerkleTree",
    "PoRepParams",
    "PoRepProver",
    "ReedSolomonCode",
    "SealedReplica",
    "hash_bytes",
    "hash_concat",
    "xor_bytes",
]
