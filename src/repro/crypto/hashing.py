"""Content identifiers and hashing helpers.

Everything stored in the DSN -- raw files, sealed replicas, Merkle nodes,
blocks and transactions -- is addressed by the SHA-256 digest of its
canonical byte representation, mirroring how IPFS and Filecoin use CIDs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["ContentId", "hash_bytes", "hash_concat", "derive_key"]

_DIGEST_SIZE = 32


def hash_bytes(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def hash_concat(*parts: bytes) -> bytes:
    """Hash the concatenation of ``parts`` with length framing.

    Length framing prevents ambiguity between ``(b"ab", b"c")`` and
    ``(b"a", b"bc")`` which matters whenever hashes act as commitments.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def derive_key(seed: bytes, label: str, index: int = 0) -> bytes:
    """Derive a sub-key from ``seed`` bound to ``label`` and ``index``.

    Used by the PoRep simulation to derive per-provider sealing keys and by
    the beacon expansion to derive independent pseudorandom streams.
    """
    return hash_concat(seed, label.encode("utf-8"), index.to_bytes(8, "big"))


@dataclass(frozen=True, order=True)
class ContentId:
    """A content identifier: the SHA-256 digest of the addressed bytes.

    ``ContentId`` is hashable and totally ordered so it can be used as a
    dictionary key in the content store, DHT and allocation table.
    """

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != _DIGEST_SIZE:
            raise ValueError(
                f"ContentId digest must be {_DIGEST_SIZE} bytes, got {len(self.digest)}"
            )

    @classmethod
    def of(cls, data: bytes) -> "ContentId":
        """Compute the content id of ``data``."""
        return cls(hash_bytes(data))

    @property
    def hex(self) -> str:
        """Hexadecimal representation of the digest."""
        return self.digest.hex()

    def short(self, length: int = 8) -> str:
        """A short human-readable prefix, handy for logs."""
        return self.digest.hex()[:length]

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"cid:{self.short()}"
