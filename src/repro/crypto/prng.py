"""Deterministic pseudorandom generator seeded from a public beacon.

Section III-F of the paper: FileInsurer needs a huge amount of on-chain
random bits and obtains them by expanding a short public random beacon with
a pseudorandom number generator.  This module implements that expansion as
a counter-mode SHA-256 stream, which is deterministic, seedable, and
reproducible across runs -- the property the network consensus requires so
that every node derives the same sector choices.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterator, Optional, Sequence, TypeVar

import numpy as np

from repro.crypto.hashing import hash_concat

__all__ = ["DeterministicPRNG", "exp_countdowns", "xor_bytes"]

T = TypeVar("T")


def xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR ``data`` with an equally long ``stream`` in one buffer operation."""
    if len(stream) != len(data):
        raise ValueError(
            f"stream is {len(stream)} bytes, data is {len(data)}: lengths must match"
        )
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


def exp_countdowns(data: bytes, mean: float, offsets: Optional[Sequence[int]] = None) -> np.ndarray:
    """``max(1, ceil(SampleExp(mean)))`` per 7-byte word of ``data``, as an int64 column.

    The words are ``data``'s consecutive ones, or those starting at
    ``offsets``; each decodes as in :meth:`DeterministicPRNG.expovariate`
    (top 53 bits over ``2**53`` are ``u``, the draw is ``-mean * log(1 -
    u)``), so the column equals ``max(1, ceil(expovariate(mean)))`` word for
    word.  ``np.log`` need not round like libm, but only ``ceil`` reads the
    draw: a draw ``x`` within ``1e-9 * max(x, 1)`` of an integer is
    recomputed with ``math.log``.  That band is about 10**6 times the widest
    gap between the two logs (at most 4 ulp, a test guards it), so no other
    draw can round up differently.
    """
    if mean <= 0:
        raise ValueError("mean must be positive")
    size = len(data)
    padded = data + b"\0"  # a word is read as 8 big-endian bytes: its 7 and the next
    if offsets is None:
        if size % 7:
            raise ValueError(f"{size} bytes do not split into 7-byte words")
        words = np.ndarray((size // 7,), ">u8", padded, strides=(7,))
    else:
        starts = np.asarray(offsets, dtype=np.int64)
        words = np.ndarray((max(size - 6, 0),), ">u8", padded, strides=(1,))[starts]
    uniforms = (words >> 11) / 2.0**53
    draws = -mean * np.log(1.0 - uniforms)
    near = np.flatnonzero(np.abs(draws - np.rint(draws)) <= 1e-9 * np.maximum(draws, 1.0))
    draws[near] = [-mean * math.log(1.0 - u) for u in uniforms[near].tolist()]
    return np.maximum(np.ceil(draws), 1.0).astype(np.int64)


class DeterministicPRNG:
    """Counter-mode SHA-256 pseudorandom stream.

    The generator hashes ``seed || domain || counter`` to produce successive
    32-byte blocks, and exposes integer, float, exponential and weighted
    sampling helpers on top of the raw stream.  All consumers in the
    protocol (sector selection, refresh countdowns, beacon expansion) use
    this class so that a simulation is fully reproducible from its seed.
    """

    def __init__(self, seed: bytes, domain: str = "fileinsurer") -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._domain = domain.encode("utf-8")
        # Block ``i`` is ``hash_concat(seed, domain, i.to_bytes(8, "big"))``;
        # everything before the counter's own 8 bytes is hashed once here.
        prefix = hashlib.sha256()
        for part in (self._seed, self._domain):
            prefix.update(len(part).to_bytes(8, "big"))
            prefix.update(part)
        prefix.update((8).to_bytes(8, "big"))
        self._prefix = prefix
        self._counter = 0
        self._buffer = b""

    # ------------------------------------------------------------------
    # Raw byte stream
    # ------------------------------------------------------------------
    def random_bytes(self, length: int) -> bytes:
        """Return ``length`` pseudorandom bytes."""
        if length < 0:
            raise ValueError("length must be non-negative")
        buffer = self._buffer
        missing = length - len(buffer)
        if missing > 0:
            prefix = self._prefix
            start = self._counter
            self._counter = start + -(-missing // prefix.digest_size)
            parts = [buffer]
            for counter in range(start, self._counter):
                block = prefix.copy()
                block.update(counter.to_bytes(8, "big"))
                parts.append(block.digest())
            buffer = b"".join(parts)
        out, self._buffer = buffer[:length], buffer[length:]
        return out

    def unread(self, count: int) -> None:
        """Push the last ``count`` bytes read back onto the stream.

        The next read returns them again, and the state -- counter and
        buffer, so :meth:`state_fingerprint` too -- is exactly that of a
        generator that never read them.  A reader may so take a window of
        the stream up front and hand back what it did not use.
        """
        block_size = self._prefix.digest_size
        read = self._counter * block_size - len(self._buffer)
        if not 0 <= count <= read:
            raise ValueError(f"cannot unread {count} of the {read} bytes read")
        if count == 0:
            return
        position = read - count
        counter = -(-position // block_size)
        kept = counter * block_size - position
        buffer = b""
        if kept:
            block = self._prefix.copy()
            block.update((counter - 1).to_bytes(8, "big"))
            buffer = block.digest()[-kept:]
        self._counter, self._buffer = counter, buffer

    # ------------------------------------------------------------------
    # Integers and floats
    # ------------------------------------------------------------------
    def random_uint(self, bits: int = 64) -> int:
        """Return a uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (nbytes * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range ``[low, high]``.

        Uses rejection sampling to avoid modulo bias, which matters because
        sector selection fairness is a protocol-level property.
        """
        if high < low:
            raise ValueError("high must be >= low")
        span = high - low + 1
        bits = span.bit_length()
        while True:
            candidate = self.random_uint(bits)
            if candidate < span:
                return low + candidate

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision.

        The value is ``random_uint(53) / 2**53``; a buffered word is read in
        place instead of through the ``random_bytes`` call chain.
        """
        word = self._buffer[:7]
        if len(word) == 7:
            self._buffer = self._buffer[7:]
        else:
            word = self.random_bytes(7)
        return (int.from_bytes(word, "big") >> 3) / 2.0**53

    def expovariate(self, mean: float) -> float:
        """Sample an exponential distribution with the given *mean*.

        Matches the paper's ``SampleExp(x)`` whose parameter is the mean
        (not the rate): refresh countdowns are drawn as
        ``SampleExp(AvgRefresh)``.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        u = self.random()
        # Guard against log(0); random() < 1 so 1-u > 0 always holds.
        return -mean * math.log(1.0 - u)

    # ------------------------------------------------------------------
    # Sequences
    # ------------------------------------------------------------------
    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly random element of ``items``."""
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, population: int, count: int) -> list[int]:
        """Sample ``count`` distinct indices from ``range(population)``."""
        if count > population:
            raise ValueError("cannot sample more indices than the population size")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.randint(0, population - 1))
        return sorted(chosen)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def spawn(self, label: str, index: int = 0) -> "DeterministicPRNG":
        """Derive an independent child generator bound to ``label``/``index``."""
        child_seed = hash_concat(
            self._seed, label.encode("utf-8"), index.to_bytes(8, "big")
        )
        return DeterministicPRNG(child_seed, domain=self._domain.decode("utf-8"))

    def stream(self, length: int) -> Iterator[int]:
        """Yield ``length`` pseudorandom bytes one integer at a time."""
        data = self.random_bytes(length)
        return iter(data)

    @classmethod
    def from_int(cls, seed: int, domain: str = "fileinsurer") -> "DeterministicPRNG":
        """Convenience constructor from an integer seed."""
        if seed < 0:
            raise ValueError("seed must be non-negative")
        encoded = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        return cls(encoded, domain=domain)

    def state_fingerprint(self) -> bytes:
        """Return a fingerprint of the generator's current state (for tests)."""
        return hash_concat(
            self._seed,
            self._domain,
            self._counter.to_bytes(8, "big"),
            self._buffer,
        )
