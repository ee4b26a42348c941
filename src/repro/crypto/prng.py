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

__all__ = ["DeterministicPRNG", "xor_bytes"]

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
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.random_uint(53) / float(1 << 53)

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

    def expovariates(self, mean: float, count: int) -> list[float]:
        """``count`` successive :meth:`expovariate` draws from one stream read.

        Equal, value for value and in the state it leaves behind, to
        calling :meth:`expovariate` ``count`` times: each draw is the top
        53 bits of the next 7 stream bytes.  The logarithm stays
        ``math.log`` per element -- ``np.log`` does not round like libm.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(
            self.random_bytes(7 * count), dtype=np.uint8
        ).reshape(count, 7)
        uniform = (words.view(">u8").ravel() >> 3) / float(1 << 53)
        log = math.log
        return [-mean * log(u) for u in (1.0 - uniform).tolist()]

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

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Return an index sampled proportionally to ``weights``."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        target = self.random() * total
        running = 0.0
        for index, weight in enumerate(weights):
            running += weight
            if target < running:
                return index
        return len(weights) - 1

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
