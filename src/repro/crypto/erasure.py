"""Reed-Solomon erasure coding over GF(2^8).

Two places in the reproduction need an erasure code:

* Section VI-C: extremely large files are split into segments with a
  Reed-Solomon code so the file survives the loss of up to half of the
  segments, and each segment is then stored as an ordinary (smaller) file.
* The Storj baseline (Table IV) stores every file as erasure-coded shards.

This is a systematic Reed-Solomon implementation based on Lagrange
interpolation over GF(2^8): the first ``k`` shards are the original data
blocks and the remaining ``n - k`` shards are parity evaluations.  Any
``k`` of the ``n`` shards reconstruct the original data exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["GF256", "ReedSolomonCode", "Shard"]


class GF256:
    """Arithmetic in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1 (0x11b)."""

    _EXP: List[int] = []
    _LOG: List[int] = []
    _MUL_ROWS: Dict[int, bytes] = {}

    @classmethod
    def _ensure_tables(cls) -> None:
        if cls._EXP:
            return
        exp = [0] * 512
        log = [0] * 256
        x = 1
        for i in range(255):
            exp[i] = x
            log[x] = i
            # Multiply by the generator 0x03 (x+1), which is primitive for
            # the AES polynomial; 0x02 alone is not, so using it would leave
            # the log table partially filled.
            x ^= (x << 1)
            if x & 0x100:
                x ^= 0x11B
        for i in range(255, 512):
            exp[i] = exp[i - 255]
        cls._EXP = exp
        cls._LOG = log

    @classmethod
    def add(cls, a: int, b: int) -> int:
        """Addition (= subtraction) in GF(2^8) is XOR."""
        return a ^ b

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        """Multiplication in GF(2^8)."""
        cls._ensure_tables()
        if a == 0 or b == 0:
            return 0
        return cls._EXP[cls._LOG[a] + cls._LOG[b]]

    @classmethod
    def mul_row(cls, a: int) -> bytes:
        """The 256-byte table ``b -> a * b``, for ``bytes.translate``."""
        row = cls._MUL_ROWS.get(a)
        if row is None:
            row = cls._MUL_ROWS[a] = bytes(cls.mul(a, b) for b in range(256))
        return row

    @classmethod
    def inv(cls, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        cls._ensure_tables()
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^8)")
        return cls._EXP[255 - cls._LOG[a]]

    @classmethod
    def div(cls, a: int, b: int) -> int:
        """Division in GF(2^8)."""
        return cls.mul(a, cls.inv(b))


@dataclass(frozen=True)
class Shard:
    """One erasure-coded shard: its index among ``n`` and its payload."""

    index: int
    data: bytes


class ReedSolomonCode:
    """Systematic (n, k) Reed-Solomon code over GF(2^8).

    Data is split column-wise: byte position ``j`` of every shard is an
    independent codeword over the ``k`` data bytes at position ``j``.  Shard
    ``i`` stores the evaluation of the degree-``k-1`` interpolating
    polynomial at field point ``i + 1`` (points are 1-based so that the
    systematic property holds by construction via Lagrange interpolation).
    """

    MAX_SHARDS = 255

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards <= 0 or parity_shards < 0:
            raise ValueError("data_shards must be positive and parity_shards non-negative")
        if data_shards + parity_shards > self.MAX_SHARDS:
            raise ValueError(f"at most {self.MAX_SHARDS} total shards are supported")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards

    # ------------------------------------------------------------------
    # Lagrange interpolation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _lagrange_weights(xs: Sequence[int], x: int) -> List[int]:
        """Weights ``w`` with ``p(x) = sum(w[i] * p(xs[i]))`` for ``deg p < len(xs)``."""
        weights = []
        for i, xi in enumerate(xs):
            numerator = 1
            denominator = 1
            for j, xj in enumerate(xs):
                if i == j:
                    continue
                numerator = GF256.mul(numerator, GF256.add(x, xj))
                denominator = GF256.mul(denominator, GF256.add(xi, xj))
            weights.append(GF256.div(numerator, denominator))
        return weights

    @staticmethod
    def _combine(weights: Sequence[int], blocks: Sequence[bytes]) -> bytes:
        """The GF(2^8) linear combination ``sum(weights[i] * blocks[i])``, bytewise."""
        total = np.zeros(len(blocks[0]), dtype=np.uint8)
        for weight, block in zip(weights, blocks):
            total ^= np.frombuffer(block.translate(GF256.mul_row(weight)), dtype=np.uint8)
        return total.tobytes()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, data: bytes) -> List[Shard]:
        """Encode ``data`` into ``total_shards`` shards.

        The original length is prefixed (8 bytes) so that padding added to
        make the data divisible by ``data_shards`` can be stripped on decode.
        """
        framed = len(data).to_bytes(8, "big") + data
        shard_len = -(-len(framed) // self.data_shards)
        padded = framed.ljust(shard_len * self.data_shards, b"\x00")
        data_blocks = [
            padded[i * shard_len : (i + 1) * shard_len] for i in range(self.data_shards)
        ]
        shards = [Shard(index=i, data=data_blocks[i]) for i in range(self.data_shards)]
        xs = range(1, self.data_shards + 1)
        for index in range(self.data_shards, self.total_shards):
            weights = self._lagrange_weights(xs, index + 1)
            shards.append(Shard(index=index, data=self._combine(weights, data_blocks)))
        return shards

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, shards: Sequence[Shard]) -> bytes:
        """Reconstruct the original data from any ``data_shards`` shards."""
        available: Dict[int, bytes] = {}
        for shard in shards:
            if not 0 <= shard.index < self.total_shards:
                raise ValueError(f"shard index {shard.index} out of range")
            available[shard.index] = shard.data
        if len(available) < self.data_shards:
            raise ValueError(
                f"need at least {self.data_shards} shards, got {len(available)}"
            )
        shard_len = len(next(iter(available.values())))
        if any(len(block) != shard_len for block in available.values()):
            raise ValueError("all shards must have equal length")

        # Fast path: all systematic shards present.
        if all(i in available for i in range(self.data_shards)):
            framed = b"".join(available[i] for i in range(self.data_shards))
            return self._unframe(framed)

        chosen = sorted(available)[: self.data_shards]
        xs = [index + 1 for index in chosen]
        blocks = [available[index] for index in chosen]
        framed = b"".join(
            available[i]
            if i in available
            else self._combine(self._lagrange_weights(xs, i + 1), blocks)
            for i in range(self.data_shards)
        )
        return self._unframe(framed)

    @staticmethod
    def _unframe(framed: bytes) -> bytes:
        length = int.from_bytes(framed[:8], "big")
        payload = framed[8 : 8 + length]
        if len(payload) != length:
            raise ValueError("decoded data shorter than framed length")
        return payload
