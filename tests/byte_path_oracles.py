"""Per-byte / per-block oracles for the whole-buffer byte paths.

The loops ``src/repro/crypto`` ran before its byte paths became single
buffer operations, kept as the reference the golden-vector tests
(``test_crypto_byte_paths.py``) and the crypto micro-benchmark
(``benchmarks/test_bench_crypto.py``) compare against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.crypto.erasure import GF256
from repro.crypto.hashing import hash_concat


def xor(data: bytes, stream: bytes) -> bytes:
    """One Python iteration per byte."""
    return bytes(a ^ b for a, b in zip(data, stream))


class OracleStream:
    """Counter-mode SHA-256, one ``hash_concat`` and one append per block."""

    def __init__(self, seed: bytes, domain: str = "fileinsurer") -> None:
        self.seed = seed
        self.domain = domain.encode("utf-8")
        self.counter = 0
        self.buffer = b""

    def random_bytes(self, length: int) -> bytes:
        while len(self.buffer) < length:
            self.buffer += hash_concat(
                self.seed, self.domain, self.counter.to_bytes(8, "big")
            )
            self.counter += 1
        out, self.buffer = self.buffer[:length], self.buffer[length:]
        return out

    def random_uint(self, bits: int) -> int:
        nbytes = (bits + 7) // 8
        return int.from_bytes(self.random_bytes(nbytes), "big") >> (nbytes * 8 - bits)

    def randint(self, low: int, high: int) -> int:
        span = high - low + 1
        while True:
            candidate = self.random_uint(span.bit_length())
            if candidate < span:
                return low + candidate

    def state_fingerprint(self) -> bytes:
        return hash_concat(
            self.seed, self.domain, self.counter.to_bytes(8, "big"), self.buffer
        )


def keystream(seed: bytes, domain: str, length: int) -> bytes:
    return OracleStream(seed, domain).random_bytes(length)


def _interpolate(points: Sequence[Tuple[int, int]], x: int) -> int:
    """Evaluate at ``x`` the GF(2^8) polynomial through ``points`` [(xi, yi)]."""
    result = 0
    for i, (xi, yi) in enumerate(points):
        numerator = denominator = 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                numerator = GF256.mul(numerator, x ^ xj)
                denominator = GF256.mul(denominator, xi ^ xj)
        result ^= GF256.mul(yi, GF256.div(numerator, denominator))
    return result


def rs_encode(data_shards: int, parity_shards: int, data: bytes) -> List[bytes]:
    """Systematic Reed-Solomon shards, interpolated column by column."""
    framed = len(data).to_bytes(8, "big") + data
    shard_len = -(-len(framed) // data_shards)
    padded = framed.ljust(shard_len * data_shards, b"\x00")
    blocks = [padded[i * shard_len : (i + 1) * shard_len] for i in range(data_shards)]
    parity = [bytearray(shard_len) for _ in range(parity_shards)]
    for column in range(shard_len):
        points = [(i + 1, blocks[i][column]) for i in range(data_shards)]
        for p in range(parity_shards):
            parity[p][column] = _interpolate(points, data_shards + p + 1)
    return blocks + [bytes(block) for block in parity]


def rs_decode(data_shards: int, available: Dict[int, bytes]) -> bytes:
    """Recover the framed payload from ``{shard index: bytes}``, column by column."""
    chosen = sorted(available)[:data_shards]
    shard_len = len(available[chosen[0]])
    blocks = [bytearray(shard_len) for _ in range(data_shards)]
    for column in range(shard_len):
        points = [(index + 1, available[index][column]) for index in chosen]
        for i in range(data_shards):
            blocks[i][column] = _interpolate(points, i + 1)
    framed = b"".join(bytes(block) for block in blocks)
    length = int.from_bytes(framed[:8], "big")
    return framed[8 : 8 + length]
