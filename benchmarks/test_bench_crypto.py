"""Micro-benchmark: the whole-buffer byte paths of ``repro.crypto``.

PoRep sealing, the ``DeterministicPRNG`` keystream and Reed-Solomon each
run as one buffer operation; this file pins their throughput at 64 KiB
replicas and 16 KiB erasure-coded payloads and asserts, on every measured
output, byte equality with the per-byte / per-block / per-column loops kept
in ``tests/oracles/byte_path_oracles.py``.  Provider sectors store raw
bytes, so sealing is on no program path; it is measured here only while
the e2e ledger still probes it.

There is no ratio gate against the oracle: the end-to-end ledger
(``benchmarks/e2e``, workload ``fullstack_churn``) is the gate; the MiB/s
recorded here in ``extra_info`` say which primitive moved.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_crypto.py -q``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.crypto.erasure import ReedSolomonCode
from repro.crypto.merkle import MerkleTree
from repro.crypto.porep import PoRepProver
from repro.crypto.prng import DeterministicPRNG

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles.byte_path_oracles as oracle  # noqa: E402

MIB = 1 << 20
REPLICA_SIZE = 64 * 1024
RS_PAYLOAD_SIZE = 16 * 1024
RS_DATA_SHARDS = RS_PARITY_SHARDS = 4
KEY = b"\x07" * 32
DATA = random.Random(0).randbytes(REPLICA_SIZE)
RS_DATA = DATA[:RS_PAYLOAD_SIZE]


def measure(benchmark, record, label, function, size):
    result = benchmark.pedantic(function, rounds=5, iterations=3, warmup_rounds=1)
    mib_per_s = size / MIB / benchmark.stats["min"]
    benchmark.extra_info["mib_per_s"] = round(mib_per_s, 2)
    record(f"crypto {label} MiB/s", f"{mib_per_s:,.1f}", "n/a (engineering gate)")
    return result


def test_keystream_throughput(benchmark, record):
    stream = measure(
        benchmark,
        record,
        "random_bytes(65536)",
        lambda: DeterministicPRNG(KEY, domain="porep-seal").random_bytes(REPLICA_SIZE),
        REPLICA_SIZE,
    )
    assert stream == oracle.keystream(KEY, "porep-seal", REPLICA_SIZE)


def test_seal_throughput(benchmark, record):
    prover = PoRepProver()
    replica = measure(
        benchmark, record, "seal 64 KiB", lambda: prover.setup(DATA, KEY), REPLICA_SIZE
    )
    sealed = oracle.xor(DATA, oracle.keystream(KEY, "porep-seal", REPLICA_SIZE))
    assert replica.data == sealed
    assert replica.commitment.data_root == MerkleTree.from_data(DATA).root
    assert replica.commitment.replica_root == MerkleTree.from_data(sealed).root


def test_unseal_throughput(benchmark, record):
    # The keyed XOR stream is its own inverse: sealing the replica again
    # under the same key recovers the raw bytes (DRep recovery).
    prover = PoRepProver()
    replica = prover.setup(DATA, KEY)
    raw = measure(
        benchmark,
        record,
        "unseal 64 KiB",
        lambda: prover.setup(replica.data, KEY).data,
        REPLICA_SIZE,
    )
    assert raw == DATA
    assert raw == oracle.xor(replica.data, oracle.keystream(KEY, "porep-seal", REPLICA_SIZE))


def test_capacity_replica_throughput(benchmark, record):
    prover = PoRepProver()
    replica = measure(
        benchmark,
        record,
        "capacity replica 64 KiB",
        lambda: prover.capacity_replica(REPLICA_SIZE, KEY),
        REPLICA_SIZE,
    )
    zeros = bytes(REPLICA_SIZE)
    assert replica.data == oracle.xor(zeros, oracle.keystream(KEY, "porep-seal", REPLICA_SIZE))
    assert replica.commitment.data_root == MerkleTree.from_data(zeros).root
    assert replica.commitment.replica_root == MerkleTree.from_data(replica.data).root


def test_reed_solomon_encode_throughput(benchmark, record):
    code = ReedSolomonCode(RS_DATA_SHARDS, RS_PARITY_SHARDS)
    shards = measure(
        benchmark, record, "RS(4+4) encode 16 KiB", lambda: code.encode(RS_DATA), RS_PAYLOAD_SIZE
    )
    assert [shard.data for shard in shards] == oracle.rs_encode(
        RS_DATA_SHARDS, RS_PARITY_SHARDS, RS_DATA
    )


def test_reed_solomon_worst_case_decode_throughput(benchmark, record):
    code = ReedSolomonCode(RS_DATA_SHARDS, RS_PARITY_SHARDS)
    parity_only = code.encode(RS_DATA)[RS_DATA_SHARDS:]  # every data shard erased
    decoded = measure(
        benchmark,
        record,
        "RS(4+4) parity-only decode 16 KiB",
        lambda: code.decode(parity_only),
        RS_PAYLOAD_SIZE,
    )
    available = {shard.index: shard.data for shard in parity_only}
    assert decoded == oracle.rs_decode(RS_DATA_SHARDS, available) == RS_DATA
