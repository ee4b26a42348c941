"""Golden-vector tests: the whole-buffer byte paths produce the old bytes.

Keystream, PoRep sealing, client encryption and Reed-Solomon run as single
buffer operations in ``src/``; ``byte_path_oracles`` keeps the per-byte /
per-block / per-column loops they replaced.  Everything here is byte
equality against those loops, at sizes straddling the 32-byte block.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import byte_path_oracles as oracle
from repro.crypto.erasure import ReedSolomonCode, Shard
from repro.crypto.hashing import hash_concat
from repro.crypto.merkle import MerkleTree
from repro.crypto.porep import PoRepParams, PoRepProver, PoRepVerifier
from repro.crypto.prng import DeterministicPRNG, xor_bytes
from repro.storage.client import StorageClient

SIZES = [0, 1, 31, 32, 33, 1024, 65536]
KEY = b"\x5a" * 32


def payload(size: int) -> bytes:
    return random.Random(size).randbytes(size)


# ----------------------------------------------------------------------
# xor_bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
def test_xor_bytes_matches_per_byte_xor(size):
    data, stream = payload(size), random.Random(-size - 1).randbytes(size)
    assert xor_bytes(data, stream) == oracle.xor(data, stream)


@pytest.mark.parametrize("data_len, stream_len", [(33, 32), (1, 0), (32, 33)])
def test_xor_bytes_rejects_mismatched_lengths(data_len, stream_len):
    with pytest.raises(ValueError):
        xor_bytes(bytes(data_len), bytes(stream_len))


# ----------------------------------------------------------------------
# Keystream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
def test_keystream_matches_per_block_hash_concat(size):
    prng = DeterministicPRNG(KEY, domain="porep-seal")
    reference = oracle.OracleStream(KEY, "porep-seal")
    assert prng.random_bytes(size) == reference.random_bytes(size)
    assert prng.state_fingerprint() == reference.state_fingerprint()


OPERATIONS = st.one_of(
    st.tuples(st.just("random_bytes"), st.integers(0, 200)),
    st.tuples(st.just("random_uint"), st.integers(1, 130)),
    st.tuples(st.just("randint"), st.integers(-50, 50), st.integers(0, 1000)),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.binary(max_size=40), st.lists(OPERATIONS, max_size=30))
def test_any_split_of_reads_is_one_stream(seed, operations):
    prng = DeterministicPRNG(seed, domain="split")
    reference = oracle.OracleStream(seed, "split")
    for name, *args in operations:
        if name == "randint":
            args = [args[0], args[0] + args[1]]
        assert getattr(prng, name)(*args) == getattr(reference, name)(*args)
        assert prng.state_fingerprint() == reference.state_fingerprint()
    # The reads consumed one contiguous prefix of the stream: whatever comes
    # next is what a single uninterrupted read would have produced there.
    whole = oracle.OracleStream(seed, "split")
    consumed = reference.counter * 32 - len(reference.buffer)
    assert prng.random_bytes(70) == whole.random_bytes(consumed + 70)[consumed:]


# ----------------------------------------------------------------------
# PoRep sealing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
def test_sealed_replica_and_commitment_match_oracle(size):
    data = payload(size)
    params = PoRepParams(chunk_size=64)
    prover = PoRepProver(params)
    sealed = oracle.xor(data, oracle.keystream(KEY, "porep-seal", size))

    replica = prover.setup(data, KEY)
    assert replica.data == sealed
    assert replica.commitment.data_root == MerkleTree.from_data(data, 64).root
    assert replica.commitment.replica_root == MerkleTree.from_data(sealed, 64).root
    assert replica.commitment.encryption_key_id == hash_concat(b"porep-key", KEY)
    assert replica.commitment.size == size
    assert prover.unseal(replica, KEY) == data
    assert PoRepVerifier(params).verify(prover.prove(replica, KEY), KEY)


@pytest.mark.parametrize("chunk_size", [64, 1024])
@pytest.mark.parametrize("size", SIZES)
def test_capacity_replica_is_the_sealed_zero_region(size, chunk_size):
    prover = PoRepProver(PoRepParams(chunk_size=chunk_size))
    zeros = bytes(size)
    sealed = oracle.xor(zeros, oracle.keystream(KEY, "porep-seal", size))

    replica = prover.capacity_replica(size, KEY)
    assert replica == prover.setup(zeros, KEY)
    assert replica.data == sealed
    assert replica.commitment.data_root == MerkleTree.from_data(zeros, chunk_size).root
    assert replica.commitment.replica_root == MerkleTree.from_data(sealed, chunk_size).root
    assert prover.unseal(replica, KEY) == zeros


# ----------------------------------------------------------------------
# Client-side encryption
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
def test_client_encrypt_matches_oracle(size):
    client = StorageClient("alice")
    data = payload(size)
    pad = oracle.keystream(client._encryption_key, "client-encrypt", size)
    prepared = client.prepare_file("f", data, value=1, encrypt=True)
    assert prepared.data == oracle.xor(data, pad)
    assert client.decrypt(prepared.data) == data


# ----------------------------------------------------------------------
# Reed-Solomon
# ----------------------------------------------------------------------
#: (data shards, parity shards, shard indices erased before decoding).
RS_CASES = [
    (1, 0, []),
    (1, 2, [0]),
    (2, 1, [1]),
    (3, 2, [0, 2]),
    (4, 4, [0, 1, 2, 3]),
    (4, 4, [1, 6]),
    (5, 3, [0, 4, 7]),
    (5, 3, [5, 6]),
]


def check_reed_solomon(data_shards, parity_shards, erased, size):
    data = payload(size)
    code = ReedSolomonCode(data_shards, parity_shards)
    shards = code.encode(data)
    assert [shard.index for shard in shards] == list(range(code.total_shards))
    assert [shard.data for shard in shards] == oracle.rs_encode(
        data_shards, parity_shards, data
    )
    survivors = [shard for shard in shards if shard.index not in erased]
    available = {shard.index: shard.data for shard in survivors}
    assert code.decode(survivors) == oracle.rs_decode(data_shards, available) == data


@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 1024])
@pytest.mark.parametrize("data_shards, parity_shards, erased", RS_CASES)
def test_reed_solomon_matches_per_column_interpolation(
    data_shards, parity_shards, erased, size
):
    check_reed_solomon(data_shards, parity_shards, erased, size)


def test_reed_solomon_matches_per_column_interpolation_at_64_kib():
    check_reed_solomon(4, 4, [0, 1, 2, 3], 65536)


def test_reed_solomon_decode_ignores_surplus_shards():
    data = payload(1024)
    code = ReedSolomonCode(3, 3)
    shards = code.encode(data)
    # Five survivors for k = 3: the three lowest indices are interpolated from.
    survivors = [shards[i] for i in (5, 4, 3, 2, 1)]
    available = {shard.index: shard.data for shard in survivors}
    assert code.decode(survivors) == oracle.rs_decode(3, available) == data
    assert code.decode([Shard(s.index, bytearray(s.data)) for s in survivors]) == data
