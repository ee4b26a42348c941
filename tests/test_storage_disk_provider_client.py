"""Tests for the disk model, provider actor and client actor."""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.crypto.post import WindowPoSt
from repro.storage.disk import Disk, DiskCorruptedError, DiskFullError
from repro.storage.provider import SectorFullError, StorageProvider
from repro.storage.client import StorageClient

KIB = 1024


class TestDisk:
    def test_write_read_roundtrip(self):
        disk = Disk("d", capacity=100)
        disk.write("r1", b"abc")
        assert disk.read("r1") == b"abc"
        assert disk.used == 3
        assert disk.free == 97

    def test_overwrite_replaces_region(self):
        disk = Disk("d", capacity=10)
        disk.write("r", b"aaaa")
        disk.write("r", b"bb")
        assert disk.read("r") == b"bb"
        assert disk.used == 2

    def test_capacity_enforced(self):
        disk = Disk("d", capacity=5)
        with pytest.raises(DiskFullError):
            disk.write("r", b"toolong")

    def test_missing_region(self):
        disk = Disk("d", capacity=5)
        with pytest.raises(KeyError):
            disk.read("nope")

    def test_whole_disk_corruption(self):
        disk = Disk("d", capacity=10)
        disk.write("r", b"data")
        disk.corrupt()
        assert disk.is_corrupted
        with pytest.raises(DiskCorruptedError):
            disk.read("r")

    def test_single_region_corruption_marks_disk(self):
        disk = Disk("d", capacity=10)
        disk.write("a", b"x")
        disk.write("b", b"y")
        disk.corrupt_region("a")
        assert disk.is_corrupted  # any bit lost collapses the sector
        with pytest.raises(DiskCorruptedError):
            disk.read("a")
        assert disk.read("b") == b"y"

    def test_delete_frees_space(self):
        disk = Disk("d", capacity=4)
        disk.write("r", b"1234")
        assert disk.delete("r")
        disk.write("r2", b"abcd")
        assert disk.read("r2") == b"abcd"


def make_provider(name="prov", disk_capacity=256 * KIB):
    return StorageProvider(name, disk_capacity=disk_capacity)


class TestProviderSectors:
    def test_sector_filled_with_capacity_replicas_on_creation(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)
        assert sector.capacity_replica_count == 8
        assert sector.unsealed_space() < 16 * KIB

    def test_store_file_and_read_back(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)
        data = b"file payload" * 100
        root = MerkleTree.from_data(data, 1024).root
        sector.store_file(root, data)
        assert sector.holds_file(root)
        assert sector.read_raw_file(root) == data

    def test_drep_invariant_after_adds_and_removes(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)
        roots = []
        for i in range(3):
            data = bytes([i]) * (20 * KIB)
            root = MerkleTree.from_data(data, 1024).root
            sector.store_file(root, data)
            roots.append(root)
            assert sector.unsealed_space() < 16 * KIB
        sector.remove_file(roots[1])
        assert sector.unsealed_space() < 16 * KIB

    def test_file_plus_crs_never_exceed_sector_capacity(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)
        # The sector starts completely full of CRs; storing a small file must
        # evict a CR rather than overflow the sector.
        data = b"z" * (2 * KIB)
        root = MerkleTree.from_data(data, 1024).root
        sector.store_file(root, data)
        assert sector.unsealed_space() >= 0
        cr_bytes = sector.capacity_replica_count * 16 * KIB
        assert sector.used_by_files + cr_bytes <= sector.capacity

    def test_running_totals_match_the_stored_replicas(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)

        def check():
            file_bytes = sum(item.size for item in sector._files.values())
            cr_bytes = sum(item.size for item in sector._capacity_replicas)
            assert sector.used_by_files == file_bytes
            assert sector.free_capacity == sector.capacity - file_bytes
            assert sector.unsealed_space() == sector.capacity - file_bytes - cr_bytes
            assert provider.disk.used == file_bytes + cr_bytes

        check()
        blobs = [bytes([i]) * size for i, size in enumerate((20 * KIB, 3 * KIB, 40 * KIB))]
        roots = [MerkleTree.from_data(blob, 1024).root for blob in blobs]
        for root, blob in zip(roots, blobs):
            sector.store_file(root, blob)
            check()
        sector.store_file(roots[0], blobs[0])  # re-storing replaces, not double counts
        check()
        for root in (roots[2], roots[0], roots[0]):
            sector.remove_file(root)
            check()
        assert sector.used_by_files == 3 * KIB

    def test_sector_capacity_enforced(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 64 * KIB, capacity_replica_size=16 * KIB)
        with pytest.raises(SectorFullError):
            sector.store_file(b"\x00" * 32, b"x" * (65 * KIB))

    def test_disk_space_shared_across_sectors(self):
        provider = make_provider(disk_capacity=128 * KIB)
        provider.create_sector("s0", 64 * KIB, capacity_replica_size=16 * KIB)
        provider.create_sector("s1", 64 * KIB, capacity_replica_size=16 * KIB)
        with pytest.raises(ValueError):
            provider.create_sector("s2", 64 * KIB, capacity_replica_size=16 * KIB)

    def test_duplicate_sector_id_rejected(self):
        provider = make_provider()
        provider.create_sector("s0", 64 * KIB, capacity_replica_size=16 * KIB)
        with pytest.raises(ValueError):
            provider.create_sector("s0", 64 * KIB, capacity_replica_size=16 * KIB)

    def test_remove_unknown_file_returns_false(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 64 * KIB, capacity_replica_size=16 * KIB)
        assert not sector.remove_file(b"\x01" * 32)


class TestProviderProofs:
    def test_healthy_provider_produces_valid_post(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)
        data = b"proof me" * 200
        root = MerkleTree.from_data(data, 1024).root
        sector.store_file(root, data)
        post = provider.window_post
        challenge = post.make_challenge(sector.commitment_for(root), epoch=1, beacon_value=b"r")
        proof = sector.prove_file(root, challenge)
        assert post.verify(proof)

    def test_crashed_provider_cannot_prove(self):
        provider = make_provider()
        sector = provider.create_sector("s0", 128 * KIB, capacity_replica_size=16 * KIB)
        data = b"gone" * 300
        root = MerkleTree.from_data(data, 1024).root
        sector.store_file(root, data)
        challenge = provider.window_post.make_challenge(
            sector.commitment_for(root), epoch=1, beacon_value=b"r"
        )
        provider.crash()
        assert not provider.is_healthy()
        with pytest.raises(DiskCorruptedError):
            sector.prove_file(root, challenge)

    def test_sealing_keys_differ_across_providers(self):
        a = make_provider("a")
        b = make_provider("b")
        assert a.sealing_key("s0", "r") != b.sealing_key("s0", "r")


class TestStorageClient:
    def test_prepare_computes_merkle_root(self):
        client = StorageClient("alice")
        prepared = client.prepare_file("f", b"hello" * 100, value=2)
        assert prepared.size == 500
        assert prepared.value == 2
        assert client.verify_retrieved(prepared.merkle_root, prepared.data)

    def test_encryption_roundtrip(self):
        client = StorageClient("alice")
        prepared = client.prepare_file("secret", b"private data", value=1, encrypt=True)
        assert prepared.data != b"private data"
        assert client.decrypt(prepared.data) == b"private data"

    def test_verify_rejects_tampered_payload(self):
        client = StorageClient("alice")
        prepared = client.prepare_file("f", b"payload", value=1)
        assert not client.verify_retrieved(prepared.merkle_root, b"tampered")

    def test_invalid_value_rejected(self):
        client = StorageClient("alice")
        with pytest.raises(ValueError):
            client.prepare_file("f", b"x", value=0)

    def test_prepared_files_listed(self):
        client = StorageClient("alice")
        client.prepare_file("a", b"1", value=1)
        client.prepare_file("b", b"2", value=1)
        assert len(client.prepared_files()) == 2
