"""Tests for sector records, file descriptors, allocation table, pending list."""

import pytest

from repro.core.allocation import AllocEntry, AllocState, AllocationTable
from repro.core.file_descriptor import FileDescriptor, FileState
from repro.core.pending import PendingList
from repro.core.sector import SectorRecord, SectorState


class TestSectorRecord:
    def test_reserve_release_roundtrip(self):
        record = SectorRecord(owner="p", sector_id="p#0", capacity=100, free_capacity=100)
        record.reserve(40)
        assert record.free_capacity == 60
        assert record.used_capacity == 40
        assert record.stored_replicas == 1
        record.release(40)
        assert record.free_capacity == 100
        assert record.stored_replicas == 0

    def test_reserve_beyond_free_rejected(self):
        record = SectorRecord(owner="p", sector_id="p#0", capacity=100, free_capacity=10)
        with pytest.raises(ValueError):
            record.reserve(11)

    def test_release_beyond_capacity_rejected(self):
        record = SectorRecord(owner="p", sector_id="p#0", capacity=100, free_capacity=100)
        with pytest.raises(ValueError):
            record.release(1)

    def test_state_predicates(self):
        record = SectorRecord(owner="p", sector_id="p#0", capacity=100, free_capacity=100)
        assert record.accepts_new_files
        record.state = SectorState.DISABLED
        assert not record.accepts_new_files
        assert record.is_drained
        record.stored_replicas = 2
        assert not record.is_drained

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SectorRecord(owner="p", sector_id="x", capacity=0, free_capacity=0)
        with pytest.raises(ValueError):
            SectorRecord(owner="p", sector_id="x", capacity=10, free_capacity=11)


class TestFileDescriptor:
    def test_valid_descriptor(self):
        fd = FileDescriptor(
            file_id=1, owner="c", size=10, value=2, merkle_root=b"\x00" * 32, replica_count=6
        )
        assert fd.is_active
        assert not fd.needs_storage
        fd.state = FileState.NORMAL
        assert fd.needs_storage
        assert "file#1" in fd.describe()

    def test_terminal_states_not_active(self):
        fd = FileDescriptor(
            file_id=1, owner="c", size=10, value=1, merkle_root=b"", replica_count=1
        )
        for state in (FileState.DISCARDED, FileState.LOST, FileState.FAILED):
            fd.state = state
            assert not fd.is_active

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FileDescriptor(file_id=1, owner="c", size=-1, value=1, merkle_root=b"", replica_count=1)
        with pytest.raises(ValueError):
            FileDescriptor(file_id=1, owner="c", size=1, value=0, merkle_root=b"", replica_count=1)
        with pytest.raises(ValueError):
            FileDescriptor(file_id=1, owner="c", size=1, value=1, merkle_root=b"", replica_count=0)


class TestAllocationTable:
    def test_set_get_and_membership(self):
        table = AllocationTable()
        entry = AllocEntry(prev="s1", state=AllocState.NORMAL)
        table.set(1, 0, entry)
        assert table.get(1, 0) is entry
        assert table.has(1, 0)
        assert table.try_get(1, 1) is None
        assert len(table) == 1

    def test_entries_for_file_ordered(self):
        table = AllocationTable()
        for index in (2, 0, 1):
            table.set(5, index, AllocEntry(prev=f"s{index}"))
        indices = [index for index, _ in table.entries_for_file(5)]
        assert indices == [0, 1, 2]

    def test_entries_on_sector_matches_prev_and_next(self):
        table = AllocationTable()
        table.set(1, 0, AllocEntry(prev="sA"))
        table.set(1, 1, AllocEntry(prev="sB", next="sA"))
        table.set(2, 0, AllocEntry(prev="sC"))
        on_a = table.entries_on_sector("sA")
        assert {(fid, idx) for fid, idx, _ in on_a} == {(1, 0), (1, 1)}

    def test_file_is_lost_requires_all_corrupted(self):
        table = AllocationTable()
        table.set(1, 0, AllocEntry(prev="sA", state=AllocState.CORRUPTED))
        table.set(1, 1, AllocEntry(prev="sB", state=AllocState.NORMAL))
        assert not table.file_is_lost(1)
        table.get(1, 1).state = AllocState.CORRUPTED
        assert table.file_is_lost(1)

    def test_file_is_lost_false_for_unknown_file(self):
        assert not AllocationTable().file_is_lost(42)

    def test_remove_file(self):
        table = AllocationTable()
        table.set(1, 0, AllocEntry())
        table.set(1, 1, AllocEntry())
        table.set(2, 0, AllocEntry())
        assert table.remove_file(1) == 2
        assert len(table) == 1

    def test_replica_locations(self):
        table = AllocationTable()
        table.set(1, 0, AllocEntry(prev="sA", state=AllocState.NORMAL))
        table.set(1, 1, AllocEntry(prev=None, next="sB", state=AllocState.ALLOC))
        assert table.replica_locations(1) == ["sA", None]


class TestPendingList:
    def test_tasks_pop_in_time_order(self):
        pending = PendingList()
        pending.schedule(5.0, "b")
        pending.schedule(1.0, "a")
        pending.schedule(3.0, "c")
        due = pending.pop_due(10.0)
        assert [task.kind for task in due] == ["a", "c", "b"]

    def test_same_time_preserves_scheduling_order(self):
        pending = PendingList()
        first = pending.schedule(2.0, "first")
        second = pending.schedule(2.0, "second")
        due = pending.pop_due(2.0)
        assert [task.kind for task in due] == ["first", "second"]
        assert first.sequence < second.sequence

    def test_pop_due_respects_now(self):
        pending = PendingList()
        pending.schedule(1.0, "early")
        pending.schedule(5.0, "late")
        assert [t.kind for t in pending.pop_due(2.0)] == ["early"]
        assert len(pending) == 1

    def test_peek_time_and_is_empty(self):
        pending = PendingList()
        assert pending.peek_time() is None
        assert pending.is_empty()
        pending.schedule(4.0, "x")
        assert pending.peek_time() == 4.0
        assert not pending.is_empty()

    def test_payload_carried(self):
        pending = PendingList()
        pending.schedule(1.0, "task", file_id=7, index=2)
        task = pending.pop_due(1.0)[0]
        assert task.payload == {"file_id": 7, "index": 2}
        assert "task" in task.describe()

    def test_tasks_snapshot_ordered(self):
        pending = PendingList()
        pending.schedule(3.0, "c")
        pending.schedule(1.0, "a")
        assert [t.kind for t in pending.tasks()] == ["a", "c"]
