"""Tests for the spec's records (sector, file descriptor, allocation
table in ``tests/oracles/protocol.py``) and the pending list."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocState
from repro.core.file_descriptor import FileState
from repro.core.pending import (
    CHECK_ALLOC,
    CHECK_PROOF,
    CHECK_REFRESH,
    RENT_PERIOD,
    PendingList,
)
from repro.core.sector import SectorState

from oracles.pending_oracle import HeapPendingList
from oracles.protocol import AllocationTable, AllocEntry, FileDescriptor, SectorRecord


class TestSectorRecord:
    def test_reserve_release_roundtrip(self):
        record = SectorRecord(owner="p", sector_id="p#0", capacity=100, free_capacity=100)
        record.reserve(40)
        assert record.free_capacity == 60
        assert record.used_capacity == 40
        record.release(40)
        assert record.free_capacity == 100

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
        record.reserve(1)
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
        fd.state = FileState.NORMAL
        assert fd.is_active
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


# ----------------------------------------------------------------------
# Pending list: the columns against the heap they replaced
# ----------------------------------------------------------------------
#: Scripts of ``("schedule", time, kind, file_id, index)``,
#: ``("schedule_batch", time, kind, [file_id, ...])``,
#: ``("schedule_columns", [(time, kind, file_id, index), ...])`` and
#: ``("pop", now)`` operations.
PENDING_SCRIPTS = {
    "pop_in_time_order": [
        ("schedule", 5.0, CHECK_PROOF, 1, -1),
        ("schedule", 1.0, CHECK_ALLOC, 0, -1),
        ("schedule", 3.0, CHECK_REFRESH, 2, 1),
        ("pop", 10.0),
    ],
    "same_time_in_scheduling_order": [
        *[("schedule", 2.5, CHECK_PROOF, file_id, -1) for file_id in (4, 2, 9, 0, 7)],
        ("pop", 3.0),
    ],
    "pop_respects_now": [
        ("pop", 0.0),
        ("schedule", 1.0, CHECK_ALLOC, 0, -1),
        ("schedule", 5.0, CHECK_PROOF, 1, -1),
        ("pop", 2.0),
    ],
    "ids_carried": [("schedule", 1.0, CHECK_REFRESH, 7, 2), ("pop", 1.0)],
    "interleaved_schedule_and_pop": [
        ("schedule", 5.0, CHECK_PROOF, 1, -1),
        ("schedule", 1.0, CHECK_ALLOC, 0, -1),
        ("schedule", 5.0, CHECK_PROOF, 2, -1),
        ("pop", 1.0),
        ("schedule", 3.0, CHECK_REFRESH, 2, 1),
        ("schedule", 5.0, RENT_PERIOD, -1, -1),
        ("pop", 4.0),
        ("schedule", 4.0, CHECK_PROOF, 3, -1),
        ("pop", 5.0),
        ("pop", 10.0),
    ],
    "batch_and_columns_tie_with_single_schedules": [
        *[("schedule", 7.0, CHECK_PROOF, file_id, -1) for file_id in range(3)],
        ("schedule_batch", 7.0, CHECK_PROOF, [3, 4, 5]),
        ("schedule_columns", [(7.0, CHECK_PROOF, 6, -1), (2.0, CHECK_REFRESH, 6, 0)]),
        ("pop", 7.0),
    ],
    "rent_period_then_checkpoint": [
        ("schedule", 9.0, RENT_PERIOD, -1, -1),
        ("schedule", 4.0, CHECK_PROOF, 3, -1),
        ("pop", 4.0),
        ("pop", 9.0),
    ],
    "late_insert_before_sorted_head": [
        ("schedule", 10.0, CHECK_PROOF, 0, -1),
        ("pop", 5.0),  # sorts the queue
        ("schedule", 1.0, CHECK_ALLOC, 1, -1),  # unsorted tail
        ("pop", 2.0),
    ],
}


def replay_on_both(script):
    """Run ``script`` on the columns and on the heap; every pop and, after
    every operation, every inspection helper must agree.  Returns the pops."""
    columns, heap = PendingList(), HeapPendingList()
    pops = []
    for name, *args in script:
        if name == "pop":
            kinds, file_ids, indexes = columns.pop_due_arrays(args[0])
            got = list(zip(kinds.tolist(), file_ids.tolist(), indexes.tolist()))
            assert got == heap.pop_due(args[0]), f"pop({args[0]}) diverged"
            pops.append(got)
            continue
        if name == "schedule_batch":
            time, kind, file_ids = args
            args = (time, kind, np.asarray(file_ids, dtype=np.int64))
        elif name == "schedule_columns":
            (rows,) = args
            args = tuple(
                np.asarray([row[column] for row in rows], dtype=dtype)
                for column, dtype in enumerate((np.float64, np.int64, np.int64, np.int64))
            )
        getattr(columns, name)(*args)
        getattr(heap, name)(*args)
        assert columns.peek_time() == heap.peek_time()
        assert len(columns) == len(heap)
        assert columns.tasks() == heap.tasks()
        for kind in (CHECK_ALLOC, CHECK_PROOF, CHECK_REFRESH, RENT_PERIOD):
            assert columns.count_kind(kind) == heap.count_kind(kind)
    assert columns.tasks() == heap.tasks()
    return pops


class TestPendingList:
    @pytest.mark.parametrize("script", sorted(PENDING_SCRIPTS))
    def test_script_matches_the_heap(self, script):
        replay_on_both(PENDING_SCRIPTS[script])

    def test_the_oracle_orders_by_time_then_scheduling(self):
        (due,) = replay_on_both(PENDING_SCRIPTS["pop_in_time_order"])
        assert [kind for kind, _, _ in due] == [CHECK_ALLOC, CHECK_REFRESH, CHECK_PROOF]
        (due,) = replay_on_both(PENDING_SCRIPTS["same_time_in_scheduling_order"])
        assert [file_id for _, file_id, _ in due] == [4, 2, 9, 0, 7]
        (due,) = replay_on_both(PENDING_SCRIPTS["ids_carried"])
        assert due == [(CHECK_REFRESH, 7, 2)]

    def test_empty_list(self):
        pending = PendingList()
        assert pending.peek_time() is None and len(pending) == 0
        assert pending.tasks() == []

    def test_append_refuses_past_int32_rows_before_allocating(self):
        pending = PendingList()
        pending.schedule(1.0, CHECK_REFRESH, 7, 300)
        names = ("_time", "_kind", "_file", "_index")
        before = [getattr(pending, name).copy() for name in names]
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            pending._append(2**31 - 1)  # one row more than the bound
        for name, column in zip(names, before):
            assert np.array_equal(getattr(pending, name), column)
        assert pending.tasks() == [(1.0, CHECK_REFRESH, 7, 300)]


_TIMES = st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 7.0])
_KINDS = st.sampled_from([CHECK_ALLOC, CHECK_PROOF, CHECK_REFRESH, RENT_PERIOD])
_TASKS = st.tuples(_TIMES, _KINDS, st.integers(-1, 40), st.integers(-1, 5))
_OPERATIONS = st.one_of(
    _TASKS.map(lambda task: ("schedule", *task)),
    st.tuples(_TIMES, _KINDS, st.lists(st.integers(0, 40), max_size=6)).map(
        lambda batch: ("schedule_batch", *batch)
    ),
    st.lists(_TASKS, max_size=6).map(lambda rows: ("schedule_columns", rows)),
    st.sampled_from([0.5, 1.0, 2.5, 4.0, 7.0, math.inf]).map(lambda now: ("pop", now)),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(_OPERATIONS, max_size=40))
def test_any_interleaving_matches_the_heap(script):
    """Same-time ties everywhere (seven distinct times), pops at any time
    (also before the last one), every scheduling form interleaved."""
    replay_on_both(script)
