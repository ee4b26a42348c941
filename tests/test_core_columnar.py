"""What the columnar protocol engine shows beyond its state.

The engine differential -- :class:`repro.core.columnar.ColumnarProtocol`
leaving the Figure 1 spec's state after every op stream -- is the state
machine of ``tests/test_engine_machine.py``.  The tests here pin what that
machine does not see: which path a run took (the ``protocol.*`` counter
splits, spans, views built, stream reads), the table facades, the
admission prefix, the free column a placement hands the kernel, the dispatch of ``advance_time`` and the proof-sweep mask.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import pending as pending_module
from repro.core.allocation import AllocState
from repro.core.columnar import (
    _A_CORRUPTED,
    _ABSENT,
    AllocEntryView,
    ColumnarProtocol,
    FileView,
    SectorView,
    _appears_once,
    _grow,
)
from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.core.pending import CHECK_ALLOC, CHECK_PROOF, CHECK_REFRESH, RENT_PERIOD
from repro.core.protocol import ProtocolError
from repro.crypto.prng import DeterministicPRNG
from repro.kernels.vectorized import VectorizedKernels

from oracles.harness import ENGINES, ROOT, deploy, identity, replay
from oracles.protocol import fingerprint
from oracles.proof_sweep_oracle import proof_sweep_mask
from test_engine_machine import STARTS

KIB = 1 << 10

def traced_events(protocol, until):
    """``advance_time`` with telemetry on; returns the raw events."""
    telemetry.enable()
    try:
        with telemetry.capture() as events:
            protocol.advance_time(until)
    finally:
        telemetry.disable()
        telemetry.drain()
    return events


def traced_advance(protocol, until):
    """``advance_time`` with telemetry on; returns the counter totals."""
    return telemetry.summarize_events(traced_events(protocol, until))["counters"]


class TestMaskedSweepVisibility:
    """The proof sweep and the refresh completions report how much of each
    run left the columns -- and after a crash that is the lost and the
    sick-hosted files, not the run (the regression this guards against:
    one corrupted sector used to send every later sweep down the per-file
    path)."""

    def _stored(self, files=40, **overrides):
        protocol = deploy(providers=8, backend="vectorized", **overrides)
        ids = protocol.file_add_batch("client", [64 * 1024] * files, [1] * files, ROOT)
        protocol.confirm_batch(ids)
        protocol.advance_time(130.0)
        return protocol, ids

    def test_post_crash_sweep_is_scalar_only_for_lost_and_sick_hosted_files(self):
        protocol, ids = self._stored()
        sectors = sorted(protocol.sectors)
        for sector_id in sectors[:4]:
            protocol.crash_sector(sector_id)
        protocol.health_oracle.sick.add(sectors[4])
        expected = 0
        for file_id in ids:
            hosts = [
                entry.prev
                for _, entry in protocol.alloc.entries_for_file(file_id)
                if entry.state != AllocState.CORRUPTED
            ]
            expected += not hosts or sectors[4] in hosts
        assert 0 < expected < len(ids)
        totals = traced_advance(protocol, 190.0)
        assert protocol.files_lost > 0
        assert totals["protocol.proof_sweep.scalar_files"] == expected
        assert totals["protocol.proof_sweep.vector_files"] == len(ids) - expected

    def test_mask_is_rederived_when_a_sector_is_corrupted_mid_run(self):
        """A silent sector breaches the proof deadline at the first file it
        hosts; the epoch moved, so the rest of the run is re-masked and
        its other files -- their rows there now corrupted, the remaining
        hosts healthy -- go back to the columns."""
        protocol, ids = self._stored()
        silent = sorted(protocol.sectors)[0]
        protocol.health_oracle.sick.add(silent)
        hosted = sum(
            silent in protocol.alloc.replica_locations(file_id) for file_id in ids
        )
        assert hosted > 1
        protocol.advance_time(protocol.now + 300.0)  # late, not yet past the deadline
        assert not protocol.sectors[silent].is_corrupted
        totals = traced_advance(protocol, protocol.now + 60.0)
        assert protocol.sectors[silent].is_corrupted
        assert protocol.files_lost == 0
        assert totals["protocol.proof_sweep.scalar_files"] == 1
        assert totals["protocol.proof_sweep.vector_files"] == len(ids) - 1

    def test_confirmed_refreshes_complete_in_the_columns(self):
        protocol, _ = self._stored()
        while not protocol.refresh_notices:
            protocol.advance_time(protocol.now + 60.0)
        replay(protocol, [("confirm_refreshes",)])
        confirmed = list(protocol.refresh_notices)
        totals = traced_advance(protocol, max(n.deadline for n in confirmed))
        assert totals["protocol.refresh_check.vector_tasks"] == len(confirmed)
        assert totals["protocol.refresh_check.scalar_tasks"] == 0
        assert protocol.events.count(EventType.FILE_REFRESH_COMPLETED) == len(confirmed)

    @pytest.mark.parametrize("run", [1, 2, 5])
    def test_a_refresh_run_of_one_task_takes_the_row_form(self, run):
        """Where the sweep starts: the refresh mask costs a dozen array
        operations whatever the run length, several times the row form of
        one task, and a run of one has nothing to batch -- so a run of one
        task completes in the row form (``fullstack_churn``'s runs are
        nearly all single tasks) and a run of two or more in the columns
        (``fill_prove``'s and ``refresh_storm``'s are thousands long).
        Either way the state is the spec's (the engine machine's
        ``tied_deadlines`` start runs only runs of one)."""
        protocol = deploy(avg_refresh=0.01)
        stored(protocol, run)
        replay(protocol, [("step",)])  # the first checkpoint starts a refresh of every file
        assert len(protocol.refresh_notices) == run
        replay(protocol, [("confirm_refreshes",)])
        totals = traced_advance(protocol, protocol.refresh_notices[0].deadline)
        assert protocol.events.count(EventType.FILE_REFRESH_COMPLETED) == run
        swept = totals.get("protocol.refresh_check.vector_tasks", 0)
        assert swept == (0 if run == 1 else run)
        assert totals.get("protocol.refresh_check.scalar_tasks", 0) == run - swept

    def test_refresh_starts_split_like_the_sweep(self):
        """Every file is due at every checkpoint (avg_refresh -> countdown
        1): the swept files start their refreshes in the columns, counted
        once per stretch, and only the files of the silent sector -- scalar
        in the sweep -- go through per-file ``_auto_refresh`` and its span."""
        protocol, ids = self._stored(avg_refresh=0.01)
        protocol.health_oracle.sick.add(sorted(protocol.sectors)[0])
        before = len(protocol.refresh_notices)
        summary = telemetry.summarize_events(
            traced_events(protocol, protocol.now + 60.0)
        )
        totals = summary["counters"]
        scalar = totals["protocol.proof_sweep.scalar_files"]
        assert 0 < scalar < len(ids)
        assert summary["spans"]["protocol.refresh"]["count"] == scalar
        assert (
            totals["protocol.refresh_start.vector_files"]
            == totals["protocol.proof_sweep.vector_files"]
            == len(ids) - scalar
        )
        assert totals["protocol.refresh_notices"] == len(protocol.refresh_notices) - before


class TestFastPathCounters:
    """Spans on the batch entry points, and the two fast paths that used
    to be invisible: the kernel's optimistic place prefix and the
    selector's prefetched refresh-target draws."""

    def test_batch_spans_and_fast_path_counters(self):
        protocol = deploy(providers=8, backend="vectorized", draw_batch=8)
        telemetry.enable()
        try:
            with telemetry.capture() as events:
                ids = protocol.file_add_batch(
                    "client", [64 * 1024] * 40, [1] * 40, ROOT
                )
                protocol.confirm_batch(ids)
                protocol.advance_time(400.0)
                protocol.crash_sector(sorted(protocol.sectors)[0])  # flushes
                protocol.advance_time(800.0)
        finally:
            telemetry.reset()
        summary = telemetry.summarize_events(events)
        assert {
            "protocol.file_add_batch",
            "protocol.confirm_batch",
            "protocol.advance_time",
            "protocol.check_alloc_run",
        } <= set(summary["spans"])
        totals = summary["counters"]
        # Every replica of the fill was placed by one of the two paths.
        replicas = int(protocol.files.replica_count[: len(ids)].sum())
        assert (
            totals["kernel.place.prefix_accepted"]
            + totals.get("kernel.place.scalar_fallback", 0)
            == replicas
        )
        # Every refresh-target draw was a refill or a prefetch hit, and
        # every prefetched draw was served, flushed or is still buffered.
        draws = protocol.events.count(
            EventType.FILE_REFRESH_STARTED
        ) + protocol.events.count(EventType.COLLISION_RESAMPLED)
        hits, refills, flushed = (
            totals.get(f"protocol.prefetch.{name}", 0)
            for name in ("hits", "refills", "flushed")
        )
        assert hits > 0 and refills > 0 and flushed > 0
        assert hits + refills == draws
        assert refills * 8 == draws + flushed + len(protocol.selector._draw_buffer)
        assert protocol.selector.take_prefetch_counts() == (0, 0, 0)

    @pytest.mark.parametrize("files", [10, 80])
    def test_a_stretch_reports_its_refresh_starts_once(self, files):
        """One stretch, however many files refresh in it: one counter event
        per name (``protocol.refresh_notices`` carrying its amount) and no
        per-file ``protocol.refresh`` span."""
        protocol = deploy(
            providers=8, backend="vectorized", draw_batch=8,
            avg_refresh=0.01, cap_para=100.0,
        )
        stored(protocol, files)
        events = traced_events(protocol, protocol.pending.peek_time())
        names = [event["name"] for event in events]
        assert "protocol.refresh" not in names
        for name in ("vector_files", "postponed", "collided"):
            assert names.count(f"protocol.refresh_start.{name}") == 1
        assert names.count("protocol.refresh_notices") == 1
        totals = telemetry.summarize_events(events)["counters"]
        started = protocol.events.count(EventType.FILE_REFRESH_STARTED)
        assert totals["protocol.refresh_start.vector_files"] == files
        assert totals["protocol.refresh_notices"] == started == len(protocol.refresh_notices)
        assert totals["protocol.refresh_start.collided"] == protocol.events.count(
            EventType.COLLISION_RESAMPLED
        )
        assert (
            started
            + totals["protocol.refresh_start.collided"]
            + totals["protocol.refresh_start.postponed"]
            == files
        )

    def test_healthy_refresh_cycle_constructs_no_view(self, monkeypatch):
        """refresh_storm's healthy op sequence -- one proof cycle, then
        ``file_confirm`` of every live notice -- stays on table rows."""
        protocol = deploy(
            providers=20, backend="vectorized", draw_batch=64,
            avg_refresh=4.0, cap_para=100.0,
        )
        stored(protocol, 200)
        built = []
        for view in (SectorView, FileView, AllocEntryView):
            def counting(self, table, row, _init=view.__init__, _name=view.__name__):
                built.append(_name)
                _init(self, table, row)
            monkeypatch.setattr(view, "__init__", counting)
        sectors = protocol.sectors
        seen = 0
        for _ in range(6):
            protocol.advance_time(protocol.now + protocol.params.proof_cycle)
            for notice in protocol.refresh_notices[seen:]:
                assert notice.deadline >= protocol.now
                protocol.file_confirm(
                    sectors.owners[sectors.row_of(notice.target_sector)],
                    notice.file_id,
                    notice.replica_index,
                    notice.target_sector,
                )
            seen = len(protocol.refresh_notices)
        assert seen > 100
        assert protocol.events.count(EventType.FILE_REFRESH_COMPLETED) > 100
        assert protocol.events.count(EventType.FILE_REFRESH_FAILED) == 0
        assert built == []

    def test_file_add_batch_hands_the_kernel_one_place_run(self):
        """fill_prove's op sequence at toy shape: each ``file_add_batch``
        is one kernel request holding one ``place`` op whose sizes are an
        ``int64`` column -- no per-replica Python object on the way -- and
        the two place paths still account for every replica."""

        class Recording(VectorizedKernels):
            requests = []

            def batch_weighted_draw(self, rng, weights, ops, free=None):
                self.requests.append(ops)
                return super().batch_weighted_draw(rng, weights, ops, free)

        backend = Recording()
        protocol = deploy(
            providers=200, capacity_mb=1, backend=backend,
            draw_batch=64, cap_para=100.0, avg_refresh=50.0,
        )
        files, batch, size = 2_000, 500, 8 * 1024
        telemetry.enable()
        try:
            with telemetry.capture() as events:
                for _ in range(files // batch):
                    ids = protocol.file_add_batch(
                        "client", [size] * batch, [1] * batch, ROOT
                    )
                    protocol.confirm_batch(ids)
                protocol.advance_time(protocol.pending.peek_time())
        finally:
            telemetry.reset()
        assert protocol.files_stored == files
        replicas = int(protocol.files.replica_count[:files].sum())
        assert len(backend.requests) == files // batch
        for ops in backend.requests:
            ((kind, sizes, max_attempts),) = ops
            assert kind == "place" and max_attempts == protocol.selector.max_attempts
            assert isinstance(sizes, np.ndarray) and sizes.dtype == np.int64
            assert sizes.shape == (replicas // len(backend.requests),)
        totals = telemetry.summarize_events(events)["counters"]
        assert (
            totals["kernel.place.prefix_accepted"]
            + totals.get("kernel.place.scalar_fallback", 0)
            == replicas
        )

    def test_disabled_advance_leaves_the_prefetch_tally_untaken(self):
        protocol = deploy(providers=8, draw_batch=4)
        replay(protocol, [("batch", [64 * KIB] * 40, 1), ("advance", 400.0)])
        _, refills, flushed = protocol.selector.take_prefetch_counts()
        assert refills > 0 and flushed == 0
        assert protocol.selector.take_prefetch_counts() == (0, 0, 0)


class TestColumnarFacades:
    """The SoA tables must honour the dict/record APIs callers read."""

    def test_sector_views_read_the_live_columns(self):
        protocol = deploy(providers=3)
        sector_id = sorted(protocol.sectors)[0]
        record = protocol.sectors[sector_id]
        assert record.sector_id == sector_id
        assert sector_id in protocol.sectors
        assert len(protocol.sectors) == 3
        assert set(protocol.sectors.keys()) == set(protocol.sectors)
        free = record.free_capacity
        row = protocol.sectors.row_of(sector_id)
        protocol.sectors.free[row] -= 1024
        assert record.free_capacity == free - 1024
        with pytest.raises(AttributeError):
            record.free_capacity = free

    def test_file_views_roundtrip(self):
        protocol = deploy()
        (file_id,) = protocol.file_add_batch("client", [4096], [2], ROOT)
        descriptor = protocol.files[file_id]
        assert descriptor.owner == "client"
        assert descriptor.state == FileState.PENDING
        assert descriptor.is_active
        assert protocol.files.get(file_id) is not None
        assert protocol.files.get(file_id + 999) is None
        assert protocol.files.get("bogus") is None
        with pytest.raises(KeyError):
            protocol.files[file_id + 999]

    def test_alloc_facade_queries(self):
        protocol = deploy()
        ids = protocol.file_add_batch("client", [4096] * 3, [1] * 3, ROOT)
        k = protocol.params.k
        for fid in ids:
            entries = protocol.alloc.entries_for_file(fid)
            assert [index for index, _ in entries] == list(range(k))
            locations = protocol.alloc.replica_locations(fid)
            assert len(locations) == k
        assert len(protocol.alloc) == len(ids) * k
        assert protocol.alloc.awaiting(ids[0]) == [
            (index, entry.next) for index, entry in protocol.alloc.entries_for_file(ids[0])
        ]
        assert not protocol.alloc.file_is_lost(ids[0])


# ----------------------------------------------------------------------
# Refresh in columns: what the batched refresh start reaches and reports
# ----------------------------------------------------------------------
DRAW_BATCHES = (1, 8, 64)


def stored(protocol, files, size=64 * 1024, values=None):
    ids = protocol.file_add_batch("client", [size] * files, values or [1] * files, ROOT)
    protocol.confirm_batch(ids)
    replay(protocol, [("step",)])  # CheckAlloc
    assert protocol.files_stored == files
    return ids


def traced_start(name, draw_batch=1, prepare=None):
    """The columnar engine replaying the op list of the engine machine's
    start ``name`` (the machine holds its state to the spec's), traced:
    the protocol, its identity after every ``step`` and the telemetry
    summary."""
    shape, _, ops = STARTS[name]
    protocol = deploy(backend="vectorized", draw_batch=draw_batch, **shape)
    if prepare is not None:
        prepare(protocol)
    stages = []
    telemetry.enable()
    try:
        with telemetry.capture() as events:
            for op in ops:
                replay(protocol, [op])
                if op == ("step",):
                    stages.append(identity(protocol))
    finally:
        telemetry.reset()
    return protocol, stages, telemetry.summarize_events(events)


class CountingPRNG(DeterministicPRNG):
    """Counts the reads of the stream."""

    reads = 0

    def random_bytes(self, length: int) -> bytes:
        self.reads += 1
        return super().random_bytes(length)


class TestRefreshInColumns:
    """Sequential decisions, columnar effects: each case is a start of the
    engine machine that the batched refresh start could get wrong while
    every ordinary run still matched.  Here: the start reaches its case,
    and the run reports it, at every ``draw_batch``."""

    def test_second_refresh_of_a_stretch_collides_on_a_sector_the_first_filled(self):
        shape, _, ops = STARTS["collisions"]
        for draw_batch in DRAW_BATCHES:
            spec = deploy("object", backend="vectorized", draw_batch=draw_batch, **shape)
            selector, at_start, in_stretch = spec.selector, {}, []
            advance, draw = spec.advance_time, selector.random_slot

            def recording_advance(until):
                at_start.update((sid, rec.free_capacity) for sid, rec in spec.sectors.items())
                advance(until)

            def recording_draw():
                """The spec reserves at every start, so a draw's target
                shows the room this step's earlier starts left."""
                slot = draw()
                target = selector._sampler._keys[slot]
                in_stretch.append(at_start[target] >= 100 * KIB > spec.sectors[target].free_capacity)
                return slot

            spec.advance_time, selector.random_slot = recording_advance, recording_draw
            replay(spec, ops)
            assert any(in_stretch)  # room at the start of the step, none at the draw
            protocol, _, summary = traced_start("collisions", draw_batch)
            assert "protocol.refresh" not in summary["spans"]
            assert summary["counters"]["protocol.refresh_start.collided"] == (
                protocol.events.count(EventType.COLLISION_RESAMPLED)
            )

    @pytest.mark.parametrize("blocker", ["alloc", "confirm", "corrupted"])
    def test_unavailable_replica_postpones_without_a_draw(self, blocker):
        """A 64 KiB transfer outlasts a proof cycle, so a refresh is still
        in flight (ALLOC, or CONFIRM once the provider answered) when its
        file is due again; a 1 KiB one is long over, and only the replicas
        of the crashed sector are unavailable."""
        for draw_batch in DRAW_BATCHES:
            protocol, _, summary = traced_start(f"blocked_{blocker}", draw_batch)
            totals, events = summary["counters"], protocol.events
            assert protocol.files_lost == 0
            assert totals["protocol.refresh_start.postponed"] > 0
            # A draw was consumed for the started and the collided only.
            assert (
                totals.get("protocol.prefetch.hits", 0) + totals["protocol.prefetch.refills"]
                == events.count(EventType.FILE_REFRESH_STARTED)
                + events.count(EventType.COLLISION_RESAMPLED)
            )

    def test_empty_selector_postpones_every_due_file(self):
        for draw_batch in DRAW_BATCHES:
            protocol, stages, summary = traced_start("empty_selector", draw_batch)
            assert len(protocol.selector) == 0
            allocated, last = stages[0], stages[-1]
            assert last["sampler"][0] == allocated["sampler"][0]  # no draw
            assert last["notices"] == []
            totals = summary["counters"]
            assert (
                totals["protocol.refresh_start.postponed"]
                == totals["protocol.refresh_start.vector_files"]
                == 3 * 20
            )

    def test_refresh_deadline_on_the_next_checkpoint_keeps_append_order(self):
        """transfer_deadline == proof_cycle: CheckRefresh and the next
        CheckProof tasks tie on time, so the append order decides.  The
        order interleaves each refreshing file's CheckRefresh right after
        its CheckProof, so every CheckRefresh run is one task: the row
        form, never the sweep.  Every other swap is never answered: its
        CheckRefresh fails and retries in the middle of the tied run."""
        for draw_batch in DRAW_BATCHES:
            protocol, stages, summary = traced_start("tied_deadlines", draw_batch)
            params = protocol.params
            assert params.transfer_deadline(60 * KIB) == params.proof_cycle
            ties = 0
            for stage in stages:
                kinds_at = {}
                for time, kind, _, _ in stage["state"]["pending"]:
                    kinds_at.setdefault(time, set()).add(kind)
                ties += any(len(kinds) > 1 for kinds in kinds_at.values())
            assert ties > 0
            assert protocol.events.count(EventType.FILE_REFRESH_FAILED) > 0
            totals = summary["counters"]
            assert totals["protocol.refresh_check.vector_tasks"] == 0
            assert totals["protocol.refresh_check.scalar_tasks"] > 0

    def test_stretch_of_replica_counts_straddling_one_draw_byte(self):
        """255 replicas draw their index from one stream byte, 256 from
        two; both files come due in one stretch, beside a one-replica
        file whose 64 KiB replica is still in transfer when it is due again
        (postponed), on sectors nine tenths full (collided).  The identity
        the machine compares includes the PRNG fingerprint and the
        countdowns, so a window or a countdown word read one byte off, or a
        tail pushed back short, diverges from per-file reads."""
        stretches = []

        def record_stretches(protocol):
            start = protocol._start_refreshes

            def recording_start(file_ids):
                stretches.append(set(file_ids.tolist()))
                return start(file_ids)

            protocol._start_refreshes = recording_start

        for draw_batch in DRAW_BATCHES:
            protocol, _, summary = traced_start("draw_byte", draw_batch, record_stretches)
            totals = summary["counters"]
            assert protocol.files.replica_count[:3].tolist() == [255, 256, 1]
            assert any({0, 1} <= due for due in stretches)
            stretches.clear()
            assert "protocol.refresh" not in summary["spans"]
            assert totals["protocol.refresh_start.postponed"] > 0
            assert totals["protocol.refresh_start.collided"] > 0
            assert {notice.file_id for notice in protocol.refresh_notices} == {0, 1, 2}

    def test_a_stretch_reads_the_stream_a_bounded_number_of_times(self):
        """One window per stretch: a per-file ``randint`` or countdown
        resample would read the stream once per due file or more."""

        def counted(**arguments):
            prng = CountingPRNG.from_int(11, domain="columnar-diff")
            return ColumnarProtocol(**{**arguments, "prng": prng})

        protocol = deploy(counted, avg_refresh=0.01, cap_para=1000.0)
        replay(protocol, [("batch", [KIB] * 1200, 1), ("step",)])
        stretches = []
        start = protocol._start_refreshes

        def counting_start(file_ids):
            before = protocol.prng.reads
            started = start(file_ids)
            stretches.append((len(file_ids), protocol.prng.reads - before))
            return started

        protocol._start_refreshes = counting_start
        replay(protocol, [("step",)])
        assert stretches == [(1200, stretches[0][1])]
        assert 1 <= stretches[0][1] <= 3
        assert protocol.events.count(EventType.FILE_REFRESH_STARTED) > 1000


class TestFileConfirmOnRows:
    """The row-arithmetic ``File Confirm`` refuses what the object engine
    refuses, in the same words, and a refusal changes nothing."""

    def _awaiting(self, engine):
        protocol = deploy(engine, providers=6, avg_refresh=0.01)
        stored(protocol, 10)
        replay(protocol, [("step",)])  # first checkpoint: refreshes start
        notice = protocol.refresh_notices[0]
        return protocol, notice, protocol.sectors[notice.target_sector].owner

    def _refusals(self, protocol, notice, owner):
        file_id, index, target = notice.file_id, notice.replica_index, notice.target_sector
        elsewhere = next(sid for sid in sorted(protocol.sectors) if sid != target)
        return {
            "unknown sector": (owner, file_id, index, "nobody#0"),
            "wrong owner": ("mallory", file_id, index, target),
            "unknown file": (owner, 10_000, index, target),
            "negative file": (owner, -1, index, target),
            "replica out of range": (owner, file_id, 99, target),
            "another sector's swap": (
                protocol.sectors[elsewhere].owner, file_id, index, elsewhere
            ),
            "replica not in transfer": (owner, file_id, (index + 1) % 3, target),
        }

    def test_refusals_match_the_object_engine_and_mutate_nothing(self):
        messages = {}
        for engine in ENGINES:
            protocol, notice, owner = self._awaiting(engine)
            before = identity(protocol)
            for case, call in self._refusals(protocol, notice, owner).items():
                with pytest.raises(ProtocolError) as refusal:
                    protocol.file_confirm(*call)
                messages[(engine, case)] = str(refusal.value)
                assert identity(protocol) == before, (engine, case)
            protocol.file_confirm(
                owner, notice.file_id, notice.replica_index, notice.target_sector
            )
            with pytest.raises(ProtocolError) as refusal:  # already confirmed
                protocol.file_confirm(
                    owner, notice.file_id, notice.replica_index, notice.target_sector
                )
            messages[(engine, "confirmed twice")] = str(refusal.value)
        cases = {case for _, case in messages}
        assert len(cases) == 8
        for case in cases:
            assert messages[("columnar", case)] == messages[("object", case)], case
        assert len({messages[("object", case)] for case in cases}) >= 4

    def test_confirm_releases_the_traffic_escrow(self):
        """The fee-charging File Add holds one escrow per replica (that the
        engines leave one state is the engine machine's ``add`` rule)."""
        for engine in ENGINES:
            protocol = deploy(engine, charge_fees=True)
            file_id = protocol.file_add("client", 32 * 1024, 1, ROOT)
            assert len(protocol._traffic_escrows) == 3
            for index, entry in protocol.alloc.entries_for_file(file_id):
                owner = protocol.sectors[entry.next].owner
                protocol.file_confirm(owner, file_id, index, entry.next)
            assert protocol._traffic_escrows == {}
            assert protocol.events.count(EventType.TRAFFIC_FEE_PAID) == 3


class TestFileAddInColumns:
    """``file_add_batch`` from its arguments to its return: the admission
    prefix and the CheckAlloc append are column operations that leave
    exactly what the per-file rules leave."""

    @pytest.mark.parametrize("draw_batch", [1, 64])
    def test_mixed_size_batch_is_one_pending_append(self, monkeypatch, draw_batch):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 96 * 1024, 1_000).tolist()
        values = rng.integers(1, 3, 1_000).tolist()
        protocols = {
            engine: deploy(
                engine, providers=80, backend="vectorized", draw_batch=draw_batch,
                cap_para=100.0,
            )
            for engine in ENGINES
        }
        scheduled = []
        monkeypatch.setattr(
            protocols["columnar"].pending,
            "schedule",
            lambda *args: scheduled.append(args),
        )
        ids = {
            engine: protocol.file_add_batch("client", sizes, values, ROOT)
            for engine, protocol in protocols.items()
        }
        assert scheduled == []
        assert len(ids["columnar"]) == 1_000 and ids["columnar"] == ids["object"]
        assert all(type(file_id) is int for file_id in ids["columnar"])
        got, want = identity(protocols["columnar"]), identity(protocols["object"])
        assert len({task[0] for task in want["state"]["pending"]}) > 500
        for part in want:
            assert got[part] == want[part], part
        assert protocols["columnar"].snapshot() == protocols["object"].snapshot()

    @staticmethod
    def _admitted(sizes, values, **build):
        """``admitted`` from each engine's admission prefix (the spec's
        loop, the engine's columns) and ``file_add_batch`` -- which must
        all agree."""
        counts = set()
        for engine in ENGINES:
            protocol = deploy(engine, backend="vectorized", **build)
            columns = (sizes, values, [protocol.params.replica_count(v) for v in values])
            if engine == "columnar":
                columns = [np.asarray(column, dtype=np.int64) for column in columns]
            counts.add(protocol._admitted_prefix(*columns))
            ids = protocol.file_add_batch("client", sizes, values, ROOT)
            assert protocol.events.count(EventType.FILE_UPLOAD_FAILED) == 0
            counts.add(len(ids))
        (admitted,) = counts
        return admitted

    def test_placement_hands_the_kernel_the_free_column(self):
        """Each placement gives the kernel every selectable sector's free
        capacity at its slot, as the sector table holds it at the call:
        after the earlier batch's reservations, and around the slot a
        removed sector left."""
        protocol = deploy()
        selector = protocol.selector
        draw = selector.kernels.batch_weighted_draw
        seen = []

        class SpyKernels:
            def batch_weighted_draw(self, rng, weights, ops, free=None):
                if free is not None:
                    want = {
                        selector.slot_of(sector_id): record.free_capacity
                        for sector_id, record in protocol.sectors.items()
                        if selector.contains(sector_id)
                    }
                    seen.append((list(free), want))
                return draw(rng, weights, ops, free=free)

        selector.kernels = SpyKernels()
        replay(protocol, [("disable", 0), ("disable", 1), ("batch", [64 * KIB] * 20, 1)])
        protocol.sector_register("prov-0", 10 << 20)  # takes one freed slot
        replay(protocol, [("batch", [64 * KIB] * 10, 1)])
        assert len(seen) == 2 and len(seen[1][0]) == selector.slot_count == 6
        assert len(seen[1][1]) == 5  # one slot is a hole, never drawn
        assert seen[1][1] != seen[0][1]  # the first batch's reservations show
        for free, want in seen:
            assert {slot: free[slot] for slot in want} == want

    def test_cut_exactly_on_the_value_limit(self):
        # 2 MiB at capPara 10: Nm_v * minValue = 20.
        build = dict(providers=2, capacity_mb=1)
        assert self._admitted([1024] * 20, [1] * 20, **build) == 20
        assert self._admitted([1024] * 21, [1] * 21, **build) == 20
        assert self._admitted([1024] * 19 + [1024], [1] * 19 + [2], **build) == 19

    def test_cut_exactly_on_the_replica_byte_budget(self):
        # 3 MiB / redundancy 2 = 3 * 2**19 bytes = two files of 3 x 2**18.
        build = dict(providers=3, capacity_mb=1)
        half = 1 << 18
        assert self._admitted([half, half], [1, 1], **build) == 2
        assert self._admitted([half, half + 1], [1, 1], **build) == 1
        assert self._admitted([half, half, 1], [1, 1, 1], **build) == 2

    @pytest.mark.parametrize(
        "size, value, limit",
        [(1024, 21, "value limit exceeded"), (1 << 19, 1, "capacity limit exceeded")],
    )
    def test_batch_refused_at_its_first_file_raises_like_file_add(
        self, size, value, limit
    ):
        messages = set()
        for engine in ENGINES:
            protocol = deploy(engine, providers=2, capacity_mb=1)
            with pytest.raises(ProtocolError, match=limit) as single:
                protocol.file_add("client", size, value, ROOT)
            with pytest.raises(ProtocolError) as batched:
                protocol.file_add_batch("client", [size, 1024], [value, 1], ROOT)
            assert len(protocol.files) == 0 and len(protocol.pending) == 0
            messages |= {str(single.value), str(batched.value)}
        assert len(messages) == 1

    def test_totals_past_2_to_53_compare_exactly(self):
        """Budget 2**60; the second file brings the total to 2**60 + 1,
        which float64 rounds back onto the budget: a cumsum compared in
        floats would admit it."""
        build = dict(
            providers=2, capacity_mb=1 << 40, min_capacity=1 << 60,
            size_limit=1 << 60, k=1,
        )
        half = 1 << 59
        assert float(2 * half + 1) == float(2 * half)
        assert self._admitted([half, half + 1], [1, 1], **build) == 1
        assert self._admitted([half, half], [1, 1], **build) == 2
        assert self._admitted([1024, 1024], [1, 1], providers=2, capacity_mb=1) == 2

    def test_network_totals_past_int64_are_exact(self):
        """Five sectors of 2**61 bytes, each disabled once it holds a file
        (the sampler bound caps only the selectable total): the live total
        leaves int64 and stays the spec's Python-int sum."""
        states = []
        for engine in ENGINES:
            protocol = deploy(engine, providers=0, min_capacity=1 << 61, k=1)
            for owner in ("a", "b", "c", "d", "e"):
                sector_id = protocol.sector_register(owner, 1 << 61)
                replay(protocol, [("add", 64 * KIB), ("step",)])
                protocol.sector_disable(owner, sector_id)
            assert protocol.total_capacity() == 5 << 61 > 1 << 63
            states.append(fingerprint(protocol))
        assert states[0] == states[1]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 70),
    st.sampled_from([0, 1, 5, 1000]),
    st.sampled_from([0.01, 4.0, 50.0]),
)
def test_batched_countdowns_are_the_scalar_draws(seed, consumed, count, avg_refresh):
    """One ``random_bytes(7 * n)`` read == n scalar draws: same values,
    same block counter, same leftover buffer -- from an empty or a
    non-empty leftover, across 32-byte block boundaries."""
    loop, batch = (
        deploy(providers=0, seed=seed, avg_refresh=avg_refresh) for _ in range(2)
    )
    loop.prng.random_bytes(consumed)
    batch.prng.random_bytes(consumed)
    want = [loop._sample_refresh_countdown() for _ in range(count)]
    got = batch._sample_refresh_countdowns(count)
    assert got.dtype == np.int64 and got.tolist() == want
    assert all(value >= 1 for value in want)
    assert batch.prng._counter == loop.prng._counter
    assert batch.prng._buffer == loop.prng._buffer
    assert batch.prng.state_fingerprint() == loop.prng.state_fingerprint()


@pytest.mark.parametrize(
    "values, once",
    [([], []), ([4], [True]), ([3, 1, 3, 0], [False, True, False, True])],
)
def test_appears_once(values, once):
    mask = _appears_once(np.asarray(values, dtype=np.int64))
    assert mask.dtype == bool and mask.tolist() == once


# ----------------------------------------------------------------------
# The proof round: dispatch per run, the clean-run mask, the NaN guard
# ----------------------------------------------------------------------
PROOF, ALLOC, REFRESH, RENT = CHECK_PROOF, CHECK_ALLOC, CHECK_REFRESH, RENT_PERIOD

#: Hand-built due sets over 8 stored files, every task at one time:
#: ``(kind, file_id[, replica index])`` in schedule (= pop) order.
DUE_SETS = {
    "one_kind_only": [(PROOF, file_id) for file_id in range(8)],
    "kinds_alternating_every_task": [
        (PROOF, 0), (ALLOC, 1), (PROOF, 2), (REFRESH, 3, 0),
        (PROOF, 4), (ALLOC, 5), (PROOF, 6), (REFRESH, 7, 1),
    ],
    "one_rent_period_between_two_proof_runs": [
        (PROOF, 0), (PROOF, 1), (PROOF, 2), (RENT,), (PROOF, 3), (PROOF, 4),
    ],
    "runs_of_one_at_both_ends": [
        (ALLOC, 0), *[(PROOF, file_id) for file_id in range(1, 7)], (REFRESH, 7, 2),
    ],
    "two_rent_periods_last": [(PROOF, 5), (RENT,), (RENT,)],
    "nothing_due": [],
}


class Recording:
    """Engine mixin: notes each handler call ``advance_time`` dispatches,
    then makes it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def _check_proof_run(self, file_ids):
        self.calls.append((PROOF, [(file_id,) for file_id in file_ids.tolist()]))
        super()._check_proof_run(file_ids)

    def _check_alloc_run(self, file_ids):
        self.calls.append((ALLOC, [(file_id,) for file_id in file_ids.tolist()]))
        super()._check_alloc_run(file_ids)

    def _check_refresh_run(self, file_ids, indexes):
        self.calls.append((REFRESH, list(zip(file_ids.tolist(), indexes.tolist()))))
        super()._check_refresh_run(file_ids, indexes)

    def _auto_rent_period(self):
        self.calls.append((RENT, [()]))
        super()._auto_rent_period()


RECORDING = {
    name: type(f"Recording{engine.__name__}", (Recording, engine), {})
    for name, engine in ENGINES.items()
}


class TestAdvanceTimeDispatch:
    """``advance_time`` -- one loop for both engines -- finds the runs of
    equal kind with one array comparison: the handlers must see the
    ``itertools.groupby`` of the due tasks -- every run, whole, in order --
    whatever the run lengths."""

    @staticmethod
    def _due(engine, tasks):
        protocol = deploy(engine, providers=8, backend="vectorized")
        stored(protocol, 8)
        protocol.pending.pop_due_arrays(math.inf)  # the due set is the hand-built one
        at = protocol.now + 1.0
        for kind, *ids in tasks:
            protocol.pending.schedule(at, kind, *ids)
        return protocol, at

    @pytest.mark.parametrize("case", sorted(DUE_SETS))
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_handlers_see_the_groupby_of_the_due_kinds(self, engine, case):
        tasks = DUE_SETS[case]
        recording, at = self._due(RECORDING[engine], tasks)
        recording.calls.clear()
        recording.advance_time(at)
        expected = []
        for kind, run in itertools.groupby(tasks, key=lambda task: task[0]):
            ids = [tuple(task[1:]) for task in run]
            if kind == RENT:  # no batch form: one call per task of the run
                expected.extend((RENT, [()]) for _ in ids)
            else:
                expected.append((kind, ids))
        assert recording.calls == expected
        reference, at = self._due("object", tasks)
        reference.advance_time(at)
        assert fingerprint(recording) == fingerprint(reference)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_tasks_due_later_reach_no_handler(self, engine):
        recording, at = self._due(RECORDING[engine], DUE_SETS["one_kind_only"])
        recording.calls.clear()
        recording.advance_time(at - 0.5)
        assert recording.calls == [] and len(recording.pending) == 8


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_advance_time_refuses_nan_before_any_task(engine):
    """``until < now`` is false for NaN and so is the loop's exit test
    ``next_time > until``: every CheckProof rescheduling itself, the call
    never returned."""
    protocol = deploy(engine, providers=8)
    stored(protocol, 12)
    before = (protocol.now, len(protocol.pending), fingerprint(protocol))
    with pytest.raises(ValueError, match="cannot move backwards"):
        protocol.advance_time(float("nan"))
    assert (protocol.now, len(protocol.pending), fingerprint(protocol)) == before


class TestIndexColumns:
    """Index columns are int32; a table refuses to outgrow them rather than
    let numpy's unchecked int64 -> int32 assignment wrap an index."""

    def test_the_index_columns_are_int32_after_a_proof_cycle(self):
        protocol = deploy(providers=8, backend="vectorized", avg_refresh=0.01)
        stored(protocol, 12)
        protocol.advance_time(protocol.now + protocol.params.proof_cycle)
        # The cycle started refreshes: every column has been written to.
        assert protocol.pending.count_kind(CHECK_REFRESH) > 0
        alloc, pending = protocol.alloc, protocol.pending
        for column in (alloc.prev, alloc.next, alloc.block_start, pending._file, pending._index):
            assert column.dtype == np.int32

    def test_grow_refuses_past_int32_rows_before_allocating(self):
        column = np.arange(16, dtype=np.int32)
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            _grow(column, 2**31)
        assert column.dtype == np.int32 and column.tolist() == list(range(16))

    def test_grow_doubles_no_further_than_the_bound(self, monkeypatch):
        monkeypatch.setattr(pending_module, "MAX_ROWS", 20)
        assert len(_grow(np.zeros(16, dtype=np.int32), 17)) == 20
        with pytest.raises(ValueError, match="21 rows requested"):
            _grow(np.zeros(20, dtype=np.int32), 21)


def _swept_network():
    """Eight sectors storing ten files of three and six replicas."""
    protocol = deploy(providers=8, backend="vectorized")
    return protocol, stored(protocol, 10, values=[1, 2] * 5)


def _degrade(protocol, kind, file_id, index):
    """One defect on replica ``index`` of ``file_id`` (or on its host)."""
    row = protocol.alloc.block_start[file_id] + index % protocol.files.replica_count[file_id]
    host = protocol.alloc.prev[row]
    if kind == "corrupted_replica":
        protocol.alloc.state[row] = _A_CORRUPTED
    elif kind == "absent_row":
        protocol.alloc.state[row] = _ABSENT
    elif kind == "unhosted_row":
        protocol.alloc.prev[row] = -1
    elif host >= 0 and kind == "sick_host":
        protocol.health_oracle.sick.add(protocol.sectors.sector_ids[host])
    elif host >= 0 and kind == "crashed_sector":
        protocol.crash_sector(protocol.sectors.sector_ids[host])


def _assert_mask_is_the_oracle(protocol, run):
    run = np.asarray(run, dtype=np.int64)
    got = protocol._proof_sweep_mask(run)
    want = proof_sweep_mask(protocol, run)
    for ours, theirs in zip(got, want):
        assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
    return got


class TestProofSweepMask:
    """A run whose rows are all live on healthy hosts skips the mask's
    reductions; ``(vector, proof_rows, offsets)`` must be what the
    reductions (``proof_sweep_oracle``) give, on that run and on every
    run one defect away from it."""

    DEFECTS = (
        "corrupted_replica", "absent_row", "unhosted_row", "sick_host", "crashed_sector",
    )

    def test_clean_run_credits_every_row(self):
        protocol, ids = _swept_network()
        vector, rows, offsets = _assert_mask_is_the_oracle(protocol, ids)
        assert vector.all()
        assert rows.tolist() == protocol.alloc.block_rows(np.asarray(ids)).tolist()
        assert np.diff(offsets).tolist() == [3, 6] * 5

    @pytest.mark.parametrize("kind", DEFECTS)
    def test_one_defect_takes_the_reductions(self, kind):
        protocol, ids = _swept_network()
        _degrade(protocol, kind, ids[3], 4)
        vector, rows, _ = _assert_mask_is_the_oracle(protocol, ids)
        # A dead replica is skipped (a crash kills every row the sector
        # held); a sick host sends its files to the scalar path.
        assert len(rows) < 45
        assert vector.all() == (kind != "sick_host")

    @pytest.mark.parametrize(
        "extra", [[3], [10 ** 6], [-1], [3, 3, 10 ** 6, -1]], ids=str
    )
    def test_duplicated_and_unknown_ids(self, extra):
        protocol, ids = _swept_network()
        run = ids[:6] + extra + ids[6:]
        vector, _, _ = _assert_mask_is_the_oracle(protocol, run)
        # An unknown id counts as a second appearance of file 0: that file
        # takes the scalar path, which is always right.
        seen = [file_id if file_id in ids else 0 for file_id in run]
        assert vector.tolist() == [
            file_id in ids and seen.count(file_id) == 1 for file_id in run
        ]

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        defects=st.lists(
            st.tuples(st.sampled_from(DEFECTS), st.integers(0, 9), st.integers(0, 5)),
            max_size=4,
        ),
        run=st.lists(st.integers(-1, 11), max_size=14),
    )
    def test_property_any_mix_of_defects(self, defects, run):
        protocol, ids = _swept_network()
        for kind, position, index in defects:
            _degrade(protocol, kind, ids[position], index)
        _assert_mask_is_the_oracle(protocol, run)
