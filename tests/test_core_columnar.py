"""Differential tests for the columnar protocol engine.

:class:`repro.core.columnar.ColumnarProtocol` promises *bit-identical*
protocol state with the object engine for every operation stream.  These
tests drive both engines through the same scripted scenarios -- batched
fills, proof cycles with refreshes, crashes, discards, fee-charging runs,
placement failures, a degraded network (lost files, sick sectors, refreshes
dying in flight) -- and compare full state fingerprints (sectors, files,
allocation table, pending list, aggregates, ledger, event counts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.chain.ledger import Ledger
from repro.core.allocation import AllocState
from repro.core.columnar import ColumnarPending, ColumnarProtocol
from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.core.pending import PendingList
from repro.core.protocol import FileInsurerProtocol, ProtocolError
from repro.crypto.prng import DeterministicPRNG

ROOT = b"\x05" * 32
MB = 1 << 20

ENGINES = {"object": FileInsurerProtocol, "columnar": ColumnarProtocol}


def make_protocol(
    engine,
    providers=6,
    capacity_mb=10,
    backend="reference",
    charge_fees=False,
    draw_batch=1,
    seed=11,
    sick=frozenset(),
    **param_overrides,
):
    """``sick`` is the set of sector ids the health oracle stops vouching
    for; tests mutate it between ``advance_time`` calls only."""
    params = ProtocolParams.small_test().scaled(**param_overrides)
    ledger = Ledger()
    protocol = ENGINES[engine](
        params=params,
        ledger=ledger,
        prng=DeterministicPRNG.from_int(seed, domain="columnar-diff"),
        health_oracle=lambda sector_id: sector_id not in sick,
        auto_prove=True,
        charge_fees=charge_fees,
        backend=backend,
        draw_batch=draw_batch,
    )
    for index in range(providers):
        owner = f"prov-{index}"
        ledger.mint(owner, 50_000_000)
        protocol.sector_register(owner, capacity_mb * MB)
    ledger.mint("client", 500_000_000)
    return protocol


def fingerprint(protocol):
    """Canonical structure of everything consensus-visible."""
    sectors = {
        sid: (
            rec.owner,
            int(rec.capacity),
            int(rec.free_capacity),
            int(rec.deposit),
            rec.state.value,
            float(rec.registered_at),
            int(rec.stored_replicas),
        )
        for sid, rec in sorted(protocol.sectors.items())
    }
    files = {
        fid: (
            desc.owner,
            int(desc.size),
            int(desc.value),
            int(desc.replica_count),
            int(desc.countdown),
            desc.state.value,
            float(desc.created_at),
            int(desc.rent_paid),
            int(desc.compensation_received),
        )
        for fid, desc in sorted(protocol.files.items())
    }
    alloc = {
        (int(fid), int(idx)): (
            entry.prev,
            entry.next,
            float(entry.last_proof),
            entry.state.value,
        )
        for (fid, idx), entry in protocol.alloc.all_entries()
    }
    pending = [
        (float(task.time), task.kind, tuple(sorted(task.payload.items())))
        for task in protocol.pending.tasks()
    ]
    ledger = {
        account.address: (int(account.balance), int(account.escrowed))
        for account in sorted(protocol.ledger.accounts(), key=lambda a: a.address)
    }
    events = {
        event_type.value: protocol.events.count(event_type)
        for event_type in EventType
    }
    aggregates = dict(protocol.snapshot())
    aggregates["total_value_lost"] = protocol.total_value_lost
    aggregates["stored_replica_bytes"] = protocol.stored_replica_bytes()
    return {
        "sectors": sectors,
        "files": files,
        "alloc": sorted(alloc.items()),
        "pending": pending,
        "ledger": sorted(ledger.items()),
        "events": events,
        "aggregates": aggregates,
    }


def confirm_all(protocol, file_id):
    for index, entry in protocol.alloc.entries_for_file(file_id):
        if entry.next is not None:
            owner = protocol.sectors[entry.next].owner
            protocol.file_confirm(owner, file_id, index, entry.next)


def scripted_run(protocol, checkpoints):
    """The reference workload: fill, proof cycles, crash, discard.

    Appends a fingerprint to ``checkpoints`` after each stage so engine
    divergence is pinned to the stage that introduced it.
    """
    ids = protocol.file_add_batch("client", [64 * 1024] * 30, [1] * 30, ROOT)
    protocol.confirm_batch(ids)
    checkpoints.append(fingerprint(protocol))
    # Proof cycles + refreshes.
    protocol.advance_time(300.0)
    checkpoints.append(fingerprint(protocol))
    for _ in range(5):
        file_id = protocol.file_add("client", 32 * 1024, 2, ROOT)
        confirm_all(protocol, file_id)
    protocol.advance_time(600.0)
    checkpoints.append(fingerprint(protocol))
    protocol.crash_sector(sorted(protocol.sectors)[0])
    protocol.advance_time(900.0)
    checkpoints.append(fingerprint(protocol))
    protocol.file_discard("client", ids[3])
    protocol.advance_time(1200.0)
    checkpoints.append(fingerprint(protocol))
    return checkpoints


def fill_until_refused(protocol):
    """The ``scalability`` shape: batched fee-free File Add until the
    network refuses (admission raises or truncates the batch)."""
    size = protocol.params.min_capacity // 20
    stored = 0
    while True:
        try:
            ids = protocol.file_add_batch("client", [size] * 16, [1] * 16, ROOT)
        except ProtocolError:
            break
        stored += len(protocol.confirm_batch(ids))
        if len(ids) < 16 or protocol.files[ids[-1]].state == FileState.FAILED:
            break
    assert stored > 0
    return fingerprint(protocol)


def compensation_run(protocol):
    """The ``deposit`` shape: fee-charged File Add one file at a time, half
    the sectors crash, CheckProof compensates the owners of lost files."""
    for _ in range(20):
        confirm_all(protocol, protocol.file_add("client", 8 * 1024, 1, ROOT))
    protocol.run_until_idle(max_time=protocol.now + 10.0)
    for sector_id in sorted(protocol.sectors)[:5]:
        protocol.crash_sector(sector_id)
    protocol.advance_time(protocol.now + 2 * protocol.params.proof_cycle)
    assert 0 < protocol.total_value_lost <= protocol.total_value_compensated
    return fingerprint(protocol)


def confirm_refreshes(protocol):
    """The target providers' part of every refresh still in flight."""
    confirmed = []
    for notice in protocol.refresh_notices:
        entry = protocol.alloc.try_get(notice.file_id, notice.replica_index)
        if (
            entry is not None
            and entry.state == AllocState.ALLOC
            and entry.next == notice.target_sector
        ):
            owner = protocol.sectors[notice.target_sector].owner
            protocol.file_confirm(
                owner, notice.file_id, notice.replica_index, notice.target_sector
            )
            confirmed.append(notice)
    return confirmed


def degraded_run(protocol, sick, checkpoints):
    """The degraded regime, stage by stage: half the sectors crash (files
    are lost), one survivor stops proving (late-proof punishment, then
    `proof deadline exceeded` in the middle of a CheckProof run), and
    confirmed refreshes complete while another one loses its target in
    flight."""
    stage = lambda: checkpoints.append(fingerprint(protocol))
    ids = protocol.file_add_batch("client", [64 * 1024] * 30, [1] * 30, ROOT)
    protocol.confirm_batch(ids)
    protocol.advance_time(130.0)
    stage()
    sectors = sorted(protocol.sectors)
    for sector_id in sectors[:4]:
        protocol.crash_sector(sector_id)
    stage()
    protocol.advance_time(190.0)
    assert protocol.files_lost > 0
    stage()
    # One proof cycle per stage, the providers confirming every refresh,
    # while a survivor stays silent past proof_due, then proof_deadline.
    sick.add(sectors[4])
    punished = protocol.events.count(EventType.PROVIDER_PUNISHED)
    for _ in range(7):
        confirm_refreshes(protocol)
        protocol.advance_time(protocol.now + 60.0)
        stage()
    assert protocol.events.count(EventType.PROVIDER_PUNISHED) > punished
    assert protocol.sectors[sectors[4]].is_corrupted
    # A confirmed refresh whose target dies before CheckRefresh.
    in_flight = confirm_refreshes(protocol)
    assert in_flight
    protocol.crash_sector(in_flight[0].target_sector)
    stage()
    protocol.advance_time(protocol.now + 120.0)
    stage()
    return checkpoints


class TestDifferentialScripted:
    """Same op stream on both engines => byte-identical state."""

    def test_degraded_flow_matches_on_every_backend(self):
        """Both engines on both kernel backends, fingerprinted after every
        stage of the degraded regime (the masked sweep's reason to exist)."""
        prints = {}
        for engine in ENGINES:
            for backend in ("reference", "vectorized"):
                sick = set()
                protocol = make_protocol(
                    engine, providers=8, backend=backend, sick=sick
                )
                prints[(engine, backend)] = degraded_run(protocol, sick, [])
        baseline = prints[("object", "reference")]
        for key, checkpoints in prints.items():
            assert len(checkpoints) == len(baseline), key
            for stage, (want, got) in enumerate(zip(baseline, checkpoints)):
                assert got == want, f"{key} diverges at stage {stage}"

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_scripted_flow_matches(self, backend):
        reference, columnar = [], []
        scripted_run(make_protocol("object", backend=backend), reference)
        scripted_run(make_protocol("columnar", backend=backend), columnar)
        for stage, (want, got) in enumerate(zip(reference, columnar)):
            assert got == want, f"engines diverge at stage {stage}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_backend_named_means_auto(self, engine):
        """``backend=None`` is the ``"auto"`` kernel backend, not a second
        draw path."""
        default, auto = [], []
        scripted_run(make_protocol(engine, backend=None), default)
        scripted_run(make_protocol(engine, backend="auto"), auto)
        assert default == auto

    def test_fill_until_refused_matches_on_every_backend(self):
        prints = {
            (engine, backend): fill_until_refused(
                make_protocol(
                    engine, providers=8, capacity_mb=1, backend=backend,
                    cap_para=1000.0,
                )
            )
            for engine in ENGINES
            for backend in ("reference", "vectorized")
        }
        baseline = prints[("object", "reference")]
        for key, print_ in prints.items():
            assert print_ == baseline, key

    def test_compensation_after_crash_matches_on_every_backend(self):
        prints = {
            (engine, backend): compensation_run(
                make_protocol(
                    engine, providers=10, capacity_mb=1, backend=backend,
                    charge_fees=True, deposit_ratio=0.3, cap_para=4.0,
                )
            )
            for engine in ENGINES
            for backend in ("reference", "vectorized")
        }
        baseline = prints[("object", "reference")]
        for key, print_ in prints.items():
            assert print_ == baseline, key

    def test_fee_charging_run_matches(self):
        """charge_fees forces the generic inherited paths over the views."""
        reference, columnar = [], []
        scripted_run(
            make_protocol("object", backend="reference", charge_fees=True),
            reference,
        )
        scripted_run(
            make_protocol("columnar", backend="reference", charge_fees=True),
            columnar,
        )
        assert columnar == reference

    def test_draw_batch_prefetch_matches(self):
        """The draw sequence is a function of the op stream and draw_batch
        only: at equal draw_batch both engines and both kernel backends
        agree bit-for-bit."""
        prints = {}
        for engine in ENGINES:
            for backend in ("reference", "vectorized"):
                checkpoints = []
                scripted_run(
                    make_protocol(engine, backend=backend, draw_batch=8),
                    checkpoints,
                )
                prints[(engine, backend)] = checkpoints
        baseline = prints[("object", "reference")]
        for key, checkpoints in prints.items():
            assert checkpoints == baseline, f"{key} diverged"

    def test_placement_failure_truncates_identically(self):
        def build(engine):
            params = ProtocolParams.small_test()
            ledger = Ledger()
            protocol = ENGINES[engine](
                params=params,
                ledger=ledger,
                prng=DeterministicPRNG.from_int(5, domain="columnar-fail"),
                health_oracle=lambda sector_id: True,
                auto_prove=True,
                charge_fees=False,
                backend="reference",
            )
            ledger.mint("prov-big", 50_000_000)
            big = protocol.sector_register("prov-big", 8 * MB)
            ledger.mint("prov-small", 50_000_000)
            protocol.sector_register("prov-small", 1 * MB)
            # Anchor one replica on the big sector so disabling it does not
            # remove it (and with it most of the admission budget).
            anchor = protocol.file_add("client2", 16 * 1024, 1, ROOT)
            confirm_all(protocol, anchor)
            protocol.ledger.mint("client", 500_000_000)
            protocol.sector_disable("prov-big", big)
            return protocol

        results = {}
        for engine in ENGINES:
            protocol = build(engine)
            ids = protocol.file_add_batch(
                "client", [256 * 1024] * 5, [1] * 5, ROOT
            )
            results[engine] = (ids, fingerprint(protocol))
        assert results["columnar"] == results["object"]
        ids, print_ = results["object"]
        states = [print_["files"][fid][5] for fid in ids]
        assert FileState.FAILED.value in states  # the batch really truncated

    def test_batch_of_one_equals_single_file_add(self):
        """B=1 batches consume the same kernel call as per-file File Add."""
        single = make_protocol("columnar", backend="reference")
        batched = make_protocol("columnar", backend="reference")
        for _ in range(8):
            file_id = single.file_add("client", 48 * 1024, 1, ROOT)
            confirm_all(single, file_id)
            (bid,) = batched.file_add_batch("client", [48 * 1024], [1], ROOT)
            batched.confirm_batch([bid])
        single.advance_time(200.0)
        batched.advance_time(200.0)
        assert fingerprint(batched) == fingerprint(single)


class TestColumnarPending:
    """ColumnarPending must replay PendingList's execution order exactly."""

    KINDS = ("auto_check_alloc", "auto_check_proof", "auto_check_refresh",
             "auto_rent_period")

    def _mirror(self, script):
        heap, cols = PendingList(), ColumnarPending(self.KINDS)
        for op in script:
            if op[0] == "schedule":
                _, time, kind, payload = op
                heap.schedule(time, kind, **payload)
                cols.schedule(time, kind, **payload)
            elif op[0] == "pop":
                _, now = op
                want = [
                    (t.time, t.kind, t.payload) for t in heap.pop_due(now)
                ]
                got = [
                    (t.time, t.kind, t.payload) for t in cols.pop_due(now)
                ]
                assert got == want, f"pop_due({now}) diverged"
        return heap, cols

    def test_interleaved_schedule_and_pop(self):
        script = [
            ("schedule", 5.0, "auto_check_proof", {"file_id": 1}),
            ("schedule", 1.0, "auto_check_alloc", {"file_id": 0}),
            ("schedule", 5.0, "auto_check_proof", {"file_id": 2}),
            ("pop", 1.0),
            ("schedule", 3.0, "auto_check_refresh", {"file_id": 2, "index": 1}),
            ("schedule", 5.0, "auto_rent_period", {}),
            ("pop", 4.0),
            ("schedule", 4.0, "auto_check_proof", {"file_id": 3}),
            ("pop", 5.0),
            ("pop", 10.0),
        ]
        heap, cols = self._mirror(script)
        assert cols.is_empty() and heap.is_empty()

    def test_same_time_tasks_execute_in_schedule_order(self):
        heap, cols = PendingList(), ColumnarPending(self.KINDS)
        for fid in (4, 2, 9, 0, 7):
            heap.schedule(2.5, "auto_check_proof", file_id=fid)
            cols.schedule(2.5, "auto_check_proof", file_id=fid)
        want = [t.payload["file_id"] for t in heap.pop_due(3.0)]
        got = [t.payload["file_id"] for t in cols.pop_due(3.0)]
        assert got == want == [4, 2, 9, 0, 7]

    def test_schedule_batch_matches_loop(self):
        loop, batch = ColumnarPending(self.KINDS), ColumnarPending(self.KINDS)
        for fid in range(6):
            loop.schedule(7.0, "auto_check_proof", file_id=fid)
        batch.schedule_batch(7.0, "auto_check_proof", np.arange(6))
        as_tuples = lambda pending: [
            (t.time, t.kind, t.payload) for t in pending.pop_due(7.0)
        ]
        assert as_tuples(batch) == as_tuples(loop)

    def test_observability_helpers(self):
        cols = ColumnarPending(self.KINDS)
        assert cols.peek_time() is None
        cols.schedule(9.0, "auto_rent_period")
        cols.schedule(4.0, "auto_check_proof", file_id=3)
        assert cols.peek_time() == 4.0
        assert len(cols) == 2
        assert cols.count_kind("auto_check_proof") == 1
        assert cols.count_kind("unknown-kind") == 0
        snapshot = cols.tasks()
        assert [task.time for task in snapshot] == [4.0, 9.0]
        cols.pop_due(4.0)
        assert cols.peek_time() == 9.0
        assert not cols.is_empty()
        cols.pop_due(9.0)
        assert cols.is_empty()

    def test_late_insert_before_sorted_head_is_not_lost(self):
        cols = ColumnarPending(self.KINDS)
        cols.schedule(10.0, "auto_check_proof", file_id=0)
        assert cols.pop_due(5.0) == []  # sorts the queue
        cols.schedule(1.0, "auto_check_alloc", file_id=1)  # unsorted tail
        due = cols.pop_due(2.0)
        assert [(t.time, t.kind) for t in due] == [(1.0, "auto_check_alloc")]
        assert cols.peek_time() == 10.0


class TestAggregateMaintenance:
    """O(1) aggregates and the selector's free table never drift from the
    sector records (no placement scans them)."""

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_aggregates_match_scan_oracles(self, engine):
        protocol = make_protocol(engine, backend="reference")
        checkpoints = []
        scripted_run(protocol, checkpoints)
        assert protocol.total_capacity() == protocol.total_capacity_scan()
        assert (
            protocol.stored_replica_bytes()
            == protocol.stored_replica_bytes_scan()
        )

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_tracked_free_matches_records(self, engine):
        protocol = make_protocol(engine, backend="vectorized")
        checkpoints = []
        scripted_run(protocol, checkpoints)
        for sector_id, record in protocol.sectors.items():
            if record.accepts_new_files:
                assert (
                    protocol.selector.tracked_free(sector_id)
                    == record.free_capacity
                ), sector_id

    def test_kernel_placement_never_scans_sector_records(self):
        """Placement hands the kernel the selector's own columnar free
        table, not one rebuilt by scanning every SectorRecord per call (the
        regression this guards against)."""
        protocol = make_protocol("columnar", backend="reference")
        selector = protocol.selector
        draw = selector.kernels.batch_weighted_draw
        seen = []

        class SpyKernels:
            def batch_weighted_draw(self, rng, weights, ops, free=None):
                seen.append(free)
                return draw(rng, weights, ops, free=free)

        selector.kernels = SpyKernels()
        ids = protocol.file_add_batch("client", [64 * 1024] * 20, [1] * 20, ROOT)
        assert len(ids) == 20
        assert seen and all(np.shares_memory(free, selector._free) for free in seen)


def traced_advance(protocol, until):
    """``advance_time`` with telemetry on; returns the counter totals."""
    telemetry.enable()
    try:
        with telemetry.capture() as events:
            protocol.advance_time(until)
    finally:
        telemetry.disable()
        telemetry.drain()
    return telemetry.summarize_events(events)["counters"]


class TestMaskedSweepVisibility:
    """The proof sweep and the refresh completions report how much of each
    run left the columns -- and after a crash that is the lost and the
    sick-hosted files, not the run (the regression this guards against:
    one corrupted sector used to send every later sweep down the per-file
    path)."""

    def _stored(self, sick, files=40):
        protocol = make_protocol(
            "columnar", providers=8, backend="vectorized", sick=sick
        )
        ids = protocol.file_add_batch("client", [64 * 1024] * files, [1] * files, ROOT)
        protocol.confirm_batch(ids)
        protocol.advance_time(130.0)
        return protocol, ids

    def test_post_crash_sweep_is_scalar_only_for_lost_and_sick_hosted_files(self):
        sick = set()
        protocol, ids = self._stored(sick)
        sectors = sorted(protocol.sectors)
        for sector_id in sectors[:4]:
            protocol.crash_sector(sector_id)
        sick.add(sectors[4])
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
        sick = set()
        protocol, ids = self._stored(sick)
        silent = sorted(protocol.sectors)[0]
        sick.add(silent)
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
        protocol, _ = self._stored(set())
        while not protocol.refresh_notices:
            protocol.advance_time(protocol.now + 60.0)
        confirmed = confirm_refreshes(protocol)
        totals = traced_advance(protocol, max(n.deadline for n in confirmed))
        assert totals["protocol.refresh_check.vector_tasks"] == len(confirmed)
        assert totals["protocol.refresh_check.scalar_tasks"] == 0
        assert protocol.events.count(EventType.FILE_REFRESH_COMPLETED) == len(confirmed)


class TestFastPathCounters:
    """Spans on the batch entry points, and the two fast paths that used
    to be invisible: the kernel's optimistic place prefix and the
    selector's prefetched refresh-target draws."""

    def test_batch_spans_and_fast_path_counters(self):
        protocol = make_protocol(
            "columnar", providers=8, backend="vectorized", draw_batch=8
        )
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

    def test_disabled_advance_leaves_the_prefetch_tally_untaken(self):
        protocol = make_protocol("columnar", providers=8, draw_batch=4)
        ids = protocol.file_add_batch("client", [64 * 1024] * 40, [1] * 40, ROOT)
        protocol.confirm_batch(ids)
        protocol.advance_time(400.0)
        _, refills, flushed = protocol.selector.take_prefetch_counts()
        assert refills > 0 and flushed == 0
        assert protocol.selector.take_prefetch_counts() == (0, 0, 0)


class TestColumnarFacades:
    """The SoA tables must honour the dict/object APIs cold paths use."""

    def test_sector_views_roundtrip(self):
        protocol = make_protocol("columnar", providers=3)
        sector_id = sorted(protocol.sectors)[0]
        record = protocol.sectors[sector_id]
        assert record.sector_id == sector_id
        assert sector_id in protocol.sectors
        assert len(protocol.sectors) == 3
        assert set(protocol.sectors.keys()) == set(protocol.sectors)
        free = record.free_capacity
        record.reserve(1024)
        assert protocol.sectors[sector_id].free_capacity == free - 1024
        record.release(1024)
        assert protocol.sectors[sector_id].free_capacity == free
        with pytest.raises(ValueError):
            record.reserve(free + 1)

    def test_file_views_roundtrip(self):
        protocol = make_protocol("columnar", backend="reference")
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
        protocol = make_protocol("columnar", backend="reference")
        ids = protocol.file_add_batch("client", [4096] * 3, [1] * 3, ROOT)
        k = protocol.params.k
        for fid in ids:
            entries = protocol.alloc.entries_for_file(fid)
            assert [index for index, _ in entries] == list(range(k))
            locations = protocol.alloc.replica_locations(fid)
            assert len(locations) == k
        assert len(protocol.alloc) == len(ids) * k
        hosted = sum(
            len(protocol.alloc.entries_on_sector(sid))
            for sid in protocol.sectors
        )
        assert hosted == len(ids) * k
        assert not protocol.alloc.file_is_lost(ids[0])
