"""Differential tests for the columnar protocol engine.

:class:`repro.core.columnar.ColumnarProtocol` promises *bit-identical*
protocol state with the Figure 1 spec (``tests/oracles/protocol.py``, the
"object" engine) for every operation stream.  These tests drive both
through the same scripted scenarios -- batched
fills, proof cycles with refreshes, crashes, discards, fee-charging runs,
placement failures, a degraded network (lost files, sick sectors, refreshes
dying in flight) -- and compare full state fingerprints (sectors, files,
allocation table, pending list, aggregates, ledger, event counts).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.chain.ledger import Ledger
from repro.core.allocation import AllocState
from repro.core.columnar import (
    _A_CORRUPTED,
    _ABSENT,
    AllocEntryView,
    ColumnarProtocol,
    FileView,
    SectorView,
    _appears_once,
)
from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.core.pending import CHECK_ALLOC, CHECK_PROOF, CHECK_REFRESH, RENT_PERIOD
from repro.core.protocol import ProtocolError
from repro.core.sector import SectorState
from repro.crypto.prng import DeterministicPRNG
from repro.kernels.vectorized import VectorizedKernels

from oracles.kernel_oracle import BACKENDS
from oracles.protocol import FileInsurerProtocol, fingerprint
from oracles.proof_sweep_oracle import proof_sweep_mask

ROOT = b"\x05" * 32
MB = 1 << 20

ENGINES = {"object": FileInsurerProtocol, "columnar": ColumnarProtocol}
ORACLE = BACKENDS["reference"]


def make_protocol(
    engine,
    providers=6,
    capacity_mb=10,
    backend=ORACLE,
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
    protocol = ENGINES.get(engine, engine)(  # a name, or the class itself
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


def confirm_refreshes(protocol, every=1):
    """The target providers' part of every refresh still in flight (of
    every ``every``-th one: the other providers stay silent)."""
    confirmed, awaiting = [], 0
    for notice in protocol.refresh_notices:
        entry = dict(protocol.alloc.entries_for_file(notice.file_id)).get(
            notice.replica_index
        )
        if (
            entry is not None
            and entry.state == AllocState.ALLOC
            and entry.next == notice.target_sector
        ):
            awaiting += 1
            if (awaiting - 1) % every:
                continue
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
                    engine, providers=8, backend=BACKENDS[backend], sick=sick
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
        scripted_run(make_protocol("object", backend=BACKENDS[backend]), reference)
        scripted_run(make_protocol("columnar", backend=BACKENDS[backend]), columnar)
        for stage, (want, got) in enumerate(zip(reference, columnar)):
            assert got == want, f"engines diverge at stage {stage}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_backend_named_means_vectorized(self, engine):
        """``backend=None`` is the one runtime backend, not a second draw
        path."""
        default, vectorized = [], []
        scripted_run(make_protocol(engine, backend=None), default)
        scripted_run(make_protocol(engine, backend="vectorized"), vectorized)
        assert default == vectorized

    def test_fill_until_refused_matches_on_every_backend(self):
        prints = {
            (engine, backend): fill_until_refused(
                make_protocol(
                    engine, providers=8, capacity_mb=1, backend=BACKENDS[backend],
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
                    engine, providers=10, capacity_mb=1, backend=BACKENDS[backend],
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
            make_protocol("object", backend=ORACLE, charge_fees=True),
            reference,
        )
        scripted_run(
            make_protocol("columnar", backend=ORACLE, charge_fees=True),
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
                    make_protocol(engine, backend=BACKENDS[backend], draw_batch=8),
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
                backend=ORACLE,
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
        single = make_protocol("columnar", backend=ORACLE)
        batched = make_protocol("columnar", backend=ORACLE)
        for _ in range(8):
            file_id = single.file_add("client", 48 * 1024, 1, ROOT)
            confirm_all(single, file_id)
            (bid,) = batched.file_add_batch("client", [48 * 1024], [1], ROOT)
            batched.confirm_batch([bid])
        single.advance_time(200.0)
        batched.advance_time(200.0)
        assert fingerprint(batched) == fingerprint(single)


class TestAggregateMaintenance:
    """O(1) aggregates and the selector's free table never drift from the
    sector records (no placement scans them)."""

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_aggregates_match_scan_oracles(self, engine):
        protocol = make_protocol(engine, backend=ORACLE)
        checkpoints = []
        scripted_run(protocol, checkpoints)
        live = [
            record
            for record in protocol.sectors.values()
            if record.state in (SectorState.NORMAL, SectorState.DISABLED)
        ]
        assert protocol.total_capacity() == sum(r.capacity for r in live)
        assert protocol.stored_replica_bytes() == sum(r.capacity - r.free_capacity for r in live)

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_tracked_free_matches_records(self, engine):
        protocol = make_protocol(engine, backend="vectorized")
        checkpoints = []
        scripted_run(protocol, checkpoints)
        for sector_id, record in protocol.sectors.items():
            if record.accepts_new_files:
                selector = protocol.selector
                assert (
                    selector._free[selector.slot_of(sector_id)] == record.free_capacity
                ), sector_id

    def test_kernel_placement_never_scans_sector_records(self):
        """Placement hands the kernel the selector's own columnar free
        table, not one rebuilt by scanning every SectorRecord per call (the
        regression this guards against)."""
        protocol = make_protocol("columnar", backend=ORACLE)
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

    def _stored(self, sick, files=40, **overrides):
        protocol = make_protocol(
            "columnar", providers=8, backend="vectorized", sick=sick, **overrides
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

    @pytest.mark.parametrize("run", [1, 2, 5])
    def test_a_refresh_run_of_one_task_takes_the_row_form(self, run):
        """Where the sweep starts: the refresh mask costs a dozen array
        operations whatever the run length, several times the row form of
        one task, and a run of one has nothing to batch -- so a run of one
        task completes in the row form (``fullstack_churn``'s runs are
        nearly all single tasks) and a run of two or more in the columns
        (``fill_prove``'s and ``refresh_storm``'s are thousands long).
        Either way the state is the spec's."""
        prints, totals = {}, {}
        for engine in ENGINES:
            protocol = make_protocol(engine, avg_refresh=0.01)
            stored(protocol, run)
            step(protocol)  # the first checkpoint starts a refresh of every file
            assert len(confirm_refreshes(protocol)) == run
            totals[engine] = traced_advance(protocol, protocol.refresh_notices[0].deadline)
            assert protocol.events.count(EventType.FILE_REFRESH_COMPLETED) == run
            prints[engine] = fingerprint(protocol)
        assert prints["columnar"] == prints["object"]
        swept = totals["columnar"].get("protocol.refresh_check.vector_tasks", 0)
        assert swept == (0 if run == 1 else run)
        assert totals["columnar"].get("protocol.refresh_check.scalar_tasks", 0) == run - swept

    def test_refresh_starts_split_like_the_sweep(self):
        """Every file is due at every checkpoint (avg_refresh -> countdown
        1): the swept files start their refreshes in the columns, counted
        once per stretch, and only the files of the silent sector -- scalar
        in the sweep -- go through per-file ``_auto_refresh`` and its span."""
        sick = set()
        protocol, ids = self._stored(sick, avg_refresh=0.01)
        sick.add(sorted(protocol.sectors)[0])
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

    @pytest.mark.parametrize("files", [10, 80])
    def test_a_stretch_reports_its_refresh_starts_once(self, files):
        """One stretch, however many files refresh in it: one counter event
        per name (``protocol.refresh_notices`` carrying its amount) and no
        per-file ``protocol.refresh`` span."""
        protocol = make_protocol(
            "columnar", providers=8, backend="vectorized", draw_batch=8,
            avg_refresh=0.01, cap_para=100.0,
        )
        ids = protocol.file_add_batch("client", [64 * 1024] * files, [1] * files, ROOT)
        protocol.confirm_batch(ids)
        protocol.advance_time(protocol.pending.peek_time())  # CheckAlloc: stored
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
        protocol = make_protocol(
            "columnar", providers=20, backend="vectorized", draw_batch=64,
            avg_refresh=4.0, cap_para=100.0,
        )
        ids = protocol.file_add_batch("client", [64 * 1024] * 200, [1] * 200, ROOT)
        protocol.confirm_batch(ids)
        protocol.advance_time(protocol.pending.peek_time())
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
        protocol = make_protocol(
            "columnar", providers=200, capacity_mb=1, backend=backend,
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
        protocol = make_protocol("columnar", providers=8, draw_batch=4)
        ids = protocol.file_add_batch("client", [64 * 1024] * 40, [1] * 40, ROOT)
        protocol.confirm_batch(ids)
        protocol.advance_time(400.0)
        _, refills, flushed = protocol.selector.take_prefetch_counts()
        assert refills > 0 and flushed == 0
        assert protocol.selector.take_prefetch_counts() == (0, 0, 0)


class TestColumnarFacades:
    """The SoA tables must honour the dict/record APIs callers read."""

    def test_sector_views_read_the_live_columns(self):
        protocol = make_protocol("columnar", providers=3)
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
        protocol = make_protocol("columnar", backend=ORACLE)
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
        protocol = make_protocol("columnar", backend=ORACLE)
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
# Refresh in columns: the identity contract of the batched refresh start
# ----------------------------------------------------------------------
DRAW_BATCHES = (1, 8, 64)


def identity(protocol):
    """What the batched refresh start must leave exactly as the per-file
    path does: the state, the notices in order, where the next sampler
    draw comes from, and both random streams."""
    selector = protocol.selector
    return {
        "state": fingerprint(protocol),
        "notices": list(protocol.refresh_notices),
        "sampler": (
            selector._draw_calls,
            selector.samples,
            selector.collisions,
            list(selector._draw_buffer),
        ),
        "prng": protocol.prng.state_fingerprint(),
    }


def step(protocol):
    """Execute exactly the tasks of the next pending time."""
    protocol.advance_time(protocol.pending.peek_time())


def stored(protocol, files, size=64 * 1024, values=None):
    ids = protocol.file_add_batch("client", [size] * files, values or [1] * files, ROOT)
    protocol.confirm_batch(ids)
    step(protocol)  # CheckAlloc
    assert protocol.files_stored == files
    return ids


def on_both_engines(scenario, **build):
    """Run ``scenario(protocol, stage)`` on both engines at every
    ``draw_batch``; the identities staged along the way must be equal.

    Yields ``(draw_batch, object outcome, columnar outcome, columnar
    telemetry summary)`` for the case-specific assertions, an outcome
    being ``(protocol, scenario's return value)``.
    """
    for draw_batch in DRAW_BATCHES:
        outcomes, stages, traces = {}, {}, {}
        telemetry.enable()
        try:
            for engine in ENGINES:
                protocol = make_protocol(
                    engine, backend="vectorized", draw_batch=draw_batch, **build
                )
                stages[engine] = []
                with telemetry.capture() as traces[engine]:
                    result = scenario(
                        protocol, lambda: stages[engine].append(identity(protocol))
                    )
                outcomes[engine] = (protocol, result)
        finally:
            telemetry.reset()
        assert len(stages["columnar"]) == len(stages["object"]) > 0
        for number, (want, got) in enumerate(zip(stages["object"], stages["columnar"])):
            for part in want:
                assert got[part] == want[part], (
                    f"draw_batch={draw_batch}: {part} diverges at stage {number}"
                )
        yield (
            draw_batch,
            outcomes["object"],
            outcomes["columnar"],
            telemetry.summarize_events(traces["columnar"]),
        )


class TestRefreshInColumns:
    """Sequential decisions, columnar effects: each case is one the batched
    start could get wrong while every ordinary run still matched."""

    def test_second_refresh_of_a_stretch_collides_on_a_sector_the_first_filled(self):
        size = 100 * 1024

        def scenario(protocol, stage):
            stored(protocol, 12, size)
            selector, at_start, in_stretch = protocol.selector, {}, []
            if type(protocol) is FileInsurerProtocol:
                # The object engine reserves at every start, so a draw's
                # target shows the room this step's earlier starts left.
                draw = selector.random_slot

                def recording_draw():
                    slot = draw()
                    target = selector._sampler._keys[slot]
                    in_stretch.append(
                        at_start[target] >= size > protocol.sectors[target].free_capacity
                    )
                    return slot

                selector.random_slot = recording_draw
            for _ in range(30):
                at_start.update(
                    (sid, rec.free_capacity) for sid, rec in protocol.sectors.items()
                )
                step(protocol)
                stage()
                confirm_refreshes(protocol)
            return sum(in_stretch)

        # Four 1 MiB sectors hold ten replicas each; 36 of the 40 places
        # are taken, and every file is due at every checkpoint.
        for _, (_, in_stretch), (columnar, _), summary in on_both_engines(
            scenario, providers=4, capacity_mb=1, redundancy_factor=1.0,
            cap_para=100.0, avg_refresh=0.01,
        ):
            assert in_stretch > 0  # room at the start of the step, none at the draw
            assert "protocol.refresh" not in summary["spans"]
            assert summary["counters"]["protocol.refresh_start.collided"] == (
                columnar.events.count(EventType.COLLISION_RESAMPLED)
            )

    @pytest.mark.parametrize("blocker", ["alloc", "confirm", "corrupted"])
    def test_unavailable_replica_postpones_without_a_draw(self, blocker):
        # A 64 KiB transfer outlasts a proof cycle, so a refresh is still in
        # flight (ALLOC, or CONFIRM once the provider answered) when its
        # file is due again; a 1 KiB one is long over, and only the
        # replicas of the crashed sector are unavailable.
        size = 1024 if blocker == "corrupted" else 64 * 1024

        def scenario(protocol, stage):
            stored(protocol, 20, size)
            if blocker == "corrupted":
                protocol.crash_sector(sorted(protocol.sectors)[0])
            for _ in range(12):
                step(protocol)
                stage()
                if blocker != "alloc":
                    confirm_refreshes(protocol)

        for _, _, (columnar, _), summary in on_both_engines(
            scenario, providers=6, avg_refresh=0.01
        ):
            totals = summary["counters"]
            assert columnar.files_lost == 0
            assert totals["protocol.refresh_start.postponed"] > 0
            # A draw was consumed for the started and the collided only.
            assert (
                totals.get("protocol.prefetch.hits", 0) + totals["protocol.prefetch.refills"]
                == columnar.events.count(EventType.FILE_REFRESH_STARTED)
                + columnar.events.count(EventType.COLLISION_RESAMPLED)
            )

    def test_empty_selector_postpones_every_due_file(self):
        def scenario(protocol, stage):
            stored(protocol, 20)
            for sector_id, record in list(protocol.sectors.items()):
                protocol.sector_disable(record.owner, sector_id)
            assert len(protocol.selector) == 0
            draws = protocol.selector._draw_calls
            for _ in range(3):
                step(protocol)
                stage()
            assert protocol.selector._draw_calls == draws
            assert protocol.refresh_notices == []

        for _, _, _, summary in on_both_engines(scenario, providers=4, avg_refresh=0.01):
            totals = summary["counters"]
            assert (
                totals["protocol.refresh_start.postponed"]
                == totals["protocol.refresh_start.vector_files"]
                == 3 * 20
            )

    def test_file_add_between_sweeps_sees_the_same_prefetch_state(self):
        """File Add shares the sampler's kernel-call numbering: a refill
        made ahead of need would renumber its stream."""

        def scenario(protocol, stage):
            stored(protocol, 30)
            partly_consumed = 0
            for _ in range(8):
                step(protocol)
                stage()
                confirm_refreshes(protocol)
                buffered = len(protocol.selector._draw_buffer)
                partly_consumed += 0 < buffered < protocol.selector.draw_batch
                protocol.confirm_batch(
                    protocol.file_add_batch("client", [32 * 1024] * 2, [1] * 2, ROOT)
                )
                stage()
            return partly_consumed

        for draw_batch, _, (_, partly_consumed), _ in on_both_engines(
            scenario, providers=8, avg_refresh=2.0
        ):
            assert partly_consumed > 0 or draw_batch == 1

    def test_refresh_deadline_on_the_next_checkpoint_keeps_append_order(self):
        """transfer_deadline == proof_cycle: CheckRefresh and the next
        CheckProof tasks tie on time, so the append order decides.  The
        order interleaves each refreshing file's CheckRefresh right after
        its CheckProof, so every CheckRefresh run is one task: the row
        form, never the sweep."""
        size = 60 * 1024

        def scenario(protocol, stage):
            assert protocol.params.transfer_deadline(size) == protocol.params.proof_cycle
            stored(protocol, 20, size)
            ties = 0
            for _ in range(10):
                step(protocol)
                stage()
                kinds_at = {}
                for time, kind, _, _ in protocol.pending.tasks():
                    kinds_at.setdefault(time, set()).add(kind)
                ties += any(len(kinds) > 1 for kinds in kinds_at.values())
                # Every other swap is never answered: its CheckRefresh
                # fails and retries in the middle of the tied run.
                confirm_refreshes(protocol, every=2)
            return ties

        for _, _, (columnar, ties), summary in on_both_engines(
            scenario, providers=10, avg_refresh=1.0, delay_per_size=2.0**-10
        ):
            assert ties > 0
            assert columnar.events.count(EventType.FILE_REFRESH_FAILED) > 0
            assert summary["counters"]["protocol.refresh_check.vector_tasks"] == 0
            assert summary["counters"]["protocol.refresh_check.scalar_tasks"] > 0

    def test_stretches_cut_by_scalar_files_after_a_crash(self):
        def scenario(protocol, stage):
            stored(protocol, 40)
            step(protocol)
            confirm_refreshes(protocol)
            stage()
            for sector_id in sorted(protocol.sectors)[:4]:
                protocol.crash_sector(sector_id)
            stage()
            for _ in range(10):
                step(protocol)
                stage()
                confirm_refreshes(protocol)

        for _, _, (columnar, _), summary in on_both_engines(
            scenario, providers=8, avg_refresh=1.0
        ):
            totals = summary["counters"]
            assert 0 < columnar.files_lost < 40
            assert totals["protocol.proof_sweep.scalar_files"] > 0
            assert totals["protocol.refresh_start.vector_files"] > 0
            assert totals["protocol.refresh_notices"] == len(columnar.refresh_notices)


class TestFileConfirmOnRows:
    """The row-arithmetic ``File Confirm`` refuses what the object engine
    refuses, in the same words, and a refusal changes nothing."""

    def _awaiting(self, engine):
        protocol = make_protocol(engine, providers=6, avg_refresh=0.01)
        stored(protocol, 10)
        step(protocol)  # first checkpoint: refreshes start
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
        """The fee-charging File Add holds one escrow per replica."""
        prints = {}
        for engine in ENGINES:
            protocol = make_protocol(engine, charge_fees=True)
            file_id = protocol.file_add("client", 32 * 1024, 1, ROOT)
            assert len(protocol._traffic_escrows) == 3
            confirm_all(protocol, file_id)
            assert protocol._traffic_escrows == {}
            assert protocol.events.count(EventType.TRAFFIC_FEE_PAID) == 3
            prints[engine] = fingerprint(protocol)
        assert prints["columnar"] == prints["object"]


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
            engine: make_protocol(
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
        """``admitted`` from both engines' ``file_add_batch``, the column
        prefix and the scalar loop -- which must all agree."""
        counts = set()
        for engine in ENGINES:
            protocol = make_protocol(engine, backend="vectorized", **build)
            replicas = [protocol.params.replica_count(value) for value in values]
            counts.add(protocol._admitted_prefix(sizes, values, replicas))
            if engine == "columnar":
                counts.add(
                    protocol._admitted_prefix_columns(
                        *(np.asarray(column, dtype=np.int64)
                          for column in (sizes, values, replicas))
                    )
                )
            ids = protocol.file_add_batch("client", sizes, values, ROOT)
            assert protocol.events.count(EventType.FILE_UPLOAD_FAILED) == 0
            counts.add(len(ids))
        (admitted,) = counts
        return admitted

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
            protocol = make_protocol(engine, providers=2, capacity_mb=1)
            with pytest.raises(ProtocolError, match=limit) as single:
                protocol.file_add("client", size, value, ROOT)
            with pytest.raises(ProtocolError) as batched:
                protocol.file_add_batch("client", [size, 1024], [value, 1], ROOT)
            assert len(protocol.files) == 0 and len(protocol.pending) == 0
            messages |= {str(single.value), str(batched.value)}
        assert len(messages) == 1

    def test_totals_past_2_to_53_take_the_exact_loop(self, monkeypatch):
        """Budget 2**60; the second file brings the total to 2**60 + 1,
        which float64 rounds back onto the budget: a cumsum compared in
        floats would admit it."""
        build = dict(
            providers=2, capacity_mb=1 << 40, min_capacity=1 << 60,
            size_limit=1 << 60, k=1,
        )
        loops = []
        scalar = ColumnarProtocol._admitted_prefix
        monkeypatch.setattr(
            ColumnarProtocol,
            "_admitted_prefix",
            lambda self, *columns: loops.append(1) or scalar(self, *columns),
        )
        half = 1 << 59
        assert float(2 * half + 1) == float(2 * half)
        assert self._admitted([half, half + 1], [1, 1], **build) == 1
        assert len(loops) == 3  # called directly, via the columns, via file_add_batch
        del loops[:]
        assert self._admitted([1024, 1024], [1, 1], providers=2, capacity_mb=1) == 2
        assert len(loops) == 1  # only the direct call


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
        ColumnarProtocol(
            params=ProtocolParams.small_test().scaled(avg_refresh=avg_refresh),
            prng=DeterministicPRNG.from_int(seed, domain="countdowns"),
            charge_fees=False,
        )
        for _ in range(2)
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
        protocol = make_protocol(engine, providers=8, backend="vectorized")
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
    protocol = make_protocol(engine, providers=8)
    stored(protocol, 12)
    before = (protocol.now, len(protocol.pending), fingerprint(protocol))
    with pytest.raises(ValueError, match="cannot move backwards"):
        protocol.advance_time(float("nan"))
    assert (protocol.now, len(protocol.pending), fingerprint(protocol)) == before


def _swept_network(sick=frozenset()):
    """Eight sectors storing ten files of three and six replicas."""
    protocol = make_protocol("columnar", providers=8, backend="vectorized", sick=sick)
    return protocol, stored(protocol, 10, values=[1, 2] * 5)


def _degrade(protocol, sick, kind, file_id, index):
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
        sick.add(protocol.sectors.sector_ids[host])
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
        sick = set()
        protocol, ids = _swept_network(sick)
        _degrade(protocol, sick, kind, ids[3], 4)
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
        sick = set()
        protocol, ids = _swept_network(sick)
        for kind, position, index in defects:
            _degrade(protocol, sick, kind, ids[position], index)
        _assert_mask_is_the_oracle(protocol, run)
