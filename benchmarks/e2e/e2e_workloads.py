"""The six workloads of the end-to-end benchmark.

Each workload is a function ``(shape, seed, rnd) -> Outcome`` that drives
one *round*: it generates its inputs from ``seed``, builds the deployment
inside ``rnd.section("setup")``, does a fixed amount of work inside
``rnd.section("phase1")`` / ``rnd.section("phase2")`` (the timed region),
and returns its deterministic outputs for the digest.  The same seed gives
the same inputs, the same counts and the same digest, round after round.

Layer spans (``rnd.span(name, layer)``) cost nothing in untraced rounds;
``rnd.kernels`` is ``"vectorized"`` untraced and a ``TimedKernels`` proxy
traced.  Why each workload exists is recorded in ``WORKLOADS`` (and in
``BENCHMARK.json``); README.md has the longer argument.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

import numpy

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    ScenarioEntry,
    plan_campaign,
    render_markdown,
    run_campaign,
)
from repro.chain.ledger import Ledger
from repro.core.columnar import ColumnarProtocol
from repro.core.params import ProtocolParams
from repro.crypto.merkle import MerkleTree
from repro.crypto.porep import PoRepProver
from repro.crypto.prng import DeterministicPRNG
from repro.sim.adversary import GreedyCapacityAdversary
from repro.sim.lifecycle import LifecycleConfig, LifecycleSimulation
from repro.sim.placement import PlacementExperiment
from repro.sim.scenario import DSNScenario, ScenarioConfig
from repro.sim.workload import FileSizeDistribution
from repro.storage.provider import StorageProvider

OUT_DIR = Path(__file__).resolve().parent / "out"

MERKLE_ROOT = b"\x09" * 32
FILE_SIZE = 8 * 1024
#: File ids whose ``file_locations`` enter the protocol workloads' digest.
DIGEST_FILE_SAMPLE = 200

#: The fields of the program's report dictionaries that enter a digest: the
#: ones that exist at the commit that pinned the digests.  A field a later
#: change adds is new output, not a wrong one, and must not read as a mismatch.
SNAPSHOT_FIELDS = (
    "time", "sectors", "total_capacity", "files_stored", "files_lost", "value_stored",
    "value_lost", "value_compensated", "collisions",
)
LIFECYCLE_ROW_FIELDS = (
    "events_cancelled", "events_processed", "files", "files_lost", "files_placed",
    "files_surviving", "flash_retrievals", "latency_p50_s", "latency_p99_s", "min_free_slots",
    "miss_rate", "placement_failures", "provider_crashes", "provider_departures",
    "provider_recoveries", "refresh_failures", "refreshes_beat_deadline", "refreshes_completed",
    "regional_failures", "retrievals", "served", "transitions", "unserved",
)
SCENARIO_SUMMARY_FIELDS = (
    "bytes_transferred", "collisions", "files_lost", "files_stored", "healthy_providers",
    "lifecycle_files_lost", "lifecycle_refreshes", "lifecycle_transitions", "providers",
    "sectors", "time", "total_capacity", "value_compensated", "value_lost", "value_stored",
)


def _pinned(report: Mapping[str, object], fields) -> Dict[str, object]:
    return {name: report[name] for name in fields}


@dataclass
class Outcome:
    """What one round did, for the metrics and the correctness check."""

    #: Domain work of the whole timed region and of each phase.
    ops: int
    phase1_ops: int
    phase2_ops: int
    #: Operations the driver attempted / that were refused or raised.
    attempted: int
    failed: int
    #: Deterministic outputs; the digest is taken over their JSON form.
    outputs: Dict[str, object]
    #: Named invariants that must hold for any seed.
    invariants: Dict[str, bool]
    #: Exact per-seed counts read from program state (per-layer metrics).
    counts: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# fill_prove / refresh_storm: the columnar protocol engine
# ----------------------------------------------------------------------
def _build_protocol(seed: int, sectors: int, avg_refresh: float, rnd) -> ColumnarProtocol:
    params = ProtocolParams.small_test().scaled(cap_para=100.0, avg_refresh=avg_refresh)
    protocol = ColumnarProtocol(
        params=params,
        ledger=Ledger(),
        prng=DeterministicPRNG.from_int(seed, domain="e2e-bench"),
        health_oracle=lambda sector_id: True,
        auto_prove=True,
        charge_fees=False,
        backend=rnd.kernels,
        draw_batch=64,
    )
    with rnd.span("core.sector_register", "core"):
        for index in range(sectors):
            protocol.sector_register(f"prov-{index}", params.min_capacity)
    return protocol


def _fill(protocol: ColumnarProtocol, files: int, batch: int, rnd) -> int:
    """Add and confirm ``files`` files, then drain CheckAlloc; returns refusals."""
    added = 0
    refused = 0
    while added < files:
        count = min(batch, files - added)
        with rnd.span("core.file_add_batch", "core"):
            ids = protocol.file_add_batch(
                "client", [FILE_SIZE] * count, [1] * count, MERKLE_ROOT
            )
        with rnd.span("core.confirm_batch", "core"):
            protocol.confirm_batch(ids)
        refused += count - len(ids)
        added += count
    with rnd.span("core.check_alloc_drain", "core"):
        protocol.advance_time(protocol.pending.peek_time())
    return refused


class _ProofDriver:
    """Runs proof cycles and plays the providers' part of each refresh.

    After every cycle the driver ``file_confirm``s each new refresh
    notice, as a target provider would.  A notice whose transfer deadline
    already passed inside the cycle is skipped (the protocol has timed it
    out and issued a replacement), so no confirm is ever refused.
    """

    def __init__(self, protocol: ColumnarProtocol, rnd) -> None:
        self.protocol = protocol
        self.rnd = rnd
        self.seen = 0
        self.confirmed = 0
        self.expired = 0
        self.refused = 0
        self.cycles = 0

    def run(self, cycles: int) -> None:
        protocol = self.protocol
        for _ in range(cycles):
            with self.rnd.span("core.advance_time", "core"):
                protocol.advance_time(protocol.now + protocol.params.proof_cycle)
            self.cycles += 1
            notices = protocol.refresh_notices
            with self.rnd.span("core.file_confirm", "core"):
                for notice in notices[self.seen :]:
                    if notice.deadline < protocol.now:
                        self.expired += 1
                        continue
                    owner = protocol.sectors[notice.target_sector].owner
                    try:
                        protocol.file_confirm(
                            owner, notice.file_id, notice.replica_index, notice.target_sector
                        )
                        self.confirmed += 1
                    except Exception:  # counted, reported as a failed operation
                        self.refused += 1
            self.seen = len(notices)


def _protocol_outputs(protocol: ColumnarProtocol, files: int, seed: int) -> Dict[str, object]:
    sample = random.Random(seed).sample(range(files), min(DIGEST_FILE_SAMPLE, files))
    locations = {}
    for file_id in sorted(sample):
        if file_id in protocol.files and protocol.files[file_id].is_active:
            locations[str(file_id)] = protocol.file_locations(file_id)
    return {
        "snapshot": _pinned(protocol.snapshot(), SNAPSHOT_FIELDS),
        "events": len(protocol.events),
        "refresh_notices": len(protocol.refresh_notices),
        "pending": len(protocol.pending),
        "file_locations": locations,
    }


def _protocol_counts(
    protocol: ColumnarProtocol, driver: _ProofDriver, refused: int
) -> Dict[str, float]:
    snapshot = protocol.snapshot()
    return {
        "core.add_refused": refused,
        "core.proof_cycles": driver.cycles,
        "core.refresh_notices": driver.seen,
        "core.confirm_refused": driver.refused,
        "core.refresh_confirm_ratio": driver.confirmed / driver.seen if driver.seen else 0.0,
        "core.collisions": snapshot["collisions"],
        "core.files_lost": snapshot["files_lost"],
        "core.value_compensated": snapshot["value_compensated"],
    }


def _active_files(protocol: ColumnarProtocol) -> int:
    # Every file has value 1, so the vectorised value sum counts files.
    return int(round(protocol.weighted_value_count()))


def fill_prove(shape: Mapping[str, int], seed: int, rnd) -> Outcome:
    files, cycles = shape["files"], shape["cycles"]
    with rnd.section("setup"):
        protocol = _build_protocol(seed, shape["sectors"], 50.0, rnd)
    with rnd.section("phase1"):
        refused = _fill(protocol, files, shape["batch"], rnd)
    driver = _ProofDriver(protocol, rnd)
    with rnd.section("phase2"):
        driver.run(cycles)
    return Outcome(
        ops=files,
        phase1_ops=files,
        phase2_ops=files * cycles,
        attempted=files + driver.seen - driver.expired,
        failed=refused + driver.refused,
        outputs=_protocol_outputs(protocol, files, seed),
        invariants={
            "every file stored": protocol.files_stored == files,
            "no file lost": protocol.files_lost == 0,
            "stored + lost == added": _active_files(protocol) + protocol.files_lost == files,
        },
        counts=_protocol_counts(protocol, driver, refused),
    )


def refresh_storm(shape: Mapping[str, int], seed: int, rnd) -> Outcome:
    files = shape["files"]
    with rnd.section("setup"):
        protocol = _build_protocol(seed, shape["sectors"], 4.0, rnd)
        refused = _fill(protocol, files, shape["batch"], rnd)
    driver = _ProofDriver(protocol, rnd)
    with rnd.section("phase1"):
        driver.run(shape["cycles_healthy"])
    healthy_confirmed = driver.confirmed
    victims = random.Random(seed).sample(
        sorted(protocol.sectors.keys()), max(1, shape["sectors"] // 50)
    )
    with rnd.section("phase2"):
        with rnd.span("core.crash_sector", "core"):
            for sector_id in victims:
                protocol.crash_sector(sector_id)
        driver.run(shape["cycles_degraded"])
    return Outcome(
        ops=files * driver.cycles,
        phase1_ops=healthy_confirmed,
        phase2_ops=files * shape["cycles_degraded"],
        attempted=files + driver.seen - driver.expired,
        failed=refused + driver.refused,
        outputs=_protocol_outputs(protocol, files, seed),
        invariants={
            "every file stored": protocol.files_stored == files,
            "stored + lost == added": _active_files(protocol) + protocol.files_lost == files,
            "crashed sectors left the network": protocol.snapshot()["sectors"]
            == shape["sectors"] - len(victims),
        },
        counts=_protocol_counts(protocol, driver, refused),
    )


# ----------------------------------------------------------------------
# table3_refresh: the placement experiment on the bare kernels
# ----------------------------------------------------------------------
def table3_refresh(shape: Mapping[str, int], seed: int, rnd) -> Outcome:
    distribution = FileSizeDistribution.EXPONENTIAL
    backups, sectors = shape["backups"], shape["sectors"]
    with rnd.section("setup"):
        # Construction plus warm-up placements: workload generation and
        # the first kernel calls, which the timed region then need not pay.
        experiment = PlacementExperiment(seed, backend=rnd.kernels)
        experiment.run_reallocate(distribution, backups, sectors, rounds=shape["warmup_rounds"])
    with rnd.section("phase1"):
        with rnd.span("sim.placement.run_refresh", "sim"):
            refreshed = experiment.run_refresh(
                distribution, backups, sectors, refresh_multiplier=shape["multiplier"]
            )
    with rnd.section("phase2"):
        with rnd.span("sim.placement.run_reallocate", "sim"):
            reallocated = experiment.run_reallocate(
                distribution, backups, sectors, rounds=shape["rounds"]
            )
    moves = shape["multiplier"] * backups
    placements = shape["rounds"] * backups
    return Outcome(
        ops=moves,
        phase1_ops=moves,
        phase2_ops=placements,
        attempted=moves + placements,
        failed=0,
        outputs={"refresh": refreshed.as_row(), "reallocate": reallocated.as_row()},
        invariants={
            "refresh max_usage < 0.64": refreshed.max_usage < 0.64,
            "reallocate max_usage < 0.64": reallocated.max_usage < 0.64,
            "no overflow": refreshed.overflow_rounds + reallocated.overflow_rounds == 0,
        },
    )


# ----------------------------------------------------------------------
# lifecycle_events: one Python event at a time
# ----------------------------------------------------------------------
def lifecycle_events(shape: Mapping[str, int], seed: int, rnd) -> Outcome:
    config = LifecycleConfig(
        providers=shape["providers"],
        regions=5,
        slots_per_provider=48,
        files=shape["files"],
        replicas=3,
        horizon_s=float(shape["horizon_s"]),
        arrival_window_s=float(shape["arrival_window_s"]),
        mtbf_s=1000.0,
        retrieval_rate=4.0,
        # No regional failure and no flash crowd: one such burst per run
        # lands in either phase and moves that phase's cost per event by
        # more than the regression bound from one seed to the next.
        departures=2,
        flash_crowds=0,
        regional_failures=0,
        backend=rnd.kernels,
        seed=seed,
    )
    with rnd.section("setup"):
        with rnd.span("sim.lifecycle.init", "sim"):
            simulation = LifecycleSimulation(config)
    # Ingest, then churn: the upload window through the engine's public
    # run(until=...), the rest of the horizon through run().
    with rnd.section("phase1"):
        with rnd.span("sim.lifecycle.run", "sim"):
            simulation.engine.run(until=config.arrival_window_s)
    ingest_events = simulation.engine.events_processed
    with rnd.section("phase2"):
        with rnd.span("sim.lifecycle.run", "sim"):
            row = simulation.run()
    events = int(row["events_processed"])
    cancelled = int(row["events_cancelled"])
    return Outcome(
        ops=events,
        phase1_ops=ingest_events,
        phase2_ops=events - ingest_events,
        attempted=events,
        failed=0,
        outputs={"row": _pinned(row, LIFECYCLE_ROW_FIELDS)},
        invariants={
            "surviving + lost == files": row["files_surviving"] + row["files_lost"]
            == shape["files"],
            "placed + placement failures == files": row["files_placed"]
            + row["placement_failures"]
            == shape["files"],
            "served + unserved == retrievals": row["served"] + row["unserved"]
            == row["retrievals"],
        },
        counts={
            "sim.engine.events_processed": events,
            "sim.engine.events_cancelled": cancelled,
            "sim.engine.cancel_ratio": cancelled / (events + cancelled),
            "sim.lifecycle.refreshes_completed": row["refreshes_completed"],
            "sim.lifecycle.refreshes_beat_deadline": row["refreshes_beat_deadline"],
        },
    )


# ----------------------------------------------------------------------
# fullstack_churn: real bytes through crypto, storage, scenario and chain
# ----------------------------------------------------------------------
#: Protocol constants of ``repro.scenarios.churn``: 256 KiB sectors with
#: 64 KiB capacity replicas keep DRep sealing cheap.
_CHURN_PARAMS = dict(min_capacity=256 << 10, capacity_replica_size=64 << 10, size_limit=128 << 10)
_CHURN_MEAN_FILE = 16 << 10
_CHURN_EVENTS = ("crash", "join", "leave", "none", "join")


def _listed_holder_has_bytes(deployment: DSNScenario, file_id: int) -> bool:
    """True if a healthy sector the chain lists for the file holds its bytes."""
    root = deployment.protocol.files[file_id].merkle_root
    for sector_id in deployment.protocol.file_locations(file_id):
        owner, physical = deployment.sector_map.get(sector_id, (None, None))
        if owner and deployment.providers[owner].is_healthy() and physical.holds_file(root):
            return True
    return False


def fullstack_churn(shape: Mapping[str, int], seed: int, rnd) -> Outcome:
    rng = random.Random(seed)
    params = ProtocolParams.small_test().scaled(**_CHURN_PARAMS)
    # Every seed gets the same file sizes (half to one and a half times the
    # mean, evenly spaced) and the same mix of events, one per cycle, so the
    # work is the same: in another order, with other bytes, against other
    # providers.
    sizes = [
        _CHURN_MEAN_FILE // 2 + _CHURN_MEAN_FILE * index // max(1, shape["files"] - 1)
        for index in range(shape["files"])
    ]
    rng.shuffle(sizes)
    payloads = [rng.randbytes(size) for size in sizes]
    schedule = [_CHURN_EVENTS[index % len(_CHURN_EVENTS)] for index in range(shape["cycles"])]
    rng.shuffle(schedule)
    picks = [rng.random() for _ in range(shape["cycles"])]

    with rnd.section("setup"):
        with rnd.span("sim.scenario.init", "sim"):
            deployment = DSNScenario(
                ScenarioConfig(
                    params=params,
                    provider_count=shape["providers"],
                    sectors_per_provider=2,
                    client_count=2,
                    # Rent and prepaid gas for every cycle of every file.
                    client_funds=10**9,
                    seed=seed,
                    backend=rnd.kernels,
                )
            )

    owners: Dict[int, str] = {}
    stored: Dict[int, bytes] = {}
    with rnd.section("phase1"):
        for index, payload in enumerate(payloads):
            owner = f"client-{index % 2}"
            with rnd.span("sim.scenario.store_file", "sim"):
                file_id = deployment.store_file(owner, f"file-{index}", payload, value=1)
            owners[file_id] = owner
            stored[file_id] = payload
        with rnd.span("sim.scenario.settle_uploads", "sim"):
            deployment.settle_uploads()

    joins = 0
    departed = set()
    retrieved = 0
    retrieve_failed = 0
    unretrievable = 0
    intact = True
    with rnd.section("phase2"):
        for event, pick in zip(schedule, picks):
            healthy = [
                name
                for name, provider in sorted(deployment.providers.items())
                if provider.is_healthy() and name not in departed
            ]
            if event == "crash":
                with rnd.span("sim.scenario.crash_provider", "sim"):
                    deployment.crash_provider(healthy[int(pick * len(healthy))])
            elif event == "leave":
                leaver = healthy[int(pick * len(healthy))]
                departed.add(leaver)
                with rnd.span("core.sector_disable", "core"):
                    for sector_id, (owner, _) in sorted(deployment.sector_map.items()):
                        record = deployment.protocol.sectors.get(sector_id)
                        if owner == leaver and record is not None and record.accepts_new_files:
                            deployment.protocol.sector_disable(leaver, sector_id)
            elif event == "join":
                with rnd.span("sim.scenario.add_provider", "sim"):
                    deployment.add_provider(f"joined-{joins}", sectors=2)
                joins += 1
            with rnd.span("sim.scenario.run_cycles", "sim"):
                deployment.run_cycles(1)
        with rnd.span("sim.scenario.run_cycles", "sim"):
            deployment.run_cycles(2)
        active = sorted(d.file_id for d in deployment.protocol.active_files())
        with rnd.span("sim.scenario.retrieve_file", "sim"):
            for file_id in active:
                try:
                    data = deployment.retrieve_file(owners[file_id], file_id)
                except LookupError:
                    # An outcome of the simulated faults, like a lost file,
                    # unless a listed healthy holder did have the bytes.
                    if _listed_holder_has_bytes(deployment, file_id):
                        retrieve_failed += 1
                    else:
                        unretrievable += 1
                    continue
                retrieved += 1
                intact = intact and data == stored[file_id]
        # Section V-C stress on the post-churn placement, as the churn
        # scenario does: the greedy kernel corrupts 30% of healthy capacity.
        healthy_sectors = sorted(
            sector_id
            for sector_id in deployment.sector_map
            if deployment.sector_is_healthy(sector_id)
        )
        sector_index = {sector_id: row for row, sector_id in enumerate(healthy_sectors)}
        capacities = [
            float(deployment.protocol.sectors[sector_id].capacity)
            for sector_id in healthy_sectors
        ]
        placements = [
            [
                sector_index[sector_id]
                for sector_id in deployment.protocol.file_locations(file_id)
                if sector_id in sector_index
            ]
            for file_id in active
        ]
        with rnd.span("sim.adversary.attack", "sim"):
            attack = GreedyCapacityAdversary(seed=seed, backend=rnd.kernels).attack(
                capacities, placements, [1.0] * len(active), 0.3
            )

    summary = deployment.summary()
    files, cycles = shape["files"], shape["cycles"] + 2
    conserved = deployment.ledger.check_conservation()
    return Outcome(
        ops=files * cycles,
        phase1_ops=files,
        phase2_ops=files * cycles,
        attempted=files + len(active),
        failed=retrieve_failed,
        outputs={
            "summary": _pinned(summary, SCENARIO_SUMMARY_FIELDS),
            "retrieved": retrieved,
            "unretrievable": unretrievable,
            "schedule": schedule,
            "adversarial_loss": round(attack.value_loss_ratio, 6),
        },
        invariants={
            "ledger conserved": conserved,
            "every file stored": summary["files_stored"] == files,
            "active + lost == stored": len(active) + summary["files_lost"] == files,
            "every retrievable active file retrieved intact": intact
            and retrieved + unretrievable == len(active),
        },
        counts={
            "sim.scenario.retrieve_failed": retrieve_failed,
            "sim.scenario.unretrievable_files": unretrievable,
            "chain.ledger_conserved": float(conserved),
        },
    )


def crypto_storage_probes(shape: Mapping[str, int], seed: int) -> Dict[str, float]:
    """Direct-call probes at ``fullstack_churn``'s own sizes (traced run only)."""
    calls = shape["probe_calls"]
    file_size = _CHURN_MEAN_FILE
    replica_size = _CHURN_PARAMS["capacity_replica_size"]
    data = random.Random(0).randbytes(file_size)
    key = b"\x07" * 32
    prover = PoRepProver()
    mib = 1 << 20

    def timed(function: Callable[[int], object]) -> float:
        started = time.perf_counter()
        for index in range(calls):
            function(index)
        return time.perf_counter() - started

    setup_s = timed(lambda index: prover.setup(data, key))
    replica_s = timed(lambda index: prover.capacity_replica(replica_size, key))
    merkle_s = timed(lambda index: MerkleTree.from_data(data))
    provider = StorageProvider("probe", disk_capacity=calls * replica_size)
    sector = provider.create_sector("probe#0", calls * replica_size, replica_size)
    blobs = [random.Random(index).randbytes(file_size) for index in range(calls)]
    roots = [MerkleTree.from_data(blob).root for blob in blobs]
    store_s = timed(lambda index: sector.store_file(roots[index], blobs[index]))
    read_s = timed(lambda index: sector.read_raw_file(roots[index]))
    return {
        "crypto.porep_setup_mib_per_s": calls * file_size / mib / setup_s,
        "crypto.capacity_replica_mib_per_s": calls * replica_size / mib / replica_s,
        "crypto.merkle_mib_per_s": calls * file_size / mib / merkle_s,
        "storage.sector.store_file_ms": 1000.0 * store_s / calls,
        "storage.sector.read_raw_file_ms": 1000.0 * read_s / calls,
    }


# ----------------------------------------------------------------------
# campaign_sweep: runner and campaign overhead around trivial trials
# ----------------------------------------------------------------------
class _TimedStore(ResultStore):
    """A result store whose every ``get`` and ``put`` is a recorded span."""

    def __init__(self, root, version, rnd) -> None:
        super().__init__(root, version=version)
        self._rnd = rnd
        self.put_started = 0.0

    def get(self, scenario, params, seed, quarantine=True):
        with self._rnd.span("campaign.store.get", "campaign"):
            return super().get(scenario, params, seed, quarantine)

    def put(self, manifest):
        self.put_started = time.perf_counter()
        with self._rnd.span("campaign.store.put", "campaign"):
            return super().put(manifest)


_COLLISION_SECTORS = (50, 100, 200, 400, 800, 1600, 3200, 6400)


def _campaign_spec(shape: Mapping[str, int], seed: int, seeds: int = 0) -> CampaignSpec:
    """The campaign; ``seeds`` > 0 widens every entry to that many seeds."""
    base = seed * 10_000
    return CampaignSpec(
        name="e2e-sweep",
        entries=(
            ScenarioEntry(
                "collision",
                params={"trials": 40, "batches": 2},
                sweep={"n_sectors": _COLLISION_SECTORS[: shape["collision_axis"]]},
                seeds=tuple(base + index for index in range(seeds or shape["collision_seeds"])),
            ),
            ScenarioEntry(
                "robustness",
                params={"n_files": 300, "n_sectors": 300, "trials": 4, "backend": "vectorized"},
                sweep={"k": (2, 3, 4, 5)[: shape["robustness_axis"]]},
                seeds=tuple(base + index for index in range(seeds or shape["robustness_seeds"])),
            ),
        ),
        seed=seed,
    )


def campaign_sweep(shape: Mapping[str, int], seed: int, rnd) -> Outcome:
    OUT_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
    try:
        with rnd.section("setup"):
            # Planning is measured at sweep scale: the full grid the
            # campaign is a slice of is planned (never run), then the slice.
            with rnd.span("campaign.plan", "campaign"):
                plan_campaign(_campaign_spec(shape, seed, shape["planned_seeds"]))
                spec = _campaign_spec(shape, seed)
                cells = plan_campaign(spec)
            # A fixed version token: the store must not shell out to git.
            if rnd.enabled:
                store: ResultStore = _TimedStore(root, "e2e-bench", rnd)
            else:
                store = ResultStore(root, version="e2e-bench")

        def settled(outcome) -> None:
            # The program reports each executed cell's run_scenario wall;
            # it ended where the cell's store.put began.
            if not outcome.cached and rnd.enabled:
                end = store.put_started
                rnd.add_span(
                    "runner.run_scenario", "runner",
                    end - outcome.manifest.duration_seconds, end,
                )

        with rnd.section("phase1"):
            with rnd.span("campaign.run_campaign", "campaign"):
                cold = run_campaign(spec, store, workers=1, progress=settled)
        cold_report = render_markdown(spec, cold.outcomes)

        warm_hits = 0
        with rnd.section("phase2"):
            for _ in range(shape["warm_passes"]):
                with rnd.span("campaign.run_campaign", "campaign"):
                    warm = run_campaign(spec, store, workers=1)
                warm_hits += warm.cache_hits
        warm_identical = render_markdown(spec, warm.outcomes) == cold_report

        trials = cold.trials_executed
        errored = sum(
            1
            for outcome in cold.outcomes
            for row in outcome.manifest.rows
            if isinstance(row, dict) and "error" in row
        )
        trial_wall = sum(
            float(stat.get("wall_seconds", 0.0))
            for outcome in cold.outcomes
            for stat in outcome.manifest.trial_stats
        )
        run_wall = sum(outcome.manifest.duration_seconds for outcome in cold.outcomes)
        counts: Dict[str, float] = {
            "runner.trials": trials,
            "runner.overhead_us_per_trial": 1e6 * (run_wall - trial_wall) / trials,
            "campaign.cache_hits": warm_hits,
            "campaign.cache_misses": len(cells) - cold.cache_hits,
        }
        if rnd.enabled:
            latency_us = {
                name: [
                    1e6 * (span.end - span.start)
                    for span in rnd.recorder.spans
                    if span.name == name
                ]
                for name in ("campaign.store.get", "campaign.store.put")
            }
            counts["campaign.store.put_us_p50"] = float(
                numpy.median(latency_us["campaign.store.put"])
            )
            get_p50, get_p99 = numpy.percentile(latency_us["campaign.store.get"], [50, 99])
            counts["campaign.store.get_us_p50"] = float(get_p50)
            counts["campaign.store.get_us_p99"] = float(get_p99)
        rows = sorted(
            (outcome.cell.label, outcome.manifest.rows, outcome.manifest.summary)
            for outcome in cold.outcomes
        )
        warm_cells = len(cells) * shape["warm_passes"]
        return Outcome(
            ops=trials,
            phase1_ops=trials,
            phase2_ops=warm_cells,
            attempted=trials + warm_cells,
            failed=errored + (warm_cells - warm_hits),
            outputs={"rows": rows},
            invariants={
                "cold pass executed every cell": cold.cache_hits == 0
                and cold.cells == len(cells),
                "warm passes 100% cache hits": warm_hits == warm_cells,
                "warm report byte-identical": warm_identical,
            },
            counts=counts,
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)


def pool_speedup(shape: Mapping[str, int], seed: int) -> Dict[str, float]:
    """Cold-pass wall with ``workers=1`` over ``workers=2`` (traced run only)."""
    spec = _campaign_spec(shape, seed)
    walls = []
    for workers in (1, 2):
        root = Path(tempfile.mkdtemp(prefix="pool-", dir=OUT_DIR))
        try:
            result = run_campaign(spec, ResultStore(root, version="e2e-bench"), workers=workers)
            walls.append(result.duration_seconds)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return {"runner.pool_speedup": walls[0] / walls[1]}


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[Mapping[str, int], int, object], Outcome]
    #: Pinned shape: each round takes one to three seconds on the baseline
    #: host, so a run fits several rounds into the driver's time cap.
    shape: Mapping[str, int]
    #: Toy shape for the smoke test (whole suite under ten seconds).
    toy: Mapping[str, int]
    why: str
    #: Extra per-layer measurements a traced run makes once, beside its rounds.
    probes: Optional[Callable[[Mapping[str, int], int], Dict[str, float]]] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fill_prove",
            fill_prove,
            dict(files=100_000, sectors=10_000, batch=10_000, cycles=4),
            dict(files=2_000, sectors=200, batch=500, cycles=2),
            "Happy path of the columnar engine: batched File Add, then vectorised proof "
            "sweeps; core + kernels.batch_weighted_draw do the work, sim/runner/campaign none.",
        ),
        Workload(
            "refresh_storm",
            refresh_storm,
            dict(files=5_000, sectors=500, batch=5_000, cycles_healthy=6, cycles_degraded=3),
            dict(files=1_000, sectors=100, batch=1_000, cycles_healthy=2, cycles_degraded=1),
            "Same engine, avg_refresh=4: refresh writes beside the sweep, then 2% of sectors "
            "crash and the sweep falls to its per-file path; guards what fill_prove's fast path hides.",
        ),
        Workload(
            "table3_refresh",
            table3_refresh,
            dict(backups=1_000_000, sectors=1_000, warmup_rounds=4, multiplier=5, rounds=40),
            dict(backups=20_000, sectors=20, warmup_rounds=1, multiplier=2, rounds=2),
            "Table III at the paper's Ncp/Ns = 1000: kernels.refresh_moves / place_backups on "
            "10^6 backups; bypasses core, so a core or sampler change must leave it flat.",
        ),
        Workload(
            "lifecycle_events",
            lifecycle_events,
            dict(providers=250, files=3_000, horizon_s=1_200, arrival_window_s=400),
            dict(providers=40, files=200, horizon_s=300, arrival_window_s=60),
            "One Python event at a time through sim.engine and sim.lifecycle (crashes, refresh "
            "races, retrievals); kernels and core idle - where per-epoch batching must show.",
        ),
        Workload(
            "fullstack_churn",
            fullstack_churn,
            dict(providers=12, files=36, cycles=10, probe_calls=32),
            dict(providers=4, files=6, cycles=3, probe_calls=2),
            "The only workload moving real bytes: DSNScenario over the object protocol with "
            "PoRep sealing, provider sectors, ledger fees and a crash/leave/join schedule.",
            probes=crypto_storage_probes,
        ),
        Workload(
            "campaign_sweep",
            campaign_sweep,
            dict(
                collision_axis=4, collision_seeds=3, robustness_axis=2, robustness_seeds=2,
                warm_passes=40, planned_seeds=800,
            ),
            dict(
                collision_axis=2, collision_seeds=1, robustness_axis=1, robustness_seeds=1,
                warm_passes=3, planned_seeds=4,
            ),
            "Cheap cells through run_campaign: a cold pass (runner per-trial overhead, "
            "ResultStore.put) then all-hit warm passes (plan + ResultStore.get).",
            probes=pool_speedup,
        ),
    )
}
