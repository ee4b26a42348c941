"""``churn`` scenario: continuous provider join / leave / crash.

The paper's robustness evaluation (Section V-B) corrupts a fraction of
capacity in one shot; real deployments instead see *churn*: providers keep
joining, leaving gracefully (disabling their sectors so refreshes migrate
replicas away) and crashing without warning.  This scenario drives the
fully wired :class:`repro.sim.scenario.DSNScenario` through a configurable
number of proof cycles, injecting one churn event stream per trial from
the trial's derived seed, and reports how well the refresh loop keeps
files alive:

* ``retrievable_fraction`` -- surviving files that can actually be fetched
  and Merkle-verified end to end after the churn window;
* ``replica_health`` -- mean fraction of each surviving file's replicas
  sitting on healthy sectors (the refresh loop's recovery metric);
* ``files_lost`` / ``value_compensated`` -- protocol-level losses and the
  compensation mechanism's response;
* ``adversarial_loss`` -- Section V-C's robustness lens applied to the
  *post-churn* placement: a :class:`~repro.sim.adversary.GreedyCapacityAdversary`
  (running on the backend-dispatched :mod:`repro.kernels` greedy kernel)
  corrupts an ``adversary_lambda`` fraction of the surviving healthy
  capacity, and the realised value-loss ratio says how much churn has
  eroded the randomness of the placement;
* event counts (``joins``/``leaves``/``crashes``) so aggregated rows can be
  read against the realised churn intensity.

The trial is backend-dispatched *end to end*: the deployment's
``RandomSector()`` draws (initial placement and refresh targets) run on
the ``batch_weighted_draw`` kernel of the selected backend, and the
post-churn stress runs on the greedy kernel -- rows are bit-identical
across ``backend=reference`` and ``backend=vectorized``.

Registered with :mod:`repro.runner` as ``churn``; run it with::

    python -m repro run churn --workers 4 --set cycles=12 --set crash_rate=0.15
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.params import ProtocolParams
from repro.crypto.prng import DeterministicPRNG
from repro.runner.aggregate import compact_summary, summarize
from repro.runner.registry import BACKEND_PARAM, ParamSpec, repeated_trials, scenario
from repro.sim.adversary import GreedyCapacityAdversary
from repro.sim.scenario import DSNScenario, ScenarioConfig

__all__ = ["run_churn_trial"]

#: Scaled-down protocol constants so one trial stays in the sub-second
#: range: 256 KiB sectors with 64 KiB capacity replicas keep DRep sealing
#: cheap while preserving every ratio the protocol logic depends on.
_TRIAL_PARAMS = dict(
    min_capacity=256 << 10,
    capacity_replica_size=64 << 10,
    size_limit=128 << 10,
)

_SCENARIO_PARAMS = {
    "providers": ParamSpec(5, "providers deployed at time zero"),
    "sectors_per_provider": ParamSpec(2, "sectors each provider registers"),
    "clients": ParamSpec(2, "client actors storing files"),
    "files": ParamSpec(6, "files stored before churn starts"),
    "file_kib": ParamSpec(16, "mean file size in KiB"),
    "cycles": ParamSpec(10, "proof cycles of churn to simulate"),
    "join_rate": ParamSpec(0.3, "per-cycle probability a new provider joins"),
    "leave_rate": ParamSpec(0.15, "per-cycle probability a provider leaves gracefully"),
    "crash_rate": ParamSpec(0.15, "per-cycle probability a provider crashes"),
    "adversary_lambda": ParamSpec(
        0.3, "healthy-capacity fraction the post-churn greedy adversary corrupts"
    ),
    "backend": BACKEND_PARAM,
    "trials": ParamSpec(3, "independent repetitions"),
}


def run_churn_trial(task: Mapping[str, object]) -> Dict[str, object]:
    """Deploy, store files, churn providers for ``cycles``, measure recovery."""
    seed = int(task["seed"])  # type: ignore[arg-type]
    prng = DeterministicPRNG.from_int(seed, domain="scenario-churn")
    params = ProtocolParams.small_test().scaled(**_TRIAL_PARAMS)
    deployment = DSNScenario(
        ScenarioConfig(
            params=params,
            provider_count=int(task["providers"]),  # type: ignore[arg-type]
            sectors_per_provider=int(task["sectors_per_provider"]),  # type: ignore[arg-type]
            client_count=int(task["clients"]),  # type: ignore[arg-type]
            seed=seed,
            backend=str(task["backend"]),
        )
    )

    # Store the initial working set (sizes jittered around the mean).
    mean_size = int(task["file_kib"]) << 10  # type: ignore[arg-type]
    file_owners: Dict[int, str] = {}
    for index in range(int(task["files"])):  # type: ignore[arg-type]
        owner = f"client-{index % int(task['clients'])}"  # type: ignore[arg-type]
        size = prng.randint(mean_size // 2, min(2 * mean_size, params.size_limit))
        file_id = deployment.store_file(
            owner, f"file-{index}", prng.random_bytes(size), value=1
        )
        file_owners[file_id] = owner
    deployment.settle_uploads()

    # Churn loop: at most one event of each kind per cycle, then one cycle
    # of simulated time so the refresh machinery reacts between events.
    joins = leaves = crashes = 0
    departed: set = set()
    for _ in range(int(task["cycles"])):  # type: ignore[arg-type]
        healthy = [
            name
            for name, provider in sorted(deployment.providers.items())
            if provider.is_healthy()
        ]
        if healthy and prng.random() < float(task["crash_rate"]):  # type: ignore[arg-type]
            deployment.crash_provider(prng.choice(healthy))
            crashes += 1
            healthy = [name for name in healthy if deployment.providers[name].is_healthy()]
        # A provider that already left keeps serving reads while its
        # sectors drain, but it cannot "leave" a second time.
        leavable = [name for name in healthy if name not in departed]
        if leavable and prng.random() < float(task["leave_rate"]):  # type: ignore[arg-type]
            leaver = prng.choice(leavable)
            departed.add(leaver)
            for sector_id, (owner, _) in sorted(deployment.sector_map.items()):
                record = deployment.protocol.sectors.get(sector_id)
                if owner == leaver and record is not None and record.accepts_new_files:
                    deployment.protocol.sector_disable(leaver, sector_id)
            leaves += 1
        if prng.random() < float(task["join_rate"]):  # type: ignore[arg-type]
            deployment.add_provider(
                f"joined-{joins}", sectors=int(task["sectors_per_provider"])  # type: ignore[arg-type]
            )
            joins += 1
        deployment.run_cycles(1)

    # Let in-flight refreshes settle before measuring recovery.
    deployment.run_cycles(2)

    protocol = deployment.protocol
    active = protocol.active_files()
    retrievable = 0
    replica_health_total = 0.0
    for descriptor in active:
        locations = protocol.file_locations(descriptor.file_id)
        healthy_replicas = sum(
            1
            for sector_id in locations
            if sector_id is not None and deployment.sector_is_healthy(sector_id)
        )
        replica_health_total += healthy_replicas / max(1, len(locations))
        try:
            deployment.retrieve_file(file_owners[descriptor.file_id], descriptor.file_id)
            retrievable += 1
        except LookupError:
            pass

    # Section V-C stress on the post-churn placement: map surviving
    # replicas onto the healthy sectors and let the greedy kernel corrupt
    # an adversary_lambda fraction of the surviving capacity.
    healthy_sectors = sorted(
        sector_id
        for sector_id in deployment.sector_map
        if deployment.sector_is_healthy(sector_id)
    )
    sector_index = {sector_id: i for i, sector_id in enumerate(healthy_sectors)}
    capacities = []
    for sector_id in healthy_sectors:
        record = protocol.sectors.get(sector_id)
        capacities.append(float(record.capacity) if record is not None else 0.0)
    placements = []
    values = []
    for descriptor in active:
        replica_sectors = [
            sector_index[sector_id]
            for sector_id in protocol.file_locations(descriptor.file_id)
            if sector_id in sector_index
        ]
        if replica_sectors:
            placements.append(replica_sectors)
            values.append(float(descriptor.value))
    adversarial_loss = 0.0
    if placements and sum(capacities) > 0:
        adversary = GreedyCapacityAdversary(seed=seed, backend=str(task["backend"]))
        outcome = adversary.attack(
            capacities, placements, values, float(task["adversary_lambda"])  # type: ignore[arg-type]
        )
        adversarial_loss = outcome.value_loss_ratio

    snapshot = deployment.summary()
    return {
        "joins": joins,
        "leaves": leaves,
        "crashes": crashes,
        "files_stored": int(snapshot["files_stored"]),
        "files_lost": int(snapshot["files_lost"]),
        "retrievable_fraction": round(retrievable / max(1, len(active)), 4) if active else 0.0,
        "replica_health": round(replica_health_total / max(1, len(active)), 4),
        "adversarial_loss": round(adversarial_loss, 4),
        "value_compensated": snapshot["value_compensated"],
        "healthy_providers": int(snapshot["healthy_providers"]),
        "providers": int(snapshot["providers"]),
        "bytes_transferred": int(snapshot["bytes_transferred"]),
    }


def _aggregate(rows, params):
    """Mean churn intensity and recovery quality across repetitions."""
    return compact_summary(
        summarize(
            rows,
            group_by=(),
            values=(
                "crashes",
                "leaves",
                "joins",
                "files_lost",
                "retrievable_fraction",
                "replica_health",
                "adversarial_loss",
                "value_compensated",
            ),
        ),
        keep=("mean", "ci95"),
    )


scenario(
    "churn",
    "Provider churn: join/leave/crash over proof cycles with refresh recovery metrics",
    build_trials=repeated_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("workload", "end-to-end", "churn"),
)(run_churn_trial)
