"""``lifecycle_churn`` scenario: event-driven heavy-traffic deployment.

Where ``churn`` advances the fully wired deployment on rigid proof-cycle
ticks, this scenario exercises the dynamics the paper's deployment claims
actually rest on -- and a fixed cadence cannot express:

* **Poisson arrivals** for both file uploads and retrieval requests, with
  configurable **flash crowds** multiplying the retrieval rate inside
  burst windows;
* **per-provider exponential failure/recovery clocks** (MTBF / MTTR)
  plus **correlated regional failures** that crash a whole failure
  region at one instant;
* **refreshes racing degradation deadlines** through
  :meth:`~repro.sim.engine.SimulationEngine.cancel` -- whichever event
  lands first cancels the other.

Every transition runs through the explicit
:class:`~repro.sim.lifecycle.FileMachine` /
:class:`~repro.sim.lifecycle.ProviderMachine` state machines, so an
impossible sequence is a typed
:class:`~repro.sim.lifecycle.InvalidTransitionError`, not a silently
wrong row.  The two bulk draws (capacity-weighted replica placement and
popularity-weighted retrieval choices) are handed as single batches to
the backend-dispatched :mod:`repro.kernels` seam, so rows are
bit-identical across ``backend=reference`` and ``backend=vectorized``.

Reported per trial: lifecycle outcome counts (placed / refreshed / lost,
crashes / recoveries / departures), retrieval service quality as
``latency_p50_s`` / ``latency_p99_s`` (numpy-equivalent linear
percentiles) against the ``DelayPerSize`` deadline (``miss_rate``), and
engine accounting (``events_processed`` / ``events_cancelled``).

With ``repro run lifecycle_churn --metrics`` the run additionally
records the *trajectories* behind those scalars through
:mod:`repro.telemetry.metrics`: retrieval-latency / refresh-lag /
replica-count histograms plus gauge time-series of files per lifecycle
state, active providers and the refresh backlog, sampled at sim-time
checkpoints.  Metrics are inert -- rows are byte-identical either way.

Registered with :mod:`repro.runner` as ``lifecycle_churn``; run it with::

    python -m repro run lifecycle_churn --set flash_crowds=2 --set regional_failures=1
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.runner.aggregate import compact_summary, summarize
from repro.runner.registry import BACKEND_PARAM, ParamSpec, repeated_trials, scenario
from repro.sim.lifecycle import LifecycleConfig, LifecycleSimulation

__all__ = ["run_lifecycle_churn_trial"]

_SCENARIO_PARAMS = {
    "providers": ParamSpec(12, "providers active at time zero"),
    "regions": ParamSpec(3, "failure regions providers are spread across"),
    "slots_per_provider": ParamSpec(8, "replica slots each provider offers"),
    "files": ParamSpec(24, "files arriving in the opening Poisson window"),
    "replicas": ParamSpec(3, "replica target per file"),
    "horizon_s": ParamSpec(600.0, "simulated seconds to run the deployment"),
    "mtbf_s": ParamSpec(500.0, "mean time between per-provider failures"),
    "mttr_s": ParamSpec(60.0, "mean provider crash-to-recovery delay"),
    "departures": ParamSpec(1, "providers gracefully departing mid-run"),
    "retrieval_rate": ParamSpec(1.0, "base Poisson retrieval arrivals per second"),
    "flash_crowds": ParamSpec(1, "flash-crowd burst windows in the horizon"),
    "flash_multiplier": ParamSpec(8.0, "retrieval-rate multiplier inside a burst"),
    "regional_failures": ParamSpec(1, "correlated whole-region failure events"),
    "degrade_timeout_s": ParamSpec(180.0, "degradation deadline a refresh races"),
    "delay_per_size": ParamSpec(5e-5, "DelayPerSize retrieval deadline (s/byte)"),
    "backend": BACKEND_PARAM,
    "trials": ParamSpec(3, "independent repetitions"),
}


def run_lifecycle_churn_trial(task: Mapping[str, object]) -> Dict[str, object]:
    """Run one event-driven deployment to the horizon and report its row."""
    config = LifecycleConfig(
        providers=int(task["providers"]),  # type: ignore[arg-type]
        regions=int(task["regions"]),  # type: ignore[arg-type]
        slots_per_provider=int(task["slots_per_provider"]),  # type: ignore[arg-type]
        files=int(task["files"]),  # type: ignore[arg-type]
        replicas=int(task["replicas"]),  # type: ignore[arg-type]
        horizon_s=float(task["horizon_s"]),  # type: ignore[arg-type]
        mtbf_s=float(task["mtbf_s"]),  # type: ignore[arg-type]
        mttr_s=float(task["mttr_s"]),  # type: ignore[arg-type]
        departures=int(task["departures"]),  # type: ignore[arg-type]
        retrieval_rate=float(task["retrieval_rate"]),  # type: ignore[arg-type]
        flash_crowds=int(task["flash_crowds"]),  # type: ignore[arg-type]
        flash_multiplier=float(task["flash_multiplier"]),  # type: ignore[arg-type]
        regional_failures=int(task["regional_failures"]),  # type: ignore[arg-type]
        degrade_timeout_s=float(task["degrade_timeout_s"]),  # type: ignore[arg-type]
        delay_per_size=float(task["delay_per_size"]),  # type: ignore[arg-type]
        backend=str(task["backend"]),
        seed=int(task["seed"]),  # type: ignore[arg-type]
    )
    return LifecycleSimulation(config).run()


def _aggregate(rows, params):
    """Mean lifecycle outcomes and service quality across repetitions."""
    return compact_summary(
        summarize(
            rows,
            group_by=(),
            values=(
                "files_lost",
                "refreshes_completed",
                "refreshes_beat_deadline",
                "provider_crashes",
                "retrievals",
                "miss_rate",
                "latency_p50_s",
                "latency_p99_s",
                "events_cancelled",
            ),
        ),
        keep=("mean", "ci95"),
    )


scenario(
    "lifecycle_churn",
    "Event-driven lifecycle churn: Poisson arrivals, failure clocks, flash crowds, refresh races",
    build_trials=repeated_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("workload", "lifecycle", "event-driven", "churn"),
)(run_lifecycle_churn_trial)
