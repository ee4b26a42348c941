"""Discrete-event simulation substrate.

The paper's evaluation is simulation-based (Table III numerical experiments
plus the concrete robustness/deposit examples).  This package provides:

* :mod:`repro.sim.engine` -- a deterministic discrete-event engine.
* :mod:`repro.sim.network` -- a latency/bandwidth message-passing model.
* :mod:`repro.sim.workload` -- file size/value generators for the five
  distributions of Table III and general DSN workloads.
* :mod:`repro.sim.placement` -- the vectorised replica-placement engine
  behind the Table III capacity-usage experiments.
* :mod:`repro.sim.adversary` -- adversary models corrupting a fraction of
  capacity (targeted and random).
* :mod:`repro.sim.metrics` -- metric collection helpers.
* :mod:`repro.sim.lifecycle` -- the file/provider lifecycle transition
  tables and the event-driven deployment director behind the
  ``lifecycle_churn`` scenario.
* :mod:`repro.sim.scenario` -- an end-to-end harness wiring the chain, the
  protocol, physical providers and clients together.
"""

from repro.sim.adversary import CorruptionOutcome, GreedyCapacityAdversary, RandomCapacityAdversary
from repro.sim.engine import Event, SimulationEngine
from repro.sim.lifecycle import (
    FileLifecycleEvent,
    FileLifecycleState,
    InvalidTransitionError,
    Lifecycle,
    LifecycleConfig,
    LifecycleSimulation,
    ProviderLifecycleEvent,
    ProviderLifecycleState,
)
from repro.sim.metrics import MetricSeries, linear_percentile
from repro.sim.network import LatencyModel, NetworkMessage, SimulatedNetwork
from repro.sim.placement import PlacementExperiment, PlacementResult
from repro.sim.scenario import DSNScenario, ScenarioConfig
from repro.sim.workload import FileSizeDistribution, WorkloadGenerator

__all__ = [
    "CorruptionOutcome",
    "DSNScenario",
    "Event",
    "FileLifecycleEvent",
    "FileLifecycleState",
    "FileSizeDistribution",
    "GreedyCapacityAdversary",
    "InvalidTransitionError",
    "LatencyModel",
    "Lifecycle",
    "LifecycleConfig",
    "LifecycleSimulation",
    "MetricSeries",
    "NetworkMessage",
    "PlacementExperiment",
    "PlacementResult",
    "ProviderLifecycleEvent",
    "ProviderLifecycleState",
    "RandomCapacityAdversary",
    "ScenarioConfig",
    "SimulatedNetwork",
    "SimulationEngine",
    "WorkloadGenerator",
    "linear_percentile",
]
