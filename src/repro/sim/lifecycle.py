"""Explicit lifecycle state machines driven by the discrete-event engine.

The deployment dynamics the paper's claims rest on -- Poisson retrieval
bursts, correlated provider failures, refreshes racing degradation -- are
expressed here as two small, rigorously checkable state machines plus an
event-driven director:

* :class:`FileMachine` -- ``pending -> placed -> degraded -> refreshing ->
  refreshed / lost``.  ``lost`` is terminal.
* :class:`ProviderMachine` -- ``joined -> active -> crashed -> recovered ->
  departed``.  ``departed`` is terminal.

Every transition is an explicit ``(state, event) -> state`` entry in
:data:`FILE_TRANSITIONS` / :data:`PROVIDER_TRANSITIONS`; applying an event
outside the table raises a typed :class:`InvalidTransitionError`.  The
tables are module-level data so the test pack can assert *every* pair
exhaustively (``tests/test_sim_lifecycle.py``).

:class:`LifecycleSimulation` schedules the whole deployment on
:class:`~repro.sim.engine.SimulationEngine`: Poisson file arrivals,
per-provider exponential failure/recovery clocks, graceful departures,
flash-crowd retrieval bursts and correlated regional failures are all
engine events, with the two bulk draws (capacity-weighted replica
placement and popularity-weighted retrieval choices) handed as single
batches to the backend-dispatched :mod:`repro.kernels` seam -- so rows
are bit-identical across backends.  Refreshes race degradation deadlines
through :meth:`SimulationEngine.cancel`: whichever lands first cancels
the other.

Each applied transition bumps a ``lifecycle.<machine>.<event>`` telemetry
counter (category ``lifecycle``), so traced runs show the transition mix
next to the kernel and protocol spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.selector import WeightedSampler
from repro.crypto.prng import DeterministicPRNG
from repro.sim.engine import Event, SimulationEngine
from repro.sim.network import LatencyModel
from repro.telemetry import counter, metrics

__all__ = [
    "FILE_TRANSITIONS",
    "PROVIDER_TRANSITIONS",
    "FileLifecycleEvent",
    "FileLifecycleState",
    "FileMachine",
    "InvalidTransitionError",
    "LifecycleConfig",
    "LifecycleRegistry",
    "LifecycleSimulation",
    "ProviderLifecycleEvent",
    "ProviderLifecycleState",
    "ProviderMachine",
    "TransitionRecord",
    "flash_crowd_windows",
    "poisson_times",
    "zipf_weights",
]


# ----------------------------------------------------------------------
# States, events and transition tables
# ----------------------------------------------------------------------
class FileLifecycleState(str, Enum):
    """Lifecycle of one stored file."""

    PENDING = "pending"
    PLACED = "placed"
    DEGRADED = "degraded"
    REFRESHING = "refreshing"
    REFRESHED = "refreshed"
    LOST = "lost"


class FileLifecycleEvent(str, Enum):
    """Events a file lifecycle reacts to."""

    PLACEMENT_CONFIRMED = "placement_confirmed"
    PLACEMENT_FAILED = "placement_failed"
    REPLICA_DEGRADED = "replica_degraded"
    REFRESH_STARTED = "refresh_started"
    REFRESH_COMPLETED = "refresh_completed"
    REFRESH_FAILED = "refresh_failed"
    ALL_REPLICAS_LOST = "all_replicas_lost"


class ProviderLifecycleState(str, Enum):
    """Lifecycle of one storage provider."""

    JOINED = "joined"
    ACTIVE = "active"
    CRASHED = "crashed"
    RECOVERED = "recovered"
    DEPARTED = "departed"


class ProviderLifecycleEvent(str, Enum):
    """Events a provider lifecycle reacts to."""

    ACTIVATED = "activated"
    CRASHED = "crashed"
    RECOVERED = "recovered"
    DEPARTED = "departed"


#: The complete file transition relation.  Any ``(state, event)`` pair not
#: listed here is invalid and raises :class:`InvalidTransitionError`.
#: ``REPLICA_DEGRADED`` self-loops on ``DEGRADED`` (another replica lost
#: while already degraded) and on ``REFRESHING`` (a concurrent replica
#: loss does not abort the in-flight refresh).
FILE_TRANSITIONS: Mapping[
    Tuple[FileLifecycleState, FileLifecycleEvent], FileLifecycleState
] = {
    (FileLifecycleState.PENDING, FileLifecycleEvent.PLACEMENT_CONFIRMED): FileLifecycleState.PLACED,
    (FileLifecycleState.PENDING, FileLifecycleEvent.PLACEMENT_FAILED): FileLifecycleState.LOST,
    (FileLifecycleState.PLACED, FileLifecycleEvent.REPLICA_DEGRADED): FileLifecycleState.DEGRADED,
    (FileLifecycleState.REFRESHED, FileLifecycleEvent.REPLICA_DEGRADED): FileLifecycleState.DEGRADED,
    (FileLifecycleState.DEGRADED, FileLifecycleEvent.REPLICA_DEGRADED): FileLifecycleState.DEGRADED,
    (FileLifecycleState.REFRESHING, FileLifecycleEvent.REPLICA_DEGRADED): FileLifecycleState.REFRESHING,
    (FileLifecycleState.DEGRADED, FileLifecycleEvent.REFRESH_STARTED): FileLifecycleState.REFRESHING,
    (FileLifecycleState.REFRESHING, FileLifecycleEvent.REFRESH_COMPLETED): FileLifecycleState.REFRESHED,
    (FileLifecycleState.REFRESHING, FileLifecycleEvent.REFRESH_FAILED): FileLifecycleState.DEGRADED,
    (FileLifecycleState.DEGRADED, FileLifecycleEvent.ALL_REPLICAS_LOST): FileLifecycleState.LOST,
    (FileLifecycleState.REFRESHING, FileLifecycleEvent.ALL_REPLICAS_LOST): FileLifecycleState.LOST,
}

#: The complete provider transition relation.  A crashed provider cannot
#: gracefully depart (its deposit is already forfeit) and a departed
#: provider never transitions again.
PROVIDER_TRANSITIONS: Mapping[
    Tuple[ProviderLifecycleState, ProviderLifecycleEvent], ProviderLifecycleState
] = {
    (ProviderLifecycleState.JOINED, ProviderLifecycleEvent.ACTIVATED): ProviderLifecycleState.ACTIVE,
    (ProviderLifecycleState.RECOVERED, ProviderLifecycleEvent.ACTIVATED): ProviderLifecycleState.ACTIVE,
    (ProviderLifecycleState.ACTIVE, ProviderLifecycleEvent.CRASHED): ProviderLifecycleState.CRASHED,
    (ProviderLifecycleState.RECOVERED, ProviderLifecycleEvent.CRASHED): ProviderLifecycleState.CRASHED,
    (ProviderLifecycleState.CRASHED, ProviderLifecycleEvent.RECOVERED): ProviderLifecycleState.RECOVERED,
    (ProviderLifecycleState.JOINED, ProviderLifecycleEvent.DEPARTED): ProviderLifecycleState.DEPARTED,
    (ProviderLifecycleState.ACTIVE, ProviderLifecycleEvent.DEPARTED): ProviderLifecycleState.DEPARTED,
    (ProviderLifecycleState.RECOVERED, ProviderLifecycleEvent.DEPARTED): ProviderLifecycleState.DEPARTED,
}


class InvalidTransitionError(Exception):
    """An event was applied in a state whose transition is undefined."""

    def __init__(self, machine: str, subject: object, state: Enum, event: Enum) -> None:
        self.machine = machine
        self.subject = subject
        self.state = state
        self.event = event
        super().__init__(
            f"{machine} {subject!r}: event {event.value!r} is invalid in "
            f"state {state.value!r}"
        )


@dataclass(frozen=True)
class TransitionRecord:
    """One applied transition, for histories and audits."""

    time: float
    machine: str
    subject: object
    from_state: Enum
    event: Enum
    to_state: Enum


class LifecycleMachine:
    """Table-driven state machine with typed invalid-transition failures."""

    MACHINE: str = ""
    TRANSITIONS: Mapping[Tuple[Enum, Enum], Enum] = {}
    INITIAL: Enum
    TERMINAL: frozenset = frozenset()
    #: Telemetry counter name per event, spelled out once per machine
    #: class instead of once per applied transition.
    COUNTERS: Mapping[Enum, str] = {}

    __slots__ = ("subject", "state", "history")

    def __init__(self, subject: object, state: Optional[Enum] = None) -> None:
        self.subject = subject
        self.state = state if state is not None else self.INITIAL
        self.history: List[TransitionRecord] = []

    @property
    def is_terminal(self) -> bool:
        """True once no event can ever apply again."""
        return self.state in self.TERMINAL

    def can_apply(self, event: Enum) -> bool:
        """True if ``event`` is valid in the current state."""
        return (self.state, event) in self.TRANSITIONS

    def peek(self, event: Enum) -> Enum:
        """The state ``event`` would lead to, or raise without applying."""
        try:
            return self.TRANSITIONS[(self.state, event)]
        except KeyError:
            raise InvalidTransitionError(
                self.MACHINE, self.subject, self.state, event
            ) from None

    def apply(self, event: Enum, time: float = 0.0) -> TransitionRecord:
        """Apply ``event``, record the transition, bump its counter."""
        to_state = self.peek(event)
        record = TransitionRecord(time, self.MACHINE, self.subject, self.state, event, to_state)
        self.state = to_state
        self.history.append(record)
        counter(self.COUNTERS[event], category="lifecycle")
        return record

    def apply_if_valid(self, event: Enum, time: float = 0.0) -> Optional[TransitionRecord]:
        """Apply ``event`` when valid; return None (no-op) otherwise."""
        if not self.can_apply(event):
            return None
        return self.apply(event, time=time)

    @classmethod
    def valid_events(cls, state: Enum) -> List[Enum]:
        """All events with a defined transition out of ``state``."""
        return [event for (from_state, event) in cls.TRANSITIONS if from_state == state]


class FileMachine(LifecycleMachine):
    """File lifecycle: ``pending -> placed -> degraded -> refreshing ->
    refreshed / lost``."""

    MACHINE = "file"
    TRANSITIONS = FILE_TRANSITIONS
    INITIAL = FileLifecycleState.PENDING
    COUNTERS = {event: f"lifecycle.file.{event.value}" for event in FileLifecycleEvent}
    TERMINAL = frozenset({FileLifecycleState.LOST})


class ProviderMachine(LifecycleMachine):
    """Provider lifecycle: ``joined -> active -> crashed -> recovered ->
    departed``."""

    MACHINE = "provider"
    TRANSITIONS = PROVIDER_TRANSITIONS
    INITIAL = ProviderLifecycleState.JOINED
    COUNTERS = {event: f"lifecycle.provider.{event.value}" for event in ProviderLifecycleEvent}
    TERMINAL = frozenset({ProviderLifecycleState.DEPARTED})


class LifecycleRegistry:
    """A population of file and provider machines with shared accounting.

    :class:`~repro.sim.scenario.DSNScenario` holds one of these so the
    fully wired deployment exposes the same queryable lifecycle view as
    the event-driven :class:`LifecycleSimulation`.
    """

    def __init__(self) -> None:
        self.files: Dict[int, FileMachine] = {}
        self.providers: Dict[str, ProviderMachine] = {}

    def file(self, file_id: int) -> FileMachine:
        """The file's machine, created in ``PENDING`` on first use."""
        machine = self.files.get(file_id)
        if machine is None:
            machine = self.files[file_id] = FileMachine(file_id)
        return machine

    def provider(self, name: str) -> ProviderMachine:
        """The provider's machine, created in ``JOINED`` on first use."""
        machine = self.providers.get(name)
        if machine is None:
            machine = self.providers[name] = ProviderMachine(name)
        return machine

    def transition_counts(self) -> Dict[str, int]:
        """``"<machine>.<event>" -> times applied`` across the population."""
        counts: Dict[str, int] = {}
        for machine in list(self.files.values()) + list(self.providers.values()):
            for record in machine.history:
                key = f"{record.machine}.{record.event.value}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def state_counts(self) -> Dict[str, int]:
        """``"<machine>.<state>" -> machines currently in that state``."""
        counts: Dict[str, int] = {}
        for machine in list(self.files.values()) + list(self.providers.values()):
            key = f"{machine.MACHINE}.{machine.state.value}"
            counts[key] = counts.get(key, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Event generators
# ----------------------------------------------------------------------
def poisson_times(
    prng: DeterministicPRNG, rate_per_s: float, horizon_s: float, offset_s: float = 0.0
) -> List[float]:
    """Arrival times of a Poisson process over ``[offset, offset+horizon]``."""
    if rate_per_s <= 0 or horizon_s <= 0:
        return []
    times: List[float] = []
    t = 0.0
    while True:
        t += prng.expovariate(1.0 / rate_per_s)
        if t > horizon_s:
            return times
        times.append(offset_s + t)


def flash_crowd_windows(
    prng: DeterministicPRNG,
    crowds: int,
    duration_s: float,
    horizon_s: float,
) -> List[Tuple[float, float]]:
    """``crowds`` non-anchored burst windows ``(start, end)`` inside the horizon."""
    if crowds <= 0 or duration_s <= 0 or horizon_s <= duration_s:
        return []
    windows = []
    for _ in range(crowds):
        start = prng.random() * (horizon_s - duration_s)
        windows.append((start, start + duration_s))
    return sorted(windows)


#: Popularity weights are integer for ``batch_weighted_draw``: rank ``r``
#: gets ``720720 // (r + 1)`` -- 1/rank popularity quantised exactly for
#: the first 16 ranks, where essentially all of the mass sits.
_POPULARITY_UNIT = 720_720  # lcm(1..16)


def zipf_weights(count: int) -> List[int]:
    """Integer 1/rank popularity weights for a catalog of ``count`` files."""
    return [max(1, _POPULARITY_UNIT // (rank + 1)) for rank in range(count)]


# ----------------------------------------------------------------------
# Event-driven deployment simulation
# ----------------------------------------------------------------------
#: Same-timestamp event priorities: provider state changes resolve before
#: file lifecycle reactions, which resolve before retrieval arrivals.
PRIORITY_PROVIDER = 0
PRIORITY_FILE = 1
PRIORITY_RETRIEVAL = 2

#: Spawn-key constants separating the two kernel draw streams derived
#: from one trial seed.
_PLACEMENT_STREAM = 0
_RETRIEVAL_STREAM = 1


@dataclass(frozen=True)
class LifecycleConfig:
    """Configuration of one event-driven lifecycle deployment."""

    providers: int = 12
    #: Providers are assigned round-robin to this many failure regions.
    regions: int = 3
    #: Replica slots per provider (the placement capacity unit).
    slots_per_provider: int = 8
    files: int = 24
    replicas: int = 3
    mean_size_bytes: int = 64 << 10
    horizon_s: float = 600.0
    #: Files arrive as a Poisson stream inside this opening window.
    arrival_window_s: float = 120.0
    #: Mean time between per-provider failures (exponential clock).
    mtbf_s: float = 500.0
    #: Mean crash -> recovered delay (exponential clock).
    mttr_s: float = 60.0
    #: Providers gracefully departing mid-run (drain + refresh away).
    departures: int = 0
    #: Base Poisson retrieval arrival rate (requests per second).
    retrieval_rate: float = 1.0
    flash_crowds: int = 0
    flash_multiplier: float = 8.0
    flash_duration_s: float = 30.0
    #: Correlated regional failure events (all active providers in one
    #: region crash at the same instant).
    regional_failures: int = 0
    #: Degradation detection delay before a refresh is scheduled.
    detection_delay_s: float = 5.0
    #: A degradation episode that outlives this deadline loses the file.
    degrade_timeout_s: float = 180.0
    refresh_retry_s: float = 15.0
    delay_per_size: float = 5e-5
    zipf_popularity: bool = True
    latency: LatencyModel = field(
        default_factory=lambda: LatencyModel(
            base_latency_s=0.02, bandwidth_bytes_per_s=4 * 1024 * 1024, jitter_fraction=0.1
        )
    )
    backend: Optional[str] = None
    seed: int = 0


class LifecycleSimulation:
    """Files and providers as state machines on the discrete-event engine.

    Construction precomputes every exogenous event stream (file arrivals,
    failure clocks, departures, regional failures, retrieval arrivals
    with flash crowds) plus the two kernel batches, then :meth:`run`
    executes the whole deployment as one deterministic event cascade.
    """

    def __init__(self, config: Optional[LifecycleConfig] = None) -> None:
        self.config = config or LifecycleConfig()
        if self.config.providers <= 0:
            raise ValueError("providers must be positive")
        if self.config.replicas <= 0:
            raise ValueError("replicas must be positive")
        self.engine = SimulationEngine()
        self.registry = LifecycleRegistry()
        self._prng = DeterministicPRNG.from_int(self.config.seed, domain="lifecycle-sim")
        self._jitter = DeterministicPRNG.from_int(self.config.seed, domain="lifecycle-jitter")

        cfg = self.config
        self.provider_names = [f"provider-{i}" for i in range(cfg.providers)]
        self.region_of = {
            name: index % max(1, cfg.regions)
            for index, name in enumerate(self.provider_names)
        }
        self.capacity = {name: cfg.slots_per_provider for name in self.provider_names}
        self.used: Dict[str, int] = {name: 0 for name in self.provider_names}
        #: Refresh-target weight per provider: its free slots while it is
        #: ``ACTIVE``, else 0.  Kept in step by :meth:`_sync_refresh_weight`
        #: so a draw walks the Fenwick tree instead of every provider;
        #: slot order is ``provider_names`` order (nothing is ever removed).
        self._refresh_weights: WeightedSampler[str] = WeightedSampler()
        for name in self.provider_names:
            self._refresh_weights.add(name, 0)
        #: Replica sets per file and the reverse hosting index.
        self.replicas_of: Dict[int, Set[str]] = {}
        self.hosted_files: Dict[str, Set[int]] = {name: set() for name in self.provider_names}
        #: In-flight refresh target -> files refreshing onto it.
        self._inbound_refresh: Dict[str, Set[int]] = {
            name: set() for name in self.provider_names
        }
        #: Pending cancellable events per subject.
        self._crash_clock: Dict[str, Event] = {}
        self._departure_event: Dict[str, Event] = {}
        self._refresh_start: Dict[int, Event] = {}
        self._refresh_complete: Dict[int, Tuple[Event, str]] = {}
        self._loss_deadline: Dict[int, Event] = {}
        #: When each file's current degradation episode began -- the
        #: refresh-lag histogram's clock.  Maintained unconditionally
        #: (cheap, no RNG) so rows stay identical with metrics on or off.
        self._degraded_since: Dict[int, float] = {}
        #: Gauge-snapshot decimation: the engine probe fires per event,
        #: but gauges are recorded on ~32 sim-time checkpoints.
        self._metrics_interval = max(self.config.horizon_s / 32.0, 1e-9)
        self._next_metrics_t = 0.0

        # Stats the row is built from.
        self.sizes: Dict[int, int] = {}
        self.latencies: List[float] = []
        self.retrievals = 0
        self.flash_retrievals = 0
        self.unserved = 0
        self.deadline_misses = 0
        self.refresh_failures = 0
        self.regional_failures_fired = 0
        self.placement_failures = 0
        self.refreshes_cancelled_degradation = 0
        self.min_free_slots = cfg.slots_per_provider
        self._busy_until: Dict[str, float] = {name: 0.0 for name in self.provider_names}

        self._schedule_providers()
        self._schedule_files()
        self._schedule_retrievals()
        self._schedule_regional_failures()

    # ------------------------------------------------------------------
    # Capacity bookkeeping (the "never negative" invariant)
    # ------------------------------------------------------------------
    def _reserve_slot(self, provider: str) -> None:
        self.used[provider] += 1
        free = self.capacity[provider] - self.used[provider]
        if free < 0:
            raise RuntimeError(f"negative free capacity on {provider}")
        self.min_free_slots = min(self.min_free_slots, free)
        self._sync_refresh_weight(provider)

    def _release_all(self, provider: str) -> None:
        """A crash or departure empties the provider: every slot frees."""
        self.used[provider] = 0
        self._sync_refresh_weight(provider)

    def _sync_refresh_weight(self, provider: str) -> None:
        """Re-derive the provider's refresh-target weight.

        Called wherever ``used`` or the provider's state changes.
        """
        active = self.registry.provider(provider).state is ProviderLifecycleState.ACTIVE
        self._refresh_weights.update_weight(
            provider, self.capacity[provider] - self.used[provider] if active else 0
        )

    # ------------------------------------------------------------------
    # Setup: providers
    # ------------------------------------------------------------------
    def _schedule_providers(self) -> None:
        cfg = self.config
        departing = set()
        if cfg.departures > 0:
            departing = set(
                self.provider_names[i]
                for i in self._prng.sample_indices(
                    len(self.provider_names), min(cfg.departures, len(self.provider_names))
                )
            )
        for name in self.provider_names:
            machine = self.registry.provider(name)
            machine.apply(ProviderLifecycleEvent.ACTIVATED, time=0.0)
            self._sync_refresh_weight(name)
            self._arm_crash_clock(name, 0.0)
            if name in departing:
                when = self._prng.random() * cfg.horizon_s
                self._departure_event[name] = self.engine.schedule_at(
                    when,
                    lambda n=name: self._on_departure(n),
                    priority=PRIORITY_PROVIDER,
                    label=f"depart:{name}",
                )

    def _arm_crash_clock(self, name: str, now: float) -> None:
        delay = self._prng.expovariate(self.config.mtbf_s)
        if now + delay > self.config.horizon_s:
            self._crash_clock.pop(name, None)
            return
        self._crash_clock[name] = self.engine.schedule_at(
            now + delay,
            lambda: self._on_crash(name),
            priority=PRIORITY_PROVIDER,
            label=f"crash:{name}",
        )

    def _on_crash(self, name: str) -> None:
        machine = self.registry.provider(name)
        if not machine.can_apply(ProviderLifecycleEvent.CRASHED):
            return
        now = self.engine.now
        machine.apply(ProviderLifecycleEvent.CRASHED, time=now)
        self._crash_clock.pop(name, None)
        pending_departure = self._departure_event.pop(name, None)
        if pending_departure is not None:
            self.engine.cancel(pending_departure)
        self._release_all(name)
        # In-flight refreshes onto the crashed target fail.
        for file_id in sorted(self._inbound_refresh[name]):
            self._abort_inbound_refresh(file_id, now)
        self._inbound_refresh[name].clear()
        # Replicas on the crashed disk are gone.
        for file_id in sorted(self.hosted_files[name]):
            self.replicas_of[file_id].discard(name)
            self._on_replica_lost(file_id, now)
        self.hosted_files[name] = set()
        # Exponential repair clock.
        self.engine.schedule_at(
            now + self._prng.expovariate(self.config.mttr_s),
            lambda: self._on_recovery(name),
            priority=PRIORITY_PROVIDER,
            label=f"recover:{name}",
        )

    def _on_recovery(self, name: str) -> None:
        machine = self.registry.provider(name)
        if not machine.can_apply(ProviderLifecycleEvent.RECOVERED):
            return
        now = self.engine.now
        machine.apply(ProviderLifecycleEvent.RECOVERED, time=now)
        machine.apply(ProviderLifecycleEvent.ACTIVATED, time=now)
        self._sync_refresh_weight(name)
        self._arm_crash_clock(name, now)

    def _on_departure(self, name: str) -> None:
        machine = self.registry.provider(name)
        if not machine.can_apply(ProviderLifecycleEvent.DEPARTED):
            return
        now = self.engine.now
        machine.apply(ProviderLifecycleEvent.DEPARTED, time=now)
        self._departure_event.pop(name, None)
        clock = self._crash_clock.pop(name, None)
        if clock is not None:
            self.engine.cancel(clock)
        self._release_all(name)
        for file_id in sorted(self._inbound_refresh[name]):
            self._abort_inbound_refresh(file_id, now)
        self._inbound_refresh[name].clear()
        # A graceful departure drains its replicas: files refresh away.
        for file_id in sorted(self.hosted_files[name]):
            self.replicas_of[file_id].discard(name)
            self._on_replica_lost(file_id, now)
        self.hosted_files[name] = set()

    def _schedule_regional_failures(self) -> None:
        cfg = self.config
        for _ in range(cfg.regional_failures):
            when = self._prng.random() * cfg.horizon_s
            region = self._prng.randint(0, max(1, cfg.regions) - 1)
            self.engine.schedule_at(
                when,
                lambda r=region: self._on_regional_failure(r),
                priority=PRIORITY_PROVIDER,
                label=f"regional-failure:{region}",
            )

    def _on_regional_failure(self, region: int) -> None:
        self.regional_failures_fired += 1
        for name in self.provider_names:
            if self.region_of[name] != region:
                continue
            if self.registry.provider(name).can_apply(ProviderLifecycleEvent.CRASHED):
                clock = self._crash_clock.pop(name, None)
                if clock is not None:
                    self.engine.cancel(clock)
                self._on_crash(name)

    # ------------------------------------------------------------------
    # Setup: files (placement batched through the kernel)
    # ------------------------------------------------------------------
    def _schedule_files(self) -> None:
        cfg = self.config
        if cfg.files <= 0:
            self._placed_providers: List[List[str]] = []
            return
        arrival_gap = cfg.arrival_window_s / max(1, cfg.files)
        arrivals = []
        t = 0.0
        for _ in range(cfg.files):
            t += self._prng.expovariate(arrival_gap)
            arrivals.append(min(t, cfg.arrival_window_s))
        for file_id in range(cfg.files):
            size = int(self._prng.expovariate(float(cfg.mean_size_bytes)))
            self.sizes[file_id] = max(1 << 10, min(size, 8 * cfg.mean_size_bytes))

        # One kernel batch places every replica of every file against the
        # static capacity-weight table, debiting slots as it goes --
        # bit-identical across backends.
        from repro.kernels import get_backend, sampler_stream

        backend = get_backend(self.config.backend)
        weights = [self.capacity[name] for name in self.provider_names]
        free = [self.capacity[name] for name in self.provider_names]
        ops = [("place", np.ones(cfg.files * cfg.replicas, dtype=np.int64), 3)]
        keys = backend.batch_weighted_draw(
            sampler_stream(cfg.seed, _PLACEMENT_STREAM), weights, ops, free=free
        ).keys
        self._placed_providers = []
        for file_id in range(cfg.files):
            drawn = keys[file_id * cfg.replicas : (file_id + 1) * cfg.replicas]
            chosen = sorted(
                {self.provider_names[int(slot)] for slot in drawn if int(slot) >= 0}
            )
            self._placed_providers.append(chosen)
            self.engine.schedule_at(
                arrivals[file_id],
                lambda f=file_id: self._on_file_arrival(f),
                priority=PRIORITY_FILE,
                label=f"file-arrival:{file_id}",
            )

    def _on_file_arrival(self, file_id: int) -> None:
        now = self.engine.now
        machine = self.registry.file(file_id)
        targets = [
            name
            for name in self._placed_providers[file_id]
            if self.registry.provider(name).state is ProviderLifecycleState.ACTIVE
            and self.used[name] < self.capacity[name]
        ]
        if not targets:
            machine.apply(FileLifecycleEvent.PLACEMENT_FAILED, time=now)
            self.placement_failures += 1
            return
        self.replicas_of[file_id] = set(targets)
        for name in targets:
            self._reserve_slot(name)
            self.hosted_files[name].add(file_id)
        transfer = self.config.latency.transfer_time(self.sizes[file_id], self._jitter)
        self.engine.schedule_at(
            now + transfer,
            lambda f=file_id: self._on_placement_confirmed(f),
            priority=PRIORITY_FILE,
            label=f"placement:{file_id}",
        )

    def _on_placement_confirmed(self, file_id: int) -> None:
        now = self.engine.now
        machine = self.registry.file(file_id)
        if machine.state is not FileLifecycleState.PENDING:
            return
        if not self.replicas_of.get(file_id):
            machine.apply(FileLifecycleEvent.PLACEMENT_FAILED, time=now)
            self.placement_failures += 1
            return
        machine.apply(FileLifecycleEvent.PLACEMENT_CONFIRMED, time=now)
        if len(self.replicas_of[file_id]) < self.config.replicas:
            # Placement collisions left the file under-replicated: it
            # starts life degraded and the refresh loop tops it up.
            machine.apply(FileLifecycleEvent.REPLICA_DEGRADED, time=now)
            self._start_degradation_episode(file_id, now)

    # ------------------------------------------------------------------
    # Degradation and refresh (the cancel race)
    # ------------------------------------------------------------------
    def _on_replica_lost(self, file_id: int, now: float) -> None:
        machine = self.registry.file(file_id)
        if machine.state in (FileLifecycleState.LOST,):
            return
        if machine.state is FileLifecycleState.PENDING:
            # The upload had not confirmed yet; the confirmation event
            # will observe the emptied replica set and fail placement.
            return
        if not self.replicas_of.get(file_id):
            if machine.state in (FileLifecycleState.PLACED, FileLifecycleState.REFRESHED):
                machine.apply(FileLifecycleEvent.REPLICA_DEGRADED, time=now)
            machine.apply(FileLifecycleEvent.ALL_REPLICAS_LOST, time=now)
            self._drop_pending_file_events(file_id)
            return
        was_quiet = machine.state in (
            FileLifecycleState.PLACED,
            FileLifecycleState.REFRESHED,
        )
        machine.apply(FileLifecycleEvent.REPLICA_DEGRADED, time=now)
        if was_quiet:
            self._start_degradation_episode(file_id, now)

    def _start_degradation_episode(self, file_id: int, now: float) -> None:
        """Schedule the refresh and the loss deadline it races against."""
        self._degraded_since.setdefault(file_id, now)
        if file_id not in self._refresh_start and file_id not in self._refresh_complete:
            self._refresh_start[file_id] = self.engine.schedule_at(
                now + self.config.detection_delay_s,
                lambda f=file_id: self._on_refresh_start(f),
                priority=PRIORITY_FILE,
                label=f"refresh-start:{file_id}",
            )
        if file_id not in self._loss_deadline:
            self._loss_deadline[file_id] = self.engine.schedule_at(
                now + self.config.degrade_timeout_s,
                lambda f=file_id: self._on_loss_deadline(f),
                priority=PRIORITY_FILE,
                label=f"loss-deadline:{file_id}",
            )

    def _on_refresh_start(self, file_id: int) -> None:
        now = self.engine.now
        self._refresh_start.pop(file_id, None)
        machine = self.registry.file(file_id)
        if machine.state is not FileLifecycleState.DEGRADED:
            return
        machine.apply(FileLifecycleEvent.REFRESH_STARTED, time=now)
        target = self._pick_refresh_target(file_id)
        if target is None:
            machine.apply(FileLifecycleEvent.REFRESH_FAILED, time=now)
            self.refresh_failures += 1
            self._refresh_start[file_id] = self.engine.schedule_at(
                now + self.config.refresh_retry_s,
                lambda f=file_id: self._on_refresh_start(f),
                priority=PRIORITY_FILE,
                label=f"refresh-retry:{file_id}",
            )
            return
        self._reserve_slot(target)
        self._inbound_refresh[target].add(file_id)
        transfer = self.config.latency.transfer_time(self.sizes[file_id], self._jitter)
        event = self.engine.schedule_at(
            now + transfer,
            lambda f=file_id, p=target: self._on_refresh_complete(f, p),
            priority=PRIORITY_FILE,
            label=f"refresh-complete:{file_id}",
        )
        self._refresh_complete[file_id] = (event, target)

    def _pick_refresh_target(self, file_id: int) -> Optional[str]:
        """Free-slot-weighted draw over healthy providers not yet hosting.

        The file's current holders are zeroed in the sampler for the
        length of the draw.  The draw is the one ``weighted_index`` makes
        over the candidates' free slots -- a single ``random() * total``
        -- and lands on the same provider: the prefix sums are integers,
        so ``target < prefix`` and ``int(target) < prefix`` agree.
        """
        weights = self._refresh_weights
        holders = [
            (name, weights.weight(name)) for name in self.replicas_of.get(file_id, ())
        ]
        for name, _ in holders:
            weights.update_weight(name, 0)
        total = weights.total_weight
        target = None
        if total > 0:
            # min() is weighted_index's "last candidate" fallback, should
            # the float product ever round up to the total.
            offset = min(int(self._prng.random() * total), total - 1)
            target = weights.key_at_offset(offset)
        for name, weight in holders:
            weights.update_weight(name, weight)
        outcome = "none" if target is None else "picked"
        counter(f"lifecycle.refresh_target.{outcome}", category="lifecycle")
        return target

    def _on_refresh_complete(self, file_id: int, target: str) -> None:
        now = self.engine.now
        self._refresh_complete.pop(file_id, None)
        self._inbound_refresh[target].discard(file_id)
        machine = self.registry.file(file_id)
        if machine.state is not FileLifecycleState.REFRESHING:
            return
        machine.apply(FileLifecycleEvent.REFRESH_COMPLETED, time=now)
        self.replicas_of[file_id].add(target)
        self.hosted_files[target].add(file_id)
        if len(self.replicas_of[file_id]) >= self.config.replicas:
            # The refresh landed first: cancel the pending degradation
            # deadline instead of letting it fire into a lost file.
            deadline = self._loss_deadline.pop(file_id, None)
            if deadline is not None and self.engine.cancel(deadline):
                self.refreshes_cancelled_degradation += 1
            since = self._degraded_since.pop(file_id, None)
            if since is not None:
                metrics.observe(
                    "lifecycle.refresh_lag_s", now - since, category="lifecycle"
                )
        else:
            machine.apply(FileLifecycleEvent.REPLICA_DEGRADED, time=now)
            self._refresh_start[file_id] = self.engine.schedule_at(
                now,
                lambda f=file_id: self._on_refresh_start(f),
                priority=PRIORITY_FILE,
                label=f"refresh-continue:{file_id}",
            )

    def _abort_inbound_refresh(self, file_id: int, now: float) -> None:
        """The in-flight refresh target crashed: fail and retry."""
        pending = self._refresh_complete.pop(file_id, None)
        if pending is None:
            return
        event, _target = pending
        self.engine.cancel(event)
        machine = self.registry.file(file_id)
        if machine.state is not FileLifecycleState.REFRESHING:
            return
        machine.apply(FileLifecycleEvent.REFRESH_FAILED, time=now)
        self.refresh_failures += 1
        if file_id not in self._refresh_start:
            self._refresh_start[file_id] = self.engine.schedule_at(
                now + self.config.refresh_retry_s,
                lambda f=file_id: self._on_refresh_start(f),
                priority=PRIORITY_FILE,
                label=f"refresh-retry:{file_id}",
            )

    def _on_loss_deadline(self, file_id: int) -> None:
        now = self.engine.now
        self._loss_deadline.pop(file_id, None)
        machine = self.registry.file(file_id)
        if machine.state not in (FileLifecycleState.DEGRADED, FileLifecycleState.REFRESHING):
            return
        machine.apply(FileLifecycleEvent.ALL_REPLICAS_LOST, time=now)
        self._drop_pending_file_events(file_id)
        for name in sorted(self.replicas_of.get(file_id, set())):
            self.hosted_files[name].discard(file_id)
        self.replicas_of[file_id] = set()

    def _drop_pending_file_events(self, file_id: int) -> None:
        """Cancel every cancellable event a dead file still has queued."""
        self._degraded_since.pop(file_id, None)
        start = self._refresh_start.pop(file_id, None)
        if start is not None:
            self.engine.cancel(start)
        pending = self._refresh_complete.pop(file_id, None)
        if pending is not None:
            event, target = pending
            self.engine.cancel(event)
            self._inbound_refresh[target].discard(file_id)
        deadline = self._loss_deadline.pop(file_id, None)
        if deadline is not None:
            self.engine.cancel(deadline)

    # ------------------------------------------------------------------
    # Setup: retrievals (choices batched through the kernel)
    # ------------------------------------------------------------------
    def _schedule_retrievals(self) -> None:
        cfg = self.config
        if cfg.files <= 0 or cfg.retrieval_rate <= 0:
            self.flash_windows: List[Tuple[float, float]] = []
            return
        base = poisson_times(self._prng, cfg.retrieval_rate, cfg.horizon_s)
        self.flash_windows = flash_crowd_windows(
            self._prng, cfg.flash_crowds, cfg.flash_duration_s, cfg.horizon_s
        )
        burst: List[float] = []
        extra_rate = cfg.retrieval_rate * max(0.0, cfg.flash_multiplier - 1.0)
        for start, end in self.flash_windows:
            burst.extend(poisson_times(self._prng, extra_rate, end - start, offset_s=start))
        arrivals = sorted(
            [(t, False) for t in base] + [(t, True) for t in burst]
        )
        if not arrivals:
            return

        from repro.kernels import get_backend, sampler_stream

        backend = get_backend(self.config.backend)
        popularity = (
            zipf_weights(cfg.files) if cfg.zipf_popularity else [1] * cfg.files
        )
        keys = backend.batch_weighted_draw(
            sampler_stream(cfg.seed, _RETRIEVAL_STREAM),
            popularity,
            [("draw", len(arrivals))],
        ).keys
        for index, (when, flash) in enumerate(arrivals):
            self.engine.schedule_at(
                when,
                lambda f=int(keys[index]), b=flash: self._on_retrieval(f, b),
                priority=PRIORITY_RETRIEVAL,
                label="retrieval",
            )

    def _on_retrieval(self, file_id: int, flash: bool) -> None:
        now = self.engine.now
        self.retrievals += 1
        if flash:
            self.flash_retrievals += 1
        machine = self.registry.file(file_id)
        if machine.state in (FileLifecycleState.PENDING, FileLifecycleState.LOST):
            self.unserved += 1
            return
        holders = [
            name
            for name in sorted(self.replicas_of.get(file_id, set()))
            if self.registry.provider(name).state is ProviderLifecycleState.ACTIVE
        ]
        if not holders:
            self.unserved += 1
            return
        chosen = min(holders, key=lambda name: (self._busy_until[name], name))
        service = self.config.latency.transfer_time(self.sizes[file_id], self._jitter)
        start = max(now, self._busy_until[chosen])
        self._busy_until[chosen] = start + service
        latency = (start - now) + service + self.config.latency.base_latency_s
        self.latencies.append(latency)
        metrics.observe("lifecycle.retrieval_latency_s", latency, category="lifecycle")
        if latency > self.config.delay_per_size * self.sizes[file_id]:
            self.deadline_misses += 1

    # ------------------------------------------------------------------
    # Execution and reporting
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Run the deployment to the horizon and summarise it as a row."""
        if metrics.is_enabled():
            # Gauge snapshots ride the engine's per-event probe (decimated
            # to sim-time checkpoints) -- never scheduled events, because
            # events_processed/events_cancelled are part of the row.
            self.engine.metrics_probe = self._metrics_probe
            self._record_gauges(0.0)
        self.engine.run(until=self.config.horizon_s)
        if metrics.is_enabled():
            self._record_gauges(self.engine.now)
            for file_id in sorted(self.replicas_of):
                metrics.observe(
                    "lifecycle.replica_count",
                    float(len(self.replicas_of[file_id])),
                    category="lifecycle",
                )
        return self.summary()

    def _metrics_probe(self, now: float) -> None:
        """Record gauges when an event crosses the next checkpoint."""
        if not metrics.is_enabled() or now < self._next_metrics_t:
            return
        while self._next_metrics_t <= now:
            self._next_metrics_t += self._metrics_interval
        self._record_gauges(now)

    def _record_gauges(self, now: float) -> None:
        """One gauge sample per tracked series at simulated time ``now``."""
        states = self.registry.state_counts()
        for state in FileLifecycleState:
            metrics.gauge(
                f"lifecycle.files.{state.value}",
                now,
                float(states.get(f"file.{state.value}", 0)),
                category="lifecycle",
            )
        metrics.gauge(
            "lifecycle.active_providers",
            now,
            float(states.get("provider.active", 0)),
            category="lifecycle",
        )
        metrics.gauge(
            "lifecycle.refresh_backlog",
            now,
            float(len(self._refresh_start) + len(self._refresh_complete)),
            category="lifecycle",
        )

    def summary(self) -> Dict[str, object]:
        """Metrics row: lifecycle outcomes + latency percentiles."""
        from repro.sim.metrics import linear_percentile

        counts = self.registry.transition_counts()
        states = self.registry.state_counts()
        surviving = sum(
            1
            for machine in self.registry.files.values()
            if machine.state
            in (
                FileLifecycleState.PLACED,
                FileLifecycleState.DEGRADED,
                FileLifecycleState.REFRESHING,
                FileLifecycleState.REFRESHED,
            )
        )
        served = len(self.latencies)
        return {
            "files": self.config.files,
            "files_placed": counts.get("file.placement_confirmed", 0),
            "files_lost": states.get("file.lost", 0),
            "files_surviving": surviving,
            "placement_failures": self.placement_failures,
            "refreshes_completed": counts.get("file.refresh_completed", 0),
            "refresh_failures": self.refresh_failures,
            "refreshes_beat_deadline": self.refreshes_cancelled_degradation,
            "provider_crashes": counts.get("provider.crashed", 0),
            "provider_recoveries": counts.get("provider.recovered", 0),
            "provider_departures": counts.get("provider.departed", 0),
            "regional_failures": self.regional_failures_fired,
            "retrievals": self.retrievals,
            "flash_retrievals": self.flash_retrievals,
            "served": served,
            "unserved": self.unserved,
            "miss_rate": round(
                (self.deadline_misses + self.unserved) / max(1, self.retrievals), 4
            ),
            "latency_p50_s": round(linear_percentile(self.latencies, 50.0), 5),
            "latency_p99_s": round(linear_percentile(self.latencies, 99.0), 5),
            "events_processed": self.engine.events_processed,
            "events_cancelled": self.engine.events_cancelled,
            "min_free_slots": self.min_free_slots,
            "transitions": sum(counts.values()),
        }
