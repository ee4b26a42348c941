"""Lifecycle state machines and the event-driven deployment director.

The heart of this pack is the *exhaustive* transition-validity matrix:
every single ``(state, event)`` pair of both machines is parametrized and
asserts either the documented next state or a typed
:class:`InvalidTransitionError` -- no pair is left unasserted.  Around it
sit machine-semantics tests, event-generator determinism, the numpy
percentile oracle, the :class:`LifecycleSimulation` behaviour pack
(including the refresh-vs-degradation cancel race and cross-backend row
identity with every generator enabled) and the ``DSNScenario`` lifecycle
integration.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np
import pytest

from repro import telemetry
from repro.crypto.prng import DeterministicPRNG
from repro.sim.lifecycle import (
    FILE_TRANSITIONS,
    PROVIDER_TRANSITIONS,
    FileLifecycleEvent,
    FileLifecycleState,
    FileMachine,
    InvalidTransitionError,
    LifecycleConfig,
    LifecycleRegistry,
    LifecycleSimulation,
    ProviderLifecycleEvent,
    ProviderLifecycleState,
    ProviderMachine,
    flash_crowd_windows,
    poisson_times,
    zipf_weights,
)
from repro.sim.metrics import linear_percentile

# A lively config: failures, a departure, a regional failure and a flash
# crowd all fire inside a short horizon.
LIVELY = LifecycleConfig(
    providers=8,
    regions=2,
    files=12,
    replicas=3,
    horizon_s=250.0,
    mtbf_s=150.0,
    mttr_s=40.0,
    departures=1,
    retrieval_rate=0.6,
    flash_crowds=1,
    regional_failures=1,
    seed=13,
)


def lively(**overrides) -> LifecycleConfig:
    merged = dict(LIVELY.__dict__)
    merged.update(overrides)
    return LifecycleConfig(**merged)


# ----------------------------------------------------------------------
# Exhaustive transition-validity matrix (satellite: no pair unasserted)
# ----------------------------------------------------------------------
class TestFileTransitionMatrix:
    @pytest.mark.parametrize(
        "state,event",
        list(itertools.product(FileLifecycleState, FileLifecycleEvent)),
        ids=lambda value: value.value,
    )
    def test_every_pair_is_documented_or_rejected(self, state, event):
        machine = FileMachine("file", state=state)
        if (state, event) in FILE_TRANSITIONS:
            record = machine.apply(event, time=1.5)
            assert machine.state is FILE_TRANSITIONS[(state, event)]
            assert record.from_state is state
            assert record.to_state is machine.state
            assert record.time == 1.5
        else:
            with pytest.raises(InvalidTransitionError) as excinfo:
                machine.apply(event)
            assert machine.state is state  # rejected events do not move it
            assert machine.history == []
            assert excinfo.value.machine == "file"
            assert excinfo.value.state is state
            assert excinfo.value.event is event

    def test_expected_valid_pair_count(self):
        # 6 states x 7 events = 42 pairs, of which exactly 11 are legal.
        assert len(FILE_TRANSITIONS) == 11
        assert len(list(itertools.product(FileLifecycleState, FileLifecycleEvent))) == 42

    def test_lost_is_terminal_no_event_escapes(self):
        for event in FileLifecycleEvent:
            assert (FileLifecycleState.LOST, event) not in FILE_TRANSITIONS
        assert FileMachine("f", state=FileLifecycleState.LOST).is_terminal


class TestProviderTransitionMatrix:
    @pytest.mark.parametrize(
        "state,event",
        list(itertools.product(ProviderLifecycleState, ProviderLifecycleEvent)),
        ids=lambda value: value.value,
    )
    def test_every_pair_is_documented_or_rejected(self, state, event):
        machine = ProviderMachine("p", state=state)
        if (state, event) in PROVIDER_TRANSITIONS:
            machine.apply(event, time=2.0)
            assert machine.state is PROVIDER_TRANSITIONS[(state, event)]
        else:
            with pytest.raises(InvalidTransitionError):
                machine.apply(event)
            assert machine.state is state

    def test_expected_valid_pair_count(self):
        # 5 states x 4 events = 20 pairs, of which exactly 8 are legal.
        assert len(PROVIDER_TRANSITIONS) == 8
        assert (
            len(list(itertools.product(ProviderLifecycleState, ProviderLifecycleEvent)))
            == 20
        )

    def test_departed_is_terminal_and_crashed_cannot_depart(self):
        for event in ProviderLifecycleEvent:
            assert (ProviderLifecycleState.DEPARTED, event) not in PROVIDER_TRANSITIONS
        assert (
            ProviderLifecycleState.CRASHED,
            ProviderLifecycleEvent.DEPARTED,
        ) not in PROVIDER_TRANSITIONS


# ----------------------------------------------------------------------
# Machine semantics
# ----------------------------------------------------------------------
class TestMachineSemantics:
    def test_happy_path_history(self):
        machine = FileMachine(7)
        machine.apply(FileLifecycleEvent.PLACEMENT_CONFIRMED, time=1.0)
        machine.apply(FileLifecycleEvent.REPLICA_DEGRADED, time=2.0)
        machine.apply(FileLifecycleEvent.REFRESH_STARTED, time=3.0)
        machine.apply(FileLifecycleEvent.REFRESH_COMPLETED, time=4.0)
        assert machine.state is FileLifecycleState.REFRESHED
        assert [r.to_state for r in machine.history] == [
            FileLifecycleState.PLACED,
            FileLifecycleState.DEGRADED,
            FileLifecycleState.REFRESHING,
            FileLifecycleState.REFRESHED,
        ]
        assert [r.time for r in machine.history] == [1.0, 2.0, 3.0, 4.0]
        assert all(r.subject == 7 for r in machine.history)

    def test_history_chains_states_contiguously(self):
        machine = ProviderMachine("p")
        machine.apply(ProviderLifecycleEvent.ACTIVATED)
        machine.apply(ProviderLifecycleEvent.CRASHED)
        machine.apply(ProviderLifecycleEvent.RECOVERED)
        machine.apply(ProviderLifecycleEvent.ACTIVATED)
        for previous, current in zip(machine.history, machine.history[1:]):
            assert current.from_state is previous.to_state

    def test_peek_and_can_apply_do_not_mutate(self):
        machine = FileMachine("f")
        assert machine.can_apply(FileLifecycleEvent.PLACEMENT_CONFIRMED)
        assert not machine.can_apply(FileLifecycleEvent.REFRESH_COMPLETED)
        assert (
            machine.peek(FileLifecycleEvent.PLACEMENT_CONFIRMED)
            is FileLifecycleState.PLACED
        )
        assert machine.state is FileLifecycleState.PENDING
        assert machine.history == []

    def test_apply_if_valid_is_a_guarded_noop(self):
        machine = FileMachine("f", state=FileLifecycleState.LOST)
        assert machine.apply_if_valid(FileLifecycleEvent.REPLICA_DEGRADED) is None
        assert machine.history == []
        live = FileMachine("g", state=FileLifecycleState.PLACED)
        record = live.apply_if_valid(FileLifecycleEvent.REPLICA_DEGRADED, time=5.0)
        assert record is not None and record.to_state is FileLifecycleState.DEGRADED

    def test_valid_events_matches_table(self):
        assert set(FileMachine.valid_events(FileLifecycleState.REFRESHING)) == {
            FileLifecycleEvent.REPLICA_DEGRADED,
            FileLifecycleEvent.REFRESH_COMPLETED,
            FileLifecycleEvent.REFRESH_FAILED,
            FileLifecycleEvent.ALL_REPLICAS_LOST,
        }
        assert FileMachine.valid_events(FileLifecycleState.LOST) == []

    def test_error_message_names_machine_state_and_event(self):
        with pytest.raises(InvalidTransitionError, match="provider 'p9'.*'departed'"):
            ProviderMachine(
                "p9", state=ProviderLifecycleState.CRASHED
            ).apply(ProviderLifecycleEvent.DEPARTED)

    def test_transitions_emit_lifecycle_counters(self):
        telemetry.enable()
        try:
            with telemetry.capture() as events:
                machine = FileMachine("f")
                machine.apply(FileLifecycleEvent.PLACEMENT_CONFIRMED)
                machine.apply(FileLifecycleEvent.REPLICA_DEGRADED)
            names = [e["name"] for e in events]
            assert names == [
                "lifecycle.file.placement_confirmed",
                "lifecycle.file.replica_degraded",
            ]
            assert all(e["cat"] == "lifecycle" and e["ph"] == "C" for e in events)
        finally:
            telemetry.disable()
            telemetry.drain()


class TestRegistry:
    def test_machines_are_created_once_and_counted(self):
        registry = LifecycleRegistry()
        registry.file(1).apply(FileLifecycleEvent.PLACEMENT_CONFIRMED)
        registry.file(1).apply(FileLifecycleEvent.REPLICA_DEGRADED)
        registry.provider("p").apply(ProviderLifecycleEvent.ACTIVATED)
        assert registry.file(1) is registry.files[1]
        assert registry.transition_counts() == {
            "file.placement_confirmed": 1,
            "file.replica_degraded": 1,
            "provider.activated": 1,
        }
        assert registry.state_counts() == {
            "file.degraded": 1,
            "provider.active": 1,
        }


# ----------------------------------------------------------------------
# Event generators
# ----------------------------------------------------------------------
class TestEventGenerators:
    def test_poisson_times_deterministic_ordered_and_bounded(self):
        a = poisson_times(DeterministicPRNG.from_int(3, domain="t"), 2.0, 50.0)
        b = poisson_times(DeterministicPRNG.from_int(3, domain="t"), 2.0, 50.0)
        assert a == b
        assert a == sorted(a)
        assert all(0.0 < t <= 50.0 for t in a)
        # Rate 2/s over 50s: ~100 arrivals; a 3x band is a safe regression.
        assert 30 < len(a) < 300

    def test_poisson_times_edge_cases(self):
        prng = DeterministicPRNG.from_int(0, domain="t")
        assert poisson_times(prng, 0.0, 10.0) == []
        assert poisson_times(prng, 1.0, 0.0) == []

    def test_flash_crowd_windows_fit_horizon(self):
        windows = flash_crowd_windows(
            DeterministicPRNG.from_int(5, domain="t"), 3, 10.0, 100.0
        )
        assert len(windows) == 3
        assert windows == sorted(windows)
        for start, end in windows:
            assert 0.0 <= start < end <= 100.0
            assert end - start == pytest.approx(10.0)

    def test_zipf_weights_integer_one_over_rank(self):
        weights = zipf_weights(8)
        assert weights[0] == 720_720
        assert weights[1] == 720_720 // 2
        assert weights == sorted(weights, reverse=True)
        assert all(isinstance(w, int) and w >= 1 for w in weights)


# ----------------------------------------------------------------------
# Percentiles: the numpy oracle (satellite)
# ----------------------------------------------------------------------
class TestLinearPercentile:
    HAND_STREAM = [0.31, 0.05, 1.7, 0.42, 0.08, 0.9, 0.27, 0.61, 0.05, 2.4, 0.33]

    @pytest.mark.parametrize("q", [0.0, 25.0, 50.0, 90.0, 99.0, 100.0])
    def test_matches_numpy_on_hand_built_latency_stream(self, q):
        assert linear_percentile(self.HAND_STREAM, q) == pytest.approx(
            float(np.percentile(self.HAND_STREAM, q)), rel=0, abs=1e-12
        )

    def test_matches_numpy_on_generated_streams(self):
        prng = DeterministicPRNG.from_int(9, domain="pct")
        for size in (1, 2, 3, 10, 101):
            stream = [prng.random() * 5.0 for _ in range(size)]
            for q in (50.0, 95.0, 99.0):
                assert linear_percentile(stream, q) == pytest.approx(
                    float(np.percentile(stream, q)), rel=0, abs=1e-12
                )

    def test_empty_stream_and_bounds(self):
        assert linear_percentile([], 99.0) == 0.0
        with pytest.raises(ValueError):
            linear_percentile([1.0], 101.0)

    def test_simulation_percentiles_match_numpy(self):
        sim = LifecycleSimulation(lively())
        sim.run()
        assert len(sim.latencies) > 50
        assert sim.summary()["latency_p50_s"] == round(
            float(np.percentile(sim.latencies, 50.0)), 5
        )
        assert sim.summary()["latency_p99_s"] == round(
            float(np.percentile(sim.latencies, 99.0)), 5
        )


# ----------------------------------------------------------------------
# The event-driven director
# ----------------------------------------------------------------------
class TestLifecycleSimulation:
    def test_generators_all_fire_and_books_balance(self):
        sim = LifecycleSimulation(lively())
        row = sim.run()
        assert row["provider_crashes"] > 0
        assert row["provider_recoveries"] > 0
        assert row["provider_departures"] == 1
        assert row["regional_failures"] == 1
        assert row["flash_retrievals"] > 0
        assert row["served"] + row["unserved"] == row["retrievals"]
        assert row["files_placed"] + row["placement_failures"] == row["files"]
        assert row["min_free_slots"] >= 0

    def test_refresh_races_cancel_degradation_deadlines(self):
        row = LifecycleSimulation(lively()).run()
        assert row["refreshes_completed"] > 0
        assert row["refreshes_beat_deadline"] > 0
        assert row["events_cancelled"] >= row["refreshes_beat_deadline"]

    def test_rows_identical_across_backends(self):
        rows = {
            backend: LifecycleSimulation(lively(backend=backend)).run()
            for backend in ("reference", "vectorized")
        }
        assert rows["reference"] == rows["vectorized"]

    def test_deterministic_in_seed_and_sensitive_to_it(self):
        first = LifecycleSimulation(lively()).run()
        second = LifecycleSimulation(lively()).run()
        assert first == second
        assert LifecycleSimulation(lively(seed=12)).run() != first

    def test_quiet_world_loses_nothing(self):
        row = LifecycleSimulation(
            lively(
                mtbf_s=1e9, departures=0, regional_failures=0, flash_crowds=0
            )
        ).run()
        assert row["provider_crashes"] == 0
        assert row["files_lost"] == 0
        # Refreshes may still fire to top up placement-collision shortfalls,
        # but none of them can fail with every provider healthy.
        assert row["refresh_failures"] == 0
        assert row["miss_rate"] <= 1.0

    def test_machine_histories_are_valid_chains(self):
        sim = LifecycleSimulation(lively())
        sim.run()
        for machine in list(sim.registry.files.values()) + list(
            sim.registry.providers.values()
        ):
            table = machine.TRANSITIONS
            for previous, current in zip(machine.history, machine.history[1:]):
                assert current.from_state is previous.to_state
                assert current.time >= previous.time
            for record in machine.history:
                assert table[(record.from_state, record.event)] is record.to_state

    def test_lost_files_never_transition_again(self):
        sim = LifecycleSimulation(lively(mtbf_s=60.0, degrade_timeout_s=30.0))
        sim.run()
        lost = [
            m
            for m in sim.registry.files.values()
            if m.state is FileLifecycleState.LOST
        ]
        assert lost, "this shape is violent enough to lose at least one file"
        for machine in lost:
            assert machine.history[-1].to_state is FileLifecycleState.LOST
            assert (
                sum(1 for r in machine.history if r.to_state is FileLifecycleState.LOST)
                == 1
            )

    def test_traced_run_records_lifecycle_counters_and_stays_inert(self):
        plain = LifecycleSimulation(lively()).run()
        telemetry.enable()
        try:
            with telemetry.capture() as events:
                traced = LifecycleSimulation(lively()).run()
        finally:
            telemetry.disable()
            telemetry.drain()
        assert traced == plain  # telemetry never touches the seeded RNG
        lifecycle_events = [e for e in events if e["cat"] == "lifecycle"]
        assert lifecycle_events, "traced run must carry lifecycle counters"
        names = {e["name"] for e in lifecycle_events}
        assert "lifecycle.provider.crashed" in names
        assert "lifecycle.file.placement_confirmed" in names
        # Every started refresh drew a target exactly once, found or not.
        count = collections.Counter(e["name"] for e in lifecycle_events)
        draws = count["lifecycle.refresh_target.picked"] + count["lifecycle.refresh_target.none"]
        assert draws == count["lifecycle.file.refresh_started"] > 0

    def test_rejects_degenerate_configs(self):
        with pytest.raises(ValueError):
            LifecycleSimulation(lively(providers=0))
        with pytest.raises(ValueError):
            LifecycleSimulation(lively(replicas=0))


# ----------------------------------------------------------------------
# DSNScenario integration: the wired deployment keeps a lifecycle audit
# ----------------------------------------------------------------------
class TestScenarioLifecycleIntegration:
    @pytest.fixture()
    def deployment(self):
        from repro.sim.scenario import DSNScenario, ScenarioConfig

        return DSNScenario(ScenarioConfig(provider_count=4, seed=13))

    def test_providers_activate_on_build(self, deployment):
        states = deployment.lifecycle.state_counts()
        assert states["provider.active"] == 4

    def test_settled_upload_places_the_file(self, deployment):
        file_id = deployment.store_file("client-0", "a", b"x" * 2048, value=2)
        assert (
            deployment.lifecycle.file(file_id).state is FileLifecycleState.PENDING
        )
        deployment.settle_uploads()
        assert deployment.lifecycle.file(file_id).state is FileLifecycleState.PLACED

    def test_crash_degrades_hosted_files_and_refresh_completes(self, deployment):
        file_id = deployment.store_file("client-0", "a", b"x" * 2048, value=2)
        deployment.settle_uploads()
        victim = next(
            sector_id
            for sector_id in deployment.protocol.file_locations(file_id)
            if sector_id is not None
        )
        owner, _ = deployment.sector_map[victim]
        deployment.crash_provider(owner, immediate_detection=True)
        deployment.run_cycles(3)
        machine = deployment.lifecycle.file(file_id)
        counts = deployment.lifecycle.transition_counts()
        assert counts.get("file.replica_degraded", 0) >= 1
        assert machine.state in (
            FileLifecycleState.REFRESHED,
            FileLifecycleState.DEGRADED,
        )
        provider_machine = deployment.lifecycle.provider(owner)
        assert provider_machine.state is ProviderLifecycleState.CRASHED
        summary = deployment.summary()
        assert summary["lifecycle_transitions"] >= 3.0

    def test_summary_exposes_lifecycle_metrics(self, deployment):
        summary = deployment.summary()
        assert {"lifecycle_transitions", "lifecycle_refreshes", "lifecycle_files_lost"} <= set(
            summary
        )
