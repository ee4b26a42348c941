"""Lifecycle transition tables and the event-driven deployment director.

The heart of this pack is the *exhaustive* transition-validity matrix:
every single ``(state, event)`` pair of both tables is parametrized and
asserts either the documented next state or a typed
:class:`InvalidTransitionError` -- no pair is left unasserted.  Around it
sit :class:`Lifecycle` semantics tests, event-generator determinism, the numpy
percentile oracle, the :class:`LifecycleSimulation` behaviour pack
(including the refresh-vs-degradation cancel race and cross-backend row
identity with every generator enabled) and the ``DSNScenario`` lifecycle
integration.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest

from oracles.kernel_oracle import BACKENDS
from repro import telemetry
from repro.crypto.prng import DeterministicPRNG
from repro.sim.lifecycle import (
    FILE_TRANSITIONS,
    PROVIDER_TRANSITIONS,
    FileLifecycleEvent,
    FileLifecycleState,
    InvalidTransitionError,
    Lifecycle,
    LifecycleConfig,
    LifecycleSimulation,
    ProviderLifecycleEvent,
    ProviderLifecycleState,
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
def in_state(lifecycle: Lifecycle, subject, state) -> Lifecycle:
    lifecycle.states[subject] = state
    return lifecycle


class TestFileTransitionMatrix:
    @pytest.mark.parametrize(
        "state,event",
        list(itertools.product(FileLifecycleState, FileLifecycleEvent)),
        ids=lambda value: value.value,
    )
    def test_every_pair_is_documented_or_rejected(self, state, event):
        files = in_state(Lifecycle.of_files(), "file", state)
        if (state, event) in FILE_TRANSITIONS:
            assert files.apply("file", event) is FILE_TRANSITIONS[(state, event)]
            assert files.state("file") is FILE_TRANSITIONS[(state, event)]
            assert files.transition_counts() == {f"file.{event.value}": 1}
        else:
            with pytest.raises(InvalidTransitionError) as excinfo:
                files.apply("file", event)
            assert files.state("file") is state  # rejected events do not move it
            assert files.transition_counts() == {}
            assert excinfo.value.machine == "file"
            assert excinfo.value.subject == "file"
            assert excinfo.value.state is state
            assert excinfo.value.event is event

    def test_expected_valid_pair_count(self):
        # 6 states x 7 events = 42 pairs, of which exactly 11 are legal.
        assert len(FILE_TRANSITIONS) == 11
        assert len(list(itertools.product(FileLifecycleState, FileLifecycleEvent))) == 42

    def test_lost_is_terminal_no_event_escapes(self):
        files = in_state(Lifecycle.of_files(), "f", FileLifecycleState.LOST)
        for event in FileLifecycleEvent:
            assert (FileLifecycleState.LOST, event) not in FILE_TRANSITIONS
            assert not files.can_apply("f", event)


class TestProviderTransitionMatrix:
    @pytest.mark.parametrize(
        "state,event",
        list(itertools.product(ProviderLifecycleState, ProviderLifecycleEvent)),
        ids=lambda value: value.value,
    )
    def test_every_pair_is_documented_or_rejected(self, state, event):
        providers = in_state(Lifecycle.of_providers(), "p", state)
        if (state, event) in PROVIDER_TRANSITIONS:
            providers.apply("p", event)
            assert providers.state("p") is PROVIDER_TRANSITIONS[(state, event)]
        else:
            with pytest.raises(InvalidTransitionError):
                providers.apply("p", event)
            assert providers.state("p") is state

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
# Lifecycle semantics
# ----------------------------------------------------------------------
class TestLifecycleSemantics:
    def test_happy_path_chain(self):
        files = Lifecycle.of_files()
        steps = [
            FileLifecycleEvent.PLACEMENT_CONFIRMED,
            FileLifecycleEvent.REPLICA_DEGRADED,
            FileLifecycleEvent.REFRESH_STARTED,
            FileLifecycleEvent.REFRESH_COMPLETED,
        ]
        assert [files.apply(7, event) for event in steps] == [
            FileLifecycleState.PLACED,
            FileLifecycleState.DEGRADED,
            FileLifecycleState.REFRESHING,
            FileLifecycleState.REFRESHED,
        ]
        assert files.state(7) is FileLifecycleState.REFRESHED
        assert files.states == {7: FileLifecycleState.REFRESHED}

    def test_provider_chain_follows_the_table(self):
        providers = Lifecycle.of_providers()
        state = providers.state("p")
        for event in (
            ProviderLifecycleEvent.ACTIVATED,
            ProviderLifecycleEvent.CRASHED,
            ProviderLifecycleEvent.RECOVERED,
            ProviderLifecycleEvent.ACTIVATED,
        ):
            moved = providers.apply("p", event)
            assert moved is PROVIDER_TRANSITIONS[(state, event)]
            state = moved
        assert providers.state("p") is ProviderLifecycleState.ACTIVE
        assert providers.transition_counts() == {
            "provider.activated": 2,
            "provider.crashed": 1,
            "provider.recovered": 1,
        }

    def test_can_apply_and_a_refused_apply_do_not_mutate(self):
        files = Lifecycle.of_files()
        assert files.can_apply("f", FileLifecycleEvent.PLACEMENT_CONFIRMED)
        assert not files.can_apply("f", FileLifecycleEvent.REFRESH_COMPLETED)
        with pytest.raises(InvalidTransitionError):
            files.apply("f", FileLifecycleEvent.REFRESH_COMPLETED)
        assert files.states == {}
        assert files.transition_counts() == {}
        assert files.apply("f", FileLifecycleEvent.PLACEMENT_CONFIRMED) is FileLifecycleState.PLACED
        assert files.state("f") is FileLifecycleState.PLACED

    def test_apply_if_valid_is_a_guarded_noop(self):
        files = in_state(Lifecycle.of_files(), "f", FileLifecycleState.LOST)
        assert files.apply_if_valid("f", FileLifecycleEvent.REPLICA_DEGRADED) is None
        assert files.transition_counts() == {}
        in_state(files, "g", FileLifecycleState.PLACED)
        moved = files.apply_if_valid("g", FileLifecycleEvent.REPLICA_DEGRADED)
        assert moved is files.state("g") is FileLifecycleState.DEGRADED

    def test_reading_a_state_does_not_track_the_subject(self):
        files = Lifecycle.of_files()
        assert files.state(3) is FileLifecycleState.PENDING
        assert not files.can_apply(3, FileLifecycleEvent.REFRESH_STARTED)
        assert files.states == {} and files.state_counts() == {}
        files.register(3)
        files.apply(3, FileLifecycleEvent.PLACEMENT_CONFIRMED)
        files.register(3)  # registering a tracked subject keeps its state
        assert files.state_counts() == {"file.placed": 1}

    def test_valid_events_matches_table(self):
        def valid_events(state):
            return [event for (source, event) in FILE_TRANSITIONS if source == state]

        assert set(valid_events(FileLifecycleState.REFRESHING)) == {
            FileLifecycleEvent.REPLICA_DEGRADED,
            FileLifecycleEvent.REFRESH_COMPLETED,
            FileLifecycleEvent.REFRESH_FAILED,
            FileLifecycleEvent.ALL_REPLICAS_LOST,
        }
        assert valid_events(FileLifecycleState.LOST) == []

    def test_error_message_names_machine_state_and_event(self):
        providers = in_state(Lifecycle.of_providers(), "p9", ProviderLifecycleState.CRASHED)
        with pytest.raises(InvalidTransitionError, match="provider 'p9'.*'departed'"):
            providers.apply("p9", ProviderLifecycleEvent.DEPARTED)

    def test_transitions_emit_lifecycle_counters(self):
        telemetry.enable()
        try:
            with telemetry.capture() as events:
                files = Lifecycle.of_files()
                files.apply("f", FileLifecycleEvent.PLACEMENT_CONFIRMED)
                files.apply("f", FileLifecycleEvent.REPLICA_DEGRADED)
            names = [e["name"] for e in events]
            assert names == [
                "lifecycle.file.placement_confirmed",
                "lifecycle.file.replica_degraded",
            ]
            assert all(e["cat"] == "lifecycle" and e["ph"] == "C" for e in events)
        finally:
            telemetry.disable()
            telemetry.drain()

    def test_transitions_and_states_are_counted(self):
        files, providers = Lifecycle.of_files(), Lifecycle.of_providers()
        files.apply(1, FileLifecycleEvent.PLACEMENT_CONFIRMED)
        files.apply(1, FileLifecycleEvent.REPLICA_DEGRADED)
        files.apply(2, FileLifecycleEvent.PLACEMENT_FAILED)
        providers.apply("p", ProviderLifecycleEvent.ACTIVATED)
        assert files.transition_counts() == {
            "file.placement_confirmed": 1,
            "file.placement_failed": 1,
            "file.replica_degraded": 1,
        }
        assert providers.transition_counts() == {"provider.activated": 1}
        assert files.state_counts() == {"file.degraded": 1, "file.lost": 1}
        assert providers.state_counts() == {"provider.active": 1}


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

    def test_poisson_times_edge_cases(self, time_limit):
        prng = DeterministicPRNG.from_int(0, domain="t")
        assert poisson_times(prng, 0.0, 10.0) == []
        assert poisson_times(prng, 1.0, 0.0) == []
        # Both used to append arrivals until memory ran out.
        with time_limit(2):
            for rate, horizon in ((math.nan, 10.0), (1.0, math.inf)):
                with pytest.raises(ValueError, match="finite rate and horizon"):
                    poisson_times(prng, rate, horizon)

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
            name: LifecycleSimulation(lively(backend=kernels)).run()
            for name, kernels in BACKENDS.items()
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

    def test_applied_transitions_chain_through_the_tables(self):
        sim = LifecycleSimulation(lively())
        steps = []

        class Recording(Lifecycle):
            __slots__ = ()

            def apply(self, subject, event):
                before = self.state(subject)
                after = super().apply(subject, event)
                steps.append((self.machine, subject, before, event, after, sim.engine.now))
                return after

        sim.file_lifecycle = Recording("file", FILE_TRANSITIONS, FileLifecycleState.PENDING)
        sim.provider_lifecycle = Recording(
            "provider", PROVIDER_TRANSITIONS, ProviderLifecycleState.JOINED
        )
        tables = {"file": FILE_TRANSITIONS, "provider": PROVIDER_TRANSITIONS}
        initial = {"file": FileLifecycleState.PENDING, "provider": ProviderLifecycleState.JOINED}
        sim.run()
        assert steps
        last = {}
        for machine, subject, before, event, after, now in steps:
            assert tables[machine][(before, event)] is after
            previous_state, previous_time = last.get((machine, subject), (initial[machine], 0.0))
            assert before is previous_state
            assert now >= previous_time
            last[(machine, subject)] = (after, now)
        lifecycles = {"file": sim.file_lifecycle, "provider": sim.provider_lifecycle}
        for (machine, subject), (state, _) in last.items():
            assert lifecycles[machine].state(subject) is state
        tally = collections.Counter(f"{machine}.{event.value}" for machine, _, _, event, _, _ in steps)
        assert {
            **sim.file_lifecycle.transition_counts(),
            **sim.provider_lifecycle.transition_counts(),
        } == dict(tally)

    def test_lost_files_never_transition_again(self):
        config = lively(mtbf_s=60.0, degrade_timeout_s=30.0)
        sim = LifecycleSimulation(config)
        states = sim.file_lifecycle.states
        lost = set()

        def check(now: float) -> None:
            # After every event: each file seen LOST is still LOST.
            assert all(states[file_id] is FileLifecycleState.LOST for file_id in lost)
            lost.update(f for f, state in states.items() if state is FileLifecycleState.LOST)

        sim.engine.metrics_probe = check
        sim.engine.run(until=config.horizon_s)
        check(sim.engine.now)
        assert lost, "this shape is violent enough to lose at least one file"

    def test_a_retrieval_before_arrival_leaves_the_file_untracked(self):
        sim = LifecycleSimulation(lively())
        sim._on_retrieval(0, flash=False)  # file 0 has not arrived yet
        assert 0 not in sim.file_lifecycle.states
        assert (sim.retrievals, sim.unserved) == (1, 1)
        sim.run()
        assert len(sim.file_lifecycle.states) == sim.config.files

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

    @pytest.mark.xfail(
        strict=True,
        reason="a lost file's surviving holders leave hosted_files but keep "
        "their slots in used (_on_loss_deadline), so the provider's refresh "
        "weight reads 0 while it has free slots; the fix moves pinned rows",
    )
    def test_used_slots_are_hosted_plus_inbound_after_a_run(self):
        sim = LifecycleSimulation(
            LifecycleConfig(
                providers=20, slots_per_provider=6, files=60, mtbf_s=150,
                mttr_s=300, degrade_timeout_s=30, detection_delay_s=10,
                departures=2, seed=4,
            )
        )
        sim.run()
        for name in sim.provider_names:
            held = len(sim.hosted_files[name]) + len(sim._inbound_refresh[name])
            assert sim.used[name] == held, name


# ----------------------------------------------------------------------
# DSNScenario integration: the wired deployment keeps a lifecycle audit
# ----------------------------------------------------------------------
class TestScenarioLifecycleIntegration:
    @pytest.fixture()
    def deployment(self):
        from repro.sim.scenario import DSNScenario, ScenarioConfig

        return DSNScenario(ScenarioConfig(provider_count=4, seed=13))

    def test_providers_activate_on_build(self, deployment):
        states = deployment.provider_lifecycle.state_counts()
        assert states["provider.active"] == 4

    def test_settled_upload_places_the_file(self, deployment):
        file_id = deployment.store_file("client-0", "a", b"x" * 2048, value=2)
        assert deployment.file_lifecycle.states[file_id] is FileLifecycleState.PENDING
        deployment.settle_uploads()
        assert deployment.file_lifecycle.state(file_id) is FileLifecycleState.PLACED

    def test_crash_degrades_hosted_files_and_refresh_completes(self, deployment):
        file_id = deployment.store_file("client-0", "a", b"x" * 2048, value=2)
        deployment.settle_uploads()
        victim = next(
            sector_id
            for sector_id in deployment.protocol.file_locations(file_id)
            if sector_id is not None
        )
        owner, _ = deployment.sector_map[victim]
        deployment.crash_provider(owner)
        deployment.run_cycles(3)
        counts = deployment.file_lifecycle.transition_counts()
        assert counts.get("file.replica_degraded", 0) >= 1
        assert deployment.file_lifecycle.state(file_id) in (
            FileLifecycleState.REFRESHED,
            FileLifecycleState.DEGRADED,
        )
        assert deployment.provider_lifecycle.state(owner) is ProviderLifecycleState.CRASHED
        summary = deployment.summary()
        assert summary["lifecycle_transitions"] >= 3.0

    def test_summary_exposes_lifecycle_metrics(self, deployment):
        summary = deployment.summary()
        assert {"lifecycle_transitions", "lifecycle_refreshes", "lifecycle_files_lost"} <= set(
            summary
        )
