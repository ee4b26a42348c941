"""Benchmark: event-driven lifecycle simulation throughput.

The ``lifecycle_churn`` director schedules every upload, failure clock,
refresh race and retrieval arrival on :class:`repro.sim.engine.
SimulationEngine`; this gate pins the engine's event throughput at a
deployment shape busy enough to exercise cancellation (refresh races,
pre-empted departures) and both kernel batches:

* ``test_lifecycle_event_throughput[reference|vectorized]`` -- the
  pinned deployment per backend, reported as engine events/second;
* ``test_lifecycle_rows_identical_across_backends`` -- the identity
  gate: the pinned row must be bit-identical on both backends;
* ``test_lifecycle_event_cost_does_not_grow_with_the_network`` -- the
  scaling gate: cost per event at 1 000 providers against 250, which is
  what catches an O(providers) scan coming back into the event path.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_lifecycle.py -q``.
"""

from __future__ import annotations

import time

import pytest

from repro.sim.lifecycle import LifecycleConfig, LifecycleSimulation

#: A deployment busy enough to make engine overhead measurable: thousands
#: of retrieval events, dozens of failure/recovery cycles and refresh
#: races inside one run.
BENCH_CONFIG = dict(
    providers=24,
    regions=4,
    files=64,
    replicas=3,
    horizon_s=1200.0,
    mtbf_s=400.0,
    mttr_s=50.0,
    departures=2,
    retrieval_rate=4.0,
    flash_crowds=2,
    regional_failures=1,
    seed=29,
)

#: Floor on engine throughput at the pinned shape; real numbers are far
#: higher -- this only catches a pathological slowdown (e.g. an eager
#: O(n) cancellation sneaking back in).
MIN_EVENTS_PER_SECOND = 2_000


#: The ``lifecycle_events`` shape of ``benchmarks/e2e`` with the provider
#: count left open: 12 files per provider keeps the load per provider --
#: and so the mix of work inside an event -- the same at every size.
SCALING_SHAPE = dict(
    regions=5,
    slots_per_provider=48,
    replicas=3,
    horizon_s=1200.0,
    arrival_window_s=400.0,
    mtbf_s=1000.0,
    retrieval_rate=4.0,
    departures=2,
    seed=0,
)
SCALING_PROVIDERS = (250, 1_000)

#: Ceiling on (us/event at 1 000 providers) / (us/event at 250).  Both
#: are timed in this process, so host speed cancels.  The per-refresh
#: provider scan this guards against read 2.6-3.8x; without it the ratio
#: is 1.1-1.5x (the larger deployment's working set misses cache more).
MAX_SCALING_RATIO = 1.6

#: Interleaved timing rounds; the gate compares the fastest of each size
#: and stops early once it is met, so only a miss pays for every round.
SCALING_ROUNDS = 5


def us_per_event(providers: int) -> float:
    config = LifecycleConfig(providers=providers, files=12 * providers, **SCALING_SHAPE)
    sim = LifecycleSimulation(config)
    started = time.perf_counter()
    row = sim.run()
    return (time.perf_counter() - started) / row["events_processed"] * 1e6


def run_lifecycle(backend: str):
    sim = LifecycleSimulation(LifecycleConfig(**BENCH_CONFIG, backend=backend))
    row = sim.run()
    return row


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_lifecycle_event_throughput(benchmark, backend, record):
    row = benchmark.pedantic(lambda: run_lifecycle(backend), rounds=3, iterations=1)
    assert row["events_processed"] > 2_000
    assert row["events_cancelled"] > 0  # the cancel races actually ran
    events_per_second = row["events_processed"] / benchmark.stats["min"]
    record(
        f"lifecycle events/s [{backend}]",
        f"{events_per_second:,.0f}",
        "n/a (engineering gate)",
    )
    assert events_per_second >= MIN_EVENTS_PER_SECOND


def test_lifecycle_rows_identical_across_backends(record):
    reference = run_lifecycle("reference")
    vectorized = run_lifecycle("vectorized")
    assert reference == vectorized, "lifecycle rows diverge across backends"
    record(
        "lifecycle cross-backend identity",
        f"{reference['events_processed']} events, row identical",
        "bit-identical (acceptance gate)",
    )


def test_lifecycle_event_cost_does_not_grow_with_the_network(record):
    small, large = SCALING_PROVIDERS
    cost = {small: [], large: []}
    for _ in range(SCALING_ROUNDS):
        for providers in SCALING_PROVIDERS:
            cost[providers].append(us_per_event(providers))
        ratio = min(cost[large]) / min(cost[small])
        if ratio <= MAX_SCALING_RATIO:
            break
    record(
        f"lifecycle us/event at {small} / {large} providers",
        f"{min(cost[small]):.1f} / {min(cost[large]):.1f} ({ratio:.2f}x)",
        f"<= {MAX_SCALING_RATIO}x (engineering gate)",
    )
    assert ratio <= MAX_SCALING_RATIO
