"""The lifecycle refresh-target index against its O(providers) oracle.

``LifecycleSimulation`` keeps one weight per provider in a
:class:`~repro.core.selector.WeightedSampler` and draws refresh targets
from it in O(log providers).  Two gates pin that to the scan it replaced
(``lifecycle_oracles.py``, the scan's only surviving copy):

* golden rows recorded before the index existed
  (``data/lifecycle_golden_rows.json``) must come back equal on both
  kernel backends;
* a differential walk: the simulation runs to its horizon with a probe on
  the engine's per-event hook, and after *every* event each sampler
  weight, the total and the draw itself (on a cloned PRNG) must agree with
  the oracle.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles.lifecycle_oracles as oracle
from oracles.kernel_oracle import BACKENDS
from repro.sim.lifecycle import FileLifecycleState, LifecycleConfig, LifecycleSimulation

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "lifecycle_golden_rows.json").read_text()
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_rows_match_the_rows_recorded_before_the_index(case, backend):
    config = LifecycleConfig(**case["config"], backend=BACKENDS[backend])
    row = LifecycleSimulation(config).run()
    assert row == case["row"]


def test_golden_rows_cover_the_shapes_that_matter():
    rows = {case["name"]: (case["config"], case["row"]) for case in GOLDEN}
    assert len(rows) >= 8
    assert rows["tight_12x7_refresh_failures"][1]["refresh_failures"] > 0
    assert rows["flash_crowds_regional_failures"][1]["regional_failures"] > 0
    assert rows["flash_crowds_regional_failures"][1]["flash_retrievals"] > 0
    assert rows["single_replica"][0]["replicas"] == 1
    assert rows["single_provider"][0]["providers"] == 1
    assert any(row["provider_departures"] > 0 for _, row in rows.values())


# ----------------------------------------------------------------------
# Differential walk
# ----------------------------------------------------------------------
def assert_draw_matches_oracle(sim: LifecycleSimulation, file_id: int) -> str:
    """Same provider and same PRNG consumption; returns "picked" / "none"."""
    expected_prng, actual_prng = copy.copy(sim._prng), copy.copy(sim._prng)
    expected = oracle.pick_refresh_target(sim, file_id, expected_prng)
    live, sim._prng = sim._prng, actual_prng
    try:
        actual = sim._pick_refresh_target(file_id)
    finally:
        sim._prng = live
    assert actual == expected
    assert actual_prng.state_fingerprint() == expected_prng.state_fingerprint()
    return "none" if actual is None else "picked"


def assert_weights_match_oracle(sim: LifecycleSimulation) -> None:
    weights = sim._refresh_weights
    expected = [oracle.refresh_weight(sim, name) for name in sim.provider_names]
    assert [weights.weight(name) for name in sim.provider_names] == expected
    assert weights.total_weight == sum(expected)


def walk(config: LifecycleConfig) -> Counter:
    """Run the whole deployment, checking the index after every event."""
    sim = LifecycleSimulation(config)
    assert_weights_match_oracle(sim)
    outcomes: Counter = Counter()
    refreshing = (FileLifecycleState.DEGRADED, FileLifecycleState.REFRESHING)

    def check(now: float) -> None:
        # The files a refresh could be drawing for right now, one file
        # picked round-robin whatever its state, and one never placed.
        probes = {f for f, state in sim.file_lifecycle.states.items() if state in refreshing}
        probes.add(sim.engine.events_processed % max(1, config.files))
        probes.add(config.files)
        for file_id in sorted(probes):
            outcomes[assert_draw_matches_oracle(sim, file_id)] += 1
        assert_weights_match_oracle(sim)

    sim.engine.metrics_probe = check
    sim.engine.run(until=config.horizon_s)
    return outcomes


def test_walk_reaches_full_networks_and_live_draws():
    """The pinned tight shape sees both outcomes of the draw."""
    tight = next(c["config"] for c in GOLDEN if c["name"] == "tight_12x7_refresh_failures")
    outcomes = walk(LifecycleConfig(**tight))
    assert outcomes["none"] > 0 and outcomes["picked"] > 0


CONFIGS = st.builds(
    LifecycleConfig,
    providers=st.integers(1, 40),
    regions=st.integers(1, 4),
    slots_per_provider=st.integers(1, 4),
    files=st.integers(0, 40),
    replicas=st.integers(1, 4),
    horizon_s=st.just(300.0),
    arrival_window_s=st.sampled_from([20.0, 120.0]),
    mtbf_s=st.sampled_from([60.0, 150.0, 400.0]),
    mttr_s=st.sampled_from([10.0, 60.0]),
    departures=st.integers(0, 4),
    retrieval_rate=st.just(0.1),
    regional_failures=st.integers(0, 2),
    degrade_timeout_s=st.sampled_from([40.0, 180.0]),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(config=CONFIGS)
def test_index_matches_the_scan_after_every_event(config):
    walk(config)
