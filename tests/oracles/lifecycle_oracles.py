"""O(providers) oracles for the lifecycle refresh-target index.

The scan ``LifecycleSimulation._pick_refresh_target`` ran on every refresh
before the draw moved onto an incrementally maintained
:class:`~repro.core.selector.WeightedSampler`, kept as the reference the
differential test (``test_sim_lifecycle_index.py``) compares against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.prng import DeterministicPRNG
from repro.sim.lifecycle import LifecycleSimulation, ProviderLifecycleState


def weighted_index(prng: DeterministicPRNG, weights: Sequence[float]) -> int:
    """Return an index sampled proportionally to ``weights``."""
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    target = prng.random() * total
    running = 0.0
    for index, weight in enumerate(weights):
        running += weight
        if target < running:
            return index
    return len(weights) - 1


def refresh_weight(sim: LifecycleSimulation, provider: str) -> int:
    """Free slots of an ``ACTIVE`` provider, 0 for any other state."""
    if sim.provider_lifecycle.state(provider) is not ProviderLifecycleState.ACTIVE:
        return 0
    return sim.capacity[provider] - sim.used[provider]


def pick_refresh_target(
    sim: LifecycleSimulation, file_id: int, prng: DeterministicPRNG
) -> Optional[str]:
    """One pass over every provider, then ``weighted_index`` over the rest."""
    candidates = [
        name
        for name in sim.provider_names
        if sim.provider_lifecycle.state(name) is ProviderLifecycleState.ACTIVE
        and sim.used[name] < sim.capacity[name]
        and name not in sim.replicas_of.get(file_id, set())
    ]
    if not candidates:
        return None
    free = [sim.capacity[name] - sim.used[name] for name in candidates]
    return candidates[weighted_index(prng, free)]
