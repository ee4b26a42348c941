"""O(providers) oracles for the lifecycle refresh-target index.

The scan ``LifecycleSimulation._pick_refresh_target`` ran on every refresh
before the draw moved onto an incrementally maintained
:class:`~repro.core.selector.WeightedSampler`, kept as the reference the
differential test (``test_sim_lifecycle_index.py``) compares against.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.prng import DeterministicPRNG
from repro.sim.lifecycle import LifecycleSimulation, ProviderLifecycleState


def refresh_weight(sim: LifecycleSimulation, provider: str) -> int:
    """Free slots of an ``ACTIVE`` provider, 0 for any other state."""
    if sim.registry.provider(provider).state is not ProviderLifecycleState.ACTIVE:
        return 0
    return sim.capacity[provider] - sim.used[provider]


def pick_refresh_target(
    sim: LifecycleSimulation, file_id: int, prng: DeterministicPRNG
) -> Optional[str]:
    """One pass over every provider, then ``weighted_index`` over the rest."""
    candidates = [
        name
        for name in sim.provider_names
        if sim.registry.provider(name).state is ProviderLifecycleState.ACTIVE
        and sim.used[name] < sim.capacity[name]
        and name not in sim.replicas_of.get(file_id, set())
    ]
    if not candidates:
        return None
    free = [sim.capacity[name] - sim.used[name] for name in candidates]
    return candidates[prng.weighted_index(free)]
