"""Adversary models: corrupt a fraction of the network's capacity.

Theorems 3 and 4 assume an adversary able to instantaneously corrupt a
``lambda`` fraction of total capacity, choosing *which* sectors to corrupt
arbitrarily.  Two strategies are provided:

* :class:`RandomCapacityAdversary` -- corrupts uniformly random sectors
  until the budget is spent (models correlated hardware failure);
* :class:`GreedyCapacityAdversary` -- targets the sectors hosting the most
  replicas of the fewest-replicated files first, a strong heuristic for
  maximising destroyed value under a capacity budget.

Both operate either on a :class:`FileInsurerProtocol` instance (corrupting
its sectors) or on a plain placement map, which is what the Monte-Carlo
robustness experiments use for speed -- either a sequence of per-file
sector sequences or, straight from a Monte-Carlo draw, one 2-D integer
array with a row per file.  The greedy selection loop is one of the
backend-dispatched simulation kernels (:mod:`repro.kernels`):
``reference`` is the readable rescan-per-pick loop, ``vectorized`` keeps
the finishing-value scores between picks and pops the next sector off a
lazy heap -- both choose identical sector sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Set, Tuple, Union

import numpy as np

from repro.kernels import KernelBackend, get_backend
from repro.kernels.placements import Placements, checked_placement_array

__all__ = [
    "CorruptionOutcome",
    "AdversaryModel",
    "RandomCapacityAdversary",
    "GreedyCapacityAdversary",
    "evaluate_loss",
]


@dataclass(frozen=True)
class CorruptionOutcome:
    """Result of an attack on a replica placement."""

    corrupted_sectors: Tuple[int, ...]
    corrupted_capacity: float
    total_capacity: float
    lost_files: Tuple[int, ...]
    lost_value: float
    total_value: float

    @property
    def capacity_fraction(self) -> float:
        """Fraction of capacity corrupted (the realised lambda)."""
        if self.total_capacity <= 0:
            return 0.0
        return self.corrupted_capacity / self.total_capacity

    @property
    def value_loss_ratio(self) -> float:
        """``gamma_lost``: lost value over total value."""
        if self.total_value <= 0:
            return 0.0
        return self.lost_value / self.total_value


def _ordered_sum(numbers: Sequence[float]) -> float:
    """Left-to-right float sum, whichever container holds the numbers."""
    if isinstance(numbers, np.ndarray):
        return float(np.cumsum(numbers, dtype=float)[-1]) if numbers.size else 0.0
    return float(sum(numbers))


def evaluate_loss(
    placements: Placements,
    values: Sequence[float],
    corrupted: Set[int],
    capacities: Sequence[float],
) -> CorruptionOutcome:
    """Compute which files are lost given a set of corrupted sectors.

    ``placements[i]`` lists the sector indices hosting the replicas of file
    ``i``; the file is lost iff every one of them is corrupted.  A 2-D
    integer array of placements is answered with one mask lookup, its
    sums taken in the same file order as the per-file walk.
    """
    if isinstance(placements, np.ndarray):
        replicas = checked_placement_array(placements, len(capacities))
        is_corrupted = np.zeros(len(capacities), dtype=bool)
        is_corrupted[list(corrupted)] = True
        lost = np.flatnonzero(is_corrupted[replicas].all(axis=1))
        if replicas.shape[1] == 0:  # a file without replicas is not lost
            lost = lost[:0]
        lost_files = lost.tolist()
        lost_value = _ordered_sum(np.asarray(values, dtype=float)[lost])
    else:
        lost_files = []
        lost_value = 0.0
        for file_index, sectors in enumerate(placements):
            if sectors and all(sector in corrupted for sector in sectors):
                lost_files.append(file_index)
                lost_value += values[file_index]
    corrupted_capacity = float(sum(capacities[s] for s in corrupted))
    return CorruptionOutcome(
        corrupted_sectors=tuple(sorted(corrupted)),
        corrupted_capacity=corrupted_capacity,
        total_capacity=_ordered_sum(capacities),
        lost_files=tuple(lost_files),
        lost_value=lost_value,
        total_value=_ordered_sum(values),
    )


class AdversaryModel(Protocol):
    """Interface of a capacity-budgeted adversary."""

    def choose_sectors(
        self,
        capacities: Sequence[float],
        placements: Placements,
        values: Sequence[float],
        budget_fraction: float,
    ) -> Set[int]:
        """Select sector indices to corrupt within the capacity budget."""


class RandomCapacityAdversary:
    """Corrupts uniformly random sectors up to the capacity budget."""

    def __init__(self, seed: int = 13) -> None:
        self._rng = np.random.default_rng(seed)

    def choose_sectors(
        self,
        capacities: Sequence[float],
        placements: Placements,
        values: Sequence[float],
        budget_fraction: float,
    ) -> Set[int]:
        """Pick random sectors until the corrupted capacity reaches the budget."""
        if not 0 <= budget_fraction <= 1:
            raise ValueError("budget_fraction must lie in [0, 1]")
        caps = np.asarray(capacities, dtype=float)
        budget = budget_fraction * float(caps.sum())
        order = self._rng.permutation(len(caps))
        chosen: Set[int] = set()
        spent = 0.0
        for index, size in zip(order.tolist(), caps[order].tolist()):
            if spent + size > budget + 1e-9:
                continue
            chosen.add(index)
            spent += size
            if spent >= budget - 1e-9:
                break
        return chosen

    def attack(
        self,
        capacities: Sequence[float],
        placements: Placements,
        values: Sequence[float],
        budget_fraction: float,
    ) -> CorruptionOutcome:
        """Choose sectors and evaluate the resulting loss."""
        chosen = self.choose_sectors(capacities, placements, values, budget_fraction)
        return evaluate_loss(placements, values, chosen, capacities)


class GreedyCapacityAdversary:
    """Targets sectors that most cheaply complete the destruction of files.

    Iteratively scores each healthy sector by the value of files it would
    *finish off* (files whose every other replica is already corrupted),
    falling back to the count of hosted replicas, and corrupts the best
    sector that still fits the budget (ties resolve to the lowest sector
    index).  This models a strategic adversary and upper-bounds what
    random failures achieve at the same budget.

    The selection loop is a :mod:`repro.kernels` kernel: ``backend``
    picks the implementation (``"reference"`` / ``"vectorized"`` / a
    :class:`~repro.kernels.KernelBackend`; default the ambient backend),
    and every backend returns the same sector set for the same inputs.
    """

    def __init__(
        self,
        seed: int = 17,
        backend: Optional[Union[str, KernelBackend]] = None,
    ) -> None:
        self._rng = np.random.default_rng(seed)
        self.kernels = get_backend(backend)
        self.backend = self.kernels.name

    def choose_sectors(
        self,
        capacities: Sequence[float],
        placements: Placements,
        values: Sequence[float],
        budget_fraction: float,
    ) -> Set[int]:
        """Greedy selection under the capacity budget."""
        if not 0 <= budget_fraction <= 1:
            raise ValueError("budget_fraction must lie in [0, 1]")
        caps = np.asarray(capacities, dtype=float)
        budget = budget_fraction * float(caps.sum())
        return self.kernels.greedy_select(caps, placements, values, budget)

    def attack(
        self,
        capacities: Sequence[float],
        placements: Placements,
        values: Sequence[float],
        budget_fraction: float,
    ) -> CorruptionOutcome:
        """Choose sectors greedily and evaluate the resulting loss."""
        chosen = self.choose_sectors(capacities, placements, values, budget_fraction)
        return evaluate_loss(placements, values, chosen, capacities)
