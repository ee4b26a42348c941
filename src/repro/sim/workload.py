"""Workload generators: file sizes, values and request streams.

Table III of the paper evaluates storage randomness under five file-backup
size distributions:

* ``[1]`` uniform on ``[0, 1]``;
* ``[2]`` uniform on ``[1, 2]``;
* ``[3]`` exponential (mean 1);
* ``[4]`` normal with ``mu = sigma^2`` (we use mu = 1, sigma^2 = 1);
* ``[5]`` normal with ``mu = 2 sigma^2`` (mu = 1, sigma^2 = 0.5).

Sizes are in abstract units (the experiment only cares about the ratio of
backup size to sector capacity); normal samples are truncated at a small
positive floor and all distributions are floored away from zero so that
every backup occupies space.  The generator also produces integer byte
sizes and values for the end-to-end scenario workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FileSizeDistribution", "WorkloadGenerator", "FileRequest"]

_SIZE_FLOOR = 1e-3


class FileSizeDistribution(str, Enum):
    """The five file-backup size distributions of Table III."""

    UNIFORM_0_1 = "uniform_0_1"
    UNIFORM_1_2 = "uniform_1_2"
    EXPONENTIAL = "exponential"
    NORMAL_MU_EQ_VAR = "normal_mu_eq_var"
    NORMAL_MU_EQ_2VAR = "normal_mu_eq_2var"

    @classmethod
    def paper_order(cls) -> Tuple["FileSizeDistribution", ...]:
        """The distributions in the paper's column order [1]..[5]."""
        return (
            cls.UNIFORM_0_1,
            cls.UNIFORM_1_2,
            cls.EXPONENTIAL,
            cls.NORMAL_MU_EQ_VAR,
            cls.NORMAL_MU_EQ_2VAR,
        )

    @property
    def paper_label(self) -> str:
        """The ``[n]`` label used in Table III."""
        return f"[{self.paper_order().index(self) + 1}]"


@dataclass(frozen=True)
class FileRequest:
    """One file a client wants stored: integer size in bytes plus a value."""

    size: int
    value: int


class WorkloadGenerator:
    """Generates file-size samples and request streams deterministically."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Table III size distributions (unit-scale floats)
    # ------------------------------------------------------------------
    def backup_sizes(
        self, distribution: FileSizeDistribution, count: int
    ) -> np.ndarray:
        """Sample ``count`` backup sizes from one of the paper's distributions."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.empty(0, dtype=float)
        if distribution == FileSizeDistribution.UNIFORM_0_1:
            samples = self._rng.uniform(0.0, 1.0, count)
        elif distribution == FileSizeDistribution.UNIFORM_1_2:
            samples = self._rng.uniform(1.0, 2.0, count)
        elif distribution == FileSizeDistribution.EXPONENTIAL:
            samples = self._rng.exponential(1.0, count)
        elif distribution == FileSizeDistribution.NORMAL_MU_EQ_VAR:
            samples = self._rng.normal(1.0, 1.0, count)
        elif distribution == FileSizeDistribution.NORMAL_MU_EQ_2VAR:
            samples = self._rng.normal(1.0, math.sqrt(0.5), count)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown distribution {distribution}")
        return np.maximum(samples, _SIZE_FLOOR)

    # ------------------------------------------------------------------
    # Integer workloads for the end-to-end scenarios
    # ------------------------------------------------------------------
    def file_requests(
        self,
        count: int,
        mean_size: int,
        distribution: FileSizeDistribution = FileSizeDistribution.EXPONENTIAL,
        value_choices: Sequence[int] = (1,),
        value_weights: Optional[Sequence[float]] = None,
        max_size: Optional[int] = None,
    ) -> List[FileRequest]:
        """Generate ``count`` file requests with integer byte sizes.

        Sizes follow the chosen distribution scaled to ``mean_size`` bytes
        (clamped to at least one byte and at most ``max_size``); values are
        drawn from ``value_choices`` with optional weights.
        """
        if count <= 0:
            return []
        if mean_size <= 0:
            raise ValueError("mean_size must be positive")
        unit_sizes = self.backup_sizes(distribution, count)
        mean_of_unit = float(np.mean(unit_sizes)) or 1.0
        scaled = np.maximum(1, np.round(unit_sizes * (mean_size / mean_of_unit))).astype(int)
        if max_size is not None:
            scaled = np.minimum(scaled, max_size)
        if value_weights is not None:
            weights = np.asarray(value_weights, dtype=float)
            weights = weights / weights.sum()
        else:
            weights = None
        values = self._rng.choice(np.asarray(value_choices), size=count, p=weights)
        return [FileRequest(size=int(s), value=int(v)) for s, v in zip(scaled, values)]

    # ------------------------------------------------------------------
    # Sector populations
    # ------------------------------------------------------------------
    def sector_capacities(
        self,
        count: int,
        min_capacity: int,
        max_multiple: int = 4,
    ) -> List[int]:
        """Capacities for ``count`` sectors as random multiples of ``min_capacity``."""
        if count <= 0:
            return []
        if max_multiple < 1:
            raise ValueError("max_multiple must be at least 1")
        multiples = self._rng.integers(1, max_multiple + 1, count)
        return [int(m) * min_capacity for m in multiples]

    # ------------------------------------------------------------------
    # Arrival processes
    # ------------------------------------------------------------------
    def poisson_arrival_times(self, rate_per_s: float, horizon_s: float) -> List[float]:
        """Event times of a Poisson process with ``rate_per_s`` over a horizon."""
        if rate_per_s <= 0 or horizon_s <= 0:
            return []
        times: List[float] = []
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / rate_per_s))
            if t > horizon_s:
                break
            times.append(t)
        return times
