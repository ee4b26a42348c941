"""Comparison harness regenerating Table IV.

Runs the same workload and the same adversarial corruption against
FileInsurer and the four baselines and derives the four compared
properties both *declaratively* (from the protocol models' design flags)
and *empirically*:

* **Capacity scalability** -- stored bytes grow ~linearly in the number of
  sectors without any sector overflowing.
* **Preventing Sybil attacks** -- whether the protocol's proofs bind
  replicas to provider identities (Sia's do not; its Sybil group collapses
  together under corruption).
* **Provable robustness** -- empirical worst-case loss ratio under a
  targeted adversary stays near the analytic bound only for FileInsurer.
* **Compensation for file loss** -- the fraction of lost value returned to
  owners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.arweave import ArweaveModel
from repro.baselines.base import BaselineDSN
from repro.baselines.filecoin import FilecoinModel
from repro.baselines.fileinsurer_model import FileInsurerModel
from repro.baselines.sia import SiaModel
from repro.baselines.storj import StorjModel
from repro.sim.metrics import format_table

__all__ = ["ProtocolProperties", "ComparisonHarness"]


@dataclass(frozen=True)
class ProtocolProperties:
    """One row of Table IV plus the empirical evidence behind it."""

    protocol: str
    capacity_scalability: bool
    prevents_sybil_attacks: bool
    provable_robustness: bool
    compensation_for_loss: bool
    # Empirical evidence
    loss_ratio_random: float
    loss_ratio_targeted: float
    compensation_ratio: float
    max_capacity_usage: float

    def as_row(self) -> Dict[str, object]:
        """Row dictionary formatted like the paper's Yes/No table."""

        def yes_no(flag: bool) -> str:
            return "Yes" if flag else "No"

        return {
            "Property": self.protocol,
            "Capacity Scalability": yes_no(self.capacity_scalability),
            "Preventing Sybil Attacks": yes_no(self.prevents_sybil_attacks),
            "Provable Robustness": yes_no(self.provable_robustness),
            "Compensation for File Loss": yes_no(self.compensation_for_loss),
            "loss@targeted": round(self.loss_ratio_targeted, 4),
            "loss@random": round(self.loss_ratio_random, 4),
            "comp.ratio": round(self.compensation_ratio, 3),
        }


_DEFAULT_MODELS: Dict[str, Callable[..., BaselineDSN]] = {
    "FileInsurer": FileInsurerModel,
    "Filecoin": FilecoinModel,
    "Arweave": ArweaveModel,
    "Storj": StorjModel,
    "Sia": SiaModel,
}


class ComparisonHarness:
    """Builds, attacks and scores all five DSN models on one workload."""

    def __init__(
        self,
        n_sectors: int = 200,
        sector_capacity: float = 2000.0,
        n_files: int = 500,
        corruption_fraction: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.n_sectors = n_sectors
        self.sector_capacity = sector_capacity
        self.n_files = n_files
        self.corruption_fraction = corruption_fraction
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build_model(self, name: str) -> BaselineDSN:
        """Instantiate one protocol model with harness-wide parameters."""
        return _DEFAULT_MODELS[name](self.n_sectors, self.sector_capacity, seed=self.seed)

    def workload(self) -> List[tuple]:
        """The shared file batch: exponential sizes, unit values."""
        sizes = np.maximum(0.01, self._rng.exponential(1.0, self.n_files))
        values = np.ones(self.n_files)
        return list(zip(sizes.tolist(), values.tolist()))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_protocol(self, name: str) -> ProtocolProperties:
        """Run the random and targeted corruption scenarios for one protocol."""
        workload = self.workload()

        random_model = self.build_model(name)
        random_model.store_many([s for s, _ in workload], [v for _, v in workload])
        random_model.corrupt_fraction(self.corruption_fraction, targeted=False)
        random_report = random_model.report()

        targeted_model = self.build_model(name)
        targeted_model.store_many([s for s, _ in workload], [v for _, v in workload])
        targeted_model.corrupt_fraction(self.corruption_fraction, targeted=True)
        targeted_report = targeted_model.report()

        return ProtocolProperties(
            protocol=name,
            capacity_scalability=targeted_model.capacity_scalable
            and targeted_model.max_capacity_usage() <= 1.0,
            prevents_sybil_attacks=targeted_model.prevents_sybil_attacks,
            provable_robustness=targeted_model.provable_robustness,
            compensation_for_loss=targeted_model.full_compensation,
            loss_ratio_random=random_report.value_loss_ratio,
            loss_ratio_targeted=targeted_report.value_loss_ratio,
            compensation_ratio=targeted_report.compensation_ratio,
            max_capacity_usage=targeted_model.max_capacity_usage(),
        )

    def run(self, protocols: Optional[Sequence[str]] = None) -> List[ProtocolProperties]:
        """Evaluate every protocol (paper order by default)."""
        chosen = list(protocols or _DEFAULT_MODELS.keys())
        return [self.evaluate_protocol(name) for name in chosen]

    def table(self, protocols: Optional[Sequence[str]] = None) -> str:
        """Formatted Table IV with the empirical columns appended."""
        rows = [result.as_row() for result in self.run(protocols)]
        return format_table(rows)
