"""Placement/economics model of FileInsurer used in the comparison harness.

This lightweight model mirrors the full protocol's behaviour at the level
Table IV compares: ``k * value`` replicas per file placed i.i.d. by
capacity-proportional sampling, deposits proportional to capacity, and
full compensation for lost files out of confiscated deposits.  The full
state machine in :mod:`repro.core.columnar` is exercised elsewhere; the
comparison uses this model so all five protocols are evaluated on exactly
the same footing (same file batch, same adversary, same sector count).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.baselines.base import BaselineDSN, StoredFile

__all__ = ["FileInsurerModel"]


class FileInsurerModel(BaselineDSN):
    """FileInsurer: random replica placement + insurance deposits."""

    name = "FileInsurer"
    #: Replicas per unit of value, as the ``table4`` comparison runs it.
    k = 10
    deposit_ratio = 0.0046
    cap_para = 1000.0

    # ------------------------------------------------------------------
    # Placement: capacity-proportional i.i.d. replica locations
    # ------------------------------------------------------------------
    def _place(self, size: float, value: float) -> Tuple[Sequence[int], int, float]:
        replica_count = max(1, int(round(self.k * value)))
        placements: List[int] = []
        for _ in range(replica_count):
            # Equal capacities here, so capacity-proportional sampling is
            # uniform; collisions (full sectors) are resampled like the
            # protocol's RandomSector loop.
            for _ in range(100):
                sector = int(self.rng.integers(0, self.n_sectors))
                if self.used[sector] + size <= self.sector_capacity:
                    break
            placements.append(sector)
        return placements, 1, size

    # ------------------------------------------------------------------
    # Economics: full compensation out of confiscated deposits
    # ------------------------------------------------------------------
    def total_deposits(self) -> float:
        """Deposits pledged across the network: ``gamma_deposit * Nm_v``."""
        max_value = self.cap_para * self.n_sectors
        return self.deposit_ratio * max_value

    def confiscated_deposits(self) -> float:
        """Deposits of corrupted sectors available for compensation."""
        if self.n_sectors == 0:
            return 0.0
        per_sector = self.total_deposits() / self.n_sectors
        return per_sector * len(self.corrupted)

    def compensation_for(self, stored: StoredFile) -> float:
        """Lost files are compensated at full declared value (Theorem 4)."""
        return stored.value

    # ------------------------------------------------------------------
    # Table IV properties
    # ------------------------------------------------------------------
    @property
    def prevents_sybil_attacks(self) -> bool:
        """DRep replicas are PoRep-sealed per provider."""
        return True

    @property
    def provable_robustness(self) -> bool:
        """Theorem 3 bounds the loss under adversarial corruption."""
        return True

    @property
    def full_compensation(self) -> bool:
        """Theorem 4: deposits fully cover losses with probability 1 - c."""
        return True
