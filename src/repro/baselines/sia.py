"""Sia baseline model.

Sia forms per-file storage contracts between a renter and a handful of
hosts the renter selects (typically by price and uptime score).  Storage
proofs show *some* copy of the contracted data exists but are not bound to
a host-specific encoding, so a single party operating several host
identities can back them all with one physical copy (no Sybil resistance
-- the "No" entry in Table IV).  Host collateral is burnt/returned through
the contract, not paid to the renter as insurance.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.baselines.base import BaselineDSN, StoredFile

__all__ = ["SiaModel"]


class SiaModel(BaselineDSN):
    """Sia: renter-selected contracts, proofs not bound to host identity."""

    name = "Sia"
    hosts_per_contract = 3
    #: Renters overwhelmingly contract the cheapest / highest-uptime hosts,
    #: concentrating data on a pool of this fraction of all hosts.
    preferred_pool_fraction = 0.1
    #: Fraction of host identities that are Sybils of one operator; their
    #: "independent" copies are really a single physical copy.
    sybil_collusion_fraction = 0.1

    def __init__(self, n_sectors: int, sector_capacity: float, seed: int = 0) -> None:
        super().__init__(n_sectors, sector_capacity, seed)
        pool_size = max(
            self.hosts_per_contract, int(self.preferred_pool_fraction * n_sectors)
        )
        self.preferred_pool = list(self.rng.permutation(n_sectors)[:pool_size])
        sybil_count = int(self.sybil_collusion_fraction * n_sectors)
        self.sybil_group = set(int(s) for s in self.rng.permutation(n_sectors)[:sybil_count])

    def _place(self, size: float, value: float) -> Tuple[Sequence[int], int, float]:
        count = min(self.hosts_per_contract, len(self.preferred_pool))
        placements = [
            int(sector)
            for sector in self.rng.choice(self.preferred_pool, size=count, replace=False)
        ]
        return placements, 1, size

    def file_is_lost(self, stored: StoredFile) -> bool:
        """A file survives only on hosts that are both healthy and genuine.

        Replicas on Sybil identities collapse together: if the Sybil
        operator's single physical copy is gone (modelled as: any of its
        identities is corrupted), none of its identities can produce the
        data.
        """
        sybil_compromised = any(sector in self.corrupted for sector in self.sybil_group)
        surviving = 0
        for sector in stored.placements:
            if sector in self.corrupted:
                continue
            if sybil_compromised and sector in self.sybil_group:
                continue
            surviving += 1
        return surviving < stored.units_needed

    def compensation_for(self, stored: StoredFile) -> float:
        """Contract collateral is not an insurance payout to the renter."""
        return 0.0

    @property
    def prevents_sybil_attacks(self) -> bool:
        """Proofs are not replica-bound, so Sybil identities share one copy."""
        return False

    @property
    def provable_robustness(self) -> bool:
        """Renter-chosen placement admits no network-wide loss bound."""
        return False

    @property
    def full_compensation(self) -> bool:
        """No insurance scheme."""
        return False
