"""Filecoin baseline model.

Filecoin's Storage Market lets clients negotiate deals with specific
miners; a file typically has a small, client-chosen set of replicas, and
placement is driven by price/locality rather than network-enforced
randomness.  Sector deposits exist but are *burnt* on faults rather than
paid to the affected clients (Section II-B2), so compensation is at best
limited.  Replicas are PoRep-sealed, so Sybil attacks are prevented.
"""

from __future__ import annotations

from typing import Sequence, Tuple


from repro.baselines.base import BaselineDSN, StoredFile

__all__ = ["FilecoinModel"]


class FilecoinModel(BaselineDSN):
    """Filecoin: deal-based placement, deposits burnt on faults."""

    name = "Filecoin"
    replicas_per_file = 3
    #: Clients cluster their deals on a "popular" subset of miners
    #: (cheapest / best connected), this fraction of all miners, which is
    #: what breaks provable robustness: an adversary corrupting that subset
    #: destroys a disproportionate share of files.
    preferred_pool_fraction = 0.2
    #: Fraction of a lost file's value effectively recovered by the client
    #: (protocol-level slashing does not flow to clients; the small
    #: non-zero value models off-protocol goodwill refunds, matching the
    #: paper's "provides only limited compensation").
    burnt_refund_fraction = 0.05

    def __init__(self, n_sectors: int, sector_capacity: float, seed: int = 0) -> None:
        super().__init__(n_sectors, sector_capacity, seed)
        pool_size = max(
            self.replicas_per_file, int(self.preferred_pool_fraction * n_sectors)
        )
        self.preferred_pool = list(self.rng.permutation(n_sectors)[:pool_size])

    def _place(self, size: float, value: float) -> Tuple[Sequence[int], int, float]:
        count = min(self.replicas_per_file, len(self.preferred_pool))
        placements = [
            int(sector)
            for sector in self.rng.choice(self.preferred_pool, size=count, replace=False)
        ]
        return placements, 1, size

    def compensation_for(self, stored: StoredFile) -> float:
        """Deposits are burnt; clients recover only a marginal fraction."""
        return self.burnt_refund_fraction * stored.value

    @property
    def prevents_sybil_attacks(self) -> bool:
        """PoRep and proofs of spacetime bind replicas to miners."""
        return True

    @property
    def provable_robustness(self) -> bool:
        """Placement is client-chosen, so no network-wide loss bound holds."""
        return False

    @property
    def full_compensation(self) -> bool:
        """Slashing burns deposits instead of compensating clients."""
        return False
