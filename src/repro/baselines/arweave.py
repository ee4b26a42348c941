"""Arweave baseline model.

Arweave's Proof of Access makes mining require random old blocks, which
incentivises miners to store as much of the weave as possible; files are
therefore replicated across a random subset of miners whose size grows
with the miner's participation.  Storage is paid once and permanent, but
there is no deposit/insurance: if every holder of a piece of data
disappears, the data is gone and nobody is compensated.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.baselines.base import BaselineDSN, StoredFile

__all__ = ["ArweaveModel"]


class ArweaveModel(BaselineDSN):
    """Arweave: probabilistic wide replication driven by Proof of Access."""

    name = "Arweave"
    #: Each file lands on this fraction of all miners, and on at least
    #: ``min_replicas`` of them.
    replication_fraction = 0.15
    min_replicas = 2

    def _place(self, size: float, value: float) -> Tuple[Sequence[int], int, float]:
        count = max(self.min_replicas, int(round(self.replication_fraction * self.n_sectors)))
        count = min(count, self.n_sectors)
        placements = [
            int(sector)
            for sector in self.rng.choice(self.n_sectors, size=count, replace=False)
        ]
        return placements, 1, size

    def compensation_for(self, stored: StoredFile) -> float:
        """Permanent storage has no insurance component."""
        return 0.0

    @property
    def prevents_sybil_attacks(self) -> bool:
        """Proof of Access requires miners to actually hold the data."""
        return True

    @property
    def provable_robustness(self) -> bool:
        """Replication is incentive-driven, not provably adversary-resistant."""
        return False

    @property
    def full_compensation(self) -> bool:
        """No compensation mechanism exists."""
        return False
