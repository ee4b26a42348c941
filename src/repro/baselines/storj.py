"""Storj baseline model.

Storj stores every file as ``n`` erasure-coded shards of which any ``m``
reconstruct the file (end-to-end encrypted, Reed-Solomon).  Shards are
placed on distinct nodes chosen by the satellite.  There is no deposit or
insurance: a file lost beyond the erasure threshold is simply gone.  Audits
bind shards to nodes, preventing Sybil storage inflation.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.baselines.base import BaselineDSN, StoredFile

__all__ = ["StorjModel"]


class StorjModel(BaselineDSN):
    """Storj: (m of n) erasure-coded shards on distinct random nodes."""

    name = "Storj"
    #: Any ``data_shards`` of a file's ``total_shards`` reconstruct it.
    data_shards = 4
    total_shards = 8

    def _place(self, size: float, value: float) -> Tuple[Sequence[int], int, float]:
        count = min(self.total_shards, self.n_sectors)
        placements = [
            int(sector)
            for sector in self.rng.choice(self.n_sectors, size=count, replace=False)
        ]
        shard_size = size / self.data_shards
        needed = min(self.data_shards, count)
        return placements, needed, shard_size

    def compensation_for(self, stored: StoredFile) -> float:
        """No insurance: lost files are not compensated."""
        return 0.0

    @property
    def prevents_sybil_attacks(self) -> bool:
        """Per-node audits over encrypted shards prevent storage inflation."""
        return True

    @property
    def provable_robustness(self) -> bool:
        """Erasure coding helps, but no adversarial loss bound is proven."""
        return False

    @property
    def full_compensation(self) -> bool:
        """No compensation mechanism exists."""
        return False
