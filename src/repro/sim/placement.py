"""Replica-placement engine for the Table III experiments.

The paper's numerical experiments (Section V-B2, Table III) measure the
*maximum ratio of capacity usage* over all sectors when ``Ncp`` file
backups are placed into ``Ns`` sectors by capacity-proportional random
selection, under two settings:

1. **reallocate** -- all backups are reallocated from scratch, repeated 100
   times, reporting the maximum usage ratio observed;
2. **refresh** -- backups are placed once, then ``100 * Ncp`` random
   refreshes each move one uniformly chosen backup to a freshly sampled
   sector, reporting the maximum usage ratio observed.

Total sector capacity equals twice the total backup size (the redundant
capacity assumption), and here all sectors have equal capacity.

The inner loops live in :mod:`repro.kernels`: the vectorized kernels
reproduce the readable per-move loop of the test oracle bit-for-bit with
grouped numpy scans (see ``docs/performance.md``).  The engine is deliberately
batch-size-invariant: refresh moves draw from dedicated RNG streams and
``mean_usage`` / ``overflow_rounds`` are sampled on a fixed refresh
cadence (every ``Ncp`` moves), so changing :data:`BATCH_SIZE` changes
memory use and wall time but never a reported number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.kernels import KernelBackend, get_backend
from repro.sim.workload import FileSizeDistribution, WorkloadGenerator

__all__ = ["PlacementResult", "PlacementExperiment"]

#: Domain-separation constants for the refresh-move RNG streams.  Keeping
#: the backup-choice and target-choice draws on independent streams (not
#: interleaved batch by batch) is what makes results batch-size-invariant.
_CHOSEN_STREAM = 1
_TARGET_STREAM = 2

#: Refresh moves drawn and applied per kernel call; bounds memory only.
BATCH_SIZE = 1_000_000


def _draw_dtype(upper: int) -> np.dtype:
    """Narrowest *chunk-invariant* dtype for uniform draws in ``[0, upper)``.

    32- and 64-bit bounded draws consume the bit-generator stream one
    word at a time with any spare half-word buffered in the generator
    state, so splitting one draw of ``n`` values into several smaller
    draws yields the same values.  8- and 16-bit draws use a call-local
    buffer and are *not* split-invariant -- never use them here, or
    :data:`BATCH_SIZE` would change the refresh stream.
    """
    if upper - 1 <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one placement experiment."""

    distribution: FileSizeDistribution
    mode: str
    n_backups: int
    n_sectors: int
    rounds: int
    max_usage: float
    mean_usage: float
    overflow_rounds: int

    def as_row(self) -> Dict[str, object]:
        """Row dictionary for tabular experiment reports."""
        return {
            "distribution": self.distribution.paper_label,
            "mode": self.mode,
            "Ncp": self.n_backups,
            "Ns": self.n_sectors,
            "rounds": self.rounds,
            "max_usage": round(self.max_usage, 3),
            "mean_usage": round(self.mean_usage, 3),
            "overflow_rounds": self.overflow_rounds,
        }


class PlacementExperiment:
    """Monte-Carlo replica placement with equal-capacity sectors.

    ``backend`` injects a :class:`~repro.kernels.KernelBackend` instance
    (the test oracle, a timing proxy); ``None`` or ``"vectorized"`` runs
    the vectorized kernels.  Results are identical on the oracle for
    identical seeds.
    """

    def __init__(
        self, seed: int = 0, backend: Optional[Union[str, KernelBackend]] = None
    ) -> None:
        self.seed = seed
        self.kernels = get_backend(backend)
        self._rng = np.random.default_rng(seed)
        # Per-call counter mixed into the refresh-move stream keys so
        # successive run_refresh calls on one experiment (e.g. the five
        # distributions of a sweep) draw independent move sequences.
        self._refresh_calls = 0

    # ------------------------------------------------------------------
    # Core placement primitives
    # ------------------------------------------------------------------
    def _sector_capacity(self, sizes: np.ndarray, n_sectors: int) -> float:
        """Equal per-sector capacity under the redundant-capacity assumption."""
        total = float(sizes.sum())
        return 2.0 * total / n_sectors

    # ------------------------------------------------------------------
    # Experiment settings
    # ------------------------------------------------------------------
    def run_reallocate(
        self,
        distribution: FileSizeDistribution,
        n_backups: int,
        n_sectors: int,
        rounds: int = 100,
    ) -> PlacementResult:
        """Setting 1: reallocate all backups ``rounds`` times.

        Reports the maximum capacity-usage ratio seen in any round.
        """
        workload = WorkloadGenerator(seed=self.seed)
        sizes = workload.backup_sizes(distribution, n_backups)
        capacity = self._sector_capacity(sizes, n_sectors)
        max_usage = 0.0
        mean_acc = 0.0
        overflow_rounds = 0
        for _ in range(rounds):
            _, usage = self.kernels.place_backups(self._rng, sizes, n_sectors)
            ratio = usage / capacity
            round_max = float(ratio.max())
            max_usage = max(max_usage, round_max)
            mean_acc += float(ratio.mean())
            if round_max > 1.0:
                overflow_rounds += 1
        return PlacementResult(
            distribution=distribution,
            mode="reallocate",
            n_backups=n_backups,
            n_sectors=n_sectors,
            rounds=rounds,
            max_usage=max_usage,
            mean_usage=mean_acc / rounds,
            overflow_rounds=overflow_rounds,
        )

    def run_refresh(
        self,
        distribution: FileSizeDistribution,
        n_backups: int,
        n_sectors: int,
        refresh_multiplier: int = 100,
    ) -> PlacementResult:
        """Setting 2: place once, then refresh ``refresh_multiplier * Ncp`` backups.

        Each refresh moves a uniformly random backup to a freshly sampled
        sector; the kernel updates sector usage incrementally and tracks
        the running maximum, which is reported as ``max_usage`` over the
        whole churn.

        ``mean_usage`` and ``overflow_rounds`` are sampled every
        ``n_backups`` refreshes (once per paper "round") plus once after
        the initial placement.  :data:`BATCH_SIZE` only bounds memory: the
        backup-choice and target-sector draws come from dedicated RNG
        streams and the kernels apply moves as sequential per-sector
        additions, so every reported number is invariant under
        re-batching -- a serial run (batches of one move) reproduces a
        batched run bit-for-bit.
        """
        workload = WorkloadGenerator(seed=self.seed)
        sizes = workload.backup_sizes(distribution, n_backups)
        capacity = self._sector_capacity(sizes, n_sectors)
        assignments, usage = self.kernels.place_backups(self._rng, sizes, n_sectors)
        # Sector ids fit a narrow dtype; shrinking the assignment vector
        # speeds up every kernel gather/scatter against it.
        assignments = assignments.astype(_draw_dtype(n_sectors), copy=False)

        max_abs = float(usage.max())
        mean_acc = float(usage.mean()) / capacity
        samples = 1
        overflow_rounds = 1 if max_abs / capacity > 1.0 else 0

        call_index = self._refresh_calls
        self._refresh_calls += 1
        chosen_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_CHOSEN_STREAM, call_index)
            )
        )
        target_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_TARGET_STREAM, call_index)
            )
        )
        # Narrow draw dtypes speed up both the draws and every kernel
        # gather; the streams stay chunk-invariant within a dtype, which
        # depends only on (n_backups, n_sectors), never on BATCH_SIZE.
        chosen_dtype = _draw_dtype(n_backups)
        target_dtype = _draw_dtype(n_sectors)

        total_refreshes = refresh_multiplier * n_backups
        done = 0
        while done < total_refreshes:
            chunk = min(BATCH_SIZE, total_refreshes - done)
            chosen = chosen_rng.integers(0, n_backups, chunk, dtype=chosen_dtype)
            targets = target_rng.integers(0, n_sectors, chunk, dtype=target_dtype)
            # Sample boundaries falling inside this batch: every multiple
            # of the cadence, plus the very end of a partial last interval.
            bounds = list(
                range(
                    (done // n_backups + 1) * n_backups - done,
                    chunk + 1,
                    n_backups,
                )
            )
            if done + chunk == total_refreshes and (not bounds or bounds[-1] != chunk):
                bounds.append(chunk)
            batch_max, snapshots = self.kernels.refresh_moves(
                sizes, usage, assignments, chosen, targets, snapshot_after=bounds
            )
            max_abs = max(max_abs, batch_max)
            done += chunk
            for snapshot in snapshots:
                mean_acc += float(snapshot.mean()) / capacity
                samples += 1
                if float(snapshot.max()) / capacity > 1.0:
                    overflow_rounds += 1

        return PlacementResult(
            distribution=distribution,
            mode="refresh",
            n_backups=n_backups,
            n_sectors=n_sectors,
            rounds=total_refreshes,
            max_usage=max_abs / capacity,
            mean_usage=mean_acc / samples,
            overflow_rounds=overflow_rounds,
        )

    # ------------------------------------------------------------------
    # Convenience sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        grid: Sequence[tuple],
        mode: str = "reallocate",
        rounds: int = 100,
        refresh_multiplier: int = 100,
    ) -> List[PlacementResult]:
        """Run one mode over a ``(Ncp, Ns)`` grid for the paper's five
        size distributions."""
        if mode not in ("reallocate", "refresh"):
            raise ValueError("mode must be 'reallocate' or 'refresh'")
        chosen = list(FileSizeDistribution.paper_order())
        results: List[PlacementResult] = []
        for n_backups, n_sectors in grid:
            for distribution in chosen:
                if mode == "reallocate":
                    results.append(
                        self.run_reallocate(distribution, n_backups, n_sectors, rounds=rounds)
                    )
                else:
                    results.append(
                        self.run_refresh(
                            distribution,
                            n_backups,
                            n_sectors,
                            refresh_multiplier=refresh_multiplier,
                        )
                    )
        return results
