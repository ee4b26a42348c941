"""Oracle kernels: the readable per-item loops every differential test trusts.

These are the original inner loops of :mod:`repro.sim.placement` and
:mod:`repro.sim.adversary`, extracted verbatim (modulo the deterministic
lowest-index tie-break in the greedy adversary, which the vectorized
kernels share).  They are intentionally *not* optimised: each one states
the semantics :class:`repro.kernels.VectorizedKernels` must reproduce
bit-for-bit.  The program never runs them; tests hand a
:class:`ReferenceKernels` instance to a ``backend=`` argument, or patch
``repro.kernels.KERNELS`` with one (the ``oracle_kernels`` fixture), to
run a whole scenario on the oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.selector import WeightedSampler
from repro.kernels import KernelBackend, VectorizedKernels
from repro.kernels.moves import normalize_refresh_request
from repro.kernels.placements import Placements, normalize_placements
from repro.kernels.sampling import (
    BatchDrawResult,
    U32Stream,
    normalize_draw_request,
    total_weight_guard,
)

__all__ = ["BACKENDS", "ReferenceKernels", "U32Randint"]


class U32Randint:
    """Scalar bounded draws over a :class:`U32Stream` (the draw protocol).

    ``randint(low, high)`` uses rejection sampling over whole 32-bit
    words: with ``span = high - low + 1`` and ``bits = span.bit_length()``
    each candidate consumes ``ceil(bits / 32)`` words, assembled
    big-endian (first word highest) and right-shifted to keep ``bits``
    bits; candidates at or above ``span`` are rejected and the next one
    is consumed.  Duck-type compatible with
    :meth:`~repro.core.selector.WeightedSampler.sample`, which is how the
    oracle stays a thin wrapper over the real Fenwick loop.
    """

    def __init__(self, stream: U32Stream) -> None:
        self._stream = stream

    def randint(self, low: int, high: int) -> int:
        if high < low:
            raise ValueError("high must be >= low")
        span = high - low + 1
        bits = span.bit_length()
        n_words = (bits + 31) >> 5
        shift = n_words * 32 - bits
        while True:
            value = 0
            for word in self._stream.take(n_words):
                value = (value << 32) | int(word)
            value >>= shift
            if value < span:
                return low + value


class ReferenceKernels(KernelBackend):
    """Pure-Python loops; correct by inspection, slow by design."""

    name = "reference"

    def place_backups(
        self, rng: np.random.Generator, sizes: np.ndarray, n_sectors: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        assignments = rng.integers(0, n_sectors, sizes.shape[0])
        usage = np.zeros(n_sectors, dtype=float)
        for index, sector in enumerate(assignments):
            usage[sector] += sizes[index]
        return assignments, usage

    def refresh_moves(
        self,
        sizes: np.ndarray,
        usage: np.ndarray,
        assignments: np.ndarray,
        chosen: np.ndarray,
        targets: np.ndarray,
        snapshot_after: Sequence[int] = (),
    ) -> Tuple[float, List[np.ndarray]]:
        chosen, targets, snapshot_after = normalize_refresh_request(
            sizes, usage, assignments, chosen, targets, snapshot_after
        )
        # Slice the move stream at the snapshot boundaries so the inner
        # loop stays the original tight per-move loop, with no bookkeeping.
        snapshots: List[np.ndarray] = []
        max_target = float("-inf")
        start = 0
        for bound in (*snapshot_after, int(chosen.size)):
            for backup_index, target in zip(chosen[start:bound], targets[start:bound]):
                source = assignments[backup_index]
                if source == target:
                    continue
                size = sizes[backup_index]
                usage[source] -= size
                usage[target] += size
                assignments[backup_index] = target
                if usage[target] > max_target:
                    max_target = float(usage[target])
            start = bound
            if len(snapshots) < len(snapshot_after):
                snapshots.append(usage.copy())
        return max_target, snapshots

    def greedy_select(
        self,
        capacities: np.ndarray,
        placements: Placements,
        values: Sequence[float],
        budget: float,
    ) -> Set[int]:
        caps, file_of, sector_of, values_arr = normalize_placements(
            capacities, placements, values
        )
        n_sectors = len(caps)
        file_values = values_arr.tolist()

        # sector -> files with a replica there, in file order; files keep
        # counting even once lost, mirroring the original scoring loop.
        hosted: List[List[int]] = [[] for _ in range(n_sectors)]
        remaining_healthy = [0] * len(file_values)
        for file_index, sector in zip(file_of.tolist(), sector_of.tolist()):
            hosted[sector].append(file_index)
            remaining_healthy[file_index] += 1

        chosen: Set[int] = set()
        spent = 0.0
        candidates = set(range(n_sectors))
        while candidates:
            best_sector = None
            best_score = (-1.0, -1.0)
            # Sorted iteration pins the tie-break: the lowest-index sector
            # among equal scores wins, as in the vectorized heap.
            for sector in sorted(candidates):
                if spent + caps[sector] > budget + 1e-9:
                    continue
                finishing_value = 0.0
                replica_count = 0
                for file_index in hosted[sector]:
                    replica_count += 1
                    if remaining_healthy[file_index] == 1:
                        finishing_value += file_values[file_index]
                score = (finishing_value, float(replica_count) / max(caps[sector], 1e-12))
                if score > best_score:
                    best_score = score
                    best_sector = sector
            if best_sector is None:
                break
            candidates.discard(best_sector)
            chosen.add(best_sector)
            spent += caps[best_sector]
            for file_index in hosted[best_sector]:
                remaining_healthy[file_index] -= 1
        return chosen

    def batch_weighted_draw(
        self,
        rng: np.random.Generator,
        weights: Sequence[int],
        ops: Sequence[Tuple],
        free: Optional[Sequence[int]] = None,
    ) -> BatchDrawResult:
        weight_table, request, free_table = normalize_draw_request(weights, ops, free)
        # The oracle really is the Fenwick tree: slots become integer
        # keys and every draw goes through WeightedSampler.sample with
        # the U32Randint adapter above supplying the draw protocol.
        sampler: WeightedSampler[int] = WeightedSampler()
        for slot, weight in enumerate(weight_table.tolist()):
            sampler.add(slot, weight)
        draws = U32Randint(U32Stream(rng))
        total_weight_guard(sampler.total_weight)

        if request[0] == "draw":
            keys = [sampler.sample(draws) for _ in range(request[1])]
            return BatchDrawResult(
                keys=np.asarray(keys, dtype=np.int64), attempts=len(keys), collisions=0
            )
        # A place run: every size in order, one attempt budget each.
        _, sizes, max_attempts = request
        free_list = free_table.tolist()
        keys = []
        attempts = 0
        collisions = 0
        for size in sizes.tolist():
            placed = -1
            for _ in range(max_attempts):
                slot = sampler.sample(draws)
                attempts += 1
                if free_list[slot] >= size:
                    free_list[slot] -= size
                    placed = slot
                    break
                collisions += 1
            keys.append(placed)
        return BatchDrawResult(
            keys=np.asarray(keys, dtype=np.int64), attempts=attempts, collisions=collisions
        )


#: The oracle and the program's kernels by name: what the differential
#: suites compare.
BACKENDS = {"reference": ReferenceKernels(), "vectorized": VectorizedKernels()}
