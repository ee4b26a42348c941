"""Capacity-weighted random sector selection.

``RandomSector()`` (Table I) samples a sector with probability proportional
to its capacity.  The sector set is dynamic -- sectors register, disable
and are removed -- so the sampler must support weighted sampling *and*
weight updates efficiently.  We use a Fenwick (binary indexed) tree over
sector weights, giving O(log n) insertion, removal, re-weighting and
sampling; this is also the data structure that makes the Table III
experiments (hundreds of millions of placements) feasible.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Hashable, List, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.crypto.prng import DeterministicPRNG

__all__ = ["SamplerInvariantError", "WeightedSampler", "CapacitySelector"]

K = TypeVar("K", bound=Hashable)


class SamplerInvariantError(RuntimeError):
    """A Fenwick-tree draw landed on an empty slot.

    This should be unreachable: it means the tree's prefix sums drifted
    from the per-slot weights (a corrupted update, concurrent mutation,
    or an out-of-range target).  The offending state rides along so the
    failure is diagnosable from the exception alone.
    """

    def __init__(self, slot: int, target: int, weight: int, total: int) -> None:
        self.slot = slot
        self.target = target
        self.weight = weight
        self.total = total
        super().__init__(
            f"sampled empty slot {slot} (target {target}, slot weight {weight}, "
            f"total weight {total}); Fenwick tree is inconsistent"
        )


class WeightedSampler(Generic[K]):
    """Dynamic weighted sampling over hashable keys via a Fenwick tree.

    Weights are non-negative integers (capacities in bytes).  Removed slots
    are recycled so long-running simulations with heavy churn do not grow
    unboundedly.
    """

    def __init__(self) -> None:
        self._tree: List[int] = [0]  # 1-indexed Fenwick tree
        self._weights: List[int] = []  # per-slot weight
        self._keys: List[Optional[K]] = []  # slot -> key
        self._slots: Dict[K, int] = {}  # key -> slot
        self._free_slots: List[int] = []
        self._total: int = 0
        self._weights_array: Optional[np.ndarray] = None  # slot_weights cache

    # ------------------------------------------------------------------
    # Fenwick internals
    # ------------------------------------------------------------------
    def _update(self, slot: int, delta: int) -> None:
        index = slot + 1
        while index < len(self._tree):
            self._tree[index] += delta
            index += index & (-index)

    def _prefix_sum(self, slot: int) -> int:
        index = slot + 1
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return total

    def _find_slot(self, target: int) -> int:
        """Find the smallest slot whose prefix sum exceeds ``target``."""
        index = 0
        bit = 1
        while bit * 2 < len(self._tree):
            bit *= 2
        remaining = target
        while bit > 0:
            nxt = index + bit
            if nxt < len(self._tree) and self._tree[nxt] <= remaining:
                index = nxt
                remaining -= self._tree[nxt]
            bit //= 2
        return index  # 0-based slot

    def _grow(self) -> int:
        slot = len(self._weights)
        self._weights.append(0)
        self._keys.append(None)
        self._tree.append(0)
        # Rebuild the new tree node from its children (standard Fenwick grow).
        index = slot + 1
        low = index - (index & (-index)) + 1
        self._tree[index] = sum(self._weights[low - 1 : index])
        return slot

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def add(self, key: K, weight: int) -> None:
        """Insert ``key`` with ``weight`` (must not already be present)."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if key in self._slots:
            raise KeyError(f"key {key!r} already present")
        slot = self._free_slots.pop() if self._free_slots else self._grow()
        self._slots[key] = slot
        self._keys[slot] = key
        delta = weight - self._weights[slot]
        self._weights[slot] = weight
        self._total += delta
        self._update(slot, delta)
        self._weights_array = None

    def remove(self, key: K) -> None:
        """Remove ``key`` from the sampler."""
        slot = self._slots.pop(key)
        delta = -self._weights[slot]
        self._weights[slot] = 0
        self._keys[slot] = None
        self._total += delta
        self._update(slot, delta)
        self._free_slots.append(slot)
        self._weights_array = None

    def update_weight(self, key: K, weight: int) -> None:
        """Change the weight of an existing key."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        slot = self._slots[key]
        delta = weight - self._weights[slot]
        if delta == 0:
            return
        self._weights[slot] = weight
        self._total += delta
        self._update(slot, delta)
        self._weights_array = None

    def weight(self, key: K) -> int:
        """Current weight of ``key`` (0 if absent)."""
        slot = self._slots.get(key)
        return self._weights[slot] if slot is not None else 0

    def contains(self, key: K) -> bool:
        """True if ``key`` is present."""
        return key in self._slots

    @property
    def total_weight(self) -> int:
        """Sum of all weights."""
        return self._total

    def __len__(self) -> int:
        return len(self._slots)

    def keys(self) -> List[K]:
        """All keys currently present."""
        return list(self._slots)

    # ------------------------------------------------------------------
    # Slot-level views (the kernel interface)
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of allocated slots (present keys plus recycled holes)."""
        return len(self._weights)

    def slot_weights(self) -> np.ndarray:
        """Per-slot weights as ``int64`` -- the ``batch_weighted_draw`` table.

        Recycled slots carry weight 0 and are therefore never drawn.  The
        array is cached across draws (membership changes invalidate it)
        and must not be mutated by callers; the kernels copy their inputs.
        """
        if self._weights_array is None:
            self._weights_array = np.asarray(self._weights, dtype=np.int64)
        return self._weights_array

    def key_at(self, slot: int) -> Optional[K]:
        """Key stored in ``slot`` (``None`` for a recycled slot)."""
        return self._keys[slot]

    def slot_of(self, key: K) -> int:
        """Slot currently holding ``key`` (KeyError if absent)."""
        return self._slots[key]

    def sample(self, prng: DeterministicPRNG) -> K:
        """Sample a key with probability proportional to its weight.

        ``prng`` only needs a ``randint(low, high)`` method; both the
        protocol's SHA-256 stream and the kernels' uint32 adapter
        (:class:`repro.kernels.sampling.U32Randint`) qualify.
        """
        if self._total <= 0:
            raise ValueError("cannot sample from an empty or zero-weight sampler")
        return self.key_at_offset(prng.randint(0, self._total - 1))

    def key_at_offset(self, offset: int) -> K:
        """Key owning ``offset`` on the cumulative-weight line.

        Slots are laid end to end in slot order, each ``weight`` units
        long; ``offset`` must lie in ``[0, total_weight)``.  This is the
        deterministic half of :meth:`sample`, for callers that turn their
        own random draw into an offset.
        """
        if not 0 <= offset < self._total:
            raise ValueError(
                f"offset {offset} outside the weight line [0, {self._total})"
            )
        slot = self._find_slot(offset)
        key = self._keys[slot]
        if key is None:
            raise SamplerInvariantError(
                slot=slot, target=offset, weight=self._weights[slot], total=self._total
            )
        return key


class CapacitySelector:
    """``RandomSector()`` with collision handling.

    Samples sectors proportionally to *capacity* (not free space, matching
    the paper), and resamples when the chosen sector lacks free space for
    the replica -- the "collision" event whose frequency Theorem 2 and the
    Table III experiments bound.  Collisions are counted so experiments can
    report them.

    Two draw engines share the Fenwick membership bookkeeping:

    * **legacy** (``backend=None``): every draw hashes the protocol's
      SHA-256 :class:`DeterministicPRNG` stream through
      :meth:`WeightedSampler.sample` -- the original, one-at-a-time path;
    * **kernel mode** (``backend`` given): draws go through the
      backend-dispatched ``batch_weighted_draw`` kernel
      (:mod:`repro.kernels`) on dedicated per-call uint32 streams whose
      entropy is derived once from ``prng``, so a deployment is still
      fully reproducible from its seed and *bit-identical across
      backends*.  ``select_batch`` amortises one kernel call over a whole
      replica set.

    Two further amortisations back the million-file protocol paths:

    * **tracked free capacities** (``track_free=True``): the caller keeps
      the selector informed of every reservation/release via
      :meth:`set_free` / :meth:`debit_slots`, and the per-slot free table
      handed to the kernels is a columnar ``int64`` array maintained
      incrementally -- no per-call Python scan over every slot;
    * **draw prefetching** (``draw_batch > 1``): plain ``random_sector``
      draws are served from a buffer filled ``draw_batch`` at a time by a
      single kernel call, so refresh-target selection stops paying the
      per-draw stream-derivation + cumsum overhead.  The buffer is
      flushed whenever membership or weights change, which keeps every
      served draw consistent with the live sector set; the draw
      *sequence* is a function of the op stream and ``draw_batch`` only,
      so it stays bit-identical across backends.
    """

    #: Stream label under which kernel-mode entropy is derived from the
    #: selector's PRNG (consumed exactly once, at construction).
    _KERNEL_ENTROPY_LABEL = "sampler-kernel-entropy"

    def __init__(
        self,
        prng: DeterministicPRNG,
        max_attempts: int = 1000,
        backend: Optional[Union[str, "KernelBackend"]] = None,
        track_free: bool = False,
        draw_batch: int = 1,
    ) -> None:
        if draw_batch < 1:
            raise ValueError("draw_batch must be at least 1")
        self.prng = prng
        self.max_attempts = max_attempts
        self._sampler: WeightedSampler[str] = WeightedSampler()
        self.collisions = 0
        self.samples = 0
        self.kernels = None
        self.backend: Optional[str] = None
        self.track_free = track_free
        self.draw_batch = draw_batch
        #: Tracked per-slot free capacities (int64; -1 for recycled slots).
        self._free = np.empty(0, dtype=np.int64)
        #: Prefetched plain-draw slots (kernel mode, ``draw_batch > 1``).
        self._draw_buffer: List[int] = []
        if backend is not None:
            # Imported lazily so repro.kernels.reference can import this
            # module (for the Fenwick oracle) without a cycle.
            from repro.kernels import get_backend

            self.kernels = get_backend(backend)
            self.backend = self.kernels.name
            self._entropy = int.from_bytes(
                prng.spawn(self._KERNEL_ENTROPY_LABEL).random_bytes(16), "big"
            )
            self._draw_calls = 0

    @property
    def kernel_mode(self) -> bool:
        """True when draws are dispatched through ``batch_weighted_draw``."""
        return self.kernels is not None

    def _next_stream(self) -> "np.random.Generator":
        """A fresh dedicated uint32 stream for one kernel call."""
        from repro.kernels import sampler_stream

        stream = sampler_stream(self._entropy, self._draw_calls)
        self._draw_calls += 1
        return stream

    def _free_table(
        self, free_space_of: Optional[Callable[[str], int]]
    ) -> np.ndarray:
        """Per-slot free capacities for the kernel's place acceptance.

        With ``free_space_of`` given, the table is rebuilt by querying the
        callable per slot (the original, O(slots)-per-call path).  With
        ``free_space_of=None`` the selector must be tracking free
        capacities (:attr:`track_free`) and the incrementally maintained
        columnar table is used directly -- the kernels take a defensive
        copy, so handing them the live array is safe.

        Recycled slots report ``-1``; they carry weight 0 and are never
        drawn, so the value only has to be *some* rejection.
        """
        if free_space_of is None:
            if not self.track_free:
                raise RuntimeError(
                    "free_space_of=None requires a track_free selector"
                )
            return self._free[: self._sampler.slot_count]
        free = np.full(self._sampler.slot_count, -1, dtype=np.int64)
        for slot in range(self._sampler.slot_count):
            key = self._sampler.key_at(slot)
            if key is not None:
                free[slot] = int(free_space_of(key))
        return free

    def _ensure_free_capacity(self, slots: int) -> None:
        if len(self._free) < slots:
            grown = np.full(max(slots, 2 * len(self._free)), -1, dtype=np.int64)
            grown[: len(self._free)] = self._free
            self._free = grown

    # ------------------------------------------------------------------
    # Membership management (driven by the protocol)
    # ------------------------------------------------------------------
    def add_sector(
        self, sector_id: str, capacity: int, free: Optional[int] = None
    ) -> None:
        """Make a sector eligible for selection.

        With :attr:`track_free`, the sector's tracked free capacity starts
        at ``free`` (default: its full ``capacity``).
        """
        self._sampler.add(sector_id, capacity)
        self._draw_buffer.clear()
        if self.track_free:
            slot = self._sampler.slot_of(sector_id)
            self._ensure_free_capacity(slot + 1)
            self._free[slot] = capacity if free is None else int(free)

    def remove_sector(self, sector_id: str) -> None:
        """Remove a sector (disabled, corrupted or deregistered)."""
        if self._sampler.contains(sector_id):
            slot = self._sampler.slot_of(sector_id)
            self._sampler.remove(sector_id)
            self._draw_buffer.clear()
            if self.track_free and slot < len(self._free):
                self._free[slot] = -1

    def set_free(self, sector_id: str, free: int) -> None:
        """Update a tracked sector's free capacity (no-op when untracked).

        Callers invoke this after every reservation or release on a
        selectable sector; sectors outside the sampler are ignored (they
        can no longer be drawn, so their free space is irrelevant).
        """
        if not self.track_free or not self._sampler.contains(sector_id):
            return
        self._free[self._sampler.slot_of(sector_id)] = int(free)

    def debit_slots(self, slots: np.ndarray, amounts: np.ndarray) -> None:
        """Vectorised tracked-free debit: ``free[slots] -= amounts``.

        Used by the columnar protocol engine to mirror a whole batch of
        replica reservations in one call; duplicate slots accumulate.
        """
        if not self.track_free:
            return
        np.subtract.at(self._free, slots, amounts)

    def tracked_free(self, sector_id: str) -> int:
        """Tracked free capacity of a selectable sector (-1 if absent)."""
        if not self._sampler.contains(sector_id):
            return -1
        return int(self._free[self._sampler.slot_of(sector_id)])

    def slot_of(self, sector_id: str) -> int:
        """Sampler slot of a selectable sector (KeyError if absent).

        Slots are stable for a sector's lifetime: removal recycles a slot
        for *new* sectors but never moves a live one, so callers may cache
        slot-keyed lookups (the columnar engine's slot -> sector-row map).
        """
        return self._sampler.slot_of(sector_id)

    def contains(self, sector_id: str) -> bool:
        """True if the sector is currently selectable."""
        return self._sampler.contains(sector_id)

    @property
    def total_capacity(self) -> int:
        """Total capacity of selectable sectors."""
        return self._sampler.total_weight

    def __len__(self) -> int:
        return len(self._sampler)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def random_sector(self) -> str:
        """One capacity-proportional draw (no free-space check).

        In kernel mode with ``draw_batch > 1``, draws are prefetched
        ``draw_batch`` at a time from a single kernel call and served from
        a buffer that membership changes flush, so a burst of refresh
        targets costs one stream derivation + cumsum instead of one per
        draw.
        """
        if self.kernels is None:
            self.samples += 1
            return self._sampler.sample(self.prng)
        if self.draw_batch > 1:
            if not self._draw_buffer:
                result = self.kernels.batch_weighted_draw(
                    self._next_stream(),
                    self._sampler.slot_weights(),
                    [("draw", self.draw_batch)],
                )
                self.samples += result.attempts
                self._draw_buffer = [int(slot) for slot in result.keys]
                self._draw_buffer.reverse()  # serve in draw order via pop()
            return self._sampler.key_at(self._draw_buffer.pop())
        result = self.kernels.batch_weighted_draw(
            self._next_stream(), self._sampler.slot_weights(), [("draw", 1)]
        )
        self.samples += result.attempts
        return self._sampler.key_at(int(result.keys[0]))

    def select_with_space(
        self,
        required_space: int,
        free_space_of: Optional[Callable[[str], int]] = None,
    ) -> Optional[str]:
        """Sample until a sector with ``required_space`` free is found.

        ``free_space_of`` maps a sector id to its current free capacity.
        Returns ``None`` if ``max_attempts`` draws all collide, which the
        paper notes "almost never happens" under the redundant-capacity
        assumption.

        In kernel mode the whole retry loop is one ``("place", ...)``
        kernel operation; ``free_space_of`` is snapshotted across the
        current sector set up front (it cannot change mid-loop -- the
        loop only reads).  ``free_space_of=None`` uses the tracked
        columnar free table instead (requires ``track_free``).
        """
        if len(self._sampler) == 0:
            return None
        if self.kernels is None:
            lookup = self.tracked_free if free_space_of is None else free_space_of
            if free_space_of is None and not self.track_free:
                raise RuntimeError(
                    "free_space_of=None requires a track_free selector"
                )
            for _ in range(self.max_attempts):
                sector_id = self.random_sector()
                if lookup(sector_id) >= required_space:
                    return sector_id
                self.collisions += 1
            return None
        result = self.kernels.batch_weighted_draw(
            self._next_stream(),
            self._sampler.slot_weights(),
            [("place", int(required_space), self.max_attempts)],
            free=self._free_table(free_space_of),
        )
        self.samples += result.attempts
        self.collisions += result.collisions
        slot = int(result.keys[0])
        return None if slot < 0 else self._sampler.key_at(slot)

    def select_batch_slots(
        self,
        sizes: Sequence[int],
        free_space_of: Optional[Callable[[str], int]] = None,
    ) -> np.ndarray:
        """Kernel mode only: place a replica set, returning raw slot ids.

        The slot-level variant of :meth:`select_batch` used by the
        columnar protocol engine, which maps slots to sector table rows
        with its own vectorised lookup instead of materialising one key
        string per replica.  Failed placements come back as ``-1``.
        """
        if self.kernels is None:
            raise RuntimeError("select_batch requires a kernel-mode selector")
        if len(sizes) == 0:
            return np.empty(0, dtype=np.int64)
        if len(self._sampler) == 0:
            return np.full(len(sizes), -1, dtype=np.int64)
        result = self.kernels.batch_weighted_draw(
            self._next_stream(),
            self._sampler.slot_weights(),
            [("place", int(size), self.max_attempts) for size in sizes],
            free=self._free_table(free_space_of),
        )
        self.samples += result.attempts
        self.collisions += result.collisions
        return np.asarray(result.keys, dtype=np.int64)

    def select_batch(
        self,
        sizes: Sequence[int],
        free_space_of: Optional[Callable[[str], int]] = None,
    ) -> List[Optional[str]]:
        """Kernel mode only: place a whole replica set with one kernel call.

        Acceptance-wise equivalent to calling :meth:`select_with_space`
        once per entry of ``sizes`` while reserving each selected
        sector's space in between: the kernel debits its private free
        table after every successful placement, exactly mirroring the
        ``record.reserve`` the caller performs afterwards.  Entries that
        exhaust ``max_attempts`` come back as ``None``.

        ``free_space_of=None`` snapshots the tracked columnar free table
        (requires ``track_free``) instead of scanning a callable per slot.

        Statistics caveat: the batch always runs to completion, so
        ``samples``/``collisions`` cover every entry even when the caller
        (like ``File Add``) aborts at the first ``None`` -- unlike the
        legacy loop, which stops drawing at the first failure.  The
        counters stay deterministic and backend-identical either way.
        """
        slots = self.select_batch_slots(sizes, free_space_of)
        return [
            None if slot < 0 else self._sampler.key_at(int(slot))
            for slot in slots
        ]
