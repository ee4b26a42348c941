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

from typing import Dict, Generic, Hashable, Iterable, List, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.crypto.prng import DeterministicPRNG
from repro.kernels import KernelBackend, get_backend, sampler_stream
from repro.kernels.sampling import DrawTable

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

    def _prefix(self, slot: int) -> int:
        """Total weight of the slots before ``slot``."""
        tree = self._tree
        total = 0
        while slot:
            total += tree[slot]
            slot &= slot - 1
        return total

    def _find_slot(self, target: int) -> int:
        """Find the smallest slot whose prefix sum exceeds ``target``."""
        tree = self._tree
        size = len(tree)
        index = 0
        bit = 1 << (size - 1).bit_length() >> 1  # highest power of two below size
        while bit:
            nxt = index + bit
            if nxt < size and tree[nxt] <= target:
                index = nxt
                target -= tree[nxt]
            bit >>= 1
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
        array is cached across draws and read-only: add, remove and
        :meth:`update_weight` replace it rather than write to it, which is
        what lets :class:`CapacitySelector` keep a
        :class:`~repro.kernels.sampling.DrawTable` per array.
        """
        if self._weights_array is None:
            array = np.asarray(self._weights, dtype=np.int64)
            array.flags.writeable = False
            self._weights_array = array
        return self._weights_array

    def slot_of(self, key: K) -> int:
        """Slot currently holding ``key`` (KeyError if absent)."""
        return self._slots[key]

    def sample(self, prng: DeterministicPRNG) -> K:
        """Sample a key with probability proportional to its weight.

        ``prng`` only needs a ``randint(low, high)`` method; both the
        protocol's SHA-256 stream and the kernel oracle's uint32 adapter
        (``U32Randint`` in ``tests/oracles/kernel_oracle.py``) qualify.
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

    def key_at_offset_excluding(self, offset: int, excluded: Iterable[K]) -> K:
        """:meth:`key_at_offset` on the weight line with ``excluded`` cut out.

        The excluded keys' stretches are taken out and the rest close up,
        so ``offset`` must lie in ``[0, total_weight - their weights)``.
        The answer is what zeroing them, calling :meth:`key_at_offset` and
        restoring them gives, but nothing is written: ``offset`` is pushed
        past each excluded slot, in slot order, that starts at or before it.
        """
        weights = self._weights
        slots = sorted({self._slots[key] for key in excluded})
        reduced = self._total - sum([weights[slot] for slot in slots])
        if not 0 <= offset < reduced:
            raise ValueError(f"offset {offset} outside the weight line [0, {reduced})")
        for slot in slots:
            if offset < self._prefix(slot):
                break
            offset += weights[slot]
        return self.key_at_offset(offset)


class CapacitySelector:
    """``RandomSector()`` with collision handling.

    Samples sectors proportionally to *capacity* (not free space, matching
    the paper), and resamples when the chosen sector lacks free space for
    the replica -- the "collision" event whose frequency Theorem 2 and the
    Table III experiments bound.  Collisions are counted so experiments can
    report them.

    Every draw goes through the ``batch_weighted_draw`` kernel
    (:mod:`repro.kernels`) on dedicated per-call uint32 streams whose
    entropy is derived once from ``prng``, so a deployment is fully
    reproducible from its seed and *bit-identical on the kernel oracle*.
    :meth:`select_batch_slots` amortises one kernel call over a whole
    replica set.

    The selector keeps no free capacities: the caller owns them and hands
    :meth:`select_batch_slots` its free column in slot order, the table the
    kernels accept placements against.

    The kernels get the weights as a :class:`~repro.kernels.sampling.DrawTable`
    the selector keeps across calls and rebuilds only when the sampler
    hands out a new weight array (on add, remove or a weight change), so
    no call re-validates the table or recomputes its cumulative sums.

    Plain :meth:`random_slot` draws are served from a buffer filled
    ``draw_batch`` at a time by a single kernel call, so refresh-target
    selection stops paying the per-draw stream-derivation overhead.  The
    buffer is flushed whenever membership or weights change, which keeps
    every served draw consistent with the live sector set; the draw
    *sequence* is a function of the op stream and ``draw_batch`` only, so
    it stays bit-identical on the kernel oracle.
    """

    #: Stream label under which the draw entropy is derived from the
    #: selector's PRNG (consumed exactly once, at construction).
    _KERNEL_ENTROPY_LABEL = "sampler-kernel-entropy"

    def __init__(
        self,
        prng: DeterministicPRNG,
        max_attempts: int = 1000,
        backend: Optional[Union[str, KernelBackend]] = None,
        draw_batch: int = 1,
    ) -> None:
        if draw_batch < 1:
            raise ValueError("draw_batch must be at least 1")
        self.max_attempts = max_attempts
        self._sampler: WeightedSampler[str] = WeightedSampler()
        self.collisions = 0
        self.samples = 0
        self.kernels = get_backend(backend)
        self.draw_batch = draw_batch
        #: Prefetched plain-draw slots, served in draw order via pop().
        self._draw_buffer: List[int] = []
        #: Kernel calls that filled the buffer, prefetched draws a flush
        #: discarded, and the totals :meth:`take_prefetch_counts` last saw.
        self._refills = 0
        self._flushed = 0
        self._prefetch_taken = (0, 0, 0)
        self._entropy = int.from_bytes(
            prng.spawn(self._KERNEL_ENTROPY_LABEL).random_bytes(16), "big"
        )
        self._draw_calls = 0
        self._table: Optional[DrawTable] = None

    def _draw_table(self) -> DrawTable:
        """The kernel table of the current weights, rebuilt per weight array."""
        weights = self._sampler.slot_weights()
        if self._table is None or self._table.weights is not weights:
            self._table = DrawTable(weights)
        return self._table

    def _next_stream(self) -> "np.random.Generator":
        """A fresh dedicated uint32 stream for one kernel call."""
        stream = sampler_stream(self._entropy, self._draw_calls)
        self._draw_calls += 1
        return stream

    # ------------------------------------------------------------------
    # Membership management (driven by the protocol)
    # ------------------------------------------------------------------
    def add_sector(self, sector_id: str, capacity: int) -> None:
        """Make a sector eligible for selection."""
        self._sampler.add(sector_id, capacity)
        self._flush_draws()

    def remove_sector(self, sector_id: str) -> None:
        """Remove a sector (disabled, corrupted or deregistered)."""
        if self._sampler.contains(sector_id):
            self._sampler.remove(sector_id)
            self._flush_draws()

    def _flush_draws(self) -> None:
        self._flushed += len(self._draw_buffer)
        self._draw_buffer.clear()

    def slot_of(self, sector_id: str) -> int:
        """Sampler slot of a selectable sector (KeyError if absent).

        Slots are stable for a sector's lifetime: removal recycles a slot
        for *new* sectors but never moves a live one, so callers may cache
        slot-keyed lookups (the columnar engine's slot -> sector-row map).
        """
        return self._sampler.slot_of(sector_id)

    @property
    def slot_count(self) -> int:
        """Selectable sectors plus recycled slots: the length of the free
        column :meth:`select_batch_slots` takes."""
        return self._sampler.slot_count

    def contains(self, sector_id: str) -> bool:
        """True if the sector is currently selectable."""
        return self._sampler.contains(sector_id)

    def __len__(self) -> int:
        return len(self._sampler)

    @property
    def total_weight(self) -> int:
        """Summed capacity of the selectable sectors: every draw's total."""
        return self._sampler._total  # one attribute read: every registration asks

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def random_slot(self) -> int:
        """One capacity-proportional draw (no free-space check), as a slot.

        Draws are prefetched ``draw_batch`` at a time from a single kernel
        call and served from a buffer that membership changes flush, so a
        burst of refresh targets costs one stream derivation instead of
        one per draw.  The buffer is refilled only when a draw
        finds it empty, never ahead of one: refills share the kernel-call
        numbering of :meth:`select_batch_slots`, so *when* they happen is
        part of the draw sequence.
        """
        if not self._draw_buffer:
            result = self.kernels.batch_weighted_draw(
                self._next_stream(),
                self._draw_table(),
                [("draw", self.draw_batch)],
            )
            self.samples += result.attempts
            self._refills += 1
            self._draw_buffer = result.keys.tolist()
            self._draw_buffer.reverse()
        return self._draw_buffer.pop()

    def take_prefetch_counts(self) -> tuple[int, ...]:
        """Plain-draw prefetch ``(hits, refills, flushed)`` since the last call.

        Of the draws :meth:`random_slot` served, ``refills`` needed a
        kernel call and ``hits`` came out of an already filled buffer;
        ``flushed`` prefetched draws were discarded by a membership change
        before they could be served.
        """
        served = (
            self._refills * self.draw_batch - self._flushed - len(self._draw_buffer)
        )
        totals = (served - self._refills, self._refills, self._flushed)
        taken, self._prefetch_taken = self._prefetch_taken, totals
        return tuple(now - before for now, before in zip(totals, taken))

    def select_batch_slots(self, sizes: Sequence[int], free: Sequence[int]) -> np.ndarray:
        """Place a whole replica set with one kernel call; returns slot ids.

        ``free`` holds each slot's free capacity, :attr:`slot_count`
        entries in slot order; a recycled slot has weight 0 and is never
        drawn, so its entry may be anything.  Each entry of ``sizes`` is
        the resample-on-full loop of Figure 4: draw (at most
        ``max_attempts`` times) until a sector with ``size`` free is hit.
        The kernel debits its private copy of ``free`` after every
        successful placement, exactly as the caller reserves afterwards,
        so one batch equals placing the entries one at a time.  Entries
        that exhaust ``max_attempts`` -- which the paper notes "almost
        never happens" under the redundant-capacity assumption -- come
        back as ``-1``.  The protocol engine maps slots to sector table
        rows with its own vectorised lookup.

        Statistics caveat: the batch always runs to completion, so
        ``samples``/``collisions`` cover every entry even when the caller
        (like ``File Add``) aborts at the first failure.
        """
        if len(sizes) == 0:
            return np.empty(0, dtype=np.int64)
        if len(self._sampler) == 0:
            return np.full(len(sizes), -1, dtype=np.int64)
        result = self.kernels.batch_weighted_draw(
            self._next_stream(),
            self._draw_table(),
            # One place run: the sizes travel as a column, never as tuples.
            [("place", np.asarray(sizes), self.max_attempts)],
            # The kernels debit a copy, so the caller's column is left alone.
            free=free,
        )
        self.samples += result.attempts
        self.collisions += result.collisions
        return np.asarray(result.keys, dtype=np.int64)
