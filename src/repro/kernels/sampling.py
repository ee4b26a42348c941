"""Shared machinery for the ``batch_weighted_draw`` kernel.

Both backends implement the same *draw protocol* over a dedicated
``uint32`` word stream, which is what makes their results bit-identical
(see :meth:`repro.kernels.base.KernelBackend.batch_weighted_draw` for the
full contract):

* :class:`U32Stream` -- a buffered view over a ``numpy`` generator's
  full-range ``uint32`` draws.  32-bit full-range draws consume the
  underlying bit-generator stream one word at a time, so the word
  sequence is invariant under re-chunking: the reference backend taking
  two words at a time and the vectorized backend peeking thousands read
  *the same words in the same order*.
* :class:`U32Randint` -- the scalar rejection sampler mapping that word
  stream to bounded integers.  It is duck-type compatible with
  :meth:`repro.core.selector.WeightedSampler.sample`'s ``prng`` argument,
  which is how the reference backend stays a thin wrapper over the real
  Fenwick loop.
* :func:`normalize_draw_request` -- one validation path for both
  backends, so malformed requests fail identically before any word is
  consumed.
* :func:`sampler_stream` -- the canonical way callers derive the
  dedicated per-call generator from an integer entropy and a spawn key,
  mirroring the domain-separated streams of
  :mod:`repro.sim.placement`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_TOTAL_WEIGHT",
    "BatchDrawResult",
    "U32Randint",
    "U32Stream",
    "normalize_draw_request",
    "sampler_stream",
    "total_weight_guard",
]

#: Upper bound (exclusive) on the total sampling weight.  The vectorized
#: backend accumulates weights in ``int64`` and compares candidates in
#: ``uint64``; both backends raise ``ValueError`` at the first draw whose
#: total reaches this bound so the contract cannot silently diverge.
MAX_TOTAL_WEIGHT = 1 << 62

_INT64_MAX = (1 << 63) - 1

#: Words generated per refill of a :class:`U32Stream`.  Purely a cost
#: knob -- re-chunking never changes the word sequence.
_STREAM_CHUNK_WORDS = 4096


def sampler_stream(entropy: int, *spawn_key: int) -> np.random.Generator:
    """The dedicated uint32 generator for one ``batch_weighted_draw`` call.

    Callers derive one fresh stream per kernel invocation (domain
    separation via ``spawn_key``), never reusing a generator across
    calls: the vectorized backend is allowed to generate *past* the words
    the batch logically consumes, which is harmless only on a stream
    nothing else will read.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=tuple(spawn_key))
    )


class U32Stream:
    """Buffered full-range ``uint32`` word stream with lookahead.

    ``peek`` exposes upcoming words without consuming them and
    ``advance`` commits consumption; ``take`` combines both.  The
    reference backend only ever takes a candidate's words; the vectorized
    backend peeks whole chunks and advances exactly as far as the batch
    logically consumed, so both see identical words for every candidate.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buffer = np.empty(0, dtype=np.uint32)
        self._start = 0

    def _ensure(self, count: int) -> None:
        available = self._buffer.size - self._start
        if available >= count:
            return
        fresh = self._rng.integers(
            0, 1 << 32, max(count - available, _STREAM_CHUNK_WORDS), dtype=np.uint32
        )
        if available:
            self._buffer = np.concatenate([self._buffer[self._start :], fresh])
        else:
            self._buffer = fresh
        self._start = 0

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words, without consuming them."""
        self._ensure(count)
        return self._buffer[self._start : self._start + count]

    def advance(self, count: int) -> None:
        """Consume ``count`` previously peeked words."""
        if count > self._buffer.size - self._start:
            raise ValueError("cannot advance past the peeked window")
        self._start += count

    def take(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` words."""
        words = self.peek(count)
        self.advance(count)
        return words


class U32Randint:
    """Scalar bounded draws over a :class:`U32Stream` (the draw protocol).

    ``randint(low, high)`` uses rejection sampling over whole 32-bit
    words: with ``span = high - low + 1`` and ``bits = span.bit_length()``
    each candidate consumes ``ceil(bits / 32)`` words, assembled
    big-endian (first word highest) and right-shifted to keep ``bits``
    bits; candidates at or above ``span`` are rejected and the next one
    is consumed.  Duck-type compatible with
    :meth:`~repro.core.selector.WeightedSampler.sample`.
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


@dataclass(frozen=True)
class BatchDrawResult:
    """Outcome of one ``batch_weighted_draw`` call.

    ``keys`` holds, in operation order, one entry per requested draw:
    ``("draw", count)`` contributes ``count`` sampled slot indices and
    ``("place", sizes, max_attempts)`` contributes, per size, the placed
    slot index or ``-1`` when every attempt collided.  ``attempts``
    counts every weighted draw performed (including the collided
    attempts of place operations) and ``collisions`` the free-capacity
    rejections -- exactly the counters
    :class:`~repro.core.selector.CapacitySelector` keeps.
    """

    keys: np.ndarray
    attempts: int
    collisions: int


def total_weight_guard(total: int) -> None:
    """Reject totals the vectorized arithmetic cannot represent.

    Called by both backends at the first draw of each constant-weight
    segment, so a weight table pushed past :data:`MAX_TOTAL_WEIGHT`
    raises the same ``ValueError`` at the same operation everywhere.
    """
    if total >= MAX_TOTAL_WEIGHT:
        raise ValueError(
            f"total sampling weight {total} exceeds the kernel bound "
            f"2**62; rescale the weight table"
        )


def _index(value: object, what: str) -> int:
    """``value`` as a Python int; floats, strings and booleans are refused.

    ``int()`` would place ``("place", 3.7, 2)`` as 3 bytes and draw
    ``("draw", 2.9)`` twice -- a silently different request.
    """
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None


def _place_sizes(raw: object) -> np.ndarray:
    """The sizes of one ``place`` op -- one size or a 1-D run -- as int64."""
    if isinstance(raw, np.ndarray):
        if raw.ndim != 1:
            raise ValueError("'place' sizes must be one-dimensional")
        if raw.dtype.kind not in "iu":
            raise ValueError("'place' size must be an integer")
    else:
        raw = np.asarray([_index(raw, "'place' size")])
    if raw.size:
        if int(raw.min()) < 0:
            raise ValueError("'place' size must be non-negative")
        if raw.dtype.kind != "i" and int(raw.max()) > _INT64_MAX:
            # uint64 above 2**63 or an object array of a huge python int
            raise ValueError("'place' size must fit in int64")
    return raw.astype(np.int64, copy=False)


def normalize_draw_request(
    weights: Sequence[int],
    ops: Sequence[Tuple],
    free: Optional[Sequence[int]],
) -> Tuple[np.ndarray, List[Tuple], Optional[np.ndarray]]:
    """Validate one batch request; returns defensive int64 copies.

    The returned ``weights`` / ``free`` arrays are private to the kernel
    call (backends mutate them while replaying the operation stream);
    the caller's inputs are never touched.  Every ``place`` op comes back
    as ``("place", int64 sizes array, max_attempts)`` whichever arity it
    arrived in, a run validated in one numpy pass; op scalars must be
    integers (``operator.index``), so nothing is silently truncated.
    """
    try:
        weight_table = np.array(weights, dtype=np.int64)
    except OverflowError:
        raise ValueError(
            f"weights must stay below 2**62, the kernel total bound"
        ) from None
    if weight_table.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if weight_table.size and int(weight_table.min()) < 0:
        raise ValueError("weights must be non-negative")
    if weight_table.size and int(weight_table.max()) >= MAX_TOTAL_WEIGHT:
        raise ValueError("weights must stay below 2**62, the kernel total bound")
    n_slots = int(weight_table.size)

    free_table: Optional[np.ndarray] = None
    if free is not None:
        free_table = np.array(free, dtype=np.int64)
        if free_table.shape != weight_table.shape:
            raise ValueError("free must match the weight table's shape")

    normalized: List[Tuple] = []
    for op in ops:
        if not isinstance(op, tuple) or not op:
            raise ValueError(f"malformed sampler operation {op!r}")
        kind = op[0]
        if kind == "set":
            if len(op) != 3:
                raise ValueError(f"'set' expects (slot, weight), got {op!r}")
            slot, weight = _index(op[1], "'set' slot"), _index(op[2], "'set' weight")
            if not 0 <= slot < n_slots:
                raise ValueError(f"'set' slot {slot} out of range [0, {n_slots})")
            if weight < 0:
                raise ValueError("weights must be non-negative")
            if weight >= MAX_TOTAL_WEIGHT:
                # Rejected up front (not at the next draw) so a transient
                # over-bound weight fails identically on a backend whose
                # table arithmetic could not even store it.
                raise ValueError(
                    "weights must stay below 2**62, the kernel total bound"
                )
            normalized.append(("set", slot, weight))
        elif kind == "draw":
            if len(op) != 2:
                raise ValueError(f"'draw' expects (count,), got {op!r}")
            count = _index(op[1], "'draw' count")
            if count < 0:
                raise ValueError("'draw' count must be non-negative")
            normalized.append(("draw", count))
        elif kind == "place":
            if len(op) != 3:
                raise ValueError(f"'place' expects (size, max_attempts), got {op!r}")
            sizes = _place_sizes(op[1])
            max_attempts = _index(op[2], "'place' max_attempts")
            if max_attempts < 1:
                raise ValueError("'place' max_attempts must be >= 1")
            if free_table is None:
                raise ValueError("'place' operations require a free table")
            normalized.append(("place", sizes, max_attempts))
        else:
            raise ValueError(f"unknown sampler operation kind {kind!r}")
    return weight_table, normalized, free_table
