"""Shared machinery for the ``batch_weighted_draw`` kernel.

Both backends implement the same *draw protocol* over a dedicated
``uint32`` word stream, which is what makes their results bit-identical
(see :meth:`repro.kernels.base.KernelBackend.batch_weighted_draw` for the
full contract):

* :class:`U32Stream` -- a buffered view over a ``numpy`` generator's
  full-range ``uint32`` draws.  32-bit full-range draws consume the
  underlying bit-generator stream one word at a time, so the word
  sequence is invariant under re-chunking: the reference backend taking
  two words at a time and the vectorized backend taking thousands read
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
import reprlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
#: ``uint64``; both backends refuse a request whose total reaches this
#: bound (:func:`total_weight_guard`) so the contract cannot diverge.
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
    """Buffered full-range ``uint32`` word stream.

    ``take`` consumes the next words, however many at a time: the
    reference backend takes one candidate's words, the vectorized backend
    a whole window of candidates, and both see identical words for every
    candidate.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buffer = np.empty(0, dtype=np.uint32)
        self._start = 0

    def take(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` words."""
        available = self._buffer.size - self._start
        if available < count:
            fresh = self._rng.integers(
                0, 1 << 32, max(count - available, _STREAM_CHUNK_WORDS), dtype=np.uint32
            )
            if available:
                fresh = np.concatenate([self._buffer[self._start :], fresh])
            self._buffer = fresh
            self._start = 0
        words = self._buffer[self._start : self._start + count]
        self._start += count
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

    ``keys`` holds one entry per requested draw: ``("draw", count)``
    gives ``count`` sampled slot indices and ``("place", sizes,
    max_attempts)`` gives, per size, the placed slot index or ``-1`` when
    every attempt collided.  ``attempts`` counts every weighted draw
    performed (including the collided attempts of a place run) and
    ``collisions`` the free-capacity rejections -- exactly the counters
    :class:`~repro.core.selector.CapacitySelector` keeps.
    """

    keys: np.ndarray
    attempts: int
    collisions: int


def total_weight_guard(total: int) -> None:
    """Reject totals the vectorized arithmetic cannot represent.

    Called by both backends once per request, before any draw, so a
    weight table at or past :data:`MAX_TOTAL_WEIGHT` raises the same
    ``ValueError`` everywhere.
    """
    if total >= MAX_TOTAL_WEIGHT:
        raise ValueError(
            f"total sampling weight {total} exceeds the kernel bound "
            f"2**62; rescale the weight table"
        )


def _index(value: object, what: str) -> int:
    """``value`` as a Python int; floats, strings and booleans are refused.

    ``int()`` would draw ``("draw", 2.9)`` twice -- a silently different
    request.
    """
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None


def _int64_array(raw: object, what: str) -> np.ndarray:
    """``raw`` as int64, refused rather than truncated or wrapped.

    ``np.array(raw, dtype=np.int64)`` would sample ``[1.9, 0.9, 2.5]`` as
    ``[1, 0, 2]``, take ``["3", "4"]`` or a boolean mask for a table and
    wrap a ``uint64`` past ``2**63`` to a negative.
    """
    array = np.asarray(raw)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {array.dtype}")
    if array.dtype.kind == "u" and array.size and int(array.max()) > _INT64_MAX:
        raise ValueError(f"{what} must fit in int64")
    return array.astype(np.int64, copy=False)


def normalize_draw_request(
    weights: Sequence[int],
    ops: Sequence[Tuple],
    free: Optional[Sequence[int]],
) -> Tuple[np.ndarray, Tuple, Optional[np.ndarray]]:
    """Validate one call; returns ``(weights, request, free)``.

    ``ops`` must hold exactly one request, which comes back as
    ``("draw", count)`` or ``("place", int64 sizes array, max_attempts)``;
    anything else -- no request or several, a ``"set"`` or unknown kind, a
    wrong arity, a ``place`` whose sizes are not a numpy array -- raises
    one ``ValueError``.  Both tables come back as int64, ``free`` as a
    private copy (the backends debit it as they place; the weight table
    is only read), so the caller's inputs are never touched.  Arrays must
    have an integer dtype and scalars must be integers
    (``operator.index``), so nothing is silently truncated.
    """
    weight_table = _int64_array(weights, "weights")
    if weight_table.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if weight_table.size and int(weight_table.min()) < 0:
        raise ValueError("weights must be non-negative")
    if weight_table.size and int(weight_table.max()) >= MAX_TOTAL_WEIGHT:
        raise ValueError("weights must stay below 2**62, the kernel total bound")

    free_table: Optional[np.ndarray] = None
    if free is not None:
        free_table = _int64_array(free, "free").copy()
        if free_table.shape != weight_table.shape:
            raise ValueError("free must match the weight table's shape")

    op = ops[0] if len(ops) == 1 else None
    kind = op[0] if isinstance(op, tuple) and op else None
    if kind == "draw" and len(op) == 2:
        count = _index(op[1], "'draw' count")
        if count < 0:
            raise ValueError("'draw' count must be non-negative")
        return weight_table, ("draw", count), free_table
    if kind == "place" and len(op) == 3 and isinstance(op[1], np.ndarray):
        sizes = _int64_array(op[1], "'place' sizes")
        if sizes.ndim != 1:
            raise ValueError("'place' sizes must be one-dimensional")
        if sizes.size and int(sizes.min()) < 0:
            raise ValueError("'place' sizes must be non-negative")
        max_attempts = _index(op[2], "'place' max_attempts")
        if max_attempts < 1:
            raise ValueError("'place' max_attempts must be >= 1")
        if free_table is None:
            raise ValueError("'place' operations require a free table")
        return weight_table, ("place", sizes, max_attempts), free_table
    raise ValueError(
        "batch_weighted_draw takes exactly one request, ('draw', count) or "
        f"('place', integer sizes array, max_attempts); got {reprlib.repr(ops)}"
    )
