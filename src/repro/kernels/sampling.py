"""Shared machinery for the ``batch_weighted_draw`` kernel.

The vectorized kernels and the test oracle implement the same *draw
protocol* over a dedicated ``uint32`` word stream, which is what makes
their results bit-identical (see
:meth:`repro.kernels.base.KernelBackend.batch_weighted_draw` for the full
contract):

* :class:`U32Stream` -- a buffered view over a PCG64 bit generator's raw
  64-bit outputs, each split into two ``uint32`` words, low half first.
  The stream owns the split, so the word sequence is invariant under
  re-chunking: the oracle taking two words at a time and the vectorized
  kernels taking thousands read *the same words in the same order*.
* :class:`DrawTable` -- one validated weight table with everything a draw
  reads from it (exact total, cumulative weights, candidate geometry and
  a guide index over the cumulative line), built once per weight version
  and kept by its owner across calls.
* :func:`normalize_draw_request` -- one validation path for every
  backend, so malformed requests fail identically before any word is
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
from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "MAX_TOTAL_WEIGHT",
    "BatchDrawResult",
    "DrawTable",
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

#: Most words one refill of a :class:`U32Stream` generates beyond what the
#: take asks for.  Refills grow geometrically up to it, so a short call
#: generates little.  Purely a cost knob -- re-chunking never changes the
#: word sequence.
_STREAM_CHUNK_WORDS = 4096

#: Guide steps a target takes by ``+1`` before the rest resolve with one
#: ``np.searchsorted`` (see :meth:`DrawTable.slots_of`).
_GUIDE_STEPS = 4


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
    """Buffered ``uint32`` word stream over a PCG64 generator's raw outputs.

    Every 64-bit output of ``rng.bit_generator.random_raw`` becomes two
    words, low 32 bits first -- the words ``Generator.integers(0, 2**32,
    dtype=uint32)`` returns on a fresh generator, tied here to PCG64's
    stream, which numpy keeps stable across releases.  ``take`` consumes
    the next words, however many at a time: the oracle takes one
    candidate's words, the vectorized kernels a whole window of
    candidates, and both see identical words for every candidate.  Any
    other bit generator raises ``ValueError``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise ValueError(
                "the draw stream must be a PCG64 generator, got "
                f"{type(bit_generator).__name__}"
            )
        self._random_raw = bit_generator.random_raw
        self._buffer = np.empty(0, dtype=np.uint32)
        self._start = 0
        self._refill_words = 0

    def take(self, count: int) -> np.ndarray:
        """Consume and return the next ``count`` words."""
        available = self._buffer.size - self._start
        if available < count:
            # What the take needs, or twice the last refill (capped) when
            # that is more: a one-draw call generates a handful of words.
            wanted = max(
                count - available, min(2 * self._refill_words, _STREAM_CHUNK_WORDS)
            )
            raw = self._random_raw((wanted + 1) >> 1)
            fresh = raw.astype("<u8", copy=False).view("<u4")
            self._refill_words = fresh.size
            if available:
                fresh = np.concatenate([self._buffer[self._start :], fresh])
            self._buffer = fresh
            self._start = 0
        words = self._buffer[self._start : self._start + count]
        self._start += count
        return words


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


class DrawTable:
    """One validated weight table and everything a draw reads from it.

    Built once per weight version -- :class:`~repro.core.selector.CapacitySelector`
    keeps one across kernel calls and rebuilds it only when the sampler's
    weight array is replaced -- so a call pays neither validation nor the
    exact total, the cumulative weights or the candidate geometry.
    ``weights`` is the int64 table (an int64 array is held as given, not
    copied, and must not be mutated while the table lives).

    Entries are checked in :func:`normalize_draw_request`'s order and with
    its messages.  The total is kept even when it reaches
    :data:`MAX_TOTAL_WEIGHT`; :func:`normalize_draw_request` applies
    :func:`total_weight_guard` to every request, so such a table never
    serves a draw and its cumulative weights are never built.

    :meth:`slots_of` resolves targets through a **guide index**: with
    ``gshift`` chosen so the cumulative line splits into about two (at most
    four) buckets per slot, ``guide[b] = searchsorted(cum, b << gshift,
    side="right")``.  A target ``t`` starts at ``guide[t >> gshift]``,
    which is never past its slot, and steps ``+1`` while ``cum[slot] <=
    t``.  The guide is built on the first call large enough to repay it,
    so short calls on a fresh table cost one ``searchsorted`` as before.
    """

    def __init__(self, weights: Sequence[int]) -> None:
        table = _int64_array(weights, "weights")
        if table.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if table.size and int(table.min()) < 0:
            raise ValueError("weights must be non-negative")
        if table.size and int(table.max()) >= MAX_TOTAL_WEIGHT:
            raise ValueError("weights must stay below 2**62, the kernel total bound")
        # Exact total (python int): int64 summation could wrap silently for
        # adversarial tables.  The C summation is provably exact when max *
        # size cannot reach 2**63; only adversarial tables pay for
        # python-int arithmetic.
        if table.size == 0:
            total = 0
        elif int(table.max()).bit_length() + int(table.size).bit_length() <= 62:
            total = int(table.sum())
        else:
            total = sum(table.tolist())
        self.weights = table
        self.total = total
        self.cum = np.cumsum(table) if total < MAX_TOTAL_WEIGHT else None
        #: Candidate geometry: bits per candidate, words per candidate and
        #: the right shift that keeps ``bits`` of them.
        self.bits = bits = total.bit_length()
        self.n_words = (bits + 31) >> 5
        self.shift = np.uint64(self.n_words * 32 - bits)
        self._gshift = max(bits - (2 * int(table.size)).bit_length(), 0)
        self._guide: Optional[np.ndarray] = None

    def slots_of(self, targets: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cum, targets, side="right")`` for targets in
        ``[0, total)``, through the guide index."""
        guide = self._guide
        if guide is None:
            if targets.size * 16 < self.weights.size:
                return np.searchsorted(self.cum, targets, side="right")
            # guide[b] counts the prefix sums <= b << gshift, i.e. the slots
            # whose prefix sum rounds up to a bucket <= b.
            gshift = self._gshift
            buckets = ((self.total - 1) >> gshift) + 1
            first_bucket = (self.cum + ((1 << gshift) - 1)) >> gshift
            counts = np.bincount(first_bucket, minlength=buckets + 1)
            guide = self._guide = np.cumsum(counts[:buckets])
        cum = self.cum
        slots = guide[targets >> self._gshift]
        for _ in range(_GUIDE_STEPS):
            behind = cum[slots] <= targets
            if not behind.any():
                return slots
            slots += behind
        # A run of zero-weight slots, or a bucket spanning many light ones.
        behind = np.flatnonzero(cum[slots] <= targets)
        slots[behind] = np.searchsorted(cum, targets[behind], side="right")
        return slots


def normalize_draw_request(
    weights: Union[DrawTable, Sequence[int]],
    ops: Sequence[Tuple],
    free: Optional[Sequence[int]],
) -> Tuple[DrawTable, Tuple, Optional[np.ndarray]]:
    """Validate one call; returns ``(table, request, free)``.

    ``weights`` is a :class:`DrawTable` (validated when it was built) or a
    raw table, which is validated into one; either way both backends get a
    :class:`DrawTable`.  ``ops`` must hold exactly one request, which comes
    back as ``("draw", count)`` or ``("place", int64 sizes array,
    max_attempts)``; anything else -- no request or several, a ``"set"``
    or unknown kind, a wrong arity, a ``place`` whose sizes are not a numpy
    array -- raises one ``ValueError``.  ``free`` comes back as a private
    int64 copy (the backends debit it as they place; the weight table is
    only read), so the caller's inputs are never touched.  Arrays must
    have an integer dtype and scalars must be integers
    (``operator.index``), so nothing is silently truncated.  Last, the
    table's total goes through :func:`total_weight_guard`.
    """
    table = weights if isinstance(weights, DrawTable) else DrawTable(weights)

    free_table: Optional[np.ndarray] = None
    if free is not None:
        free_table = _int64_array(free, "free").copy()
        if free_table.shape != table.weights.shape:
            raise ValueError("free must match the weight table's shape")

    op = ops[0] if len(ops) == 1 else None
    kind = op[0] if isinstance(op, tuple) and op else None
    if kind == "draw" and len(op) == 2:
        count = _index(op[1], "'draw' count")
        if count < 0:
            raise ValueError("'draw' count must be non-negative")
        total_weight_guard(table.total)
        return table, ("draw", count), free_table
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
        total_weight_guard(table.total)
        return table, ("place", sizes, max_attempts), free_table
    raise ValueError(
        "batch_weighted_draw takes exactly one request, ('draw', count) or "
        f"('place', integer sizes array, max_attempts); got {reprlib.repr(ops)}"
    )
