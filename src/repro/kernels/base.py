"""The simulation-kernel contract shared by every backend.

A *kernel backend* packages the four inner loops that dominate the
paper's largest experiments (Table III refresh churn, Section V-C
adversarial robustness, ``RandomSector()`` weighted selection) behind
one small, numerically pinned API:

* :meth:`KernelBackend.place_backups` -- batched capacity-proportional
  placement of every backup into equal-capacity sectors;
* :meth:`KernelBackend.refresh_moves` -- a batch of refresh moves applied
  to a live placement, reporting the running per-sector usage maximum;
* :meth:`KernelBackend.greedy_select` -- budgeted greedy sector selection
  for the targeted-corruption adversary;
* :meth:`KernelBackend.batch_weighted_draw` -- one request of
  Fenwick-style weighted draws, plain or with resample-on-full placement,
  the engine behind :class:`~repro.core.selector.CapacitySelector`.

Implementations must be **bit-equivalent**: for identical inputs
(including the shared RNG draws, which happen *outside* the kernels so
every implementation consumes the same stream) the program's
:class:`~repro.kernels.vectorized.VectorizedKernels` and the per-item
oracle in ``tests/oracles/kernel_oracle.py`` return identical floats and
identical sector choices.  The contract is enforced by
``tests/test_kernels_equivalence.py``; every implementation note below
about operation *order* exists to keep floating-point results exactly
equal, not merely close.

Tie-breaking in :meth:`greedy_select` is part of the contract: candidates
are scored by ``(finishing_value, replica_count / capacity)`` and ties
resolve to the lowest sector index.  ``finishing_value`` is *defined* as
the sum, in file order starting from ``0.0``, of the values of the hosted
files with exactly one healthy replica left -- a backend that keeps
scores between picks must land on that very float (``(a + v) - v != a``),
so the chosen set is identical for any non-negative file values, not
only exactly representable ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.kernels.placements import Placements
from repro.kernels.sampling import BatchDrawResult, DrawTable

__all__ = ["KernelBackend"]


class KernelBackend(ABC):
    """Abstract interface of one simulation-kernel implementation."""

    #: Name of the implementation (``"vectorized"``; the oracle's ``"reference"``).
    name: str = "?"

    @abstractmethod
    def place_backups(
        self, rng: np.random.Generator, sizes: np.ndarray, n_sectors: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Place every backup into a uniformly drawn sector.

        Draws exactly ``len(sizes)`` integers from ``rng`` (so all
        backends consume the same stream) and returns ``(assignments,
        usage)``: the per-backup sector index and the per-sector used
        space.  ``usage`` must equal the result of adding ``sizes`` to the
        sectors in backup order, which pins the floating-point sum.
        """

    @abstractmethod
    def refresh_moves(
        self,
        sizes: np.ndarray,
        usage: np.ndarray,
        assignments: np.ndarray,
        chosen: np.ndarray,
        targets: np.ndarray,
        snapshot_after: Sequence[int] = (),
    ) -> Tuple[float, List[np.ndarray]]:
        """Apply a batch of refresh moves in chronological order.

        Move ``i`` relocates backup ``chosen[i]`` from its current sector
        to ``targets[i]``; ``usage`` and ``assignments`` are updated in
        place.  Self-moves (current sector equals the target) are no-ops
        and must not touch ``usage`` at all, so no spurious floating-point
        round-trip occurs.

        ``snapshot_after`` lists strictly increasing move counts (1-based,
        each at most ``len(chosen)``, self-moves included in the count);
        for each, the returned list carries a *copy* of the usage vector
        exactly as it stands after that many moves -- this is what lets
        the caller sample metrics on a fixed refresh cadence while still
        handing the kernel arbitrarily large batches.

        Returns ``(batch_max, snapshots)``.  ``batch_max`` must satisfy
        ``max(start_max, batch_max) == max(start_max, target_max)`` for
        any ``start_max >= usage.max()`` at batch entry, where
        ``target_max`` is the maximum value ``usage[targets[i]]`` reached
        *just after* any non-self move (``-inf`` when every move is a
        self-move or the batch is empty).  Backends may include
        already-dominated candidates -- e.g. the vectorized backend folds
        in each touched sector's starting level, the oracle reports
        ``target_max`` exactly -- because the experiment only
        ever folds ``batch_max`` into a running maximum that already
        covers the starting usage, where both conventions accumulate to
        bit-identical results.  Per sector, updates must be applied as
        sequential additions in move order -- the invariant that makes
        batched and serial processing bit-identical.

        Every backend validates through
        :func:`~repro.kernels.moves.normalize_refresh_request` before it
        touches ``usage`` or ``assignments``: ``chosen`` and ``targets``
        must be one-dimensional integer arrays of one length with ``0 <=
        chosen < len(sizes)`` and ``0 <= targets < len(usage)``,
        ``assignments`` must carry one entry per backup, and
        ``snapshot_after`` must hold strictly increasing integers in
        ``[1, len(chosen)]`` (floats and booleans are refused, not
        truncated).  A malformed request raises the same ``ValueError``
        on every backend and leaves both arrays as they were, so a
        backend that applies a batch in pieces never stops half-applied.
        ``assignments`` itself is trusted state: a standing entry outside
        ``[0, len(usage))`` is the caller's corruption, reported as
        ``ValueError`` by the vectorized backend and ``IndexError`` (or a
        wrapped negative index) by the oracle loop.
        """

    @abstractmethod
    def greedy_select(
        self,
        capacities: np.ndarray,
        placements: Placements,
        values: Sequence[float],
        budget: float,
    ) -> Set[int]:
        """Greedy budgeted sector selection for the targeted adversary.

        Repeatedly corrupts the candidate sector with the best
        ``(finishing_value, replica_count / capacity)`` score that still
        fits the remaining ``budget`` (absolute capacity units), where
        ``finishing_value`` sums, in file order, the values of files
        whose *last* healthy replica lives in the candidate and
        ``replica_count`` counts the files hosted there (lost ones
        included).  Ties resolve to the lowest sector index.  Stops when
        no candidate fits the budget.

        ``placements`` comes in either of two forms, with one meaning:
        a sequence of per-file sector sequences (ragged and empty rows
        allowed), or a 2-D integer ``numpy`` array with one row per file
        -- the form a Monte-Carlo draw already has, taken without
        building a list per file.  A sector listed twice by one file
        hosts one replica of it.  Every backend normalises through
        :func:`~repro.kernels.placements.normalize_placements`, so a
        malformed request (a non-integer, negative or ``>=
        len(capacities)`` sector index, ``len(values)`` different from
        the number of files, a negative capacity or value, 2**31 or more
        files or sectors) raises the same ``ValueError`` on every backend
        before any sector is chosen.
        """

    @abstractmethod
    def batch_weighted_draw(
        self,
        rng: np.random.Generator,
        weights: Union[DrawTable, Sequence[int]],
        ops: Sequence[Tuple],
        free: Optional[Sequence[int]] = None,
    ) -> BatchDrawResult:
        """Serve one weighted-draw request against one constant table.

        ``weights`` is a table of non-negative integer sampling weights
        (slot ``i`` is drawn with probability ``weights[i] / total``;
        zero-weight slots are never drawn), constant for the call.  It may
        come as a :class:`~repro.kernels.sampling.DrawTable`, validated
        when it was built and carrying its total, cumulative weights and
        guide index, which a caller drawing repeatedly from one weight
        version keeps across calls
        (:class:`~repro.core.selector.CapacitySelector` does); a raw table
        is validated into one per call, with the same messages.
        ``ops`` holds **exactly one** request:

        * ``("draw", count)`` -- ``count`` weighted draws;
        * ``("place", sizes, max_attempts)`` -- a place *run*, ``sizes`` a
          1-D integer ``numpy`` array: for every size in order, the
          resample-on-full loop of :meth:`CapacitySelector.select_batch_slots`
          -- draw repeatedly (at most ``max_attempts`` times) until a
          slot with ``free[slot] >= size`` is hit, then debit
          ``free[slot] -= size`` and yield the slot; yield ``-1`` when
          every attempt collides.  Requires ``free``, a per-slot capacity
          table the kernel debits privately as it places.  This is how
          ``File Add`` hands over a whole batch's replica column without
          building a tuple per replica.

        Every producer sends one request per call
        (``tests/test_kernel_traffic.py`` holds them to it), so that is
        the contract; ``ops`` stays a sequence because proxies around a
        backend share the signature and report ``len(ops)``.  No request
        or several, any other kind, a wrong arity or a ``place`` whose
        sizes are not an array raise one ``ValueError``.

        Tables and sizes must have an integer dtype after ``np.asarray``
        (floats, strings and booleans raise ``ValueError`` naming the
        array instead of being truncated) and fit ``int64``; counts and
        ``max_attempts`` must be integers (``operator.index``).  A
        malformed request raises before any word of ``rng`` is consumed,
        with the same text on every backend.

        **Draw protocol.**  ``rng`` is a *dedicated* PCG64 generator for
        this one call (see
        :func:`~repro.kernels.sampling.sampler_stream`), read as the
        uint32 words of :class:`~repro.kernels.sampling.U32Stream`; any
        other bit generator raises ``ValueError``.  Backends may generate
        past the words the request logically consumes, so callers must
        never reuse the generator.  One draw with total
        weight ``T`` consumes candidates of ``ceil(T.bit_length() / 32)``
        words each (big-endian, right-shifted to ``T.bit_length()``
        bits) until a candidate below ``T`` is accepted; the accepted
        target selects the smallest slot whose weight prefix-sum exceeds
        it -- exactly :meth:`WeightedSampler.sample` semantics.  Because
        both backends consume the same words in the same candidate
        order, the returned key sequences, attempt counts and collision
        counts are **bit-identical** across backends -- enforced by
        ``tests/test_kernels_equivalence.py`` and the hypothesis
        differential pack in ``tests/test_property_based.py``.

        A total weight at or above
        :data:`~repro.kernels.sampling.MAX_TOTAL_WEIGHT` (``2**62``)
        raises ``ValueError`` at the request; an empty or all-zero table
        raises it at the first draw the request owes.  The caller's
        arrays are never mutated.
        """
