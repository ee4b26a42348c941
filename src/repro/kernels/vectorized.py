"""Vectorised kernels: numpy sorted/grouped scans, bit-equal to the oracle.

Four ideas carry the speedups while preserving exact floating-point
equality with the per-item loops of ``tests/oracles/kernel_oracle.py``:

* **refresh churn** -- a batch of moves is resolved into per-move source
  sectors in cache-sized chunks against the live assignment vector (a
  move's source is the backup's previous target, or its standing
  assignment), grouping by one value sort of ``key << bits | position``.
  The +/- size events are then grouped by sector and each sector's
  additions are replayed with one ``np.cumsum`` seeded by its starting
  usage -- as contiguous segments of a flat work array when groups are
  few, as rows of a zero-padded 2D table when they are many (padding
  with ``0.0`` is a floating-point no-op).  Either way the replay
  performs *exactly* the sequential additions of the reference loop, so
  running per-sector maxima, boundary snapshots and the final usage
  vector are bit-identical to the scalar loop, for any batch split.
* **greedy selection** -- instead of rescoring every candidate against
  every hosted file per pick (O(sectors x files/sector)), the placement
  is normalised once into CSR columns and the ``finishing_value`` scores
  are kept between picks: corrupting a sector decrements its files'
  healthy-replica counts, and only a file crossing 2 -> 1 (now
  finishable) moves a score -- that of its one healthy host, which is
  recomputed as the contract's fresh file-order sum.  The next pick pops
  off a lazy heap keyed ``(-finishing, -secondary, sector)``.
* **placement** -- ``np.bincount`` accumulates weights in input order,
  i.e. the same addition order as the reference loop, so the batched
  capacity-proportional placement is exact as well.
* **weighted draws** -- the weight table is constant for a call, so the
  scalar rejection loop is a pure filter over consecutive uint32
  candidates: whole windows are decoded at once and every accepted
  target resolves through the :class:`~repro.kernels.sampling.DrawTable`'s
  guide index into the cumulative weights, bit-identical to the Fenwick
  oracle (:class:`_WeightedDrawEngine`).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import telemetry
from repro.kernels.base import KernelBackend
from repro.kernels.moves import normalize_refresh_request
from repro.kernels.placements import Placements, normalize_placements
from repro.kernels.sampling import (
    BatchDrawResult,
    DrawTable,
    U32Stream,
    normalize_draw_request,
)
from repro.telemetry import traced

__all__ = ["VectorizedKernels"]

#: Upper bound on the padded (sectors x events) table, in cells.  A batch
#: whose per-sector event skew would exceed it is split in half; each half
#: is still applied sequentially, so results do not change (128 MiB of
#: float64 at the default).
_MAX_TABLE_CELLS = 16_000_000

#: Group-count threshold below which the per-sector cumsum replay runs as
#: a Python loop over contiguous segments (tiny constant per group)
#: instead of the padded-table layout (pays per *cell*, including
#: padding).  Both layouts are bit-identical; this is purely a cost knob.
_GROUP_LOOP_MAX = 1024

#: Most candidates one refill of the weighted-draw engine decodes (a
#: window is sized to the draws it owes, up to this).  Purely a cost knob:
#: refilling never changes which words a draw consumes.  Measured at 512 /
#: 2048 / 8192 on the ledger (docs/performance.md, "Proof round").
_DRAW_CHUNK_CANDIDATES = 8192

#: Moves per pass of ``refresh_moves``' source resolution, small enough
#: that a chunk's gather, key sort and scatter stay cache-resident.  Any
#: size gives identical results; purely a cost knob, like the two above.
_SOURCE_CHUNK_MOVES = 4096

_EMPTY_I64 = np.empty(0, dtype=np.int64)


class _WeightedDrawEngine:
    """Window-decoding engine behind ``batch_weighted_draw``.

    The weight table is constant for the whole call and arrives as a
    :class:`~repro.kernels.sampling.DrawTable` carrying its exact total,
    cumulative weights and candidate geometry (words per candidate,
    shift).  The rejection loop of the scalar draw protocol then becomes a
    filter: take a window of consecutive candidates from the word stream
    at once, keep those below the total, and resolve all accepted targets
    into slots in one :meth:`~repro.kernels.sampling.DrawTable.slots_of`.

    Handing out the ``i``-th accepted candidate logically consumes every
    word through it (rejected candidates in between belong to the draw
    that skipped past them), so the draws read the words the scalar loop
    would.  A refill happens only with a draw pending, which is
    guaranteed to consume whatever trailing rejected candidates the
    previous window ended on; words taken past the call's last draw go
    unread, which is why the stream is dedicated to one call.

    A window is sized to the draws its caller still owes (a 64-draw
    prefetch is one refill, a long place run gets
    ``_DRAW_CHUNK_CANDIDATES`` at a time); where it ends never shows in
    the results, so its size is a pure cost knob.
    """

    def __init__(self, table: DrawTable, rng: np.random.Generator) -> None:
        self._stream = U32Stream(rng)
        self._table = table
        # Accepted candidates of the current window, as slot indices, and
        # how many of them are already handed out.
        self._slots = _EMPTY_I64
        self._pos = 0

    def _refill(self, owed: int) -> None:
        # Only reached with a draw pending, so every candidate of the
        # previous window -- accepted and trailing rejected alike -- is
        # logically consumed.
        table = self._table
        total = table.total
        if total <= 0:
            raise ValueError("cannot sample from an empty or zero-weight sampler")
        n_words = table.n_words
        # A candidate is accepted with probability total / 2**bits, so the
        # ``owed`` pending draws expect this many, plus slack for the spread.
        expected = (owed << table.bits) // total
        candidates = min(expected + (owed >> 3) + 8, _DRAW_CHUNK_CANDIDATES)
        words = self._stream.take(candidates * n_words).astype(np.uint64)
        if n_words == 1:
            values = words >> table.shift
        else:
            values = ((words[0::2] << np.uint64(32)) | words[1::2]) >> table.shift
        targets = values[values < np.uint64(total)].astype(np.int64)
        self._slots = table.slots_of(targets)
        self._pos = 0

    def next_slot(self) -> int:
        """One weighted draw."""
        slot = int(self.peek_slots(1)[0])
        self._pos += 1
        return slot

    def next_slots(self, count: int) -> np.ndarray:
        """``count`` weighted draws, gathered window by window."""
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            available = self._slots.size - self._pos
            if available == 0:
                self._refill(count - filled)
                continue
            take = min(available, count - filled)
            out[filled : filled + take] = self._slots[self._pos : self._pos + take]
            self._pos += take
            filled += take
        return out

    def peek_slots(self, count: int) -> np.ndarray:
        """Up to ``count`` decoded-but-unconsumed candidates (>= 1).

        The returned candidates stay pending until :meth:`consume`; the
        place-run resolver uses this to accept a whole prefix in one
        vectorised step while keeping stream accounting identical to
        one :meth:`next_slot` call per accepted candidate.
        """
        while self._pos >= self._slots.size:
            self._refill(count)
        return self._slots[self._pos : self._pos + count]

    def consume(self, count: int) -> None:
        """Commit ``count`` peeked candidates as handed out."""
        self._pos += count


def _accepted_prefix(
    free_table: np.ndarray, slots: np.ndarray, sizes: np.ndarray
) -> int:
    """Length of the accepted prefix when each draw takes its candidate.

    Draw ``i`` accepts iff its slot still has ``sizes[i]`` free after the
    demand of earlier *accepted* draws on the same slot.  Computed under
    the all-accept assumption, which is exact up to the first rejection:
    draws before it really do all accept, so their per-slot prior demand
    is the true one.  Returns ``slots.size`` when every draw accepts.
    Slots are grouped by the value sort of
    :meth:`VectorizedKernels._stable_group_order`, not a stable argsort.
    """
    order = VectorizedKernels._stable_group_order(slots, free_table.size)
    slot_sorted = slots[order]
    size_sorted = sizes[order]
    csum = np.cumsum(size_sorted)
    prior = csum - size_sorted
    new_group = np.empty(slot_sorted.size, dtype=bool)
    new_group[0] = True
    np.not_equal(slot_sorted[1:], slot_sorted[:-1], out=new_group[1:])
    group_base = prior[new_group][np.cumsum(new_group) - 1]
    ok_sorted = free_table[slot_sorted] - (prior - group_base) >= size_sorted
    if ok_sorted.all():
        return int(slots.size)
    ok = np.empty(slots.size, dtype=bool)
    ok[order] = ok_sorted
    return int(np.argmin(ok))


class VectorizedKernels(KernelBackend):
    """numpy implementations of the simulation kernels.

    Every kernel records one ``kernel.<name>`` span and a work counter
    while telemetry is enabled; neither reads an RNG word, so traced and
    untraced results are bit-identical.
    """

    name = "vectorized"

    @traced("kernel.place_backups", category="kernel")
    def place_backups(
        self, rng: np.random.Generator, sizes: np.ndarray, n_sectors: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        assignments = rng.integers(0, n_sectors, sizes.shape[0])
        usage = np.bincount(assignments, weights=sizes, minlength=n_sectors)
        telemetry.counter("kernel.place_backups.backups", int(len(sizes)))
        return assignments, usage.astype(float, copy=False)

    # ------------------------------------------------------------------
    # Refresh churn
    # ------------------------------------------------------------------
    @staticmethod
    def _index_dtype(n_keys: int) -> np.dtype:
        """Narrowest unsigned dtype holding values in ``[0, n_keys)``.

        Shrinking index arrays buys every gather, scatter and copy they
        feed (sorting no longer depends on it: see the grouping below).
        """
        for dtype in (np.uint8, np.uint16, np.uint32):
            if n_keys <= np.iinfo(dtype).max:
                return np.dtype(dtype)
        return np.dtype(np.uint64)

    @staticmethod
    def _stable_group_order(keys: np.ndarray, n_keys: int) -> np.ndarray:
        """Indices that stably group ``keys`` (values in ``[0, n_keys)``).

        Sorts the *values* ``key << pos_bits | position`` in the narrowest
        of uint32 / uint64 that holds them and masks the positions back
        out: the combined keys are unique, so any sort is stable, and
        numpy sorts values 2-4x faster than it argsorts them.
        """
        pos_bits = max(keys.size - 1, 0).bit_length()
        wide = pos_bits + max(n_keys - 1, 0).bit_length() > 32
        dtype = np.uint64 if wide else np.uint32
        combined = keys.astype(dtype)
        combined <<= dtype(pos_bits)
        combined |= np.arange(keys.size, dtype=dtype)
        combined.sort()
        combined &= dtype((1 << pos_bits) - 1)
        return combined

    @traced("kernel.refresh_moves", category="kernel")
    def refresh_moves(
        self,
        sizes: np.ndarray,
        usage: np.ndarray,
        assignments: np.ndarray,
        chosen: np.ndarray,
        targets: np.ndarray,
        snapshot_after: Sequence[int] = (),
    ) -> Tuple[float, List[np.ndarray]]:
        chosen, targets, bounds = normalize_refresh_request(
            sizes, usage, assignments, chosen, targets, snapshot_after
        )
        n_moves = int(chosen.size)
        telemetry.counter("kernel.refresh_moves.moves", n_moves)
        if n_moves == 0:
            return float("-inf"), [usage.copy() for _ in bounds]
        n_sectors = int(usage.size)

        # Resolve each move's source sector chunk by chunk against the
        # *live* assignment vector: the gather reads ``assignments`` as
        # every earlier chunk left it, and a backup moved again inside the
        # chunk shows up as an adjacent pair once the chunk is grouped by
        # backup -- the later move leaves the earlier move's target.  The
        # chunk's scatter then makes its last targets the standing
        # assignments (duplicate-index fancy assignment keeps the last
        # value, and moves are chronological).
        sources = np.empty(n_moves, dtype=assignments.dtype)
        for start in range(0, n_moves, _SOURCE_CHUNK_MOVES):
            chunk = slice(start, start + _SOURCE_CHUNK_MOVES)
            backups, chunk_targets = chosen[chunk], targets[chunk]
            chunk_sources = sources[chunk]
            np.take(assignments, backups, out=chunk_sources)
            order = self._stable_group_order(backups, sizes.size)
            grouped = backups[order]
            again = np.flatnonzero(grouped[1:] == grouped[:-1])
            chunk_sources[order[again + 1]] = chunk_targets[order[again]]
            assignments[backups] = chunk_targets
        if int(sources.max()) >= n_sectors or int(sources.min()) < 0:
            # The grouping keys below would alias silently on it.
            raise ValueError(
                f"assignments holds a sector index outside [0, {n_sectors})"
            )
        return self._replay_moves(sizes, usage, chosen, sources, targets, bounds)

    def _replay_moves(
        self,
        sizes: np.ndarray,
        usage: np.ndarray,
        chosen: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        snapshot_after: Sequence[int],
    ) -> Tuple[float, List[np.ndarray]]:
        """Apply moves whose source sectors are resolved to ``usage``."""
        n_moves = int(chosen.size)
        n_sectors = int(usage.size)
        sector_dtype = self._index_dtype(n_sectors)

        # Self-moves are no-ops in the oracle loop (no usage update at
        # all); dropping them here keeps the per-sector addition sequences
        # identical -- a -size/+size round-trip is not a float no-op.
        orig_move = np.flatnonzero(sources != targets)
        if orig_move.size == 0:
            return float("-inf"), [usage.copy() for _ in snapshot_after]

        # Two events per move, interleaved chronologically (-size at the
        # source, then +size at the target), then grouped by sector with a
        # stable sort so each group stays in move order.
        n_events = 2 * int(orig_move.size)
        event_sector = np.empty(n_events, dtype=sector_dtype)
        event_sector[0::2] = sources[orig_move]
        event_sector[1::2] = targets[orig_move]
        move_sizes = sizes[chosen[orig_move]]
        event_delta = np.empty(n_events, dtype=float)
        event_delta[0::2] = -move_sizes
        event_delta[1::2] = move_sizes

        # Group geometry comes straight from histograms -- no sorted-run
        # boundary scan needed.  The snapshot boundaries split the
        # chronological event stream into contiguous slices, so one
        # per-slice histogram over the (unsorted) event sectors serves
        # double duty: its column sums are the per-sector event counts,
        # its running row sums are each boundary's events-so-far.
        slice_edges = [b for b in snapshot_after if b < n_moves]
        slice_edges.append(n_moves)
        event_edges = (2 * np.searchsorted(orig_move, slice_edges)).tolist()
        histogram = np.zeros((len(slice_edges), n_sectors), dtype=np.int64)
        for row, start, stop in zip(histogram, [0] + event_edges, event_edges):
            row += np.bincount(event_sector[start:stop], minlength=n_sectors)
        cumulative = np.cumsum(histogram, axis=0)
        sector_counts = cumulative[-1]
        group_sectors = np.flatnonzero(sector_counts)
        counts = sector_counts[group_sectors]
        n_groups = int(group_sectors.size)
        width = int(counts.max())

        if (
            n_groups > _GROUP_LOOP_MAX
            and n_groups * (width + 1) > _MAX_TABLE_CELLS
            and n_moves > 1
        ):
            # Pathological skew in the padded-table regime (many sectors,
            # most moves hitting few of them): replay two sequential
            # half-batches.  The per-sector addition order is unchanged,
            # so the result is bit-identical.  The segment-loop regime
            # below the group threshold never pads, so it needs no split.
            half = n_moves // 2
            first_max, first_snaps = self._replay_moves(
                sizes,
                usage,
                chosen[:half],
                sources[:half],
                targets[:half],
                tuple(b for b in snapshot_after if b <= half),
            )
            second_max, second_snaps = self._replay_moves(
                sizes,
                usage,
                chosen[half:],
                sources[half:],
                targets[half:],
                tuple(b - half for b in snapshot_after if b > half),
            )
            return max(first_max, second_max), first_snaps + second_snaps

        event_order = self._stable_group_order(event_sector, n_sectors)
        delta = np.take(event_delta, event_order)
        group_start = np.cumsum(counts) - counts

        # Replay each sector's updates as one cumsum seeded with its
        # starting usage: [initial, d1, d2, ...].  The cumsum performs the
        # same left-to-right additions as the scalar loop, so every
        # intermediate (and the final) value is bit-identical to it.  Two
        # layouts with identical semantics:
        #
        # * few groups -- one contiguous segment per group in a flat work
        #   array, cumsum'd in place group by group (cheap: the sorted
        #   deltas are already group-contiguous);
        # * many groups -- a zero-padded 2D table cumsum'd along rows
        #   (padding zeros are float no-ops that hold each row at its
        #   final value), avoiding a Python loop over huge group counts.
        #
        # Either way the batch maximum may include each touched sector's
        # *starting* level (see KernelBackend.refresh_moves): post-source
        # values never exceed an earlier value of the same sector, so the
        # layout maximum is exactly max(touched starting levels, post-move
        # target values) -- one flat reduction instead of a 2D gather.
        initials = usage[group_sectors]
        if n_groups <= _GROUP_LOOP_MAX:
            value_base = np.empty(n_events + n_groups, dtype=float)
            value_starts = group_start + np.arange(n_groups)
            for segment_start, event_start, count, initial in zip(
                value_starts.tolist(),
                group_start.tolist(),
                counts.tolist(),
                initials.tolist(),
            ):
                segment = value_base[segment_start : segment_start + count + 1]
                segment[0] = initial
                segment[1:] = delta[event_start : event_start + count]
                np.cumsum(segment, out=segment)
        else:
            table = np.zeros((n_groups, width + 1), dtype=float)
            table[:, 0] = initials
            row_offset = (
                np.arange(n_groups, dtype=np.int64) * (width + 1) + 1 - group_start
            )
            flat_index = np.arange(n_events, dtype=np.int64) + np.repeat(
                row_offset, counts
            )
            table.reshape(-1)[flat_index] = delta
            # In-place accumulate: same left-to-right additions as cumsum,
            # without allocating (and page-faulting) a second table.
            np.add.accumulate(table, axis=1, out=table)
            value_base = table.reshape(-1)
            value_starts = np.arange(n_groups, dtype=np.int64) * (width + 1)
        batch_max = float(value_base.max())

        # A snapshot after ``bound`` moves reads, per sector, the running
        # value of its last event before the boundary (offset 0 -- the
        # starting usage -- when it has none yet): exactly the array the
        # reference loop would copy at that point.
        snapshots: List[np.ndarray] = []
        for events_before in cumulative[: len(snapshot_after), group_sectors]:
            snapshots.append(usage.copy())
            snapshots[-1][group_sectors] = value_base[value_starts + events_before]

        usage[group_sectors] = value_base[value_starts + counts]
        return batch_max, snapshots

    # ------------------------------------------------------------------
    # Greedy budgeted selection
    # ------------------------------------------------------------------
    @traced("kernel.greedy_select", category="kernel")
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
        telemetry.counter("kernel.greedy_select.calls")
        n_sectors = int(caps.size)
        n_files = int(values_arr.size)

        replica_count = np.bincount(sector_of, minlength=n_sectors)
        healthy_hosts = np.bincount(file_of, minlength=n_files)
        # By-sector CSR view of the incidence; the stable grouping keeps
        # each sector's files in file order, the order scores sum in.
        files_by_sector = file_of[self._stable_group_order(sector_of, n_sectors)]
        starts = np.concatenate(([0], np.cumsum(replica_count))).tolist()

        # bincount adds in input order, i.e. file order within a sector.
        single = np.repeat(healthy_hosts == 1, healthy_hosts)
        scores = np.bincount(
            sector_of[single], weights=values_arr[file_of[single]], minlength=n_sectors
        )
        # The secondary score is static: lost files keep counting, exactly
        # as in the reference scan.
        neg_secondary = (-(replica_count / np.maximum(caps, 1e-12))).tolist()
        heap = list(zip((-scores).tolist(), neg_secondary, range(n_sectors)))
        heapq.heapify(heap)

        # The pick loop runs on plain ints and floats: with a few files per
        # sector, as the scenarios place them, a numpy call per pick costs
        # more than the loop it would replace (they break even near 20).
        finishing = scores.tolist()
        remaining = healthy_hosts.tolist()
        # Sum of a file's healthy host indices: once a single healthy
        # replica is left, the sum *is* the sector holding it.
        host_sum = (
            np.bincount(file_of, weights=sector_of, minlength=n_files)
            .astype(np.int64)
            .tolist()
        )
        file_values = values_arr.tolist()
        sector_caps = caps.tolist()
        limit = budget + 1e-9
        smallest = min(sector_caps, default=0.0)
        chosen: Set[int] = set()
        spent = 0.0
        while heap and spent + smallest <= limit:  # else nothing fits any more
            neg_finishing, _, sector = heapq.heappop(heap)
            if sector in chosen or -neg_finishing != finishing[sector]:
                continue  # stale: already corrupted, or rescored since the push
            if spent + sector_caps[sector] > limit:
                continue  # spent only grows, so it never fits again
            chosen.add(sector)
            spent += sector_caps[sector]
            rescored = set()
            for file_index in files_by_sector[starts[sector] : starts[sector + 1]].tolist():
                left = remaining[file_index] - 1
                remaining[file_index] = left
                host_sum[file_index] -= sector
                if left == 1:  # newly finishable, by its one healthy host
                    rescored.add(host_sum[file_index])
                # left == 0: the file is lost with this very sector, its
                # last healthy host, so no candidate's score moves.
            for host in rescored:
                # Fresh file-order sum, the contract's definition: a running
                # += / -= would drift from it on non-dyadic values.
                fresh = 0.0
                for file_index in files_by_sector[starts[host] : starts[host + 1]].tolist():
                    if remaining[file_index] == 1:
                        fresh += file_values[file_index]
                if fresh != finishing[host]:
                    finishing[host] = fresh
                    heapq.heappush(heap, (-fresh, neg_secondary[host], host))
        return chosen

    # ------------------------------------------------------------------
    # Batched weighted draws
    # ------------------------------------------------------------------
    @traced("kernel.batch_weighted_draw", category="kernel")
    def batch_weighted_draw(
        self,
        rng: np.random.Generator,
        weights: Union[DrawTable, Sequence[int]],
        ops: Sequence[Tuple],
        free: Optional[Sequence[int]] = None,
    ) -> BatchDrawResult:
        table, request, free_table = normalize_draw_request(weights, ops, free)
        engine = _WeightedDrawEngine(table, rng)
        if request[0] == "draw":
            keys = engine.next_slots(request[1])
            telemetry.counter("kernel.draws", int(keys.size))
            return BatchDrawResult(keys=keys, attempts=int(keys.size), collisions=0)
        # A place run sees one constant weight table, so the candidate
        # stream is fixed up front and whole accepted prefixes commit in one
        # vectorised step.  Only a draw whose candidate collides falls back
        # to the scalar retry loop; stream consumption (one candidate per
        # attempt) stays identical to the oracle's.
        _, run_sizes, max_attempts = request
        run_len = run_sizes.size
        placed_run = np.full(run_len, -1, dtype=np.int64)
        attempts = 0
        collisions = 0
        scalar_fallback = 0  # placements resolved by the retry loop, not a prefix
        at = 0
        while at < run_len:
            candidates = engine.peek_slots(run_len - at)
            sizes = run_sizes[at : at + candidates.size]
            first_bad = _accepted_prefix(free_table, candidates, sizes)
            if first_bad:
                accepted = candidates[:first_bad]
                np.subtract.at(free_table, accepted, sizes[:first_bad])
                placed_run[at : at + first_bad] = accepted
                engine.consume(first_bad)
                attempts += first_bad
                at += first_bad
                continue
            # Head draw collides: resolve it alone, honouring the
            # max_attempts budget exactly as the oracle loop does.
            size = int(run_sizes[at])
            for _ in range(max_attempts):
                slot = engine.next_slot()
                attempts += 1
                if free_table[slot] >= size:
                    free_table[slot] -= size
                    placed_run[at] = slot
                    break
                collisions += 1
            scalar_fallback += 1
            at += 1
        telemetry.counter("kernel.draws", attempts)
        if telemetry.is_enabled() and run_len:
            telemetry.counter(
                "kernel.place.prefix_accepted", run_len - scalar_fallback, "kernel"
            )
            telemetry.counter("kernel.place.scalar_fallback", scalar_fallback, "kernel")
        return BatchDrawResult(keys=placed_run, attempts=attempts, collisions=collisions)
