"""A deterministic discrete-event simulation engine.

Events are ``(time, priority, sequence)``-ordered callbacks.  The engine is
deliberately small: the FileInsurer protocol has its own pending list for
consensus-level tasks, so this engine only coordinates the *off-chain*
world (file transfers, proof submission, provider churn, adversary
actions) around it.

Scheduled events can be *cancelled* (:meth:`SimulationEngine.cancel`):
cancellation is lazy -- the event stays in the heap as a tombstone and is
silently discarded when it reaches the front -- so cancelling is O(1) and
the heap never needs re-sifting.  The lifecycle layer
(:mod:`repro.sim.lifecycle`) leans on this to race refreshes against
degradation deadlines: whichever lands first cancels the other.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Set, Tuple

from repro.telemetry import counter

__all__ = ["Event", "SimulationEngine"]


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled simulation event."""

    time: float
    priority: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")


class SimulationEngine:
    """Priority-queue driven event loop over simulated time."""

    def __init__(self) -> None:
        #: Heap of ``(time, priority, sequence, event)``.  ``sequence`` is
        #: unique, so tuple comparison -- done in C -- settles every
        #: ordering before it could reach the event itself.
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._sequence = itertools.count()
        #: Sequences of live events; a heap entry whose sequence is not in
        #: here is a tombstone left behind by :meth:`cancel`.
        self._pending: Set[int] = set()
        self.now = 0.0
        self.events_processed = 0
        self.events_cancelled = 0
        self._stopped = False
        #: Observability hook: when set, called as ``probe(now)`` after
        #: every event processed, by :meth:`run` or :meth:`step` (they
        #: share one loop).  The lifecycle layer points it at a gauge
        #: snapshotter while :mod:`repro.telemetry.metrics` is recording;
        #: it must never schedule events or touch seeded RNG streams
        #: (``events_processed`` is part of the rows).
        self.metrics_probe: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        # Written as "not >=" so a NaN time, which would silently corrupt
        # the heap order, is refused along with times in the past.
        if not time >= self.now:
            raise ValueError("cannot schedule an event in the past")
        sequence = next(self._sequence)
        event = Event(time, priority, sequence, callback, label)
        heapq.heappush(self._queue, (time, priority, sequence, event))
        self._pending.add(sequence)
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event (lazy deletion, O(1)).

        The event is tombstoned in place; it will be dropped, without
        running its callback, when it surfaces at the head of the queue.
        Returns True if the event was still pending, False if it already
        ran or was already cancelled.  Cancelling never perturbs the
        ordering of the surviving events.
        """
        if event.sequence not in self._pending:
            return False
        self._pending.discard(event.sequence)
        self.events_cancelled += 1
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(
        self, until: Optional[float], max_events: Optional[int]
    ) -> Tuple[int, Optional[Event]]:
        """The one event loop behind :meth:`step` and :meth:`run`.

        Runs live events in order until the queue drains, the next one
        lies past ``until``, ``max_events`` have run or :meth:`stop` is
        called; returns how many ran and the last of them.  Tombstones
        are reclaimed as they surface, without advancing the clock or
        counting as processed.
        """
        queue = self._queue
        pending = self._pending
        heappop = heapq.heappop
        processed = 0
        last: Optional[Event] = None
        while queue:
            time, _, sequence, event = queue[0]
            if sequence not in pending:
                heappop(queue)
                continue
            if until is not None and time > until:
                break
            if max_events is not None and processed >= max_events:
                break
            heappop(queue)
            pending.discard(sequence)
            self.now = time
            event.callback()
            self.events_processed += 1
            processed += 1
            last = event
            if self.metrics_probe is not None:
                self.metrics_probe(self.now)
            if self._stopped:
                break
        return processed, last

    def step(self) -> Optional[Event]:
        """Run the next live event; returns it, or None if none remain.

        Cancelled events are skipped (and reclaimed) without advancing
        the clock or counting as processed.
        """
        return self._run(None, 1)[1]

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` passes, or a cap hits.

        Returns the number of events processed by this call.
        """
        self._stopped = False
        processed, _ = self._run(until, max_events)
        if until is not None and until > self.now:
            self.now = until
        if processed:
            counter("sim.events", processed, category="sim")
        return processed

    def stop(self) -> None:
        """Ask :meth:`run` to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._pending)

    def next_event_time(self) -> Optional[float]:
        """Time of the next live event, or None if nothing is queued."""
        queue = self._queue
        while queue and queue[0][2] not in self._pending:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
