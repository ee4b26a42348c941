"""In-memory span recorder for the end-to-end benchmark's traced rounds.

The benchmark records spans *from its own files*, around its calls into
each layer of the program; nothing in ``src/`` is touched and the
program's own ``repro.telemetry`` recorder stays off.  A span is
``(id, parent id, name, layer, start, end)``; all spans of one round share
the recorder's ``run_id``.  A layer's **self time** is its span's duration
minus the part covered by the spans it directly encloses, so per-layer
numbers add up to the enclosing span with nothing counted twice.

Kernel time is captured by handing the program a :class:`TimedKernels`
proxy through its public ``backend=`` parameters: ``get_backend`` passes
``KernelBackend`` instances through untouched, the proxy only reads the
clock, and results stay bit-identical (the harness checks that traced and
untraced rounds produce the same output digest).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.kernels import KernelBackend, get_backend

#: Layer of the benchmark's own driver code (sections and glue).  Time
#: left in this layer inside the timed region is the *unattributed* share.
DRIVER = "driver"


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    layer: str
    start: float
    end: float


class _OpenSpan:
    """Context manager for one live span (cheaper than a generator)."""

    __slots__ = ("_recorder", "_name", "_layer", "_span_id", "_parent", "_start")

    def __init__(self, recorder: "Recorder", name: str, layer: str) -> None:
        self._recorder = recorder
        self._name = name
        self._layer = layer

    def __enter__(self) -> "_OpenSpan":
        recorder = self._recorder
        self._span_id = recorder._next_id
        recorder._next_id += 1
        self._parent = recorder._stack[-1] if recorder._stack else -1
        recorder._stack.append(self._span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        recorder = self._recorder
        recorder._stack.pop()
        recorder.spans.append(
            Span(self._span_id, self._parent, self._name, self._layer, self._start, end)
        )


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """Spans and exact counts of one traced round."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._next_id = 0

    def span(self, name: str, layer: str) -> _OpenSpan:
        return _OpenSpan(self, name, layer)

    def add_span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one.

        For intervals the program reports about itself (a cell's
        ``run_scenario`` wall) that the driver cannot wrap in a ``with``.
        """
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self._next_id, parent, name, layer, start, end))
        self._next_id += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class NullRecorder:
    """The untraced rounds' recorder: every call is a no-op."""

    enabled = False

    def span(self, name: str, layer: str) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, layer: str, start: float, end: float) -> None:
        return None


class SpanTotals(NamedTuple):
    layer: str
    calls: int
    total_s: float
    self_s: float


def self_times(spans: List[Span]) -> Dict[str, SpanTotals]:
    """Per span name: layer, call count, total and self seconds."""
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent_id >= 0:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + (
                span.end - span.start
            )
    totals: Dict[str, SpanTotals] = {}
    for span in spans:
        duration = span.end - span.start
        previous = totals.get(span.name, SpanTotals(span.layer, 0, 0.0, 0.0))
        totals[span.name] = SpanTotals(
            span.layer,
            previous.calls + 1,
            previous.total_s + duration,
            previous.self_s + duration - covered.get(span.span_id, 0.0),
        )
    return totals


def subtree_self_by_layer(spans: List[Span], root_names: Tuple[str, ...]) -> Dict[str, float]:
    """Self seconds per layer over the subtrees rooted at ``root_names``."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    by_layer: Dict[str, float] = {}
    pending = [span for span in spans if span.name in root_names and span.parent_id < 0]
    while pending:
        span = pending.pop()
        kids = children.get(span.span_id, [])
        own = (span.end - span.start) - sum(kid.end - kid.start for kid in kids)
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own
        pending.extend(kids)
    return by_layer


class TimedKernels(KernelBackend):
    """Recording proxy around the real backend (traced rounds only)."""

    def __init__(self, recorder: Recorder, backend: Optional[str] = "vectorized") -> None:
        self._inner = get_backend(backend)
        self._recorder = recorder
        self.name = self._inner.name

    def place_backups(self, rng, sizes, n_sectors):
        with self._recorder.span("kernels.place_backups", "kernels"):
            result = self._inner.place_backups(rng, sizes, n_sectors)
        self._recorder.count("kernels.place_backups.backups", len(sizes))
        return result

    def refresh_moves(self, sizes, usage, assignments, chosen, targets, snapshot_after=()):
        with self._recorder.span("kernels.refresh_moves", "kernels"):
            result = self._inner.refresh_moves(
                sizes, usage, assignments, chosen, targets, snapshot_after
            )
        self._recorder.count("kernels.refresh_moves.moves", len(chosen))
        return result

    def greedy_select(self, capacities, placements, values, budget):
        with self._recorder.span("kernels.greedy_select", "kernels"):
            return self._inner.greedy_select(capacities, placements, values, budget)

    def batch_weighted_draw(self, rng, weights, ops, free=None):
        with self._recorder.span("kernels.batch_weighted_draw", "kernels"):
            result = self._inner.batch_weighted_draw(rng, weights, ops, free)
        self._recorder.count("kernels.batch_weighted_draw.ops", len(ops))
        self._recorder.count("kernels.batch_weighted_draw.keys", len(result.keys))
        self._recorder.count("kernels.batch_weighted_draw.attempts", result.attempts)
        return result
