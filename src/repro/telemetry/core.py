"""The recorder: one :class:`Channel` state machine, three instances.

A *channel* is an ``enabled`` flag plus a process-global buffer:
:data:`SPANS` (spans and counters, this module), :data:`METRICS`
(histogram/gauge samples, :mod:`.metrics`) and :data:`PROFILES` (raw
cProfile tables, :mod:`.profile`).  Each module's public ``enable`` /
``disable`` / ``is_enabled`` / ``reset`` / ``capture`` / ``extend`` /
``drain`` are its channel's bound methods.  The design constraints,
stated once for all three:

1. **Inert by default.**  A recording function (:func:`span`,
   :func:`counter`, ``metrics.observe`` ...) costs one module-global
   lookup plus one attribute check while its channel is disabled, and
   recording never touches a seeded RNG stream, so scenario rows are
   byte-identical with any channel on or off
   (``tests/test_telemetry_integration.py`` enforces it).
2. **Zero dependencies.**  Timestamps come from
   :func:`time.perf_counter` (monotonic, and on Linux shared across
   forked pool workers, so parent and worker events align on one
   timeline); events are plain dictionaries already shaped like Chrome
   trace events (see :mod:`repro.telemetry.trace`).
3. **Multiprocessing-aware.**  The executor isolates what one trial
   records with :func:`capture_channels`, ships it to the parent in the
   trial's result envelope and merges it with :func:`extend_channels`,
   original pids/timestamps intact.  Which channels a worker records is
   decided by the names in the trial payload (:func:`armed` /
   :func:`arm`), never by the flags it inherited at fork.

The buffers are process-global, not threaded through call sites: the
instrumented layers must not grow a telemetry parameter on every
signature -- ambient and free is the point of the no-op path.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Tuple,
)

__all__ = [
    "Channel",
    "CHANNELS",
    "SPANS",
    "METRICS",
    "PROFILES",
    "armed",
    "arm",
    "reset_channels",
    "capture_channels",
    "extend_channels",
    "enable",
    "disable",
    "is_enabled",
    "span",
    "emit_span",
    "counter",
    "traced",
    "capture",
    "extend",
    "events",
    "drain",
    "reset",
]


class _Capture:
    """Fresh buffers for ``channels`` during a ``with`` block.

    Yields ``{name: items}``; restores the previous buffers on exit.  (A
    slotted class, not a generator: the executor enters one per trial,
    armed or not.)
    """

    __slots__ = ("_channels", "_saved")

    def __init__(self, channels: Collection["Channel"]) -> None:
        self._channels = channels

    def __enter__(self) -> Dict[str, List[Any]]:
        self._saved = [channel.buffer for channel in self._channels]
        recorded: Dict[str, List[Any]] = {}
        for channel in self._channels:
            channel.buffer = recorded[channel.name] = []
        return recorded

    def __exit__(self, *exc: object) -> bool:
        for channel, buffer in zip(self._channels, self._saved):
            channel.buffer = buffer
        return False


class Channel:
    """One recorder: an ``enabled`` flag and the buffer it guards."""

    __slots__ = ("name", "enabled", "buffer")

    def __init__(self, name: str) -> None:
        self.name = name
        self.enabled = False
        self.buffer: List[Any] = []

    def enable(self) -> None:
        """Start recording into the process buffer."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; already-buffered items are kept until drained."""
        self.enabled = False

    def is_enabled(self) -> bool:
        """True while this channel records."""
        return self.enabled

    def reset(self) -> None:
        """Disable and discard everything."""
        self.enabled = False
        self.buffer = []

    @contextlib.contextmanager
    def capture(self) -> Iterator[List[Any]]:
        """Record into an isolated buffer for a ``with`` block: yields the
        list of what is recorded inside; the previous buffer is restored
        (unmodified) on exit, also when the block raises."""
        with _Capture((self,)) as recorded:
            yield recorded[self.name]

    def extend(self, items: Iterable[Any]) -> None:
        """Merge already-recorded items (e.g. shipped back from a worker)."""
        self.buffer.extend(items)

    def pending(self) -> List[Any]:
        """The current buffer (live reference; prefer :meth:`drain`)."""
        return self.buffer

    def drain(self) -> List[Any]:
        """Return all buffered items and clear the buffer."""
        drained, self.buffer = self.buffer, []
        return drained


SPANS = Channel("spans")
METRICS = Channel("metrics")
PROFILES = Channel("profile")

#: Every channel by name -- what the executor and the CLI iterate over.
CHANNELS: Dict[str, Channel] = {
    channel.name: channel for channel in (SPANS, METRICS, PROFILES)
}


def armed() -> Tuple[str, ...]:
    """Names of the channels that are recording right now."""
    return tuple([name for name, channel in CHANNELS.items() if channel.enabled])


def arm(names: Collection[str]) -> None:
    """Enable exactly the named channels and disable every other one."""
    for name, channel in CHANNELS.items():
        channel.enabled = name in names


def reset_channels() -> None:
    """Disable and empty every channel."""
    for channel in CHANNELS.values():
        channel.reset()


def capture_channels(names: Iterable[str]) -> _Capture:
    """:meth:`Channel.capture` over the named channels: ``{name: items}``."""
    return _Capture([CHANNELS[name] for name in names])


def extend_channels(recorded: Mapping[str, Iterable[Any]]) -> None:
    """Merge a ``{name: items}`` mapping back into the named channels."""
    for name, items in recorded.items():
        CHANNELS[name].extend(items)


enable = SPANS.enable
disable = SPANS.disable
is_enabled = SPANS.is_enabled
reset = SPANS.reset
capture = SPANS.capture
extend = SPANS.extend
events = SPANS.pending
drain = SPANS.drain


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    """The shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records a Chrome complete ("X") event on exit."""

    __slots__ = ("name", "category", "args", "_start")

    def __init__(self, name: str, category: str, args: Dict[str, Any]) -> None:
        self.name = name
        self.category = category
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        SPANS.buffer.append(
            {
                "name": self.name,
                "cat": self.category,
                "ph": "X",
                "ts": self._start * 1e6,
                "dur": (end - self._start) * 1e6,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": self.args,
            }
        )
        return False


def span(name: str, category: str = "app", **args: Any):
    """A context manager timing one named phase.

    ``args`` become the event's Chrome-trace ``args`` payload (batch
    sizes, trial indices, backend names ...).  While telemetry is
    disabled this returns one shared no-op object; the only residual cost
    at the call site is building the ``args`` dict.
    """
    if not SPANS.enabled:
        return _NULL_SPAN
    return _Span(name, category, args)


def emit_span(
    name: str,
    begin: float,
    end: float,
    category: str = "app",
    **args: Any,
) -> None:
    """Record a span from explicit ``perf_counter`` endpoints.

    For phases whose start was observed before the recording scope
    existed -- e.g. a trial's queue wait, timed from the parent's enqueue
    timestamp inside the worker.  The span belongs to the calling process
    and thread, like every other span.
    """
    if not SPANS.enabled:
        return
    SPANS.buffer.append(
        {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": begin * 1e6,
            "dur": max(0.0, end - begin) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": args,
        }
    )


def counter(name: str, value: float = 1, category: str = "app") -> None:
    """Accumulate ``value`` onto a named counter (Chrome "C" event)."""
    if not SPANS.enabled:
        return
    SPANS.buffer.append(
        {
            "name": name,
            "cat": category,
            "ph": "C",
            "ts": time.perf_counter() * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": {"value": value},
        }
    )


def traced(name: str, category: str = "app") -> Callable:
    """Decorator form of :func:`span` for whole functions.

    Disabled cost is one wrapper call plus a boolean check, so it is safe
    on protocol hot paths (``file_add``, ``_auto_refresh``).
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*fn_args: Any, **fn_kwargs: Any) -> Any:
            if not SPANS.enabled:
                return fn(*fn_args, **fn_kwargs)
            with _Span(name, category, {}):
                return fn(*fn_args, **fn_kwargs)

        return wrapper

    return decorate
