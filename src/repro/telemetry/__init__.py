"""``repro.telemetry``: one recorder, three channels, and their artifacts.

The observability layer threaded through the runner, the kernel seam,
the protocol and the campaign orchestrator:

* :mod:`repro.telemetry.core` -- the zero-dependency recorder: one
  :class:`Channel` (an ``enabled`` flag, a buffer, ``capture()`` /
  ``extend()`` / ``drain()``) with three instances in ``CHANNELS`` --
  spans+counters, metric samples, cProfile tables -- and the span API
  (``span()`` context managers, ``counter()``, the ``traced``
  decorator).  Disabled (the default) a recording call costs one
  attribute check, and recording never touches seeded RNG streams:
  scenario rows are byte-identical with any channel on or off.  The
  executor ships what a trial records back in its result envelope,
  armed by the channel names in the trial payload (``armed()``/``arm()``).
* :mod:`repro.telemetry.trace` -- Chrome trace-event-format JSON export
  (``repro run <scenario> --trace out.json``; open in Perfetto or
  ``chrome://tracing``) with structural validation on load.
* :mod:`repro.telemetry.summary` -- the per-run phase breakdown embedded
  in run manifests and written as ``<run>.telemetry.json``; printed by
  ``repro trace <manifest>``.
* :mod:`repro.telemetry.metrics` -- fixed-bucket log-scaled histograms
  (retrieval latency, refresh lag, replica counts) and gauge time-series
  sampled at sim-time checkpoints (``repro run --metrics``), recorded on
  the ``metrics`` channel.
* :mod:`repro.telemetry.history` -- the append-only JSONL perf-history
  store behind ``repro perf record|report|check``: bench walls keyed by
  (bench, shape, backend, host), trended against a rolling-median
  baseline.
* :mod:`repro.telemetry.profile` -- per-trial cProfile hooks
  (``repro run --profile <dir>``): stats tables recorded on the
  ``profile`` channel and merged into one ``.pstats``.

See ``docs/observability.md`` for the span inventory and workflows.
"""

from __future__ import annotations

from repro.telemetry import history, metrics, profile
from repro.telemetry.core import (
    CHANNELS,
    Channel,
    arm,
    armed,
    capture,
    capture_channels,
    counter,
    disable,
    drain,
    emit_span,
    enable,
    events,
    extend,
    extend_channels,
    is_enabled,
    reset,
    reset_channels,
    span,
    traced,
)
from repro.telemetry.summary import (
    SUMMARY_FORMAT,
    counter_table,
    phase_table,
    summarize_events,
    write_summary,
)
from repro.telemetry.trace import (
    load_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "CHANNELS",
    "Channel",
    "SUMMARY_FORMAT",
    "arm",
    "armed",
    "capture",
    "capture_channels",
    "counter",
    "counter_table",
    "disable",
    "drain",
    "emit_span",
    "enable",
    "events",
    "extend",
    "extend_channels",
    "history",
    "is_enabled",
    "load_chrome_trace",
    "metrics",
    "phase_table",
    "profile",
    "reset",
    "reset_channels",
    "span",
    "summarize_events",
    "to_chrome_trace",
    "traced",
    "write_chrome_trace",
    "write_summary",
]
