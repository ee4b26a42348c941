"""Chrome trace-event-format export and validation.

Writes the recorder's event buffer as a `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON object -- the shape ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ open directly:

* ``traceEvents`` -- complete ("X") spans with microsecond ``ts``/``dur``,
  counter ("C") samples, and metadata ("M") process-name events so pool
  workers show up as labelled tracks;
* ``displayTimeUnit`` -- milliseconds;
* ``otherData`` -- run provenance (scenario, seed, version ...).

:func:`load_chrome_trace` re-reads an exported artifact and checks it
against :data:`TRACE`; the trace-schema round-trip test and the CI
``trace-smoke`` job both go through it, so a malformed export fails
loudly rather than silently producing a file Perfetto rejects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.schema import INT, NUMBER, OBJECT, STR, Field, list_of, load, table

__all__ = ["TRACE", "to_chrome_trace", "write_chrome_trace", "load_chrome_trace"]

#: A trace file as the exporter writes it.
TRACE = table(
    Field("traceEvents", list_of(table(
        *(Field(key, STR, required=True) for key in ("name", "ph")),
        *(Field(key, INT, required=True) for key in ("pid", "tid")),
        Field("ts", NUMBER, required=True),
        Field("dur", NUMBER),
        Field("cat", STR),
        Field("args", OBJECT),
    )), required=True),
    Field("displayTimeUnit", STR),
    Field("otherData", OBJECT),
    name="JSON object",
)

#: Event phases the exporter emits (complete span, counter, metadata).
_KNOWN_PHASES = ("X", "C", "M")


def _metadata_events(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """One ``process_name`` metadata event per pid, in first-seen order."""
    seen: List[int] = []
    for event in events:
        pid = event.get("pid")
        if isinstance(pid, int) and pid not in seen:
            seen.append(pid)
    out: List[Dict[str, Any]] = []
    for index, pid in enumerate(seen):
        label = "runner" if index == 0 else f"worker-{pid}"
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {label} (pid {pid})"},
            }
        )
    return out


def to_chrome_trace(
    events: Iterable[Mapping[str, Any]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The trace-file object for ``events`` (recorder-buffer dicts)."""
    trace_events = [dict(event) for event in events]
    return {
        "traceEvents": _metadata_events(trace_events) + trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(
    path: Union[str, Path],
    events: Iterable[Mapping[str, Any]],
    metadata: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write ``events`` as a Chrome trace file and return its path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(to_chrome_trace(events, metadata), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def load_chrome_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and structurally validate a trace written by this module.

    Raises :class:`ValueError` naming the field for any shape
    Perfetto/``chrome://tracing`` would reject: anything :data:`TRACE`
    refuses, an unknown phase, or a complete event without a duration.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    load(TRACE, data, "trace file")
    for index, event in enumerate(data["traceEvents"]):
        phase = event["ph"]
        if phase not in _KNOWN_PHASES:
            raise ValueError(
                f"traceEvents[{index}] has unknown phase {phase!r}; "
                f"expected one of {_KNOWN_PHASES}"
            )
        if phase == "X" and "dur" not in event:
            raise ValueError(f"traceEvents[{index}] is a complete event without 'dur'")
    return data
