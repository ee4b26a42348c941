"""Per-trial profiling: cProfile inside pool workers, merged via pstats.

``repro run <scenario> --profile <dir>`` runs every trial function under
a :class:`cProfile.Profile`.  The raw stats table (``profiler.stats``, a
plain dict of ``(file, line, func) -> (cc, nc, tt, ct, callers)``) is
picklable, so :func:`run` appends it to the
:data:`~repro.telemetry.core.PROFILES` channel like any other sample and
a forked pool worker's tables reach the parent the way its spans do;
there they are summed into one run-wide profile, written as a standard
``.pstats`` file (loadable with :class:`pstats.Stats`) and printed as a
top-N cumulative table.

Unlike spans and metrics, profiling is *not* cheap when on (cProfile's
tracing hook multiplies Python-call cost), so it never participates in
the <5% overhead gate -- only the disabled path must be inert.
"""

from __future__ import annotations

import cProfile
import marshal
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

from repro.telemetry.core import PROFILES

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "profiled_call",
    "run",
    "extend",
    "stats_buffer",
    "drain",
    "merge_stats",
    "write_pstats",
    "top_table",
]

#: One raw cProfile stats table: ``(file, line, func) -> (cc, nc, tt, ct,
#: callers)`` where ``callers`` maps caller keys to 4-tuples.
StatsTable = Dict[Tuple[str, int, str], tuple]


enable = PROFILES.enable
disable = PROFILES.disable
is_enabled = PROFILES.is_enabled
reset = PROFILES.reset
extend = PROFILES.extend
stats_buffer = PROFILES.pending
drain = PROFILES.drain


def profiled_call(fn: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, StatsTable]:
    """Run ``fn`` under cProfile; return ``(result, raw stats table)``."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    profiler.create_stats()
    return result, profiler.stats  # type: ignore[attr-defined]


def run(fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """Call ``fn``; while the channel is armed, under cProfile.

    The profiled call's stats table is appended to the channel's buffer;
    disabled, the profiler object is never even constructed.
    """
    if not PROFILES.enabled:
        return fn(*args, **kwargs)
    result, table = profiled_call(fn, *args, **kwargs)
    PROFILES.buffer.append(table)
    return result


def merge_stats(tables: Iterable[StatsTable]) -> StatsTable:
    """Sum per-function totals (and caller edges) across stats tables.

    Equivalent to :meth:`pstats.Stats.add` but operating on the raw
    dictionaries, so worker tables merge without round-tripping through
    temporary files.
    """
    merged: StatsTable = {}
    for table in tables:
        for func, (cc, nc, tt, ct, callers) in table.items():
            if func in merged:
                mcc, mnc, mtt, mct, mcallers = merged[func]
                combined = dict(mcallers)
                for caller, counts in callers.items():
                    if caller in combined:
                        combined[caller] = tuple(
                            a + b for a, b in zip(combined[caller], counts)
                        )
                    else:
                        combined[caller] = counts
                merged[func] = (mcc + cc, mnc + nc, mtt + tt, mct + ct, combined)
            else:
                merged[func] = (cc, nc, tt, ct, dict(callers))
    return merged


def write_pstats(path: Union[str, Path], merged: StatsTable) -> Path:
    """Write a merged table as a standard ``.pstats`` file.

    The format is exactly what :meth:`cProfile.Profile.dump_stats`
    produces (a marshalled stats dict), so ``pstats.Stats(str(path))``
    and ``python -m pstats`` open it directly.
    """
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("wb") as handle:
        marshal.dump(merged, handle)
    return target


def _short_location(func: Tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if filename == "~":  # built-in functions have no file
        return name
    tail = "/".join(Path(filename).parts[-2:])
    return f"{tail}:{lineno}({name})"


def top_table(merged: StatsTable, limit: int = 20) -> List[Dict[str, object]]:
    """The hottest functions by cumulative time, as ``format_table`` rows."""
    ordered = sorted(merged.items(), key=lambda item: -item[1][3])
    rows: List[Dict[str, object]] = []
    for func, (cc, nc, tt, ct, _callers) in ordered[:limit]:
        rows.append(
            {
                "function": _short_location(func),
                "calls": nc,
                "tottime_ms": round(tt * 1000.0, 3),
                "cumtime_ms": round(ct * 1000.0, 3),
            }
        )
    return rows
