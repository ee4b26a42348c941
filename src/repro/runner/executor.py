"""Trial executor: deterministic fan-out of independent trials.

Scenario trials are embarrassingly parallel (Monte-Carlo repetitions,
grid cells, per-protocol evaluations), so the executor maps them over a
``multiprocessing`` pool when ``workers > 1`` and falls back to a plain
serial loop otherwise.

Determinism is the load-bearing property: every trial's seed is derived
from the *root* seed and the trial's index with the same domain-separated
:class:`~repro.crypto.prng.DeterministicPRNG` stream the protocol itself
uses, never from worker identity or scheduling order.  Results are
returned in trial order (``Pool.map`` preserves input order), so a run
with ``--workers 4`` emits byte-identical per-trial rows to the same run
with ``--workers 1``.

The same determinism makes runs *resumable*: because a trial's identity is
fully captured by ``(scenario, params, root seed, trial index)`` and its
row records the derived child seed, an interrupted run's manifest can be
handed back via ``resume=`` and only the missing trials execute -- the
merged row set is byte-identical to an uninterrupted run's
(:func:`match_resume_rows` enforces the provenance checks).
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.pool
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.telemetry import profile as profiling
from repro.telemetry.metrics import summarize_metrics
from repro.telemetry.summary import summarize_events
from repro.crypto.prng import DeterministicPRNG
from repro.runner.registry import (
    ScenarioError,
    ScenarioSpec,
    TrialFn,
    get_scenario,
    resolve_params,
)
from repro.runner.results import RunManifest, jsonify

__all__ = [
    "derive_trial_seed",
    "create_worker_pool",
    "TrialBatch",
    "execute_trials",
    "run_trials",
    "run_scenario",
    "default_workers",
    "match_resume_rows",
    "ResumeError",
]

logger = logging.getLogger("repro.runner.executor")


class ResumeError(ScenarioError):
    """A resume manifest does not match the run it is asked to continue."""


def derive_trial_seed(root_seed: int, scenario_name: str, index: int) -> int:
    """Derive the child seed for trial ``index`` of a scenario.

    Hashes ``root_seed || scenario_name || index`` through the protocol's
    counter-mode SHA-256 PRNG, so child seeds are independent of each
    other and of how trials are distributed over workers.
    """
    if root_seed < 0:
        raise ValueError("root seed must be non-negative")
    prng = DeterministicPRNG.from_int(root_seed, domain="repro-runner")
    return prng.spawn(scenario_name, index).random_uint(63)


def default_workers() -> int:
    """A sensible worker count for this machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


def create_worker_pool(workers: int) -> multiprocessing.pool.Pool:
    """Create a worker pool suitable for :func:`run_trials`'s ``pool=``.

    Uses the fork start method where available so already-imported scenario
    modules (and thus the registry) are inherited by the children.  Callers
    own the pool: one pool can serve many :func:`run_trials` /
    :func:`run_scenario` calls (the campaign orchestrator shares one pool
    across every cell of a sweep) and must close it when done.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return context.Pool(processes=workers)


def _execute_trial(
    payload: Tuple[TrialFn, Dict[str, object], Tuple[str, ...], float]
) -> Dict[str, object]:
    """Run one trial (module-level so it pickles into worker processes).

    Returns a result *envelope*: the trial's row plus per-trial
    observability -- wall time, worker pid, and ``recorded``, what each
    armed telemetry channel collected during the trial, captured in an
    isolated buffer so it can be shipped back to the parent process.
    ``armed`` is the parent's armed-channel names: the worker's own
    flags date from its fork and are overwritten, not trusted.
    ``enqueued`` is the parent's ``perf_counter`` at submission; Linux's
    monotonic clock is system-wide, so the queue-wait span it implies is
    meaningful even inside a forked worker.
    """
    trial_fn, task, armed, enqueued = payload
    started = time.perf_counter()
    telemetry.arm(armed)
    with telemetry.capture_channels(armed) as recorded:
        telemetry.emit_span(
            "trial.queue", enqueued, started, category="executor", trial=task["trial"]
        )
        with telemetry.span(
            "trial.run", category="executor", trial=task["trial"], seed=task["seed"]
        ):
            row = dict(profiling.run(trial_fn, task))
    wall = time.perf_counter() - started
    # Trial index and seed lead every row so runs are diffable by eye.
    return {
        "row": {"trial": task["trial"], "seed": task["seed"], **row},
        "wall_seconds": wall,
        "pid": os.getpid(),
        "recorded": recorded,
    }


def match_resume_rows(
    spec: ScenarioSpec,
    trials: Sequence[Mapping[str, object]],
    seed: int,
    params: Mapping[str, object],
    manifest: RunManifest,
) -> Dict[int, Dict[str, object]]:
    """Validate a resume manifest and return its rows keyed by trial index.

    A cached row is only trusted when its provenance proves it belongs to
    this exact run: same scenario, same fully-resolved parameters, same
    root seed, a trial index within the current trial list, and a recorded
    child seed equal to the one :func:`derive_trial_seed` derives for that
    index.  Any mismatch raises :class:`ResumeError` rather than silently
    mixing rows from a different run.
    """
    if manifest.scenario != spec.name:
        raise ResumeError(
            f"resume manifest is for scenario {manifest.scenario!r}, "
            f"not {spec.name!r}"
        )
    if manifest.seed != seed:
        raise ResumeError(
            f"resume manifest used root seed {manifest.seed}, this run uses {seed}"
        )
    if jsonify(manifest.params) != jsonify(params):
        raise ResumeError(
            "resume manifest parameters do not match this run's resolved "
            f"parameters: manifest={manifest.params!r} run={jsonify(params)!r}"
        )
    cached: Dict[int, Dict[str, object]] = {}
    for row in manifest.rows:
        if "trial" not in row or "seed" not in row:
            raise ResumeError("resume manifest row is missing 'trial'/'seed' keys")
        index = row["trial"]
        if not isinstance(index, int) or not 0 <= index < len(trials):
            raise ResumeError(
                f"resume manifest row has trial index {index!r}, valid range is "
                f"0..{len(trials) - 1}"
            )
        if index in cached:
            raise ResumeError(f"resume manifest contains trial {index} twice")
        expected = derive_trial_seed(seed, spec.name, index)
        if row["seed"] != expected:
            raise ResumeError(
                f"resume manifest row for trial {index} records child seed "
                f"{row['seed']!r}, expected {expected} -- manifest is corrupted "
                "or from different code"
            )
        # Normalise key order to the executor's row layout so resumed rows
        # serialise identically to freshly computed ones.
        rest = {key: value for key, value in row.items() if key not in ("trial", "seed")}
        cached[index] = {"trial": index, "seed": expected, **rest}
    return cached


@dataclass
class TrialBatch:
    """The executed trials' rows plus their observability side channel.

    ``rows`` is the deterministic payload (identical with any telemetry
    channel on or off, serial or pooled); ``trial_stats`` carries one
    ``{"trial", "wall_seconds", "pid"}`` entry per *executed* trial so
    stragglers are inspectable after the fact; ``recorded`` maps each
    armed channel's name to what the trials recorded on it, in trial
    order (no key for a channel that was off).
    """

    rows: List[Dict[str, object]] = field(default_factory=list)
    trial_stats: List[Dict[str, object]] = field(default_factory=list)
    recorded: Dict[str, List] = field(default_factory=dict)


def execute_trials(
    spec: ScenarioSpec,
    trials: Sequence[Mapping[str, object]],
    workers: int = 1,
    seed: int = 0,
    cached_rows: Optional[Mapping[int, Mapping[str, object]]] = None,
    pool: Optional[multiprocessing.pool.Pool] = None,
) -> TrialBatch:
    """Execute ``trials`` and return rows (in trial order) plus stats.

    ``cached_rows`` (trial index -> already-computed row, from
    :func:`match_resume_rows`) short-circuits those trials; only the
    missing ones execute, and the merged result keeps trial order.

    ``pool`` injects an externally owned worker pool (see
    :func:`create_worker_pool`); trials are mapped over it and it is left
    open for the caller's next run.  Without one, ``workers > 1`` spins up
    a private per-call pool as before.  Rows are byte-identical either
    way: seeds derive from the root seed and trial index, never from how
    trials land on workers.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cached = dict(cached_rows or {})
    armed = telemetry.armed()
    payloads: List[Tuple[TrialFn, Dict[str, object], Tuple[str, ...], float]] = []
    for index, trial in enumerate(trials):
        if index in cached:
            continue
        task = dict(trial)
        task["trial"] = index
        task["seed"] = derive_trial_seed(seed, spec.name, index)
        # The undivided root seed, for scenarios whose trials must share
        # one stream (e.g. a common workload across protocols).
        task["root_seed"] = seed
        payloads.append((spec.trial_fn, task, armed, time.perf_counter()))
    logger.debug(
        "scenario %s: executing %d/%d trials (%d cached) with %d workers",
        spec.name, len(payloads), len(trials), len(cached), workers,
    )

    with telemetry.span(
        "executor.map", category="executor", scenario=spec.name,
        trials=len(payloads), workers=workers,
    ):
        if pool is not None and payloads:
            envelopes = pool.map(_execute_trial, payloads)
        elif workers == 1 or len(payloads) <= 1:
            envelopes = [_execute_trial(payload) for payload in payloads]
        else:
            with create_worker_pool(min(workers, len(payloads))) as own_pool:
                envelopes = own_pool.map(_execute_trial, payloads)

    batch = TrialBatch(recorded={name: [] for name in armed})
    for envelope in envelopes:
        batch.rows.append(envelope["row"])
        batch.trial_stats.append(
            {
                "trial": envelope["row"]["trial"],
                "wall_seconds": round(float(envelope["wall_seconds"]), 6),
                "pid": envelope["pid"],
            }
        )
        for name, items in envelope["recorded"].items():
            batch.recorded[name].extend(items)
    telemetry.extend_channels(batch.recorded)

    if cached:
        merged: Dict[int, Dict[str, object]] = {
            row["trial"]: row for row in batch.rows  # type: ignore[misc]
        }
        merged.update({index: dict(row) for index, row in cached.items()})
        batch.rows = [merged[index] for index in sorted(merged)]
    return batch


def run_trials(
    spec: ScenarioSpec,
    trials: Sequence[Mapping[str, object]],
    workers: int = 1,
    seed: int = 0,
    cached_rows: Optional[Mapping[int, Mapping[str, object]]] = None,
    pool: Optional[multiprocessing.pool.Pool] = None,
) -> List[Dict[str, object]]:
    """Rows-only form of :func:`execute_trials` (the original interface)."""
    return execute_trials(
        spec, trials, workers=workers, seed=seed, cached_rows=cached_rows, pool=pool
    ).rows


def run_scenario(
    name_or_spec: Union[str, ScenarioSpec],
    overrides: Optional[Mapping[str, object]] = None,
    workers: int = 1,
    seed: int = 0,
    resume: Optional[Union[str, Path, RunManifest]] = None,
    pool: Optional[multiprocessing.pool.Pool] = None,
) -> RunManifest:
    """Resolve, execute and aggregate one scenario; return its manifest.

    ``resume`` accepts a prior (possibly partial) manifest -- or a path to
    one -- for the same (scenario, params, seed); trials whose rows it
    already contains are skipped and the merged row set is byte-identical
    to an uninterrupted run's.

    ``pool`` forwards an externally owned worker pool to
    :func:`run_trials` so many scenarios can share one set of workers
    (the campaign orchestrator's path); the caller closes it.

    What the armed telemetry channels (:mod:`repro.telemetry`) record
    during the run stays in their process buffers for the caller (the
    CLI's ``--trace`` / ``--profile`` exporters) and is summarised into
    the manifest: the ``telemetry`` field carries the spans channel's
    phase breakdown, the ``metrics`` field the metrics channel's
    histogram/gauge summary; rows are byte-identical either way.
    Per-trial wall time and worker pid always land in ``trial_stats``
    (cached/resumed trials keep the stats of the run that actually
    executed them).
    """
    spec = (
        name_or_spec
        if isinstance(name_or_spec, ScenarioSpec)
        else get_scenario(name_or_spec)
    )
    params = resolve_params(spec, overrides)
    trials = list(spec.build_trials(params))
    if not trials:
        raise ValueError(f"scenario {spec.name!r} built an empty trial list")

    cached_rows: Optional[Dict[int, Dict[str, object]]] = None
    prior: Optional[RunManifest] = None
    if resume is not None:
        prior = resume if isinstance(resume, RunManifest) else RunManifest.load(resume)
        with telemetry.span("executor.resume_match", category="executor"):
            cached_rows = match_resume_rows(spec, trials, seed, params, prior)

    started = time.perf_counter()
    summary: List[Dict[str, object]] = []
    armed = telemetry.armed()
    with telemetry.capture_channels(armed) as recorded:
        batch = execute_trials(
            spec, trials, workers=workers, seed=seed, cached_rows=cached_rows, pool=pool
        )
        if spec.aggregate is not None:
            with telemetry.span(
                "executor.aggregate", category="executor", scenario=spec.name
            ):
                summary = [dict(row) for row in spec.aggregate(batch.rows, params)]
    telemetry.extend_channels(recorded)
    duration = time.perf_counter() - started

    trial_stats = _merge_trial_stats(batch.trial_stats, prior)
    return RunManifest(
        scenario=spec.name,
        params=jsonify(params),
        seed=seed,
        workers=workers,
        trial_count=len(batch.rows),
        duration_seconds=duration,
        rows=jsonify(batch.rows),
        summary=jsonify(summary),
        trial_stats=jsonify(trial_stats),
        # The two channels whose payload has a manifest field of its own.
        telemetry=summarize_events(recorded["spans"]) if "spans" in armed else None,
        metrics=summarize_metrics(recorded["metrics"]) if "metrics" in armed else None,
    )


def _merge_trial_stats(
    fresh: Sequence[Mapping[str, object]], prior: Optional[RunManifest]
) -> List[Dict[str, object]]:
    """Fresh stats plus the resume manifest's stats for cached trials.

    Stats are observability, not identity: a resumed run's rows are
    byte-identical to an uninterrupted run's, while its ``trial_stats``
    legitimately mix this process's measurements with the prior run's.
    """
    merged: Dict[int, Dict[str, object]] = {}
    if prior is not None:
        for stat in prior.trial_stats:
            index = stat.get("trial")
            if isinstance(index, int):
                merged[index] = dict(stat)
    for stat in fresh:
        merged[int(stat["trial"])] = dict(stat)  # type: ignore[arg-type]
    return [merged[index] for index in sorted(merged)]
