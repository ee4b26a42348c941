"""Unified command-line front door: ``python -m repro
list|run|bench|diff|campaign``.

* ``repro list [--json]`` -- registered scenarios, their descriptions and
  defaults; ``--json`` emits the machine-readable registry dump campaign
  specs and external tooling validate against.
* ``repro run <scenario> [--workers N] [--seed S] [--out results.json]
  [--set key=value ...] [--resume manifest.json]`` -- execute a scenario,
  print the per-trial and summary tables, optionally persist the run
  manifest; ``--resume`` skips trials already present in a prior manifest
  of the same (scenario, params, seed).
* ``repro bench <scenario> [--workers N] ...`` -- time the same scenario
  serially and with ``N`` workers, report the speedup, and verify that
  both runs produced identical per-trial rows.  ``--backend all`` sweeps
  every registered kernel backend in one invocation instead: one serial
  run per backend, a comparative wall/speedup table, a cross-backend
  row-identity check, an optional ``--min-speedup`` gate, and (with
  ``--out``) one JSON comparison section for CI artifacts.
* ``repro diff <a.json> <b.json>`` -- compare two run manifests: seed and
  parameter provenance plus per-metric deltas with CI-overlap verdicts;
  exits non-zero when the manifests' metric sets do not even match.
  Manifests with per-trial stats also get straggler flagging.
* ``repro trace <manifest.json>`` -- print the phase-breakdown (span) and
  counter tables of a run executed with ``--trace`` (see
  ``docs/observability.md``); ``--json`` emits the same breakdown
  machine-readably.
* ``repro perf record|report|check`` -- the persistent perf-history
  store (:mod:`repro.telemetry.history`): append ``BENCH_*.json``
  artifacts or run manifests to an append-only JSONL file, print
  per-series trends against a rolling-median baseline, and gate
  regressions in CI (``check --max-regression PCT`` exits 1).
  ``repro bench`` appends its walls automatically (``--history none``
  opts out).
* ``repro campaign run|status|report <spec.toml>`` -- declarative
  multi-scenario sweeps through one shared worker pool, backed by the
  content-addressed result store (see :mod:`repro.campaign`);
  ``campaign run --matrix scenario:param=a,b,c`` expands a one-axis
  sweep without a spec file.

``repro run|bench --backend reference|vectorized`` selects the
simulation-kernel backend (:mod:`repro.kernels`) for scenarios that
expose a ``backend`` parameter; the resolved name lands in the run
manifest so ``repro diff`` flags backend drift.

``repro run <scenario> --trace out.json`` records telemetry spans across
the executor, kernel, protocol and sim layers and writes a Chrome
trace-event artifact (open in Perfetto or ``chrome://tracing``) plus a
``telemetry.json`` phase summary next to the run manifest.  ``--metrics``
records histogram/gauge metrics into the manifest's ``metrics`` field;
``--profile DIR`` cProfiles every trial and writes a merged
``profile.pstats``.  All three are inert: rows are byte-identical with
and without them.

``repro --log-level debug <command>`` (or ``REPRO_LOG=debug``) turns on
the ``logging`` output of the runner and campaign layers;
:func:`configure_logging` is the one place the root handler is set up,
and fork-started pool workers inherit the level instead of staying
silent.

Installed as the ``repro`` console script by ``pyproject.toml``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.runner.aggregate import format_table
from repro.runner.executor import default_workers, run_scenario
from repro.runner.registry import (
    ScenarioError,
    get_scenario,
    load_builtin_scenarios,
)

__all__ = ["main", "build_parser", "configure_logging"]

#: Environment variable providing the default ``--log-level``.
LOG_ENV_VAR = "REPRO_LOG"

_LOG_LEVELS = ("debug", "info", "warning", "error")


def configure_logging(level: Optional[str] = None) -> None:
    """Set up the one root logging handler for every ``repro`` layer.

    ``level`` falls back to ``$REPRO_LOG``, then ``warning``.  Called at
    CLI entry, *before* any worker pool exists, so fork-started pool
    workers inherit the configured handler and level -- a worker's
    ``logger.info`` lines show up exactly like the parent's.  Library
    callers may call it too; reconfiguration is idempotent (``force=``).
    """
    name = (level or os.environ.get(LOG_ENV_VAR) or "warning").strip().lower()
    if name not in _LOG_LEVELS:
        raise ScenarioError(
            f"unknown log level {name!r}; choose from {', '.join(_LOG_LEVELS)}"
        )
    logging.basicConfig(
        level=getattr(logging, name.upper()),
        format="%(asctime)s %(levelname)s [pid %(process)d] %(name)s: %(message)s",
        force=True,
    )

_EPILOG = """\
registered scenarios (python -m repro list for parameters):
  paper experiments:  collision, deposit, robustness, scalability, table3, table4
  workload pack:      churn, retrieval_load, segmentation, lifecycle_churn

examples:
  repro run robustness --workers 4 --seed 7 --out runs/robust.json
  repro run churn --set cycles=12 --set crash_rate=0.2 --out runs/churn.json
  repro run lifecycle_churn --set flash_crowds=2 --set regional_failures=1
  repro run churn --resume runs/churn.json --out runs/churn.json
  repro run table3 --backend reference   # kernel backend (hot-loop oracle)
  repro run churn --trace trace.json --out runs/churn.json
  repro run churn --metrics --out runs/churn.json   # histograms + gauges
  repro run churn --profile prof/            # merged cProfile -> .pstats
  repro trace runs/churn.json            # phase breakdown of a traced run
  repro bench churn --backend all --out BENCH_churn_backends.json
  repro perf record BENCH_churn_backends.json
  repro perf report                      # per-bench trend vs rolling median
  repro perf check --max-regression 10   # CI gate: exit 1 on regression
  repro diff runs/a.json runs/b.json
  repro --log-level info run churn       # or REPRO_LOG=info
  repro campaign run examples/table3_campaign.toml --workers 4
  repro campaign run --matrix table3:rounds=20,50 --workers 4
  repro campaign status examples/table3_campaign.toml
"""


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ScenarioError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FileInsurer reproduction: experiment orchestration CLI.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=_LOG_LEVELS,
        help="logging verbosity for every repro layer, pool workers "
        "included (default: $REPRO_LOG or warning)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="list registered scenarios")
    list_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (name, description, tags, params "
        "with defaults/types/help) for campaign specs and external tooling",
    )

    for name, help_text in (
        ("run", "run one scenario and print its report"),
        ("bench", "time a scenario serially vs. in parallel"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("scenario", help="registered scenario name")
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (default: 1 for run, CPU count for bench)",
        )
        sub.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        sub.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a scenario parameter (repeatable)",
        )
        sub.add_argument(
            "--out", default=None, help="write the run manifest to this JSON path"
        )
        sub.add_argument(
            "--backend",
            default=None,
            metavar="NAME",
            help="simulation-kernel backend for scenarios with a 'backend' "
            "parameter: auto, reference or vectorized (default: auto, i.e. "
            "$REPRO_KERNEL_BACKEND or vectorized); shorthand for "
            "--set backend=NAME.  'bench --backend all' sweeps every "
            "registered backend in one invocation and reports a "
            "comparative table",
        )
        if name == "bench":
            sub.add_argument(
                "--min-speedup",
                type=float,
                default=0.0,
                metavar="X",
                help="with --backend all: fail unless the default backend "
                "is at least X times faster than the reference backend "
                "(default 0, no gate)",
            )
            sub.add_argument(
                "--history",
                default=None,
                metavar="JSONL",
                help="perf-history file to append this bench's walls to "
                "(default: $REPRO_PERF_HISTORY or runs/perf-history.jsonl; "
                "'none' disables the append)",
            )
        if name == "run":
            sub.add_argument(
                "--quiet",
                action="store_true",
                help="print only the summary table, not per-trial rows",
            )
            sub.add_argument(
                "--resume",
                default=None,
                metavar="MANIFEST",
                help=(
                    "prior manifest of the same (scenario, params, seed); "
                    "trials already present are skipped"
                ),
            )
            sub.add_argument(
                "--trace",
                default=None,
                metavar="TRACE_JSON",
                help="record telemetry spans (executor/kernel/protocol/sim) "
                "and write a Chrome trace-event artifact here, plus a "
                "telemetry.json phase summary next to the manifest; rows "
                "are byte-identical with or without tracing",
            )
            sub.add_argument(
                "--metrics",
                action="store_true",
                help="record histogram/gauge metrics (latency, refresh lag "
                "and replica histograms; files-per-state, provider and "
                "backlog gauges over simulated time) into the manifest's "
                "'metrics' field and print the breakdown; rows are "
                "byte-identical with or without it",
            )
            sub.add_argument(
                "--profile",
                default=None,
                metavar="DIR",
                help="cProfile every trial (inside pool workers too), merge "
                "the per-trial stats and write DIR/profile.pstats plus a "
                "top-N cumulative table; rows are unchanged, wall time "
                "is not",
            )

    trace = commands.add_parser(
        "trace",
        help="print the phase-breakdown and counter tables of a traced run",
    )
    trace.add_argument(
        "manifest",
        help="run manifest written by 'repro run --trace ... --out <manifest>'",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit the phase/counter breakdown (and metrics summary, if "
        "recorded) as machine-readable JSON instead of tables",
    )

    diff = commands.add_parser(
        "diff", help="compare two run manifests (provenance + metric deltas)"
    )
    diff.add_argument("manifest_a", help="baseline run manifest (JSON)")
    diff.add_argument("manifest_b", help="comparison run manifest (JSON)")
    diff.add_argument(
        "--metrics",
        default=None,
        metavar="NAME[,NAME...]",
        help="restrict the delta table to these metric names",
    )
    diff.add_argument(
        "--straggler-factor",
        type=float,
        default=3.0,
        metavar="X",
        help="flag trials whose wall exceeds X times their run's median "
        "trial wall (default 3; informational, never affects the exit "
        "code)",
    )

    perf = commands.add_parser(
        "perf",
        help="persistent perf history: record bench artifacts, print "
        "trends, gate regressions",
    )
    perf_verbs = perf.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("record", "append BENCH_*.json artifacts (or run manifests) to the history"),
        ("report", "per-series trend table vs a rolling-median baseline"),
        ("check", "exit 1 when any series regressed past --max-regression"),
    ):
        sub = perf_verbs.add_parser(verb, help=help_text)
        if verb == "record":
            sub.add_argument(
                "artifact",
                nargs="+",
                help="bench artifact JSON (BENCH_kernels.json, a "
                "'bench --backend all' sweep, BENCH_telemetry.json, or a "
                "run manifest)",
            )
        if verb == "check":
            sub.add_argument(
                "--max-regression",
                type=float,
                default=10.0,
                metavar="PCT",
                help="fail when a series' latest value exceeds its "
                "rolling-median baseline by more than PCT percent "
                "(default 10)",
            )
        sub.add_argument(
            "--history",
            default=None,
            metavar="JSONL",
            help="history file (default: $REPRO_PERF_HISTORY or "
            "runs/perf-history.jsonl)",
        )

    campaign = commands.add_parser(
        "campaign",
        help="declarative multi-scenario sweeps with a shared worker pool "
        "and a content-addressed result store",
    )
    verbs = campaign.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
        ("run", "execute every cell of a campaign (cached cells are skipped)"),
        ("status", "show per-cell cache state without executing anything"),
        ("report", "regenerate the cross-cell report from cached results"),
    ):
        sub = verbs.add_parser(verb, help=help_text)
        if verb == "run":
            sub.add_argument(
                "spec",
                nargs="?",
                default=None,
                help="campaign spec file (.toml or .json); omit with --matrix",
            )
        else:
            sub.add_argument("spec", help="campaign spec file (.toml or .json)")
        sub.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="result-store directory (default: the spec's 'store' entry, "
            "else runs/campaign-store)",
        )
        if verb == "run":
            sub.add_argument(
                "--workers",
                type=int,
                default=None,
                help="worker processes shared across all cells (default 1)",
            )
            sub.add_argument(
                "--force",
                action="store_true",
                help="re-execute cells even when the store already holds them",
            )
            sub.add_argument(
                "--matrix",
                default=None,
                metavar="SCENARIO:PARAM=V1,V2[,...]",
                help="expand a one-axis sweep without a spec file (one cell "
                "per value, validated against the registry like a spec)",
            )
            sub.add_argument(
                "--seed",
                type=int,
                default=None,
                help="root seed for --matrix cells (default 0; spec files "
                "carry their own seeds)",
            )
        if verb in ("run", "report"):
            sub.add_argument(
                "--report-dir",
                default=None,
                metavar="DIR",
                help="where to write report.md and summary.csv "
                "(default: <store>/report)",
            )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    import json

    from repro.runner.results import jsonify

    specs = load_builtin_scenarios()
    if args.json:
        dump = [
            {
                "name": spec.name,
                "description": spec.description,
                "tags": list(spec.tags),
                "params": {
                    key: {
                        "default": jsonify(param.default),
                        "type": param.type.__name__,
                        "help": param.help,
                        "domain": jsonify(param.domain),
                    }
                    for key, param in sorted(spec.params.items())
                },
            }
            for spec in specs
        ]
        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    rows = [
        {
            "scenario": spec.name,
            "params": ", ".join(
                f"{key}={spec.params[key].default}" for key in sorted(spec.params)
            ),
            "description": spec.description,
        }
        for spec in specs
    ]
    print(format_table(rows))
    return 0


def _workers_or(args: argparse.Namespace, fallback: int) -> int:
    workers = args.workers if args.workers is not None else fallback
    if workers < 1:
        raise ScenarioError("--workers must be >= 1")
    return workers


def _overrides_with_backend(args: argparse.Namespace) -> Dict[str, str]:
    """``--set`` overrides plus the ``--backend`` shorthand, if given."""
    overrides = _parse_overrides(args.overrides)
    if args.backend is not None:
        if "backend" in overrides and overrides["backend"] != args.backend:
            raise ScenarioError(
                f"--backend {args.backend!r} conflicts with "
                f"--set backend={overrides['backend']!r}"
            )
        overrides["backend"] = args.backend
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner.results import RunManifest

    load_builtin_scenarios()
    overrides = _overrides_with_backend(args)
    workers = _workers_or(args, 1)
    resume = None
    if args.resume:
        try:
            resume = RunManifest.load(args.resume)
        except (OSError, ValueError) as error:
            raise ScenarioError(
                f"cannot load resume manifest {args.resume!r}: {error}"
            ) from None
    flagged = [
        (channel, report)
        for flag, channel, report in _RUN_RECORDERS
        if getattr(args, flag)
    ]
    telemetry.arm([channel for channel, _ in flagged])
    try:
        manifest = run_scenario(
            args.scenario,
            overrides=overrides,
            workers=workers,
            seed=args.seed,
            resume=resume,
        )
        recorded = {
            channel: telemetry.CHANNELS[channel].drain() for channel, _ in flagged
        }
    finally:
        # Leak neither armed flags nor half-recorded buffers into a later
        # command, whichever channels the failed run had armed.
        telemetry.reset_channels()
    print(
        f"scenario={manifest.scenario} seed={manifest.seed} "
        f"workers={manifest.workers} trials={manifest.trial_count} "
        f"wall={manifest.duration_seconds:.2f}s version={manifest.version}"
    )
    if not args.quiet:
        print("\nper-trial rows")
        print(format_table(manifest.rows))
    if manifest.summary:
        print("\nsummary")
        print(format_table(manifest.summary))
    if args.out:
        path = manifest.save(args.out)
        print(f"\nmanifest written to {path}")
    for channel, report in flagged:
        report(args, manifest, recorded[channel])
    return 0


def _print_tables(*tables) -> None:
    """Print each non-empty ``(title, rows)`` table under its title."""
    for title, rows in tables:
        if rows:
            print(title)
            print(format_table(rows))


def _metric_tables(summary, histogram_title: str):
    metrics = telemetry.metrics
    return (
        (f"\n{histogram_title}", metrics.histogram_table(summary)),
        ("\ngauge series (over simulated time)", metrics.series_table(summary)),
    )


def _print_metrics_report(args: argparse.Namespace, manifest, samples) -> None:
    """Print the histogram/gauge breakdown of a ``--metrics`` run.

    The summary is in the manifest; the raw ``samples`` are dropped.
    """
    tables = _metric_tables(manifest.metrics or {}, "histograms")
    print(
        f"\nmetrics: {len(tables[0][1])} histograms, {len(tables[1][1])} gauge "
        "series (embedded in the manifest's 'metrics' field)"
    )
    _print_tables(*tables)


def _write_profile_artifacts(args: argparse.Namespace, manifest, tables) -> None:
    """Merge the per-trial cProfile tables and write ``profile.pstats``."""
    profiling = telemetry.profile
    merged = profiling.merge_stats(tables)
    path = profiling.write_pstats(Path(args.profile) / "profile.pstats", merged)
    print(
        f"\nprofile: {len(tables)} trial profiles merged -> {path} "
        "(open with python -m pstats)"
    )
    _print_tables(("top functions by cumulative time", profiling.top_table(merged)))


def _write_trace_artifacts(args: argparse.Namespace, manifest, events) -> None:
    """Export the Chrome trace + telemetry summary of a ``--trace`` run."""
    trace_path = telemetry.write_chrome_trace(
        args.trace,
        events,
        metadata={
            "scenario": manifest.scenario,
            "seed": manifest.seed,
            "workers": manifest.workers,
            "version": manifest.version,
        },
    )
    print(f"\ntrace written to {trace_path} ({len(events)} events; "
          "open in Perfetto or chrome://tracing)")
    summary = manifest.telemetry or telemetry.summarize_events(events)
    anchor = Path(args.out) if args.out else Path(args.trace)
    summary_path = telemetry.write_summary(
        anchor.with_name(anchor.stem + ".telemetry.json"), summary
    )
    print(f"telemetry summary written to {summary_path}")
    _print_telemetry_summary(summary)


#: ``repro run`` flag -> the telemetry channel it arms and the report
#: that turns what the channel recorded into artifacts and tables.
_RUN_RECORDERS = (
    ("trace", "spans", _write_trace_artifacts),
    ("metrics", "metrics", _print_metrics_report),
    ("profile", "profile", _write_profile_artifacts),
)


def _print_telemetry_summary(summary) -> None:
    _print_tables(
        (
            "\nphase breakdown (spans; nested spans overlap)",
            telemetry.phase_table(summary),
        ),
        ("\ncounters", telemetry.counter_table(summary)),
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.runner.results import RunManifest
    from repro.telemetry import counter_table, phase_table

    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, ValueError) as error:
        raise ScenarioError(f"cannot load manifest: {error}") from None
    if not manifest.telemetry:
        print(
            f"error: manifest {args.manifest!r} carries no telemetry summary; "
            "re-run with 'repro run ... --trace trace.json --out <manifest>'",
            file=sys.stderr,
        )
        return 1
    if args.json:
        # Same breakdown the tables show, machine-readably: spans sorted
        # by total time descending (phase_table's order), counters, and
        # the metrics summary when the run recorded one.
        dump = {
            "scenario": manifest.scenario,
            "seed": manifest.seed,
            "workers": manifest.workers,
            "trial_count": manifest.trial_count,
            "spans": phase_table(manifest.telemetry),
            "counters": counter_table(manifest.telemetry),
        }
        if manifest.metrics:
            dump["metrics"] = manifest.metrics
        print(json.dumps(dump, indent=2, sort_keys=True))
        return 0
    print(
        f"scenario={manifest.scenario} seed={manifest.seed} "
        f"workers={manifest.workers} trials={manifest.trial_count} "
        f"wall={manifest.duration_seconds:.2f}s"
    )
    _print_telemetry_summary(manifest.telemetry)
    from repro.runner.diff import straggler_rows

    stragglers = straggler_rows(manifest)
    _print_tables(
        *_metric_tables(manifest.metrics or {}, "metric histograms"),
        ("\nstraggler trials (vs the run's median trial wall)", stragglers),
    )
    return 0


def _cmd_bench_backends(args: argparse.Namespace) -> int:
    """``bench <scenario> --backend all``: one sweep over every backend.

    Runs the scenario once per registered kernel backend (serially, so
    walls are comparable), verifies the per-trial rows are identical
    across backends, and prints one comparative table.  ``--out`` writes
    the comparison as a single JSON section (same spirit as the
    ``BENCH_kernels.json`` artifact); ``--min-speedup X`` turns the
    default backend's speedup over ``reference`` into a gate.
    """
    import json

    from repro.kernels import DEFAULT_BACKEND, available_backends

    overrides = _parse_overrides(args.overrides)
    if "backend" in overrides:
        raise ScenarioError(
            "--backend all conflicts with --set backend="
            f"{overrides['backend']!r}; drop one of them"
        )
    spec = get_scenario(args.scenario)
    if "backend" not in spec.params:
        raise ScenarioError(
            f"scenario {args.scenario!r} has no 'backend' parameter to sweep"
        )

    walls: Dict[str, float] = {}
    manifests = {}
    for name in available_backends():
        started = time.perf_counter()
        manifests[name] = run_scenario(
            args.scenario,
            overrides={**overrides, "backend": name},
            workers=1,
            seed=args.seed,
        )
        walls[name] = time.perf_counter() - started

    reference_wall = walls.get("reference")
    rows: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    for name in available_backends():
        speedup = (
            reference_wall / walls[name] if reference_wall and walls[name] > 0 else 1.0
        )
        speedups[name] = speedup
        rows.append(
            {
                "backend": name,
                "wall_seconds": round(walls[name], 3),
                "speedup_vs_reference": round(speedup, 2),
            }
        )
    # Compare the rows alone: the manifests' params legitimately differ
    # in their (recorded, swept) 'backend' entry.
    from repro.runner.results import jsonify

    first = available_backends()[0]
    identical = all(
        jsonify(manifests[first].rows) == jsonify(manifests[name].rows)
        for name in available_backends()[1:]
    )

    trials = manifests[first].trial_count
    print(
        f"bench scenario={args.scenario} trials={trials} seed={args.seed} "
        f"backends={','.join(available_backends())}"
    )
    print(format_table(rows))
    print(f"per-trial rows identical across backends: {identical}")

    gate_ok = True
    if args.min_speedup > 0:
        achieved = speedups.get(DEFAULT_BACKEND, 1.0)
        gate_ok = achieved >= args.min_speedup
        verdict = "ok" if gate_ok else "FAIL"
        print(
            f"speedup gate: {DEFAULT_BACKEND} {achieved:.2f}x vs reference "
            f"(required {args.min_speedup:.2f}x) -> {verdict}"
        )

    artifact = {
        "kind": "scenario_backend_sweep",
        "scenario": args.scenario,
        "seed": args.seed,
        "overrides": overrides,
        "trials": trials,
        "backends": {
            name: {
                "wall_seconds": round(walls[name], 6),
                "speedup_vs_reference": round(speedups[name], 3),
            }
            for name in available_backends()
        },
        "rows_identical": identical,
        "min_speedup": args.min_speedup,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"comparison written to {args.out}")

    from repro.telemetry import history

    _append_bench_history(
        args,
        history.entries_from_artifact(artifact, source="repro bench --backend all"),
        "backend-sweep",
    )
    return 0 if identical and gate_ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    load_builtin_scenarios()
    if args.backend == "all":
        return _cmd_bench_backends(args)
    overrides = _overrides_with_backend(args)
    workers = _workers_or(args, default_workers())

    timings: List[Dict[str, object]] = []
    serial_start = time.perf_counter()
    serial = run_scenario(args.scenario, overrides=overrides, workers=1, seed=args.seed)
    serial_wall = time.perf_counter() - serial_start
    timings.append(
        {"mode": "serial", "workers": 1, "wall_seconds": round(serial_wall, 3)}
    )

    parallel = serial
    parallel_wall = serial_wall
    if workers > 1:
        parallel_start = time.perf_counter()
        parallel = run_scenario(
            args.scenario, overrides=overrides, workers=workers, seed=args.seed
        )
        parallel_wall = time.perf_counter() - parallel_start
        timings.append(
            {
                "mode": "parallel",
                "workers": workers,
                "wall_seconds": round(parallel_wall, 3),
            }
        )

    identical = serial.trial_rows_equal(parallel)
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else float("inf")
    print(f"bench scenario={args.scenario} trials={serial.trial_count} seed={args.seed}")
    print(format_table(timings))
    print(
        f"speedup={speedup:.2f}x with {workers} workers; "
        f"per-trial rows identical: {identical}"
    )
    if args.out:
        parallel.save(args.out)
        print(f"manifest written to {args.out}")

    from repro.telemetry import history

    shape = {"overrides": overrides, "seed": args.seed}
    entries = [
        history.make_entry(
            f"scenario.{args.scenario}",
            serial_wall,
            shape=shape,
            backend="serial",
            source="repro bench",
        )
    ]
    if workers > 1:
        entries.append(
            history.make_entry(
                f"scenario.{args.scenario}",
                parallel_wall,
                shape={**shape, "workers": workers},
                backend="parallel",
                source="repro bench",
            )
        )
    _append_bench_history(args, entries, "bench")
    return 0 if identical else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.runner.diff import diff_manifests, format_diff
    from repro.runner.results import RunManifest

    try:
        manifest_a = RunManifest.load(args.manifest_a)
        manifest_b = RunManifest.load(args.manifest_b)
    except (OSError, ValueError) as error:
        raise ScenarioError(f"cannot load manifest: {error}") from None
    metrics = (
        [name.strip() for name in args.metrics.split(",") if name.strip()]
        if args.metrics
        else None
    )
    diff = diff_manifests(
        manifest_a,
        manifest_b,
        metrics=metrics,
        straggler_factor=args.straggler_factor,
    )
    print(f"a: {args.manifest_a}\nb: {args.manifest_b}\n")
    print(format_diff(diff))
    metrics_ok = not (
        diff["metrics_only_a"] or diff["metrics_only_b"] or diff["metrics_missing"]
    )
    return 0 if diff["comparable"] and metrics_ok else 1


def _history_target(args: argparse.Namespace):
    """The perf-history path for ``--history``, or ``None`` when disabled."""
    from repro.telemetry import history

    if args.history is not None:
        if args.history.strip().lower() == "none":
            return None
        return Path(args.history)
    return history.default_history_path()


def _append_bench_history(args: argparse.Namespace, entries, label: str) -> None:
    """Best-effort append of bench walls to the perf history.

    A bench must never fail because the history file is unwritable (a
    read-only CI checkout, say) -- the wall numbers were already printed.
    """
    from repro.telemetry import history

    target = _history_target(args)
    if target is None or not entries:
        return
    try:
        path = history.append_entries(target, entries)
    except OSError as error:
        print(f"warning: perf history not recorded ({error})", file=sys.stderr)
        return
    print(f"perf history: {len(entries)} {label} entries appended to {path}")


def _cmd_perf(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import history

    target = _history_target(args)
    if target is None:
        raise ScenarioError("repro perf needs a history file; --history none given")

    if args.verb == "record":
        recorded = 0
        for artifact in args.artifact:
            try:
                with open(artifact, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError) as error:
                raise ScenarioError(
                    f"cannot load bench artifact {artifact!r}: {error}"
                ) from None
            try:
                entries = history.entries_from_artifact(
                    data, source=Path(artifact).name
                )
            except ValueError as error:
                raise ScenarioError(f"{artifact}: {error}") from None
            history.append_entries(target, entries)
            recorded += len(entries)
        print(f"recorded {recorded} entries -> {target}")
        return 0

    entries = history.load_history(target)
    if not entries:
        print(
            f"perf history {target} is empty; record a bench first "
            "(repro bench ... or repro perf record BENCH_*.json)",
            file=sys.stderr,
        )
        return 0  # an empty history is not a regression

    if args.verb == "report":
        rows = history.trend_rows(entries)
        print(f"perf history: {len(entries)} entries, {len(rows)} series ({target})")
        print(format_table(rows))
        return 0

    # check: gate the latest value of every series against its baseline.
    flagged = history.regressions(entries, args.max_regression)
    rows = history.trend_rows(entries)
    print(
        f"perf check: {len(rows)} series, gate +{args.max_regression:g}% "
        f"vs rolling-median baseline ({target})"
    )
    if flagged:
        print("\nREGRESSIONS")
        print(format_table(flagged))
        return 1
    print("no regressions")
    return 0


_DEFAULT_STORE = "runs/campaign-store"


def _campaign_store(args: argparse.Namespace, spec):
    from repro.campaign.store import ResultStore

    return ResultStore(args.store or spec.store or _DEFAULT_STORE)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignError,
        load_campaign,
        matrix_campaign,
        run_campaign,
        write_report,
    )

    if (args.spec is None) == (args.matrix is None):
        raise CampaignError(
            "campaign run needs exactly one of a spec file or --matrix"
        )
    if args.matrix is not None:
        spec = matrix_campaign(args.matrix, seed=args.seed or 0)
    else:
        if args.seed is not None:
            raise CampaignError(
                "--seed only applies to --matrix; spec files carry their own seeds"
            )
        spec = load_campaign(args.spec)
    store = _campaign_store(args, spec)
    workers = _workers_or(args, 1)

    def progress(outcome) -> None:
        state = "hit " if outcome.cached else "run "
        print(
            f"[{state}] {outcome.cell.label} trials={outcome.manifest.trial_count} "
            f"key={outcome.key[:12]}"
        )

    result = run_campaign(
        spec, store, workers=workers, force=args.force, progress=progress
    )
    print(f"\n{result.status_line()}")
    report_dir = args.report_dir or str(store.root / "report")
    for path in write_report(spec, result.outcomes, report_dir):
        print(f"report written to {path}")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import load_campaign, plan_campaign

    spec = load_campaign(args.spec)
    store = _campaign_store(args, spec)
    cells = plan_campaign(spec)
    hits = 0
    for cell in cells:
        cached = (cell.scenario, cell.params, cell.seed) in store
        hits += cached
        print(f"[{'hit ' if cached else 'miss'}] {cell.label} "
              f"key={store.key_for(cell.scenario, cell.params, cell.seed)[:12]}")
    stats = store.stats()
    print(
        f"\ncampaign={spec.name} cells={len(cells)} cache_hits={hits}/{len(cells)} "
        f"store={store.root} (stored={stats['stored']}, "
        f"quarantined={stats['quarantined']}) version={store.version}"
    )
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import CellOutcome, load_campaign, plan_campaign, write_report

    spec = load_campaign(args.spec)
    store = _campaign_store(args, spec)
    cells = plan_campaign(spec)
    outcomes = []
    missing = []
    for cell in cells:
        manifest = store.get(cell.scenario, cell.params, cell.seed, quarantine=False)
        if manifest is None:
            missing.append(cell.label)
            continue
        key = store.key_for(cell.scenario, cell.params, cell.seed)
        outcomes.append(CellOutcome(cell=cell, key=key, cached=True, manifest=manifest))
    if missing:
        print(
            f"error: {len(missing)}/{len(cells)} cells are not in the store; "
            "run `repro campaign run` first:",
            file=sys.stderr,
        )
        for label in missing:
            print(f"  missing: {label}", file=sys.stderr)
        return 1
    report_dir = args.report_dir or str(store.root / "report")
    for path in write_report(spec, outcomes, report_dir):
        print(f"report written to {path}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    # CampaignError is caught here rather than in main() so the campaign
    # package is only ever imported by campaign verbs -- every other
    # subcommand keeps this file's lazy-import discipline.
    from repro.campaign.spec import CampaignError

    try:
        if args.verb == "run":
            return _cmd_campaign_run(args)
        if args.verb == "status":
            return _cmd_campaign_status(args)
        return _cmd_campaign_report(args)
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        configure_logging(args.log_level)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "perf":
            return _cmd_perf(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
    except (ScenarioError, ValueError) as error:
        # ValueError covers user-parameter problems surfaced below the
        # registry (empty trial lists, bad worker counts).
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
