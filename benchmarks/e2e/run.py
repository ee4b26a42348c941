"""End-to-end benchmark of the FileInsurer reproduction.

One run (the form the benchmark driver calls; the last line of standard
output is the result as one JSON object)::

    python3 benchmarks/e2e/run.py --workload fill_prove --seed 0 --seconds 18 --trace 0

The whole suite, every workload untraced ``--repeats`` times (each run in a
fresh child process, one after another, each with another seed) plus one
traced run, printing every metric by name with its unit::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats N] [--seconds S] [--out FILE]

``--check-repeat`` runs the suite twice, alternating workload order, and
fails listing every end-to-end metric whose spread or median shift exceeds
its bound in ``BENCHMARK.json`` (``--out`` then gets the first suite's
ledger).  README.md documents workloads, metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # The program under test is not in this checkout: nothing to measure.
    print(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from e2e_trace import (  # noqa: E402
    DRIVER,
    NullRecorder,
    Recorder,
    TimedKernels,
    self_times,
    subtree_self_by_layer,
)
from e2e_workloads import OUT_DIR, WORKLOADS, Outcome, Workload  # noqa: E402

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_DIGESTS = HERE / "expected_digests.json"

#: A run keeps starting rounds while another fits into ``--seconds``, but
#: never reports a median of fewer rounds than this.
MIN_ROUNDS = 3
PHASES = ("phase1", "phase2")

#: Per-layer metrics computed from spans: ``<span name>_s`` is the span's
#: self seconds per round, ``<span name>.calls`` its call count.
SPAN_SECONDS = (
    "core.sector_register", "core.file_add_batch", "core.confirm_batch",
    "core.check_alloc_drain", "core.advance_time", "core.file_confirm",
    "core.crash_sector", "kernels.batch_weighted_draw", "kernels.refresh_moves",
    "kernels.place_backups", "kernels.greedy_select", "sim.placement.run_refresh",
    "sim.placement.run_reallocate", "sim.lifecycle.init", "sim.lifecycle.run",
    "sim.scenario.init", "sim.scenario.store_file", "sim.scenario.settle_uploads",
    "sim.scenario.run_cycles", "sim.scenario.retrieve_file", "sim.scenario.crash_provider",
    "sim.scenario.add_provider", "runner.run_scenario", "campaign.plan",
    "campaign.run_campaign",
)
SPAN_CALLS = (
    "core.file_add_batch", "kernels.batch_weighted_draw", "kernels.refresh_moves",
    "kernels.greedy_select",
)
#: Exact counts the ``TimedKernels`` proxy keeps.
KERNEL_COUNTS = (
    "kernels.batch_weighted_draw.ops", "kernels.refresh_moves.moves",
    "kernels.place_backups.backups",
)


#: About the best time the calibration loop reaches on the baseline host.
CALIBRATION_REFERENCE_S = 0.025

_CALIBRATION_ARRAY = numpy.random.default_rng(0).integers(0, 1 << 30, size=1 << 19)
_CALIBRATION_INDEX = numpy.random.default_rng(1).integers(0, 1 << 19, size=1 << 17)
#: A heap of small objects visited in a fixed random order: the pointer
#: chasing of the program's per-file and per-event Python paths.
_CALIBRATION_OBJECTS = [(index, float(index)) for index in range(1 << 16)]
_CALIBRATION_VISITS = numpy.random.default_rng(2).integers(0, 1 << 16, size=60_000).tolist()


def calibrate() -> float:
    """Seconds a fixed reference loop takes right now.

    The sandbox this benchmark runs in shares its cores and caches: the
    same code runs 1.2x-1.7x slower or faster from one minute to the next,
    far beyond any regression worth gating.  The loop mixes what the
    program's hot paths do -- Python bytecode with dict traffic, pointer
    chasing over a heap of small objects, and numpy sort / gather / scan
    on arrays that do not fit the cache -- so its time tracks the host's
    speed of the moment, and every section of a round is scaled by the
    calibrations taken just before and just after it.
    """
    started = time.perf_counter()
    total = 0
    table: Dict[int, int] = {}
    for index in range(60_000):
        total += index * index
        table[index & 1023] = total
    objects = _CALIBRATION_OBJECTS
    for index in _CALIBRATION_VISITS:
        total += objects[index][0]
    for _ in range(2):
        order = numpy.argsort(_CALIBRATION_ARRAY[: 1 << 16], kind="stable")
        gathered = _CALIBRATION_ARRAY[_CALIBRATION_INDEX]
        numpy.cumsum(gathered, out=gathered)
        numpy.bincount(order & 4095)
    return time.perf_counter() - started


class Round:
    """One round's clock: sections always timed, layer spans only if traced.

    ``sections`` holds *speed-normalised* seconds (raw seconds divided by
    how much slower than the reference the host ran around the section);
    ``raw`` holds the seconds as the clock read them.
    """

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.enabled = recorder.enabled
        self.kernels = TimedKernels(recorder) if recorder.enabled else "vectorized"
        self.span = recorder.span
        self.add_span = recorder.add_span
        self.sections: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self.calibrations = [calibrate()]

    @contextlib.contextmanager
    def section(self, name: str) -> Iterator[None]:
        with self.recorder.span(name, DRIVER):
            started = time.perf_counter()
            yield
            self.raw[name] = time.perf_counter() - started
        self.calibrations.append(calibrate())
        slowdown = sum(self.calibrations[-2:]) / 2 / CALIBRATION_REFERENCE_S
        self.sections[name] = self.raw[name] / slowdown

    @property
    def wall(self) -> float:
        return sum(self.sections[phase] for phase in PHASES)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw[phase] for phase in PHASES)

    @property
    def slowdown(self) -> float:
        """Host slowdown against the reference over the timed region."""
        return self.raw_wall / self.wall


def load_benchmark() -> Mapping[str, object]:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def digest_of(outputs: Mapping[str, object]) -> str:
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


class RunResult:
    """Everything one run measured; ``line()`` is the driver's JSON object."""

    def __init__(self) -> None:
        self.correct = True
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        #: From the untraced rounds (every run has some).
        self.end_to_end: Dict[str, float] = {}
        #: From the traced rounds (traced runs only); idle layers absent.
        self.per_layer: Dict[str, float] = {}
        #: name -> (samples, min, max) for the human-readable listing.
        self.samples: Dict[str, Tuple[int, float, float]] = {}

    def line(self, metrics: Mapping[str, float], units: Mapping[str, str]) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    shape: Optional[Mapping[str, int]] = None,
    pinned: Optional[str] = None,
) -> RunResult:
    """Run rounds of ``workload`` for about ``seconds`` and summarise them.

    The first round is a warm-up (lazy imports, first page faults, cold
    caches): it is checked like any other but not measured.  Untraced runs
    give the end-to-end metrics.  A traced run alternates untraced and
    traced rounds: the traced ones give the per-layer numbers, the pair
    gives the tracing overhead, and both must produce the same digest.
    """
    shape = workload.shape if shape is None else shape
    # Warm-up, then MIN_ROUNDS measured rounds; a traced run needs its
    # MIN_ROUNDS - 1 traced rounds and as many untraced ones to compare with.
    min_rounds = 1 + (2 * (MIN_ROUNDS - 1) if trace else MIN_ROUNDS)
    plain: List[Tuple[Round, Outcome]] = []
    traced: List[Tuple[Round, Outcome, Recorder]] = []
    digests = set()
    invariants: Dict[str, bool] = {}
    result = RunResult()
    began = time.perf_counter()
    durations: List[float] = []
    while True:
        index = len(durations)
        recorder = (
            Recorder(f"{workload.name}-seed{seed}-round{index}")
            if trace and index % 2 == 0 and index > 0
            else NullRecorder()
        )
        gc.collect()
        round_began = time.perf_counter()
        rnd = Round(recorder)
        outcome = workload.run(shape, seed, rnd)
        durations.append(time.perf_counter() - round_began)
        digests.add(digest_of(outcome.outputs))
        invariants.update(outcome.invariants)
        if recorder.enabled:
            traced.append((rnd, outcome, recorder))
        elif index > 0:
            plain.append((rnd, outcome))
        elapsed = time.perf_counter() - began
        if len(durations) >= min_rounds and elapsed + _median(durations) > seconds:
            break

    result.problems += [
        f"invariant violated: {name}" for name, holds in invariants.items() if not holds
    ]
    outcome = plain[0][1]
    result.attempted = outcome.attempted
    result.failed = outcome.failed
    result.digest = sorted(digests)[0]
    if len(digests) != 1:
        result.problems.append(f"rounds of one seed disagree: {len(digests)} digests")
    if pinned is not None and result.digest != pinned:
        result.problems.append(f"digest {result.digest[:16]} != pinned {pinned[:16]}")
    if outcome.failed:
        result.problems.append(f"{outcome.failed} of {outcome.attempted} operations failed")
    result.correct = not result.problems

    series = {
        "setup_s": [rnd.sections["setup"] for rnd, _ in plain],
        "ops_per_s": [out.ops / rnd.wall for rnd, out in plain],
        "phase1_per_s": [out.phase1_ops / rnd.sections["phase1"] for rnd, out in plain],
        "phase2_per_s": [out.phase2_ops / rnd.sections["phase2"] for rnd, out in plain],
    }
    for name, values in series.items():
        result.end_to_end[name] = _median(values)
        result.samples[name] = (len(values), min(values), max(values))
    result.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        result.per_layer = per_layer_metrics(workload, shape, seed, plain, traced)
        write_trace(workload.name, traced)
    return result


def per_layer_metrics(workload, shape, seed, plain, traced) -> Dict[str, float]:
    """The per-layer metrics of the layers this workload enters."""
    per_round: List[Dict[str, float]] = []
    for rnd, outcome, recorder in traced:
        totals = self_times(recorder.spans)
        values: Dict[str, float] = {}
        for name in SPAN_SECONDS:
            if name in totals:
                values[f"{name}_s"] = totals[name].self_s / rnd.slowdown
        for name in SPAN_CALLS:
            if name in totals:
                values[f"{name}.calls"] = totals[name].calls
        for name in KERNEL_COUNTS:
            if name in recorder.counts:
                values[name] = recorder.counts[name]
        keys = recorder.counts.get("kernels.batch_weighted_draw.keys")
        if keys:
            values["kernels.draw_attempts_per_op"] = (
                recorder.counts["kernels.batch_weighted_draw.attempts"] / keys
            )
        events = outcome.counts.get("sim.engine.events_processed")
        if events:
            values["sim.engine.us_per_event"] = (
                1e6 * totals["sim.lifecycle.run"].total_s / rnd.slowdown / events
            )
        by_layer = subtree_self_by_layer(recorder.spans, PHASES)
        values["unattributed_share"] = by_layer.get(DRIVER, 0.0) / rnd.raw_wall
        values["host.calibration_ms"] = 1000.0 * _median(rnd.calibrations)
        values.update(outcome.counts)
        per_round.append(values)

    metrics = {name: _median([values[name] for values in per_round]) for name in per_round[0]}
    metrics["trace_overhead_share"] = (
        _median([rnd.wall for rnd, _, _ in traced]) / _median([rnd.wall for rnd, _ in plain]) - 1.0
    )
    if workload.probes is not None:
        metrics.update(workload.probes(shape, seed))
    return metrics


def write_trace(name: str, traced) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    document = {
        "workload": name,
        "columns": ["span_id", "parent_id", "name", "layer", "start_s", "end_s"],
        "rounds": [
            {"run_id": recorder.run_id, "spans": [list(span) for span in recorder.spans]}
            for _, _, recorder in traced
        ],
    }
    (OUT_DIR / f"trace_{name}.json").write_text(json.dumps(document), encoding="utf-8")


# ----------------------------------------------------------------------
# One run (the driver's contract)
# ----------------------------------------------------------------------
def load_pins() -> Dict[str, Dict[str, str]]:
    if EXPECTED_DIGESTS.exists():
        return json.loads(EXPECTED_DIGESTS.read_text(encoding="utf-8"))
    return {}


def run_once(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in benchmark[group]}
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    pinned = None if args.update_digests else pins.get(workload.name, {}).get(str(args.seed))
    result = measure(workload, args.seed, args.seconds, bool(args.trace), pinned=pinned)

    # Every end-to-end metric must be measured; a per-layer metric of a
    # layer this workload never enters reads 0.
    measured = result.per_layer if args.trace else result.end_to_end
    stray = set(measured) - set(units) if args.trace else set(measured) ^ set(units)
    if stray:
        raise SystemExit(f"metrics measured and BENCHMARK.json disagree on: {sorted(stray)}")
    metrics = {name: float(measured.get(name, 0.0)) for name in units}
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} digest {result.digest}")
    for name, value in metrics.items():
        note = ""
        if name in result.samples and not args.trace:
            count, low, high = result.samples[name]
            note = f"  (median of {count} rounds, min {low:.6g}, max {high:.6g})"
        print(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    if args.update_digests and result.correct:
        pins.setdefault(workload.name, {})[str(args.seed)] = result.digest
        EXPECTED_DIGESTS.write_text(
            json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(result.line(metrics, units))
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# The suite: child runs, one after another
# ----------------------------------------------------------------------
def child_run(name: str, seed: int, seconds: int, trace: int, update: bool) -> Mapping[str, object]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--update-digests"] if update else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name} seed {seed} trace {trace}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    result["digest"] = lines[0].rsplit(" ", 1)[-1]
    return result


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / _median(values)


def run_suite(args: argparse.Namespace, order: Sequence[str]) -> Dict[str, Dict[str, object]]:
    """``--repeats`` untraced runs (seed, seed+1, ...) and one traced run each."""
    suite: Dict[str, Dict[str, object]] = {}
    for name in order:
        runs = [
            child_run(name, args.seed + index, args.seconds, 0, args.update_digests)
            for index in range(args.repeats)
        ]
        traced = child_run(name, args.seed, args.seconds, 1, False)
        if traced["digest"] != runs[0]["digest"]:
            raise SystemExit(f"{name}: traced digest differs from untraced digest")
        end_to_end = {}
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            end_to_end[metric] = {
                "median": _median(values),
                "min": min(values),
                "max": max(values),
                "runs": len(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "unit": runs[0]["metrics"][metric]["unit"],
            }
        suite[name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "digests": {str(args.seed + index): run["digest"] for index, run in enumerate(runs)},
            "attempted": runs[0]["attempted"],
            "failed": sum(run["failed"] for run in runs),
        }
        print(f"== {name}  (attempted {runs[0]['attempted']}, failed {suite[name]['failed']})")
        for metric, stats in end_to_end.items():
            print(
                f"  {metric:40s} {stats['median']:14.6g} {stats['unit']:6s}"
                f" (median of {stats['runs']} runs, min {stats['min']:.6g},"
                f" max {stats['max']:.6g}, spread {100 * stats['spread']:.1f}%)"
            )
        for metric, entry in traced["metrics"].items():
            if entry["value"]:
                print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return suite


def host_fingerprint() -> Dict[str, object]:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def timed_suite(args: argparse.Namespace, order: Sequence[str]) -> Dict[str, Dict[str, object]]:
    """One suite; its wall is printed and ``--out`` gets the ledger."""
    started = time.perf_counter()
    suite = run_suite(args, order)
    wall = time.perf_counter() - started
    print(f"suite wall {wall:.1f} s")
    if args.out:
        ledger = {"host": host_fingerprint(), "seed": args.seed, "seconds": args.seconds,
                  "suite_wall_s": round(wall, 1), "workloads": suite}
        Path(args.out).write_text(
            json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return suite


def check_repeat(args: argparse.Namespace) -> int:
    """Two suites, alternating workload order; every bound must hold.

    ``--out`` gets the first suite's ledger.
    """
    bounds = {metric["name"]: metric for metric in load_benchmark()["end_to_end"]}
    names = list(WORKLOADS)
    first = timed_suite(args, names)
    second = run_suite(args, names[::-1])
    failures: List[str] = []
    for name in names:
        if first[name]["digests"] != second[name]["digests"]:
            failures.append(f"{name}: digests differ between the two suites")
        for metric, bound in bounds.items():
            one, two = first[name]["end_to_end"][metric], second[name]["end_to_end"][metric]
            worse = (two["median"] - one["median"]) / one["median"]
            if bound["better"] == "higher":
                worse = -worse
            wide = max(one["spread"], two["spread"]) if metric != "setup_s" else 0.0
            verdict = "ok"
            if worse > bound["bound"] or wide > bound["bound"]:
                verdict = "FAIL"
                failures.append(
                    f"{name}.{metric}: shift {100 * worse:+.1f}%, spread {100 * wide:.1f}%,"
                    f" bound {100 * bound['bound']:.0f}%"
                )
            print(
                f"{verdict:4s} {name:18s} {metric:14s} medians {one['median']:.6g} -> "
                f"{two['median']:.6g} ({100 * worse:+.1f}% worse), spreads "
                f"{100 * one['spread']:.1f}% / {100 * two['spread']:.1f}%"
            )
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def retain_freed_memory() -> None:
    """Tell glibc malloc to keep freed memory inside the process.

    By default every round gives its large arrays back to the kernel and
    faults them in again; in this sandbox the kernel's share of a
    ``table3_refresh`` round then reads anywhere from 0.3 s to 4.8 s beside
    1.2 s of user time.  With the heap retained, rounds after the first
    take no page faults and the wall clock measures the program.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: measure with the defaults
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: never shrink the heap
    mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD: the largest value glibc takes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one run of this workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (suite: first seed)")
    parser.add_argument("--seconds", type=int, default=None, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5, help="suite: untraced runs per workload")
    parser.add_argument("--out", help="suite: write the ledger (medians, host) to this file")
    parser.add_argument(
        "--check-repeat", action="store_true", help="run the suite twice and compare"
    )
    parser.add_argument(
        "--update-digests", action="store_true", help="pin the digests this run sees"
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = int(load_benchmark()["run_seconds"])
    if args.workload:
        retain_freed_memory()
        return run_once(args)
    if args.check_repeat:
        return check_repeat(args)
    timed_suite(args, list(WORKLOADS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
