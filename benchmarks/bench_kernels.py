"""Kernel benchmark artifact: reference vs vectorized, as JSON.

Times the three extracted hot loops -- Table III refresh churn, the
Section V-C greedy adversary, and ``RandomSector()`` batched weighted
draws (one draw request, and File Add's one long place run) -- on both
:mod:`repro.kernels` backends at the pinned benchmark
shapes (defined once in :mod:`kernel_shapes`, shared with the pytest
gates), verifies the backends agree (identical ``PlacementResult`` /
identical chosen sector sets in both placement forms / identical
drawn-key sequences), and writes a machine-readable
``BENCH_kernels.json`` for the CI `bench-smoke` job to upload.  Exits
non-zero when the vectorized backend is not faster than reference on any
kernel, or when the refresh or sampler speedup (either request form)
misses its acceptance bar; the array-placement attack
(``greedy_array_placements``, vectorized only -- the rescanning oracle
does not finish that shape in seconds) and the two paper-scale refresh
shapes (``refresh_paper_ratio``, ``refresh_many_sectors``: vectorized
moves/s) are recorded, not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py --out BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from kernel_shapes import (  # noqa: E402
    ADVERSARY_BUDGET,
    ADVERSARY_N_FILES,
    ADVERSARY_N_SECTORS,
    ADVERSARY_REPLICAS,
    FILE_ADD_N_SLOTS,
    FILE_ADD_PLACES,
    FILE_ADD_SIZE,
    GREEDY_ARRAY_BUDGET,
    GREEDY_ARRAY_N_FILES,
    GREEDY_ARRAY_N_SECTORS,
    GREEDY_ARRAY_REPLICAS,
    MIN_REFRESH_SPEEDUP,
    MIN_SAMPLER_SPEEDUP,
    REFRESH_MULTIPLIER,
    REFRESH_N_BACKUPS,
    REFRESH_N_SECTORS,
    REFRESH_SCALE_N_BACKUPS,
    REFRESH_SCALE_SHAPES,
    SAMPLER_DRAWS,
    SAMPLER_N_SLOTS,
    best_wall,
    run_file_add,
    run_greedy,
    run_greedy_array_placements,
    run_refresh,
    run_refresh_scale,
    run_sampler,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernels.json", help="artifact path")
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N wall per backend (default 3)"
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="JSONL",
        help="perf-history file to append the walls to (default: "
        "$REPRO_PERF_HISTORY or runs/perf-history.jsonl; 'none' disables)",
    )
    args = parser.parse_args(argv)

    # Correctness first: the artifact is meaningless if the backends drift.
    assert run_refresh("reference") == run_refresh("vectorized"), (
        "refresh kernels disagree between backends"
    )
    assert (
        run_greedy("reference")
        == run_greedy("vectorized")
        == run_greedy("reference", as_array=True)
        == run_greedy("vectorized", as_array=True)
    ), "greedy kernels disagree between backends or placement forms"
    assert run_sampler("reference") == run_sampler("vectorized"), (
        "batch_weighted_draw kernels disagree between backends"
    )
    assert run_file_add("reference") == run_file_add("vectorized"), (
        "the File Add place run disagrees between backends"
    )

    results: Dict[str, Dict[str, float]] = {}
    for kernel, run in (
        ("refresh", run_refresh),
        ("greedy_adversary", run_greedy),
        ("batch_weighted_draw", run_sampler),
        ("file_add_place_run", run_file_add),
    ):
        walls = {
            backend: best_wall(lambda: run(backend), args.repeats)
            for backend in ("reference", "vectorized")
        }
        results[kernel] = {
            "reference_seconds": round(walls["reference"], 6),
            "vectorized_seconds": round(walls["vectorized"], 6),
            "speedup": round(walls["reference"] / walls["vectorized"], 2),
        }
    for backend in ("reference", "vectorized"):
        seconds = results["file_add_place_run"][f"{backend}_seconds"]
        results["file_add_place_run"][f"{backend}_draws_per_s"] = round(
            FILE_ADD_PLACES / seconds
        )

    attack_seconds = best_wall(run_greedy_array_placements, args.repeats)
    results["greedy_array_placements"] = {
        "vectorized_seconds": round(attack_seconds, 6),
        "vectorized_replicas_per_s": round(
            GREEDY_ARRAY_N_FILES * GREEDY_ARRAY_REPLICAS / attack_seconds
        ),
    }

    for shape, n_sectors in REFRESH_SCALE_SHAPES.items():
        seconds = best_wall(lambda: run_refresh_scale(n_sectors), args.repeats)
        results[shape] = {
            "vectorized_seconds": round(seconds, 6),
            "vectorized_moves_per_s": round(REFRESH_SCALE_N_BACKUPS / seconds),
        }

    artifact = {
        "shapes": {
            "refresh": {
                "n_backups": REFRESH_N_BACKUPS,
                "n_sectors": REFRESH_N_SECTORS,
                "refresh_multiplier": REFRESH_MULTIPLIER,
            },
            **{
                shape: {
                    "n_backups": REFRESH_SCALE_N_BACKUPS,
                    "n_sectors": n_sectors,
                    "refresh_multiplier": 1,
                }
                for shape, n_sectors in REFRESH_SCALE_SHAPES.items()
            },
            "greedy_adversary": {
                "n_sectors": ADVERSARY_N_SECTORS,
                "n_files": ADVERSARY_N_FILES,
                "replicas": ADVERSARY_REPLICAS,
                "budget": ADVERSARY_BUDGET,
            },
            "greedy_array_placements": {
                "n_sectors": GREEDY_ARRAY_N_SECTORS,
                "n_files": GREEDY_ARRAY_N_FILES,
                "replicas": GREEDY_ARRAY_REPLICAS,
                "budget": GREEDY_ARRAY_BUDGET,
            },
            "batch_weighted_draw": {
                "n_slots": SAMPLER_N_SLOTS,
                "draws": SAMPLER_DRAWS,
            },
            "file_add_place_run": {
                "n_slots": FILE_ADD_N_SLOTS,
                "places": FILE_ADD_PLACES,
                "size": FILE_ADD_SIZE,
            },
        },
        "results": results,
        "acceptance": {
            "refresh_min_speedup": MIN_REFRESH_SPEEDUP,
            "greedy_min_speedup": 1.0,
            "sampler_min_speedup": MIN_SAMPLER_SPEEDUP,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for kernel, row in results.items():
        if "reference_seconds" not in row:
            print(f"{kernel}: vectorized {row['vectorized_seconds'] * 1000:.1f}ms")
            continue
        print(
            f"{kernel}: reference {row['reference_seconds'] * 1000:.1f}ms, "
            f"vectorized {row['vectorized_seconds'] * 1000:.1f}ms "
            f"-> {row['speedup']}x"
        )
    print(f"artifact written to {args.out}")

    # Append the walls to the persistent perf history so `repro perf
    # report|check` can trend them across runs.  Best-effort: a read-only
    # checkout must not fail the bench.
    from repro.telemetry import history

    if args.history is None or args.history.strip().lower() != "none":
        target = args.history or history.default_history_path()
        try:
            entries = history.entries_from_artifact(artifact, source=args.out)
            history.append_entries(target, entries)
            print(f"perf history: {len(entries)} entries appended to {target}")
        except OSError as error:
            print(f"warning: perf history not recorded ({error})", file=sys.stderr)

    failed = []
    if results["refresh"]["speedup"] < MIN_REFRESH_SPEEDUP:
        failed.append(
            f"refresh speedup {results['refresh']['speedup']}x "
            f"< {MIN_REFRESH_SPEEDUP}x"
        )
    if results["greedy_adversary"]["speedup"] <= 1.0:
        failed.append(
            "greedy_adversary: vectorized is not faster than reference "
            f"({results['greedy_adversary']['speedup']}x)"
        )
    for kernel in ("batch_weighted_draw", "file_add_place_run"):
        if results[kernel]["speedup"] < MIN_SAMPLER_SPEEDUP:
            failed.append(
                f"{kernel} speedup {results[kernel]['speedup']}x "
                f"< {MIN_SAMPLER_SPEEDUP}x"
            )
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
