"""Benchmark: the columnar protocol engine vs the object-per-record spec.

Records the speedup of the structure-of-arrays engine: batched ``File
Add`` placement and the masked proof-round sweep -- on a healthy network
and again after 2 % of the sectors crashed -- against the per-file
paths of the spec in ``tests/oracles/protocol.py`` (the "object" engine) at the pinned deployment shape (10^5 files over
10^4 providers; set ``REPRO_BENCH_XL=1`` for the paper-scale 10^6 files /
10^5 providers trial).  The object engine is measured on a capped slice
of the same deployment -- its per-file cost is flat, so the per-file
walls compare directly.

The ratios are *recorded*, not asserted: a ratio against a deliberately
slow oracle moves when the oracle does, and these three flaked tier-1
for that reason.  The absolute gates on the same paths are the e2e
ledger's ``fill_prove`` ``phase1_per_s`` / ``phase2_per_s`` and
``refresh_storm`` ``phase2_per_s`` (``benchmarks/e2e``); what this
module asserts is that the two engines, driven through the same script
at the same shape, end in the same state.

The module doubles as the ``BENCH_protocol.json`` artifact writer for the
bench-smoke CI job (``repro perf record`` understands the artifact)::

    PYTHONPATH=src python benchmarks/test_bench_protocol_columnar.py --out BENCH_protocol.json

or run the checks alone::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_protocol_columnar.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.harness import deploy  # noqa: E402

ROOT = b"\x09" * 32

#: Pinned shapes.  ``object_cap`` bounds the object-engine slice: its
#: per-file cost is flat, so a few thousand files give a stable per-file
#: wall without spending minutes in the baseline.
SCALES = {
    "default": dict(files=100_000, providers=10_000, object_cap=4_000),
    "xl": dict(files=1_000_000, providers=100_000, object_cap=4_000),
}

FILE_SIZE = 8 * 1024
ADD_BATCH = 10_000

#: Timed runs per engine; the speedups compare the fastest of each.
ROUNDS = 3

#: The degraded round crashes every ``CRASH_STRIDE``-th sector (2 %).
CRASH_STRIDE = 50


def run_engine(engine: str, providers: int, files: int):
    """Fill ``files`` files, run one proof round, crash 2 % of the sectors
    and run another; returns the walls and the deterministic ``outcome``."""
    # avg_refresh is the *mean* countdown (SampleExp(AvgRefresh)): 50
    # proof cycles between refreshes, so the proof round measures the
    # sweep itself, not the per-file refresh fallback; cap_para 100
    # keeps the value cap clear of the file count.  Refresh-target draws
    # are prefetched: the draw sequence depends on draw_batch, so both
    # engines use the same value and stay state-identical.
    protocol = deploy(
        engine, providers=providers, capacity_mb=1, backend="vectorized",
        draw_batch=64, seed=17, cap_para=100.0, avg_refresh=50.0,
    )
    started = time.perf_counter()
    added = 0
    while added < files:
        batch = min(ADD_BATCH, files - added)
        ids = protocol.file_add_batch(
            "client", [FILE_SIZE] * batch, [1] * batch, ROOT
        )
        protocol.confirm_batch(ids)
        added += len(ids)
    add_wall = time.perf_counter() - started

    # Drain CheckAlloc, then time one full CheckProof round over every file.
    deadline = protocol.pending.peek_time()
    protocol.advance_time(deadline)
    assert protocol.files_stored == files
    started = time.perf_counter()
    protocol.advance_time(deadline + protocol.params.proof_cycle + 1.0)
    proof_wall = time.perf_counter() - started

    # The same round on a degraded network: files with a corrupted replica
    # stay in the sweep, lost ones leave it one by one.  The providers
    # confirm the healthy round's refreshes first, so the cycle completes
    # them instead of timing each one out seven times over.
    for notice in protocol.refresh_notices:
        protocol.file_confirm(
            protocol.sectors[notice.target_sector].owner,
            notice.file_id,
            notice.replica_index,
            notice.target_sector,
        )
    for sector_id in list(protocol.sectors)[::CRASH_STRIDE]:
        protocol.crash_sector(sector_id)
    started = time.perf_counter()
    protocol.advance_time(protocol.now + protocol.params.proof_cycle)
    degraded_wall = time.perf_counter() - started

    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "files": files,
        "outcome": {
            "files_stored": protocol.files_stored,
            "files_lost": protocol.files_lost,
            "refresh_notices": len(protocol.refresh_notices),
            "samples": protocol.selector.samples,
            "collisions": protocol.selector.collisions,
            "pending": len(protocol.pending),
        },
        "add_wall_s": round(add_wall, 6),
        "add_files_per_s": round(files / add_wall, 1),
        "proof_wall_s": round(proof_wall, 6),
        "proof_files_per_s": round(files / proof_wall, 1),
        "degraded_wall_s": round(degraded_wall, 6),
        "degraded_files_per_s": round(files / degraded_wall, 1),
        "max_rss_mb": round(max_rss_mb, 1),
    }


def fastest(runs):
    """One engine's runs folded to the fastest wall of each phase."""
    best = dict(runs[0], max_rss_mb=max(run["max_rss_mb"] for run in runs))
    for phase in ("add", "proof", "degraded"):
        wall = min(run[f"{phase}_wall_s"] for run in runs)
        best[f"{phase}_wall_s"] = wall
        best[f"{phase}_files_per_s"] = round(best["files"] / wall, 1)
    return best


def run_bench(scale: str = "default"):
    """Both engines at ``scale``; the object engine on its capped slice.

    Each engine is timed ``ROUNDS`` times, the two interleaved, and the
    speedups are ratios of the per-phase minima: the object side of File
    Add is a 0.1 s window, and one stall of a shared host inside it
    would otherwise set the recorded ratio.
    """
    shape = SCALES[scale]
    object_files = min(shape["object_cap"], shape["files"])
    columnar_runs, object_runs = [], []
    for _ in range(ROUNDS):
        columnar_runs.append(run_engine("columnar", shape["providers"], shape["files"]))
        object_runs.append(run_engine("object", shape["providers"], object_files))
    columnar, reference = fastest(columnar_runs), fastest(object_runs)
    speedup = {
        "file_add": round(
            columnar["add_files_per_s"] / reference["add_files_per_s"], 2
        ),
        "proof_round": round(
            columnar["proof_files_per_s"] / reference["proof_files_per_s"], 2
        ),
        "degraded_round": round(
            columnar["degraded_files_per_s"] / reference["degraded_files_per_s"], 2
        ),
    }
    return {
        "kind": "protocol_columnar_bench",
        "scale": scale,
        "providers": shape["providers"],
        "k": 3,
        "add_batch": ADD_BATCH,
        "file_size": FILE_SIZE,
        "rounds": ROUNDS,
        "columnar": columnar,
        "object": reference,
        "speedup": speedup,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def bench_scale():
    return "xl" if os.environ.get("REPRO_BENCH_XL") else "default"


# ----------------------------------------------------------------------
# pytest checks
# ----------------------------------------------------------------------
def test_columnar_speedups_recorded(record):
    artifact = run_bench(bench_scale())
    columnar, reference = artifact["columnar"], artifact["object"]
    for label, phase, rate in (
        ("File Add", "file_add", "add_files_per_s"),
        ("proof round", "proof_round", "proof_files_per_s"),
        ("degraded proof round", "degraded_round", "degraded_files_per_s"),
    ):
        record(
            f"columnar {label} [{artifact['scale']}]",
            f"{columnar[rate]:,.0f} files/s "
            f"({artifact['speedup'][phase]:.1f}x object)",
            "recorded (gated in the e2e ledger)",
        )
    assert columnar["files"] == SCALES[artifact["scale"]]["files"]
    assert reference["files"] > 0
    # The columnar run keeps peak RSS bounded even at the XL scale.
    assert columnar["max_rss_mb"] < 8192


def test_engines_reach_the_same_outcome_at_the_same_shape():
    """Same script, same shape, both engines: same stored/lost files,
    refresh notices, sampler draws and pending tasks."""
    artifact = _small_artifact()
    assert artifact["columnar"]["outcome"] == artifact["object"]["outcome"]
    assert artifact["columnar"]["outcome"]["files_stored"] == 1_000


def test_artifact_feeds_perf_history(tmp_path):
    """The artifact round-trips through ``repro perf record``'s adapter."""
    from repro.telemetry import history

    artifact = _small_artifact()
    entries = history.entries_from_artifact(artifact, version="bench")
    names = {(entry["bench"], entry["backend"]) for entry in entries}
    assert names == {
        ("protocol.file_add", "columnar"),
        ("protocol.proof_round", "columnar"),
        ("protocol.degraded_round", "columnar"),
        ("protocol.file_add", "object"),
        ("protocol.proof_round", "object"),
        ("protocol.degraded_round", "object"),
    }
    target = tmp_path / "history.jsonl"
    history.append_entries(target, entries)
    assert len(history.load_history(target)) == len(entries)


def _small_artifact():
    """A miniature artifact for the adapter test (seconds, not minutes)."""
    return {
        "kind": "protocol_columnar_bench",
        "scale": "small",
        "providers": 200,
        "k": 3,
        "add_batch": ADD_BATCH,
        "columnar": run_engine("columnar", 200, 1_000),
        "object": run_engine("object", 200, 1_000),
    }


# ----------------------------------------------------------------------
# artifact writer (bench-smoke CI)
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_protocol.json", help="artifact path")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=bench_scale(),
        help="deployment shape (default honours $REPRO_BENCH_XL)",
    )
    args = parser.parse_args(argv)

    artifact = run_bench(args.scale)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    columnar, reference = artifact["columnar"], artifact["object"]
    print(
        f"columnar[{args.scale}]: add {columnar['add_files_per_s']:,.0f} files/s, "
        f"proof {columnar['proof_files_per_s']:,.0f} files/s, "
        f"degraded {columnar['degraded_files_per_s']:,.0f} files/s, "
        f"rss {columnar['max_rss_mb']:.0f} MB | object slice "
        f"({reference['files']} files): add {reference['add_files_per_s']:,.0f}, "
        f"proof {reference['proof_files_per_s']:,.0f}, "
        f"degraded {reference['degraded_files_per_s']:,.0f} | speedup "
        f"add {artifact['speedup']['file_add']:.1f}x, "
        f"proof {artifact['speedup']['proof_round']:.1f}x, "
        f"degraded {artifact['speedup']['degraded_round']:.1f}x (recorded, not gated)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
