"""``segmentation`` scenario: the Section VI-C large-file sweep.

Files comparable in size to sector capacities break storage randomness:
their allocations can fail to find space, and a single loss wipes out a
large value.  Section VI-C's remedy is to split anything above
``sizeLimit`` into Reed-Solomon coded segments, each stored as an
individual file with value ``2 * value / n`` so compensation still covers
the whole file whenever it becomes unrecoverable.

This scenario sweeps a grid over

* ``size_ratios`` -- the file-size / sector-capacity ratio, and
* ``limit_fractions`` -- ``sizeLimit`` as a fraction of sector capacity,
  which together determine the realised Reed-Solomon ``(k, n) = (m, 2m)``
  geometry via :meth:`LargeFileCodec.plan_segments`;

and measures, per grid cell:

* ``alloc_fail_raw`` vs ``alloc_fail_seg`` -- Monte-Carlo allocation
  failure rates for whole files vs their segments under random placement
  with the protocol's retry-on-collision behaviour;
* ``coverage_min`` -- worst-case compensation coverage at the exact loss
  threshold (``> n - k`` segments lost): ``(n - k + 1) * segment_value /
  value``, which Section VI-C requires to stay at or above 1;
* ``overhead`` -- stored bytes per raw byte (the 2x redundancy plus
  framing); and a real split / drop-half / reassemble round-trip through
  :class:`~repro.crypto.erasure.ReedSolomonCode` as an integrity check.

Both placement arms run as single ``batch_weighted_draw`` calls on
:mod:`repro.kernels`: uniform draws with retry-on-collision ``place``
semantics, bit-identical on the kernel oracle.

Registered with :mod:`repro.runner` as ``segmentation``; run it with::

    python -m repro run segmentation --workers 4 --set size_ratios=0.5,2,8
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping

import numpy as np

from repro.core.large_files import LargeFileCodec
from repro.crypto.erasure import ReedSolomonCode
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import get_backend, sampler_stream
from repro.runner.aggregate import compact_summary, summarize
from repro.runner.registry import ParamSpec, scenario
from repro.sim.workload import FileSizeDistribution, WorkloadGenerator

__all__ = ["run_segmentation_trial"]

_SCENARIO_PARAMS = {
    "size_ratios": ParamSpec(
        (0.5, 1.0, 2.0, 4.0), "mean file size as a multiple of sector capacity", "(0, inf)"
    ),
    "limit_fractions": ParamSpec(
        (0.25, 0.5), "sizeLimit as a fraction of sector capacity", "(0, inf)"
    ),
    "sector_kib": ParamSpec(64, "sector capacity in KiB", "[1, inf)"),
    "min_sectors": ParamSpec(16, "floor on sectors in the placement simulation", "[0, inf)"),
    "n_files": ParamSpec(24, "files sampled per trial", "[1, inf)"),
    "replicas": ParamSpec(3, "replicas placed per (segment or whole-file) unit", "[1, inf)"),
    "retries": ParamSpec(3, "re-draws allowed when a placement collides", "[0, inf)"),
    "value": ParamSpec(4, "value of each sampled file (token units)", "[1, inf)"),
    "trials": ParamSpec(2, "independent repetitions per grid cell", "[1, inf)"),
}

#: Spawn-key constants separating the two placement arms' draw streams.
_RAW_ARM, _SEG_ARM = 1, 2


def _build_trials(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """One trial per (size ratio, limit fraction, repetition)."""
    template = {
        key: params[key]
        for key in _SCENARIO_PARAMS
        if key not in ("size_ratios", "limit_fractions", "trials")
    }
    return [
        {**template, "size_ratio": float(ratio), "limit_fraction": float(fraction)}
        for ratio in params["size_ratios"]  # type: ignore[attr-defined]
        for fraction in params["limit_fractions"]  # type: ignore[attr-defined]
        for _ in range(int(params["trials"]))  # type: ignore[call-overload]
    ]


def _place_units(
    unit_sizes: List[int],
    replicas: int,
    sector_capacity: int,
    min_sectors: int,
    retries: int,
    rng: "np.random.Generator",
) -> int:
    """Randomly place replica units into capacity-tracked sectors.

    The sector pool is sized to the protocol's redundancy admission rule
    (total capacity at least twice the replica bytes, Section IV-C), so the
    two arms of the experiment -- whole files vs segments -- face the same
    relative load and failures measure *fit granularity*, not overload.
    Placement mirrors the selector: draw a uniformly random sector, retry
    on a collision (not enough free space), give up after ``retries``
    re-draws.  The whole arm is a single ``batch_weighted_draw`` call --
    equal weights make the draws uniform,
    ``("place", ...)`` operations carry the retry-on-collision semantics,
    and the kernel's free-table debits track the filling sectors.
    Returns how many replica placements failed.
    """
    load = sum(unit_sizes) * replicas
    n_sectors = max(min_sectors, math.ceil(2 * load / sector_capacity))
    sizes = np.repeat(np.asarray(unit_sizes, dtype=np.int64), replicas)
    ops = [("place", sizes, retries + 1)]
    result = get_backend().batch_weighted_draw(
        rng,
        np.ones(n_sectors, dtype=np.int64),
        ops,
        free=np.full(n_sectors, sector_capacity, dtype=np.int64),
    )
    return int(np.count_nonzero(result.keys < 0))


def run_segmentation_trial(task: Mapping[str, object]) -> Dict[str, object]:
    """One grid cell: sample files, plan segments, place, and round-trip."""
    seed = int(task["seed"])  # type: ignore[arg-type]
    sector_capacity = int(task["sector_kib"]) << 10  # type: ignore[arg-type]
    size_limit = max(1, int(float(task["limit_fraction"]) * sector_capacity))  # type: ignore[arg-type]
    mean_size = max(1, int(float(task["size_ratio"]) * sector_capacity))  # type: ignore[arg-type]
    value = int(task["value"])  # type: ignore[arg-type]
    min_sectors = int(task["min_sectors"])  # type: ignore[arg-type]
    replicas = int(task["replicas"])  # type: ignore[arg-type]
    retries = int(task["retries"])  # type: ignore[arg-type]

    generator = WorkloadGenerator(seed=seed % (2**32))
    sizes = [
        request.size
        for request in generator.file_requests(
            count=int(task["n_files"]),  # type: ignore[arg-type]
            mean_size=mean_size,
            distribution=FileSizeDistribution.EXPONENTIAL,
            max_size=8 * sector_capacity,
        )
    ]

    raw_units: List[int] = []
    segment_units: List[int] = []
    data_segments_total = 0
    total_segments_total = 0
    stored_bytes = 0
    raw_bytes = 0
    coverage_min = math.inf
    for size in sizes:
        raw_units.append(size)
        raw_bytes += size
        codec = LargeFileCodec(size_limit=size_limit, k=1)
        if not codec.needs_segmentation(size):
            segment_units.append(size)
            stored_bytes += size
            data_segments_total += 1
            total_segments_total += 1
            coverage_min = min(coverage_min, 1.0)  # unsegmented: full compensation
            continue
        k_data, n_total = codec.plan_segments(size)
        # Per-segment value 2*value/n: losing the minimum unrecoverable set
        # (n - k + 1 segments) must already compensate the whole value.
        codec = LargeFileCodec(size_limit=size_limit, k=n_total)
        segment_value = codec.segment_value(value)
        coverage = (n_total - k_data + 1) * segment_value / value
        coverage_min = min(coverage_min, coverage)
        # Shard size as the real codec produces it (length framing and
        # padding included); parity shards share the data shards' length
        # and a parity-free encode is a pure slicing operation.
        segment_size = len(ReedSolomonCode(k_data, 0).encode(bytes(size))[0].data)
        segment_units.extend([segment_size] * n_total)
        stored_bytes += segment_size * n_total
        data_segments_total += k_data
        total_segments_total += n_total

    raw_failures = _place_units(
        raw_units, replicas, sector_capacity, min_sectors, retries,
        sampler_stream(seed, _RAW_ARM),
    )
    seg_failures = _place_units(
        segment_units, replicas, sector_capacity, min_sectors, retries,
        sampler_stream(seed, _SEG_ARM),
    )
    prng = DeterministicPRNG.from_int(seed, domain="segmentation-placement")

    # Integrity: a real split -> lose half the segments -> reassemble, at
    # the cell's RS geometry but on a small probe so GF(256) math stays cheap.
    m_probe = max(2, min(4, math.ceil(mean_size / size_limit)))
    probe_limit = 512
    probe = prng.spawn("probe").random_bytes(probe_limit * m_probe)
    probe_codec = LargeFileCodec(size_limit=probe_limit, k=2 * m_probe)
    segmented = probe_codec.split(probe, value)
    keep = list(segmented.segments)[1::2]  # exactly half the segments survive
    try:
        roundtrip_ok = probe_codec.reassemble(segmented, keep) == probe
    except ValueError:
        roundtrip_ok = False

    n_files = max(1, len(sizes))
    return {
        "size_ratio": float(task["size_ratio"]),  # type: ignore[arg-type]
        "limit_fraction": float(task["limit_fraction"]),  # type: ignore[arg-type]
        "rs_k_mean": round(data_segments_total / n_files, 2),
        "rs_n_mean": round(total_segments_total / n_files, 2),
        "alloc_fail_raw": round(raw_failures / max(1, len(raw_units) * replicas), 4),
        "alloc_fail_seg": round(seg_failures / max(1, len(segment_units) * replicas), 4),
        "coverage_min": round(coverage_min if coverage_min != math.inf else 1.0, 4),
        "overhead": round(stored_bytes / max(1, raw_bytes), 3),
        "roundtrip_ok": bool(roundtrip_ok),
    }


def _aggregate(rows, params):
    """Grid-cell means: failure rates, coverage floor, storage overhead."""
    summary = summarize(
        rows,
        group_by=("size_ratio", "limit_fraction"),
        values=("alloc_fail_raw", "alloc_fail_seg", "coverage_min", "overhead", "roundtrip_ok"),
    )
    for row in summary:
        row["covered"] = float(row["coverage_min_min"]) >= 1.0  # type: ignore[arg-type]
        # Surface the RS round-trip integrity check in the summary so a
        # codec regression is visible even in --quiet runs.
        row["roundtrip_ok"] = float(row["roundtrip_ok_min"]) >= 1.0  # type: ignore[arg-type]
    summary = compact_summary(summary, keep=("mean", "ci95"))
    for row in summary:
        for stat in ("roundtrip_ok_mean", "roundtrip_ok_ci95"):
            row.pop(stat, None)
    return summary


scenario(
    "segmentation",
    "Large-file sweep: allocation failures and compensation coverage vs RS geometry",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("workload", "large-files", "erasure"),
)(run_segmentation_trial)
