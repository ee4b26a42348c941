"""Theorem 1: capacity scalability of FileInsurer.

Theorem 1 bounds the total raw file size storable in the network by
``min{Ns*minCapacity/(2*r1*k), Ns*minCapacity/r2}`` where ``r1`` and
``r2`` depend only on the file size/value distribution.  Under the
assumptions of Section VI-A (bounded per-file value and bounded value per
unit size) both are constants, so the storable size is nearly linear in
the total sector capacity.

This driver evaluates the bound on synthetic file populations, shows the
near-linear growth with ``Ns``, and cross-checks against the protocol
state machine by filling a small deployment until ``File Add`` starts
failing and comparing the achieved raw size with the bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.chain.ledger import Ledger
from repro.core.analysis import (
    FilePopulation,
    scalability_r1,
    scalability_r2,
    theorem1_max_storable_size,
)
from repro.core.columnar import ColumnarProtocol
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolError
from repro.crypto.prng import DeterministicPRNG
from repro.runner.registry import BACKEND_PARAM, ParamSpec, scenario

__all__ = ["synthetic_population", "run_bound_sweep", "run_fill_experiment"]


def synthetic_population(
    n_files: int, mean_size: Optional[float] = None, max_value: int = 4, seed: int = 0,
    min_capacity: int = 64 * (1 << 30), cap_para: float = 10**3,
) -> FilePopulation:
    """A file population with exponential sizes and small integer values.

    The mean file size defaults to ``minCapacity / capPara`` per value unit,
    which is the regime the paper's Section VI-A assumptions describe (the
    average value of a unit size is a bounded constant); this keeps both
    ``r1`` and ``r2`` small constants.
    """
    rng = np.random.default_rng(seed)
    if mean_size is None:
        mean_size = min_capacity / cap_para
    sizes = np.maximum(1, np.round(rng.exponential(mean_size, n_files))).astype(int)
    values = rng.integers(1, max_value + 1, n_files)
    return FilePopulation(sizes=tuple(int(s) for s in sizes), values=tuple(int(v) for v in values))


def run_bound_sweep(
    ns_values: Sequence[float] = (10**3, 10**4, 10**5, 10**6),
    k: int = 20,
    min_capacity: int = 64 * (1 << 30),
    cap_para: float = 10**3,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Theorem 1 bound as a function of Ns for a fixed file distribution."""
    population = synthetic_population(5000, seed=seed, min_capacity=min_capacity, cap_para=cap_para)
    r1 = scalability_r1(population)
    r2 = scalability_r2(population, min_capacity=min_capacity, cap_para=cap_para)
    rows: List[Dict[str, object]] = []
    for ns in ns_values:
        bound = theorem1_max_storable_size(ns, min_capacity, k, r1, r2)
        rows.append(
            {
                "Ns": int(ns),
                "total_capacity_bytes": f"{ns * min_capacity:.3e}",
                "max_storable_bytes": f"{bound:.3e}",
                "capacity_fraction": round(bound / (ns * min_capacity), 4),
            }
        )
    rows.append(
        {
            "Ns": "r1/r2",
            "total_capacity_bytes": f"r1={r1:.3f}",
            "max_storable_bytes": f"r2={r2:.3f}",
            "capacity_fraction": "",
        }
    )
    return rows


def run_fill_experiment(
    n_providers: int = 20,
    k: int = 3,
    file_size_fraction: float = 0.02,
    seed: int = 3,
    backend: Optional[str] = None,
    add_batch: int = 256,
    max_files: int = 100_000,
) -> Dict[str, object]:
    """Fill a real deployment until allocation fails; compare with Theorem 1.

    The fill drives batched, fee-free ``File Add`` (``add_batch`` files per
    kernel call) -- the call pattern the columnar engine is built for, so
    that is the engine it runs on; ``backend`` picks the :mod:`repro.kernels`
    backend for the sector draws.  The result row never records backend or
    batch choices, so ``repro diff`` can assert row identity across kernel
    backends.
    """
    params = ProtocolParams.small_test().scaled(k=k, cap_para=1000.0)
    ledger = Ledger()
    protocol = ColumnarProtocol(
        params=params,
        ledger=ledger,
        prng=DeterministicPRNG.from_int(seed, domain="scalability-exp"),
        health_oracle=lambda sector_id: True,
        auto_prove=True,
        charge_fees=False,
        backend=backend,
    )
    for index in range(n_providers):
        protocol.sector_register(f"prov-{index}", params.min_capacity)

    file_size = int(params.min_capacity * file_size_fraction)
    stored_raw_bytes = 0
    stored_files = 0
    while stored_files < max_files:
        batch = min(add_batch, max_files - stored_files)
        try:
            file_ids = protocol.file_add_batch(
                "client", [file_size] * batch, [1] * batch, b"\x00" * 32
            )
        except ProtocolError:
            # The network refused the file: a design limit (value cap or
            # the redundant-capacity budget) has been reached.
            break
        protocol.confirm_batch(file_ids)
        placed = [
            fid for fid in file_ids
            if protocol.files[fid].state != FileState.FAILED
        ]
        stored_files += len(placed)
        stored_raw_bytes += len(placed) * file_size
        if len(placed) < batch:
            # Admission truncated the batch or placement failed: the
            # network is full.
            break

    # Every stored file is identical, and r1/r2 are ratios of per-file sums,
    # so a single-element population evaluates to exactly the same constants
    # without materialising a million-entry tuple.
    population = FilePopulation(sizes=(file_size,), values=(1,))
    r1 = scalability_r1(population)
    r2 = scalability_r2(population, min_capacity=params.min_capacity, cap_para=params.cap_para)
    bound = theorem1_max_storable_size(n_providers, params.min_capacity, params.k, r1, r2)
    total_capacity = n_providers * params.min_capacity
    return {
        "providers": n_providers,
        "k": params.k,
        "stored_files": stored_files,
        "stored_raw_bytes": stored_raw_bytes,
        "replica_bytes": stored_raw_bytes * params.k,
        "total_capacity": total_capacity,
        "replica_fill_fraction": round(stored_raw_bytes * params.k / total_capacity, 3),
        "theorem1_bound_bytes": int(bound),
        "within_bound": stored_raw_bytes <= bound + file_size,
    }


# ----------------------------------------------------------------------
# Runner scenario: fill-until-failure at several network sizes
# ----------------------------------------------------------------------
_SCENARIO_PARAMS = {
    "providers": ParamSpec((10, 20), "network sizes for the fill experiment", "[1, inf)"),
    "k": ParamSpec(3, "replicas per file", "[1, inf)"),
    "file_size_fraction": ParamSpec(0.02, "file size as a fraction of minCapacity", "(0, 1]"),
    "backend": BACKEND_PARAM,
    "add_batch": ParamSpec(256, "files per batched File Add", "[1, inf)"),
    "max_files": ParamSpec(100_000, "stop each fill after this many stored files", "[1, inf)"),
}


#: The parameters every fill hands to :func:`run_fill_experiment`.
_FILL_ARGS = ("k", "file_size_fraction", "backend", "add_batch", "max_files")


def _build_trials(params):
    """One fill-until-failure deployment per network size."""
    return [
        {"n_providers": n_providers, **{key: params[key] for key in _FILL_ARGS}}
        for n_providers in params["providers"]
    ]


def _aggregate(rows, params):
    """Verdict over the fills: every deployment stayed within Theorem 1."""
    return [
        {
            "metric": "deployments within Theorem 1 bound",
            "value": f"{sum(1 for row in rows if row['within_bound'])}/{len(rows)}",
        },
        {
            "metric": "max replica fill fraction",
            "value": max(float(row["replica_fill_fraction"]) for row in rows),
        },
    ]


@scenario(
    "scalability",
    "Theorem 1: fill a deployment until File Add fails; compare with the bound",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("theorem1", "protocol"),
)
def _scalability_trial(task) -> Dict[str, object]:
    """Fill one deployment until allocation fails."""
    return run_fill_experiment(
        n_providers=task["n_providers"],
        seed=task["seed"],
        **{key: task[key] for key in _FILL_ARGS},
    )
