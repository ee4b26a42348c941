"""Theorem 2: probability that any sector's free capacity drops below 1/8.

The paper shows, for equal-size files under the redundant-capacity
assumption, ``Pr[exists s: freeCap <= capacity/8] <= Ns *
exp(-0.144*capacity/size)`` and notes that for ``capacity/size >= 1000``
and ``Ns <= 1e12`` the bound is below 1e-50.  The ``collision`` scenario
checks the bound against a Monte-Carlo placement at small ratios (where
events are actually observable); :func:`run_bound_sweep` evaluates it
across a sweep of capacity/size ratios, showing how quickly the collision
probability vanishes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.analysis import theorem2_collision_probability_bound
from repro.runner.registry import ParamSpec, scenario

__all__ = ["run_bound_sweep"]


def run_bound_sweep(
    ns: float = 10**6,
    ratios: Sequence[float] = (10, 50, 100, 200, 500, 1000, 2000),
) -> List[Dict[str, object]]:
    """Evaluate the Theorem 2 bound across capacity/size ratios."""
    rows: List[Dict[str, object]] = []
    for ratio in ratios:
        bound = theorem2_collision_probability_bound(
            ns=ns, sector_capacity=int(ratio), file_size=1
        )
        rows.append(
            {
                "capacity/size": ratio,
                "Ns": int(ns),
                "theorem2_bound": f"{bound:.3e}",
            }
        )
    return rows


# ----------------------------------------------------------------------
# Runner scenario: each ratio's trials split into independent batches
# ----------------------------------------------------------------------
_SCENARIO_PARAMS = {
    "ratios": ParamSpec((8, 16, 32, 64), "capacity/size ratios to test", "[1, inf)"),
    "n_sectors": ParamSpec(200, "sectors per placement", "[1, inf)"),
    "trials": ParamSpec(200, "Monte-Carlo placements per ratio", "[1, inf)"),
    "batches": ParamSpec(4, "independent batches each ratio's trials split into", "[1, inf)"),
}


def _build_trials(params):
    """Split every ratio's Monte-Carlo trials into independent batches."""
    total = params["trials"]
    batches = min(params["batches"], total)
    base, remainder = divmod(total, batches)
    sizes = [base + (1 if index < remainder else 0) for index in range(batches)]
    return [
        {"ratio": ratio, "n_sectors": params["n_sectors"], "trials": size}
        for ratio in params["ratios"]
        for size in sizes
    ]


def _aggregate(rows, params):
    """Merge batches per ratio and compare with the analytic bound."""
    summary: List[Dict[str, object]] = []
    for ratio in params["ratios"]:
        batch_rows = [row for row in rows if row["capacity/size"] == ratio]
        hits = sum(int(row["hits"]) for row in batch_rows)
        trials = sum(int(row["trials"]) for row in batch_rows)
        bound = theorem2_collision_probability_bound(
            ns=params["n_sectors"], sector_capacity=ratio, file_size=1
        )
        empirical = hits / trials if trials else 0.0
        summary.append(
            {
                "capacity/size": ratio,
                "Ns": params["n_sectors"],
                "trials": trials,
                "empirical_prob": round(empirical, 4),
                "theorem2_bound": f"{min(bound, 1.0):.3e}",
                "bound_holds": empirical <= min(bound, 1.0) + 1e-12,
            }
        )
    return summary


@scenario(
    "collision",
    "Theorem 2: empirical collision probability vs the analytic bound",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("theorem2", "monte-carlo"),
)
def _collision_trial(task) -> Dict[str, object]:
    """Count Theorem 2 events in one batch of random placements.

    Each placement puts ``n_sectors * ratio / 2`` equal-size backups
    (redundant capacity = 2x) uniformly into ``n_sectors`` sectors of
    capacity ``ratio`` files; it is a hit when some sector ends with free
    capacity at or below 1/8 of its capacity.
    """
    rng = np.random.default_rng(task["seed"])
    ratio = task["ratio"]
    n_sectors = task["n_sectors"]
    backups = n_sectors * ratio // 2
    threshold = ratio - ratio / 8.0  # used space making freeCap <= capacity/8
    hits = 0
    for _ in range(task["trials"]):
        assignment = rng.integers(0, n_sectors, backups)
        usage = np.bincount(assignment, minlength=n_sectors)
        if usage.max() >= threshold:
            hits += 1
    return {
        "capacity/size": ratio,
        "Ns": n_sectors,
        "trials": task["trials"],
        "hits": hits,
    }
