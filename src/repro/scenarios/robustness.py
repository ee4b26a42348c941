"""Theorem 3: value lost when an adversary corrupts a fraction of capacity.

Section V-B3's concrete example: with ``k = 20``, ``Ns = 1e6``,
``capPara = 1e3`` and ``gamma_m_v >= 0.005``, even when half of the
network's capacity collapses (``lambda = 0.5``) the lost value is at most
0.1% of the stored value.  This driver:

1. evaluates the analytic bound at the paper's exact parameters across a
   sweep of ``lambda``;
2. Monte-Carlo-simulates random i.i.d. replica placement -- one array
   draw per trial, kept as an array through the adversary to the loss
   ratio -- and measures the realised loss ratio under both a random and
   a greedy (targeted) adversary, confirming the simulated loss sits far
   below the bound;
3. contrasts FileInsurer's randomised placement against a clustered
   (Filecoin-deal-style) placement to show why storage randomness is the
   load-bearing property.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.analysis import expected_lost_value_fraction, theorem3_loss_ratio_bound
from repro.runner.aggregate import summarize
from repro.runner.registry import BACKEND_PARAM, ParamSpec, scenario
from repro.sim.adversary import GreedyCapacityAdversary, RandomCapacityAdversary

__all__ = ["run_bound_sweep", "simulate_loss", "run_placement_contrast"]

PAPER_PARAMS = {"k": 20, "ns": 10**6, "cap_para": 10**3, "gamma_m_v": 0.005}


def run_bound_sweep(
    lambdas: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    k: int = 20,
    ns: float = 10**6,
    cap_para: float = 10**3,
    gamma_m_v: float = 0.005,
    security_c: float = 1e-18,
) -> List[Dict[str, object]]:
    """Theorem 3 bound across corruption fractions at the paper's parameters."""
    rows: List[Dict[str, object]] = []
    for lam in lambdas:
        bound = theorem3_loss_ratio_bound(
            lam=lam, k=k, ns=ns, cap_para=cap_para, gamma_m_v=gamma_m_v, security_c=security_c
        )
        rows.append(
            {
                "lambda": lam,
                "gamma_lost_bound": f"{bound:.3e}",
                "expected_loss (lambda^k)": f"{expected_lost_value_fraction(lam, k):.3e}",
            }
        )
    return rows


def simulate_loss(
    n_sectors: int,
    n_files: int,
    k: int,
    lam: float,
    seed: int = 0,
    targeted: bool = False,
    backend: Optional[str] = None,
) -> float:
    """One Monte-Carlo trial: place files i.i.d., corrupt, return loss ratio.

    ``backend`` picks the greedy-selection kernel for the targeted
    adversary (see :mod:`repro.kernels`); the choice never changes which
    sectors are corrupted, only how fast they are found.
    """
    rng = np.random.default_rng(seed)
    # One draw for every replica: the same stream, value for value, as a
    # draw per file, and the array goes to the adversary as it is.
    placements = rng.integers(0, n_sectors, (n_files, k))
    values = np.ones(n_files)
    capacities = np.ones(n_sectors)
    adversary = (
        GreedyCapacityAdversary(seed=seed, backend=backend)
        if targeted
        else RandomCapacityAdversary(seed=seed)
    )
    outcome = adversary.attack(capacities, placements, values, lam)
    return outcome.value_loss_ratio


def run_placement_contrast(
    lam: float = 0.5,
    n_sectors: int = 1000,
    n_files: int = 1000,
    k: int = 5,
    pool_fraction: float = 0.2,
    seed: int = 0,
) -> Dict[str, float]:
    """Random i.i.d. placement vs clustered placement under a targeted attack.

    Shows why storage randomness matters: the clustered placement (files
    concentrated on a preferred pool of sectors, as in deal-based markets)
    loses far more value at the same corruption budget.
    """
    rng = np.random.default_rng(seed)
    capacities = [1.0] * n_sectors
    values = [1.0] * n_files
    adversary = GreedyCapacityAdversary(seed=seed)

    random_placements = rng.integers(0, n_sectors, (n_files, k))
    random_outcome = adversary.attack(capacities, random_placements, values, lam)

    pool = rng.permutation(n_sectors)[: max(k, int(pool_fraction * n_sectors))]
    clustered_placements = [
        [int(s) for s in rng.choice(pool, size=k, replace=False)] for _ in range(n_files)
    ]
    clustered_outcome = adversary.attack(capacities, clustered_placements, values, lam)

    return {
        "lambda": lam,
        "loss_random_placement": random_outcome.value_loss_ratio,
        "loss_clustered_placement": clustered_outcome.value_loss_ratio,
    }


# ----------------------------------------------------------------------
# Runner scenario: parallel Monte-Carlo over (lambda, adversary, trial)
# ----------------------------------------------------------------------
_SCENARIO_PARAMS = {
    "lambdas": ParamSpec((0.3, 0.5, 0.7), "corruption fractions to sweep"),
    "n_sectors": ParamSpec(2000, "sectors in the scaled network"),
    "n_files": ParamSpec(2000, "files placed i.i.d. into the sectors"),
    "k": ParamSpec(10, "replicas per file"),
    "trials": ParamSpec(5, "Monte-Carlo repetitions per (lambda, adversary)"),
    "cap_para": ParamSpec(10.0, "capacity parameter for the bound"),
    "backend": BACKEND_PARAM,
}


def _build_trials(params):
    """One independent trial per (lambda, adversary, repetition)."""
    return [
        {
            "lam": lam,
            "targeted": targeted,
            "n_sectors": params["n_sectors"],
            "n_files": params["n_files"],
            "k": params["k"],
            "backend": params["backend"],
        }
        for lam in params["lambdas"]
        for targeted in (False, True)
        for _ in range(params["trials"])
    ]


def _aggregate(rows, params):
    """Per-(lambda, adversary) loss statistics next to the Theorem 3 bound.

    The bound is evaluated at the *same* ``n_sectors`` and ``k`` the
    simulation ran at, so the comparison is apples-to-apples.
    """
    summary = summarize(rows, group_by=("lambda", "adversary"), values=("loss",))
    gamma_m_v = params["n_files"] / (params["cap_para"] * params["n_sectors"])
    for row in summary:
        lam = float(row["lambda"])  # type: ignore[arg-type]
        bound = theorem3_loss_ratio_bound(
            lam=lam,
            k=params["k"],
            ns=params["n_sectors"],
            cap_para=params["cap_para"],
            gamma_m_v=max(gamma_m_v, 1e-9),
            security_c=1e-9,
        )
        row["expected (lambda^k)"] = f"{expected_lost_value_fraction(lam, params['k']):.2e}"
        row["theorem3_bound"] = round(min(bound, 1.0), 4)
        row["bound_holds"] = float(row["loss_max"]) <= min(bound, 1.0) + 1e-9
    return summary


@scenario(
    "robustness",
    "Theorem 3: Monte-Carlo loss ratios under random/targeted corruption vs the bound",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("theorem3", "monte-carlo"),
)
def _robustness_trial(task) -> Dict[str, object]:
    """One Monte-Carlo placement + corruption at the task's parameters."""
    loss = simulate_loss(
        n_sectors=task["n_sectors"],
        n_files=task["n_files"],
        k=task["k"],
        lam=task["lam"],
        seed=task["seed"],
        targeted=task["targeted"],
        backend=task["backend"],
    )
    return {
        "lambda": task["lam"],
        "adversary": "targeted" if task["targeted"] else "random",
        "loss": round(loss, 6),
    }
