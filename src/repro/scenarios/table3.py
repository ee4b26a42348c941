"""Table III: maximum capacity usage of sectors under storage randomness.

The paper places ``Ncp`` file backups into ``Ns`` equal-capacity sectors
whose total capacity is twice the total backup size and reports, for five
backup-size distributions, the maximum per-sector capacity usage under two
settings:

* reallocate all backups from scratch 100 times;
* place once, then refresh a random backup ``100 * Ncp`` times.

The paper's grid runs ``Ncp`` from 1e5 to 1e8 with ``Ncp/Ns`` ratios of
5000 and 1000.  A pure-Python/numpy reproduction cannot afford 1e8 x 100
placements, so :func:`default_grid` keeps the two ratios and the smaller
``Ncp`` rows; the paper's qualitative findings -- usage never exceeds
~0.64, grows slowly with Ns at a fixed ratio, and is slightly higher in the
refresh setting -- are reproduced at this scale.  Run the ``table3``
scenario with ``scale=paper`` for the full grid if you have the time budget.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.runner.registry import ParamSpec, scenario
from repro.sim.placement import PlacementExperiment

__all__ = ["default_grid", "paper_grid"]

#: Paper value: the claimed maximum usage across all rows is below this.
PAPER_MAX_USAGE = 0.64


def paper_grid() -> List[Tuple[int, int]]:
    """The full (Ncp, Ns) grid of Table III."""
    return [
        (10**5, 20),
        (10**5, 100),
        (10**6, 200),
        (10**6, 1000),
        (10**7, 2000),
        (10**7, 10_000),
        (10**8, 20_000),
        (10**8, 10**5),
    ]


def default_grid() -> List[Tuple[int, int]]:
    """The Ncp <= 1e6 rows of the paper's grid: both Ncp/Ns ratios (5000 and 1000)."""
    return paper_grid()[:4]


# ----------------------------------------------------------------------
# Runner scenario: one parallel trial per (mode, grid cell)
# ----------------------------------------------------------------------
_GRIDS = {"default": default_grid, "paper": paper_grid}
_MODES = ("reallocate", "refresh")
_SCENARIO_PARAMS = {
    "modes": ParamSpec(_MODES, "Table III settings to run", _MODES),
    "scale": ParamSpec("default", "'default' (scaled grid) or 'paper' (full grid)", tuple(_GRIDS)),
    "rounds": ParamSpec(100, "reallocation rounds per cell", "[1, inf)"),
    "refresh_multiplier": ParamSpec(100, "refreshes per backup in refresh mode", "[1, inf)"),
    # Below the smallest Ncp of either grid no cell would be left to run.
    "max_ncp": ParamSpec(
        10**8, "drop grid cells with more than this many backups", f"[{min(paper_grid())[0]}, inf)"
    ),
}


def _build_trials(params):
    """One independent trial per (mode, Ncp, Ns) grid cell."""
    grid = [
        (n_backups, n_sectors)
        for n_backups, n_sectors in _GRIDS[params["scale"]]()
        if n_backups <= params["max_ncp"]
    ]
    return [
        {
            "mode": mode,
            "ncp": n_backups,
            "ns": n_sectors,
            "rounds": params["rounds"],
            "refresh_multiplier": params["refresh_multiplier"],
        }
        for mode in params["modes"]
        for n_backups, n_sectors in grid
    ]


def _aggregate(rows, params):
    """Per-mode observed maximum usage against the paper's threshold."""
    summary: List[Dict[str, object]] = []
    for mode in params["modes"]:
        cell_maxima = [
            float(row["cell_max_usage"]) for row in rows if row["mode"] == mode
        ]
        observed = max(cell_maxima) if cell_maxima else 0.0
        summary.append(
            {
                "mode": mode,
                "observed_max_usage": round(observed, 3),
                "paper_max_usage": PAPER_MAX_USAGE,
                "below_paper_max": observed < PAPER_MAX_USAGE,
            }
        )
    return summary


@scenario(
    "table3",
    "Table III: maximum sector capacity usage under reallocate/refresh placement",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("table3", "placement"),
)
def _table3_trial(task) -> Dict[str, object]:
    """Run all five size distributions for one grid cell of one setting."""
    experiment = PlacementExperiment(seed=task["seed"])
    results = experiment.sweep(
        grid=[(task["ncp"], task["ns"])],
        mode=task["mode"],
        rounds=task["rounds"],
        refresh_multiplier=task["refresh_multiplier"],
    )
    row: Dict[str, object] = {"mode": task["mode"], "Ncp": task["ncp"], "Ns": task["ns"]}
    for result in results:
        row[result.distribution.paper_label] = round(result.max_usage, 3)
    row["cell_max_usage"] = round(max(result.max_usage for result in results), 3)
    return row
