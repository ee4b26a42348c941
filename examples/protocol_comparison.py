"""Protocol comparison: regenerate Table IV from the command line.

Runs FileInsurer, Filecoin, Arweave, Storj and Sia on the same workload and
the same corruption budget (random and targeted), prints the paper's Yes/No
property table with the empirical evidence columns, and sweeps the
corruption fraction to show where each protocol starts losing data.

Run with ``python examples/protocol_comparison.py``.
"""

from __future__ import annotations

from repro.baselines.comparison import ComparisonHarness
from repro.runner.executor import run_scenario
from repro.runner.registry import load_builtin_scenarios
from repro.sim.metrics import format_table


def corruption_sweep() -> None:
    """Loss ratio of every protocol as the targeted adversary's budget grows."""
    rows = []
    for fraction in (0.1, 0.2, 0.3, 0.4, 0.5):
        harness = ComparisonHarness(
            n_sectors=150, n_files=300, corruption_fraction=fraction, seed=11
        )
        row = {"corrupted": f"{fraction:.0%}"}
        for result in harness.run():
            row[result.protocol] = round(result.loss_ratio_targeted, 3)
        rows.append(row)
    print("\nValue-loss ratio under a *targeted* adversary corrupting a growing "
          "fraction of sectors:")
    print(format_table(rows))
    print("\nFileInsurer's randomised, refreshed placement keeps the targeted "
          "loss near the random-failure level, which is what Theorem 3 bounds.")


def table4(corruption_fraction: float = 0.3) -> None:
    """Table IV through the runner: the same rows ``repro run table4`` prints."""
    load_builtin_scenarios()
    manifest = run_scenario(
        "table4",
        overrides={
            "n_sectors": 200,
            "n_files": 400,
            "corruption_fraction": corruption_fraction,
        },
        seed=0,
    )
    print("\nTable IV -- comparison of DSN protocols "
          f"(corrupting {corruption_fraction:.0%} of sectors)")
    print(format_table(
        [{key: value for key, value in row.items() if key not in ("trial", "seed")}
         for row in manifest.rows]
    ))
    mismatching = [row for row in manifest.summary if not row["matches_paper"]]
    if mismatching:
        print("\nMISMATCHES vs paper Table IV:")
        print(format_table(mismatching))
    else:
        print("\nAll Yes/No entries match the paper's Table IV.")


def main() -> None:
    table4()
    corruption_sweep()


if __name__ == "__main__":
    main()
