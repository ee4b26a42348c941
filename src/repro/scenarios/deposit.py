"""Theorem 4: deposit ratio sufficient for full compensation.

Section V-B4's concrete example: with ``k = 20``, ``Ns = 1e6``,
``capPara = 1e3`` and ``lambda = 0.5``, a deposit ratio of 0.0046 suffices
for full compensation with probability at least ``1 - c``.  This driver:

1. evaluates the Theorem 4 bound across ``lambda`` at the paper's
   parameters, reproducing the 0.0046 figure;
2. runs an end-to-end check on the actual protocol state machine: deploy a
   small network with the prescribed deposit ratio, store files, crash a
   fraction of sectors and verify that confiscated deposits fully cover the
   compensation paid to owners of lost files.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chain.ledger import Ledger
from repro.core.analysis import theorem4_deposit_ratio_bound
from repro.core.params import ProtocolParams
from repro.core.protocol import FileInsurerProtocol
from repro.crypto.prng import DeterministicPRNG
from repro.runner.registry import BACKEND_PARAM, ParamSpec, scenario

__all__ = ["run_bound_sweep", "run_protocol_check"]

PAPER_PARAMS = {"k": 20, "ns": 10**6, "cap_para": 10**3}
PAPER_DEPOSIT_RATIO = 0.0046


def run_bound_sweep(
    lambdas: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    k: int = 20,
    ns: float = 10**6,
    cap_para: float = 10**3,
    security_c: float = 1e-18,
) -> List[Dict[str, object]]:
    """Theorem 4 deposit-ratio bound across corruption fractions."""
    rows: List[Dict[str, object]] = []
    for lam in lambdas:
        bound = theorem4_deposit_ratio_bound(
            lam=lam, k=k, ns=ns, cap_para=cap_para, security_c=security_c
        )
        rows.append({"lambda": lam, "gamma_deposit_bound": round(bound, 6)})
    return rows


def run_protocol_check(
    n_providers: int = 30,
    files: int = 60,
    corrupt_fraction: float = 0.5,
    deposit_ratio: float = 0.2,
    k: int = 4,
    seed: int = 1,
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """End-to-end compensation check on the real protocol state machine.

    Uses a small deployment (one sector per provider, equal capacities) and
    a deposit ratio prescribed by Theorem 4 *for the scaled parameters*, so
    full compensation should hold except with tiny probability.  Files are
    added one at a time with fees charged -- the object engine's call
    pattern, so that is the engine it runs on.  ``backend`` picks the
    :mod:`repro.kernels` backend for sector draws and does not appear in
    the result row, so ``repro diff`` can assert row identity across
    backends.
    """
    params = ProtocolParams.small_test().scaled(
        k=k, deposit_ratio=deposit_ratio, cap_para=float(files) / n_providers * 2
    )
    ledger = Ledger()
    protocol = FileInsurerProtocol(
        params=params,
        ledger=ledger,
        prng=DeterministicPRNG.from_int(seed, domain="deposit-exp"),
        health_oracle=lambda sector_id: True,
        auto_prove=True,
        backend=backend,
    )
    # Every owner affords its sector's deposit at any ratio, plus 10M for gas.
    balance = params.sector_deposit(params.min_capacity) + 10_000_000
    for index in range(n_providers):
        owner = f"prov-{index}"
        ledger.mint(owner, balance)
        protocol.sector_register(owner, params.min_capacity)
    client = "client"
    ledger.mint(client, 100_000_000)

    # Keep total replica bytes within the redundant-capacity budget so every
    # file is admitted: files * k * size <= providers * minCapacity / 2,
    # and size <= sizeLimit.
    file_size = max(1, (n_providers * params.min_capacity) // (2 * files * k * 2))
    file_size = min(file_size, params.size_limit)
    file_ids = []
    for _ in range(files):
        file_id = protocol.file_add(client, file_size, 1, b"\x00" * 32)
        for index, entry in protocol.alloc.entries_for_file(file_id):
            if entry.next is not None:
                owner = protocol.sectors[entry.next].owner
                protocol.file_confirm(owner, file_id, index, entry.next)
        file_ids.append(file_id)
    protocol.run_until_idle(max_time=protocol.now + params.delay_per_size * file_size + 1)

    # Corrupt a fraction of sectors (capacity fraction = sector fraction here).
    sector_ids = sorted(protocol.sectors)
    to_corrupt = sector_ids[: int(round(corrupt_fraction * len(sector_ids)))]
    for sector_id in to_corrupt:
        protocol.crash_sector(sector_id)
    # Let a proof cycle pass so CheckProof detects losses and compensates.
    protocol.advance_time(protocol.now + 2 * params.proof_cycle)

    lost_value = protocol.total_value_lost
    compensated = protocol.total_value_compensated
    confiscated = protocol.fund.total_confiscated
    return {
        "providers": n_providers,
        "files": files,
        "corrupt_fraction": corrupt_fraction,
        "deposit_ratio": deposit_ratio,
        "lost_value": lost_value,
        "compensated_value": compensated,
        "confiscated_deposits": confiscated,
        "full_compensation": compensated >= lost_value,
        "shortfalls": protocol.fund.shortfall_events,
    }


# ----------------------------------------------------------------------
# Runner scenario: independent end-to-end compensation checks
# ----------------------------------------------------------------------
_SCENARIO_PARAMS = {
    "checks": ParamSpec(3, "independent end-to-end compensation checks", "[1, inf)"),
    "n_providers": ParamSpec(30, "providers (one sector each)", "[1, inf)"),
    "files": ParamSpec(60, "files stored before the crash", "[1, inf)"),
    "corrupt_fraction": ParamSpec(0.5, "fraction of sectors crashed", "[0, 1]"),
    "deposit_ratio": ParamSpec(0.2, "deposit ratio prescribed for the scaled run", "[0, inf)"),
    "k": ParamSpec(4, "replicas per file", "[1, inf)"),
    "lambdas": ParamSpec((0.1, 0.25, 0.5, 0.75, 0.9), "bound-sweep lambdas", "(0, 1)"),
    "backend": BACKEND_PARAM,
}


#: The parameters every check hands to :func:`run_protocol_check`.
_CHECK_ARGS = ("n_providers", "files", "corrupt_fraction", "deposit_ratio", "k", "backend")


def _build_trials(params):
    """One independent protocol deployment + crash per check."""
    return [{key: params[key] for key in _CHECK_ARGS} for _ in range(params["checks"])]


def _aggregate(rows, params):
    """Analytic bound sweep plus a verdict over the protocol checks."""
    summary: List[Dict[str, object]] = []
    for lam in params["lambdas"]:
        bound = theorem4_deposit_ratio_bound(lam=lam, **PAPER_PARAMS)  # type: ignore[arg-type]
        summary.append(
            {"metric": f"gamma_deposit bound (lambda={lam})", "value": round(bound, 6)}
        )
    full = sum(1 for row in rows if row["full_compensation"])
    summary.append(
        {"metric": "protocol checks fully compensated", "value": f"{full}/{len(rows)}"}
    )
    summary.append(
        {
            "metric": "total shortfall events",
            "value": sum(int(row["shortfalls"]) for row in rows),
        }
    )
    return summary


@scenario(
    "deposit",
    "Theorem 4: deposit-ratio bound plus end-to-end compensation checks",
    build_trials=_build_trials,
    params=_SCENARIO_PARAMS,
    aggregate=_aggregate,
    tags=("theorem4", "protocol"),
)
def _deposit_trial(task) -> Dict[str, object]:
    """One full deploy/store/crash/compensate cycle on the state machine."""
    return run_protocol_check(seed=task["seed"], **{key: task[key] for key in _CHECK_ARGS})
