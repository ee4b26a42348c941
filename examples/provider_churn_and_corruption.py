"""Provider churn and adversarial corruption at the protocol level.

The paper's robustness story (Theorems 3 and 4) is about what happens when
a large fraction of the network's capacity disappears at once.  This
example drives the *protocol state machine* directly (no physical disks) at
a larger scale than the end-to-end scenario can afford:

1. deploy a few hundred sectors with the Theorem-4 deposit ratio for the
   chosen adversary budget;
2. store a few hundred files;
3. churn the sector set (disable old sectors, register new ones) while the
   refresh mechanism keeps replica locations i.i.d.;
4. corrupt half of the remaining capacity in one shot;
5. compare the realised loss ratio and compensation against the Theorem 3
   and Theorem 4 predictions.

Run with ``python examples/provider_churn_and_corruption.py``.
"""

from __future__ import annotations

from repro.chain.ledger import Ledger
from repro.core.analysis import (
    expected_lost_value_fraction,
    theorem3_loss_ratio_bound,
    theorem4_deposit_ratio_bound,
)
from repro.core.columnar import ColumnarProtocol
from repro.core.params import ProtocolParams
from repro.core.sector import SectorState
from repro.crypto.prng import DeterministicPRNG

N_PROVIDERS = 120
N_FILES = 300
K = 6
LAMBDA = 0.5


def main() -> None:
    cap_para = 2.0 * N_FILES / N_PROVIDERS
    deposit_ratio = max(
        0.25, theorem4_deposit_ratio_bound(lam=LAMBDA, k=K, ns=N_PROVIDERS, cap_para=cap_para)
    )
    params = ProtocolParams.small_test().scaled(k=K, cap_para=cap_para, deposit_ratio=deposit_ratio)
    ledger = Ledger()
    protocol = ColumnarProtocol(
        params=params,
        ledger=ledger,
        prng=DeterministicPRNG.from_int(99, domain="churn-example"),
        health_oracle=lambda sector_id: True,
        auto_prove=True,
    )

    # 1. Providers register sectors.
    for index in range(N_PROVIDERS):
        owner = f"prov-{index}"
        ledger.mint(owner, 10_000_000)
        protocol.sector_register(owner, params.min_capacity)
    ledger.mint("archive-client", 500_000_000)
    print(f"registered {N_PROVIDERS} sectors, deposit ratio {deposit_ratio:.3f} "
          f"(Theorem 4 bound at lambda={LAMBDA}: "
          f"{theorem4_deposit_ratio_bound(LAMBDA, K, N_PROVIDERS, cap_para):.3f})")

    # 2. Store files.
    file_size = (N_PROVIDERS * params.min_capacity) // (2 * N_FILES * K * 2)
    for _ in range(N_FILES):
        file_id = protocol.file_add("archive-client", file_size, 1, b"\x42" * 32)
        for index, entry in protocol.alloc.entries_for_file(file_id):
            protocol.file_confirm(protocol.sectors[entry.next].owner, file_id, index, entry.next)
    protocol.run_until_idle(max_time=protocol.now + params.transfer_deadline(file_size) + 1.0)
    print(f"stored {protocol.files_stored} files of {file_size} bytes, k={K}")

    # 3. Churn: disable a tenth of the sectors, register replacements.
    to_disable = [s for s in sorted(protocol.sectors)][: N_PROVIDERS // 10]
    for sector_id in to_disable:
        protocol.sector_disable(protocol.sectors[sector_id].owner, sector_id)
    for index in range(len(to_disable)):
        owner = f"late-prov-{index}"
        ledger.mint(owner, 10_000_000)
        protocol.sector_register(owner, params.min_capacity)
    protocol.advance_time(protocol.now + 20 * params.proof_cycle)
    print(f"churned {len(to_disable)} sectors out and {len(to_disable)} new sectors in; "
          f"collisions so far: {protocol.selector.collisions}")

    # 4. Corrupt half of the healthy capacity instantly.
    healthy = [
        s for s, record in sorted(protocol.sectors.items())
        if record.state in (SectorState.NORMAL, SectorState.DISABLED)
    ]
    victims = healthy[: int(LAMBDA * len(healthy))]
    for sector_id in victims:
        protocol.crash_sector(sector_id)
    protocol.advance_time(protocol.now + 2 * params.proof_cycle)

    # 5. Compare against the theory.
    loss_ratio = protocol.value_loss_ratio()
    gamma_m_v = protocol.weighted_value_count() / (cap_para * protocol.weighted_sector_count()) or 1e-9
    bound = theorem3_loss_ratio_bound(
        lam=LAMBDA, k=K, ns=N_PROVIDERS, cap_para=cap_para,
        gamma_m_v=max(gamma_m_v, 1e-6), security_c=1e-9,
    )
    print(f"\ncorrupted {len(victims)} sectors (~{LAMBDA:.0%} of capacity)")
    print(f"  files lost:            {protocol.files_lost} of {protocol.files_stored}")
    print(f"  value loss ratio:      {loss_ratio:.4f}")
    print(f"  expected (lambda^k):   {expected_lost_value_fraction(LAMBDA, K):.4f}")
    print(f"  Theorem 3 bound:       {min(bound, 1.0):.4f}")
    print(f"  compensation paid:     {protocol.total_value_compensated} "
          f"(lost value: {protocol.total_value_lost})")
    print(f"  compensation shortfalls: {protocol.fund.shortfall_events}")
    print(f"  ledger conservation:   {ledger.check_conservation()}")


if __name__ == "__main__":
    main()
