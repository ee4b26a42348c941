"""Fee mechanism: traffic fees, storage rent and prepaid gas.

Section IV-A.  Three fee flows:

* **Traffic fee** -- paid by whoever occupies a provider's bandwidth,
  committed *before* transmission and released to the provider only after
  it confirms the file.
* **Storage rent** -- charged to the client every proof cycle, proportional
  to ``size * replica_count``; collected into the network account and
  distributed at the end of each rent period to owners of properly
  functioning sectors proportionally to their capacity.
* **Prepaid gas** -- collected together with rent, covering the Auto tasks
  the pending list will run on the client's behalf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.chain.gas import GasSchedule
from repro.chain.ledger import Ledger
from repro.core.params import ProtocolParams

__all__ = ["TrafficEscrow", "RentAccounting", "FeeEngine"]

RENT_ACCOUNT = "@rent-pool"


@dataclass
class TrafficEscrow:
    """A traffic fee committed before a transfer, released on confirmation."""

    payer: str
    provider: str
    amount: int
    released: bool = False
    refunded: bool = False


class RentAccounting:
    """Collects rent per period and distributes it to healthy sectors."""

    def __init__(self, ledger: Ledger, params: ProtocolParams) -> None:
        self.ledger = ledger
        self.params = params
        self.ledger.ensure_account(RENT_ACCOUNT)
        self.collected_this_period = 0
        self.total_collected = 0
        self.total_distributed = 0

    def charge(self, client: str, amount: int) -> None:
        """Charge ``client`` rent into the rent pool (raises if unaffordable)."""
        if amount <= 0:
            return
        self.ledger.transfer(client, RENT_ACCOUNT, amount)
        self.collected_this_period += amount
        self.total_collected += amount

    def distribute(self, healthy_sectors: List[Tuple[str, str, int]]) -> Dict[str, int]:
        """Distribute the period's rent to sector owners by capacity share.

        ``healthy_sectors`` lists ``(sector_id, owner, capacity)`` of sectors
        that functioned properly during the period.  Rounding residue stays
        in the pool for the next period.
        """
        payout: Dict[str, int] = {}
        pot = self.collected_this_period
        total_capacity = sum(capacity for _, _, capacity in healthy_sectors)
        if pot <= 0 or total_capacity <= 0:
            self.collected_this_period = 0
            return payout
        for _, owner, capacity in healthy_sectors:
            share = (pot * capacity) // total_capacity
            if share <= 0:
                continue
            payout[owner] = payout.get(owner, 0) + share
        for owner, amount in payout.items():
            self.ledger.transfer(RENT_ACCOUNT, owner, amount)
            self.total_distributed += amount
        self.collected_this_period = 0
        return payout


class FeeEngine:
    """Facade over all client-facing fees used by the protocol."""

    def __init__(self, ledger: Ledger, params: ProtocolParams) -> None:
        self.ledger = ledger
        self.params = params
        self.gas_schedule = GasSchedule()
        self.rent = RentAccounting(ledger, params)
        self.total_traffic_fees = 0
        self.total_gas_fees = 0

    # ------------------------------------------------------------------
    # Gas
    # ------------------------------------------------------------------
    def charge_gas(self, payer: str, operation: str) -> int:
        """Charge the gas fee for a request; burned like base fees usually are."""
        fee = self.gas_schedule.fee(operation)
        if fee > 0:
            self.ledger.transfer(payer, Ledger.NETWORK_ADDRESS, fee)
            self.total_gas_fees += fee
        return fee

    def cycle_cost(self, size: int, replica_count: int) -> int:
        """Total client cost for one proof cycle: rent plus prepaid gas."""
        rent = self.params.rent_for_cycle(size, replica_count)
        gas = self.gas_schedule.prepaid_cycle_fee(replica_count)
        return rent + gas

    def charge_cycle(self, client: str, size: int, replica_count: int) -> int:
        """Charge one cycle's rent + prepaid gas (raises if unaffordable)."""
        rent = self.params.rent_for_cycle(size, replica_count)
        gas = self.gas_schedule.prepaid_cycle_fee(replica_count)
        if rent > 0:
            self.rent.charge(client, rent)
        if gas > 0:
            self.ledger.transfer(client, Ledger.NETWORK_ADDRESS, gas)
            self.total_gas_fees += gas
        return rent + gas

    def can_afford_cycle(self, client: str, size: int, replica_count: int) -> bool:
        """True if the client can pay the next cycle's rent and gas."""
        return self.ledger.balance(client) >= self.cycle_cost(size, replica_count)

    # ------------------------------------------------------------------
    # Traffic fees
    # ------------------------------------------------------------------
    def commit_traffic_fee(self, payer: str, provider: str, size: int) -> TrafficEscrow:
        """Escrow the traffic fee before a transfer begins."""
        amount = self.params.traffic_fee(size)
        escrow = TrafficEscrow(payer=payer, provider=provider, amount=amount)
        if amount > 0:
            self.ledger.lock(payer, amount)
        return escrow

    def release_traffic_fee(self, escrow: TrafficEscrow) -> None:
        """Pay the escrowed fee to the provider (file confirmed)."""
        if escrow.released or escrow.refunded:
            return
        if escrow.amount > 0:
            self.ledger.confiscate(escrow.payer, escrow.amount, recipient=escrow.provider)
        escrow.released = True
        self.total_traffic_fees += escrow.amount

    def refund_traffic_fee(self, escrow: TrafficEscrow) -> None:
        """Return the escrowed fee to the payer (transfer never confirmed)."""
        if escrow.released or escrow.refunded:
            return
        if escrow.amount > 0:
            self.ledger.release(escrow.payer, escrow.amount)
        escrow.refunded = True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Aggregate fee statistics."""
        return {
            "total_traffic_fees": self.total_traffic_fees,
            "total_gas_fees": self.total_gas_fees,
            "rent_collected": self.rent.total_collected,
            "rent_distributed": self.rent.total_distributed,
        }
