"""The gas fee schedule for on-chain operations.

Section IV-A of the paper: every request to the network pays a gas fee, and
the *prepaid* gas fee covers the Auto tasks (CheckAlloc, CheckProof,
Refresh, CheckRefresh) that the pending list executes automatically.  The
paper notes that tasks placed on the pending list must have a clear upper
bound on gas used -- this module provides those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GasSchedule"]


@dataclass(frozen=True)
class GasSchedule:
    """Fixed gas costs per protocol operation.

    The absolute numbers are arbitrary units; what matters to the protocol
    and the experiments is that each pending-list task has a deterministic
    upper bound so the prepaid fee can be computed in advance.
    """

    file_add: int = 500
    file_discard: int = 100
    file_confirm: int = 120
    file_prove: int = 150
    sector_register: int = 400
    sector_disable: int = 100
    auto_check_alloc: int = 200
    auto_check_proof: int = 250
    auto_refresh: int = 220
    auto_check_refresh: int = 180
    gas_price: int = 1

    def cost(self, operation: str) -> int:
        """Gas units charged for ``operation``."""
        try:
            return int(getattr(self, operation))
        except AttributeError:
            raise KeyError(f"unknown operation {operation!r}") from None

    def fee(self, operation: str) -> int:
        """Token fee for ``operation`` (gas units times gas price)."""
        return self.cost(operation) * self.gas_price

    def prepaid_cycle_fee(self, replica_count: int) -> int:
        """Prepaid gas needed for one proof cycle of a file.

        Each cycle runs one ``Auto CheckProof`` for the file; refreshes are
        amortised by also reserving the cost of one refresh round
        (``Auto Refresh`` + ``Auto CheckRefresh``) scaled by the expected
        probability of a refresh per cycle.  We charge the full refresh cost
        to keep the bound conservative, as the paper requires an upper
        bound rather than an expectation.
        """
        if replica_count <= 0:
            raise ValueError("replica_count must be positive")
        per_cycle = self.auto_check_proof + self.auto_refresh + self.auto_check_refresh
        return per_cycle * self.gas_price
