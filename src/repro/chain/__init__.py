"""On-chain accounting for the FileInsurer DSN.

FileInsurer can be deployed as an independent chain or as a contract on an
existing chain (Section IV); either way the paper assumes consensus
security rather than analysing it, so this package holds only what the
protocol's economics need from a chain:

* :mod:`repro.chain.ledger` -- token accounts, transfers, escrow, deposits
  and burning, with full conservation-of-value accounting.
* :mod:`repro.chain.gas` -- a simple gas fee schedule.
"""

from repro.chain.gas import GasSchedule
from repro.chain.ledger import (
    Account,
    InsufficientFundsError,
    Ledger,
    LedgerError,
)

__all__ = [
    "Account",
    "GasSchedule",
    "InsufficientFundsError",
    "Ledger",
    "LedgerError",
]
