"""Token ledger: accounts, transfers, escrow, deposits and burning.

Every economic action in FileInsurer flows through this ledger:

* clients pay traffic fees, storage rent and prepaid gas;
* providers pledge deposits when registering sectors;
* confiscated deposits move into the network's compensation pool;
* compensation is paid out of that pool to owners of lost files;
* misbehaviour punishments burn tokens.

The ledger enforces conservation of value: the sum of all account
balances, all escrowed amounts and the burn counter is invariant under
every operation (minting is the only exception and is explicit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Account", "Ledger", "LedgerError", "InsufficientFundsError"]


class LedgerError(Exception):
    """Base class for ledger failures."""


class InsufficientFundsError(LedgerError):
    """Raised when an account cannot cover a debit."""


class UnknownAccountError(LedgerError):
    """Raised when an operation references an account that does not exist."""


@dataclass
class Account:
    """A single token account.

    ``balance`` is freely spendable; ``escrowed`` is locked (sector deposits,
    in-flight traffic fees) and can only be released or confiscated by the
    ledger operations below.
    """

    address: str
    balance: int = 0
    escrowed: int = 0

    @property
    def total(self) -> int:
        """Spendable plus locked tokens."""
        return self.balance + self.escrowed


class Ledger:
    """The token ledger shared by the chain and the DSN application."""

    #: Address of the network's own pool (compensation pool, collected rent).
    NETWORK_ADDRESS = "@network"

    def __init__(self) -> None:
        self._accounts: Dict[str, Account] = {}
        self._burned: int = 0
        self._minted: int = 0
        self.ensure_account(self.NETWORK_ADDRESS)

    # ------------------------------------------------------------------
    # Account management
    # ------------------------------------------------------------------
    def ensure_account(self, address: str) -> Account:
        """Return the account for ``address``, creating it if necessary."""
        if address not in self._accounts:
            self._accounts[address] = Account(address=address)
        return self._accounts[address]

    def account(self, address: str) -> Account:
        """Return an existing account or raise :class:`UnknownAccountError`."""
        try:
            return self._accounts[address]
        except KeyError:
            raise UnknownAccountError(f"unknown account {address!r}") from None

    def balance(self, address: str) -> int:
        """Spendable balance of ``address`` (0 for unknown accounts)."""
        account = self._accounts.get(address)
        return account.balance if account else 0

    def escrowed(self, address: str) -> int:
        """Escrowed balance of ``address`` (0 for unknown accounts)."""
        account = self._accounts.get(address)
        return account.escrowed if account else 0

    # ------------------------------------------------------------------
    # Supply operations
    # ------------------------------------------------------------------
    def mint(self, address: str, amount: int) -> None:
        """Create ``amount`` new tokens in ``address`` (test/bootstrap only)."""
        self._require_positive(amount)
        self.ensure_account(address).balance += amount
        self._minted += amount

    def burn(self, address: str, amount: int) -> None:
        """Destroy ``amount`` tokens from the spendable balance of ``address``."""
        self._require_positive(amount)
        account = self.account(address)
        if account.balance < amount:
            raise InsufficientFundsError(
                f"{address} cannot burn {amount}, balance is {account.balance}"
            )
        account.balance -= amount
        self._burned += amount

    # ------------------------------------------------------------------
    # Transfers and escrow
    # ------------------------------------------------------------------
    def transfer(self, sender: str, recipient: str, amount: int) -> None:
        """Move spendable tokens from ``sender`` to ``recipient``."""
        self._require_positive(amount)
        src = self.account(sender)
        if src.balance < amount:
            raise InsufficientFundsError(
                f"{sender} cannot pay {amount}, balance is {src.balance}"
            )
        dst = self.ensure_account(recipient)
        src.balance -= amount
        dst.balance += amount

    def lock(self, address: str, amount: int) -> None:
        """Move tokens from spendable balance into escrow (e.g. a deposit)."""
        self._require_positive(amount)
        account = self.account(address)
        if account.balance < amount:
            raise InsufficientFundsError(
                f"{address} cannot lock {amount}, balance is {account.balance}"
            )
        account.balance -= amount
        account.escrowed += amount

    def release(self, address: str, amount: int) -> None:
        """Return escrowed tokens to the spendable balance (deposit refund)."""
        self._require_positive(amount)
        account = self.account(address)
        if account.escrowed < amount:
            raise InsufficientFundsError(
                f"{address} cannot release {amount}, escrowed is {account.escrowed}"
            )
        account.escrowed -= amount
        account.balance += amount

    def confiscate(self, address: str, amount: int, recipient: Optional[str] = None) -> None:
        """Seize escrowed tokens and credit them to ``recipient``.

        Used when a corrupted sector's deposit is moved into the network's
        compensation pool.  ``recipient`` defaults to the network address.
        """
        self._require_positive(amount)
        account = self.account(address)
        if account.escrowed < amount:
            raise InsufficientFundsError(
                f"{address} cannot forfeit {amount}, escrowed is {account.escrowed}"
            )
        target = self.ensure_account(recipient or self.NETWORK_ADDRESS)
        account.escrowed -= amount
        target.balance += amount

    # ------------------------------------------------------------------
    # Invariants and introspection
    # ------------------------------------------------------------------
    def total_supply(self) -> int:
        """Sum of all balances and escrows (excludes burned tokens)."""
        return sum(account.total for account in self._accounts.values())

    def check_conservation(self) -> bool:
        """Verify minted == circulating + burned."""
        return self._minted == self.total_supply() + self._burned

    @staticmethod
    def _require_positive(amount: int) -> None:
        if not isinstance(amount, int):
            raise TypeError("token amounts are integers")
        if amount <= 0:
            raise LedgerError("token amounts must be positive")
