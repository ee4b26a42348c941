"""Tests for the token ledger and the gas schedule."""

import pytest

from repro.chain.gas import GasSchedule
from repro.chain.ledger import InsufficientFundsError, Ledger, LedgerError


class TestLedgerBasics:
    def test_mint_and_balance(self, ledger):
        ledger.mint("alice", 100)
        assert ledger.balance("alice") == 100
        assert ledger.check_conservation()

    def test_unknown_account_balance_is_zero(self, ledger):
        assert ledger.balance("nobody") == 0
        assert ledger.escrowed("nobody") == 0

    def test_transfer_moves_funds(self, ledger):
        ledger.mint("alice", 100)
        ledger.transfer("alice", "bob", 40)
        assert ledger.balance("alice") == 60
        assert ledger.balance("bob") == 40

    def test_transfer_insufficient_funds(self, ledger):
        ledger.mint("alice", 10)
        with pytest.raises(InsufficientFundsError):
            ledger.transfer("alice", "bob", 11)

    def test_amounts_must_be_positive_integers(self, ledger):
        ledger.mint("alice", 10)
        with pytest.raises(LedgerError):
            ledger.transfer("alice", "bob", 0)
        with pytest.raises(TypeError):
            ledger.transfer("alice", "bob", 1.5)  # type: ignore[arg-type]

    def test_burn_reduces_supply(self, ledger):
        ledger.mint("alice", 100)
        ledger.burn("alice", 30)
        assert ledger.balance("alice") == 70
        assert ledger.total_supply() == 70
        assert ledger.check_conservation()


class TestLedgerEscrow:
    def test_lock_release_roundtrip(self, ledger):
        ledger.mint("prov", 100)
        ledger.lock("prov", 60)
        assert ledger.balance("prov") == 40
        assert ledger.escrowed("prov") == 60
        ledger.release("prov", 60)
        assert ledger.balance("prov") == 100

    def test_lock_more_than_balance(self, ledger):
        ledger.mint("prov", 10)
        with pytest.raises(InsufficientFundsError):
            ledger.lock("prov", 11)

    def test_release_more_than_escrowed(self, ledger):
        ledger.mint("prov", 100)
        ledger.lock("prov", 10)
        with pytest.raises(InsufficientFundsError):
            ledger.release("prov", 11)

    def test_confiscate_moves_escrow_to_recipient(self, ledger):
        ledger.mint("prov", 100)
        ledger.lock("prov", 50)
        ledger.confiscate("prov", 50, recipient="pool")
        assert ledger.escrowed("prov") == 0
        assert ledger.balance("pool") == 50
        assert ledger.check_conservation()

    def test_confiscate_defaults_to_network(self, ledger):
        ledger.mint("prov", 100)
        ledger.lock("prov", 50)
        ledger.confiscate("prov", 50)
        assert ledger.balance(Ledger.NETWORK_ADDRESS) == 50

    def test_conservation_holds_across_mixed_operations(self, ledger):
        ledger.mint("a", 1000)
        ledger.mint("b", 500)
        ledger.transfer("a", "b", 200)
        ledger.lock("b", 300)
        ledger.confiscate("b", 100)
        ledger.release("b", 200)
        ledger.burn("a", 50)
        assert ledger.check_conservation()


class TestGasSchedule:
    def test_known_operation_cost(self):
        schedule = GasSchedule()
        assert schedule.cost("file_add") == schedule.file_add
        assert schedule.fee("file_add") == schedule.file_add * schedule.gas_price

    def test_unknown_operation_raises(self):
        with pytest.raises(KeyError):
            GasSchedule().cost("not_an_op")

    def test_prepaid_cycle_fee_positive_and_bounded(self):
        schedule = GasSchedule()
        fee = schedule.prepaid_cycle_fee(3)
        assert fee > 0
        with pytest.raises(ValueError):
            schedule.prepaid_cycle_fee(0)
