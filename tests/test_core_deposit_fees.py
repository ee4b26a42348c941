"""Tests for the insurance fund and the fee engine."""

import pytest

from repro.chain.ledger import InsufficientFundsError, Ledger
from repro.core.deposit import CompensationShortfallError, InsuranceFund
from repro.core.fees import FeeEngine, RentAccounting


@pytest.fixture
def fund(ledger):
    return InsuranceFund(ledger)


class TestInsuranceFund:
    def test_pledge_locks_deposit(self, ledger, fund):
        ledger.mint("prov", 1000)
        fund.pledge("s0", "prov", 400)
        assert ledger.balance("prov") == 600
        assert ledger.escrowed("prov") == 400
        assert fund.deposit_of("s0") == 400
        assert fund.active_deposit_total() == 400

    def test_double_pledge_rejected(self, ledger, fund):
        ledger.mint("prov", 1000)
        fund.pledge("s0", "prov", 100)
        with pytest.raises(ValueError):
            fund.pledge("s0", "prov", 100)

    def test_pledge_without_funds_fails(self, ledger, fund):
        ledger.mint("prov", 10)
        with pytest.raises(InsufficientFundsError):
            fund.pledge("s0", "prov", 100)

    def test_refund_returns_deposit(self, ledger, fund):
        ledger.mint("prov", 500)
        fund.pledge("s0", "prov", 500)
        assert fund.refund("s0") == 500
        assert ledger.balance("prov") == 500
        assert fund.deposit_of("s0") == 0

    def test_confiscate_moves_to_pool(self, ledger, fund):
        ledger.mint("prov", 500)
        fund.pledge("s0", "prov", 500)
        fund.confiscate("s0")
        assert fund.pool_balance == 500
        assert ledger.escrowed("prov") == 0

    def test_refund_after_confiscate_rejected(self, ledger, fund):
        ledger.mint("prov", 500)
        fund.pledge("s0", "prov", 500)
        fund.confiscate("s0")
        with pytest.raises(KeyError):
            fund.refund("s0")

    def test_full_compensation_from_pool(self, ledger, fund):
        ledger.mint("prov", 500)
        fund.pledge("s0", "prov", 500)
        fund.confiscate("s0")
        paid = fund.compensate("client", 300)
        assert paid == 300
        assert ledger.balance("client") == 300
        assert fund.pool_balance == 200

    def test_shortfall_pays_partially_and_raises(self, ledger, fund):
        ledger.mint("prov", 100)
        fund.pledge("s0", "prov", 100)
        fund.confiscate("s0")
        with pytest.raises(CompensationShortfallError):
            fund.compensate("client", 250)
        assert ledger.balance("client") == 100
        assert fund.shortfall_events == 1

    def test_deposit_ratio(self, ledger, fund):
        ledger.mint("prov", 1000)
        fund.pledge("s0", "prov", 50)
        assert fund.deposit_ratio(10_000) == pytest.approx(0.005)
        assert fund.deposit_ratio(0) == 0.0

    def test_summary_keys(self, ledger, fund):
        summary = fund.summary()
        assert {"total_pledged", "total_confiscated", "pool_balance"} <= set(summary)


class TestRentAccounting:
    def test_charge_and_distribute_by_capacity(self, ledger, params):
        rent = RentAccounting(ledger, params)
        ledger.mint("client", 1000)
        rent.charge("client", 300)
        payout = rent.distribute([("s0", "provA", 100), ("s1", "provB", 200)])
        assert payout["provA"] == 100
        assert payout["provB"] == 200
        assert ledger.balance("provA") == 100
        assert ledger.balance("provB") == 200

    def test_distribute_with_no_healthy_sectors_keeps_pot(self, ledger, params):
        rent = RentAccounting(ledger, params)
        ledger.mint("client", 100)
        rent.charge("client", 100)
        payout = rent.distribute([])
        assert payout == {}
        assert rent.collected_this_period == 0  # reset even when nothing paid

    def test_rounding_residue_stays_in_pool(self, ledger, params):
        rent = RentAccounting(ledger, params)
        ledger.mint("client", 10)
        rent.charge("client", 10)
        payout = rent.distribute([("s0", "a", 3), ("s1", "b", 3), ("s2", "c", 3)])
        assert sum(payout.values()) <= 10


class TestFeeEngine:
    def test_gas_fee_goes_to_network(self, ledger, params):
        engine = FeeEngine(ledger, params)
        ledger.mint("client", 10_000)
        fee = engine.charge_gas("client", "file_add")
        assert fee > 0
        assert ledger.balance(Ledger.NETWORK_ADDRESS) == fee

    def test_cycle_cost_includes_rent_and_gas(self, ledger, params):
        engine = FeeEngine(ledger, params)
        cost = engine.cycle_cost(size=1000, replica_count=3)
        assert cost >= params.rent_for_cycle(1000, 3)

    def test_charge_cycle_moves_funds(self, ledger, params):
        engine = FeeEngine(ledger, params)
        ledger.mint("client", 1_000_000)
        charged = engine.charge_cycle("client", 1000, 3)
        assert charged == engine.cycle_cost(1000, 3)
        assert ledger.balance("client") == 1_000_000 - charged

    def test_can_afford_cycle(self, ledger, params):
        engine = FeeEngine(ledger, params)
        ledger.mint("poor", 0 + 1)
        assert not engine.can_afford_cycle("poor", 10**6, 10)

    def test_traffic_fee_escrow_release(self, ledger, params):
        engine = FeeEngine(ledger, params)
        ledger.mint("client", 10_000)
        escrow = engine.commit_traffic_fee("client", "prov", 1000)
        assert ledger.escrowed("client") == escrow.amount
        engine.release_traffic_fee(escrow)
        assert ledger.balance("prov") == escrow.amount
        assert ledger.escrowed("client") == 0
        # releasing twice is a no-op
        engine.release_traffic_fee(escrow)
        assert ledger.balance("prov") == escrow.amount

    def test_traffic_fee_refund(self, ledger, params):
        engine = FeeEngine(ledger, params)
        ledger.mint("client", 10_000)
        escrow = engine.commit_traffic_fee("client", "prov", 1000)
        engine.refund_traffic_fee(escrow)
        assert ledger.balance("client") == 10_000
        assert ledger.balance("prov") == 0

    def test_summary_keys(self, ledger, params):
        engine = FeeEngine(ledger, params)
        assert {"total_traffic_fees", "total_gas_fees", "rent_collected"} <= set(engine.summary())
