"""Tests for protocol parameters and derived quantities."""

import pytest

from repro.core.params import GIB, ProtocolParams


class TestReplicaCount:
    def test_unit_value_gets_k_replicas(self):
        params = ProtocolParams(k=20, min_value=1)
        assert params.replica_count(1) == 20

    def test_replicas_linear_in_value(self):
        params = ProtocolParams(k=20, min_value=1)
        assert params.replica_count(3) == 60

    def test_value_must_be_multiple_of_min_value(self):
        params = ProtocolParams(min_value=5)
        with pytest.raises(ValueError):
            params.replica_count(7)

    def test_value_must_be_positive(self):
        params = ProtocolParams()
        with pytest.raises(ValueError):
            params.replica_count(0)


class TestDeposit:
    def test_deposit_proportional_to_capacity(self):
        params = ProtocolParams(min_capacity=GIB, deposit_ratio=0.01, cap_para=100.0)
        one = params.sector_deposit(GIB)
        four = params.sector_deposit(4 * GIB)
        assert four == pytest.approx(4 * one, rel=0.01)

    def test_deposit_formula_matches_paper(self):
        # capacity * gamma_deposit * capPara * minValue / minCapacity
        params = ProtocolParams(min_capacity=GIB, deposit_ratio=0.0046, cap_para=1000.0, min_value=10)
        expected = 2 * 0.0046 * 1000.0 * 10
        assert params.sector_deposit(2 * GIB) == pytest.approx(expected, rel=0.01)

    def test_capacity_must_be_multiple_of_min_capacity(self):
        params = ProtocolParams(min_capacity=GIB)
        with pytest.raises(ValueError):
            params.sector_deposit(GIB + 1)

    def test_deposit_never_zero(self):
        params = ProtocolParams(min_capacity=GIB, deposit_ratio=1e-12)
        assert params.sector_deposit(GIB) >= 1


class TestFeesAndTimes:
    def test_transfer_deadline_scales_with_size(self):
        params = ProtocolParams(delay_per_size=2.0)
        assert params.transfer_deadline(10) == pytest.approx(20.0)

    def test_rent_scales_with_size_and_replicas(self):
        params = ProtocolParams(rent_per_byte_cycle=0.001)
        assert params.rent_for_cycle(1000, 10) == 10
        assert params.rent_for_cycle(0, 10) == 0
        assert params.rent_for_cycle(1, 1) >= 1  # never zero for non-empty files

    def test_traffic_fee(self):
        params = ProtocolParams(traffic_fee_per_byte=0.01)
        assert params.traffic_fee(1000) == 10
        assert params.traffic_fee(0) == 0

    def test_max_value_capacity(self):
        params = ProtocolParams(min_capacity=GIB, cap_para=1000.0, min_value=1)
        assert params.max_value_capacity(10 * GIB) == 10_000


class TestPresets:
    def test_small_test_keeps_redundancy_and_positive_times(self):
        params = ProtocolParams.small_test()
        assert params.redundancy_factor >= 2.0
        assert params.proof_due > params.proof_cycle
        assert params.proof_deadline > params.proof_due
        assert params.capacity_replica_size < params.min_capacity

    def test_paper_defaults_match_section_v(self):
        params = ProtocolParams()
        assert params.k == 20
        assert params.cap_para == 1000.0
        assert params.security_c == 1e-18

    def test_scaled_overrides_only_selected_fields(self):
        params = ProtocolParams.small_test()
        scaled = params.scaled(k=7)
        assert scaled.k == 7
        assert scaled.min_capacity == params.min_capacity
