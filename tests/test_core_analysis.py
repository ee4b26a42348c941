"""Tests for the closed-form Theorems 1-4."""


import pytest

from repro.core.analysis import (
    FilePopulation,
    expected_file_loss_probability,
    expected_lost_value_fraction,
    scalability_r1,
    scalability_r2,
    theorem1_max_storable_size,
    theorem2_collision_probability_bound,
    theorem3_loss_ratio_bound,
    theorem4_deposit_ratio_bound,
)

GIB = 1 << 30


class TestFilePopulation:
    def test_aggregates(self):
        population = FilePopulation(sizes=(10, 20), values=(1, 3))
        assert population.total_size == 30
        assert population.total_value == 4
        assert population.size_value_product == 10 + 60

    def test_validation(self):
        with pytest.raises(ValueError):
            FilePopulation(sizes=(1,), values=(1, 2))
        with pytest.raises(ValueError):
            FilePopulation(sizes=(0,), values=(1,))


class TestTheorem1:
    def test_equal_value_population_r1_is_one(self):
        population = FilePopulation(sizes=(5, 10, 15), values=(1, 1, 1))
        assert scalability_r1(population) == pytest.approx(1.0)

    def test_r2_formula(self):
        population = FilePopulation(sizes=(100,), values=(2,))
        r2 = scalability_r2(population, min_capacity=1000, cap_para=10.0)
        assert r2 == pytest.approx(1000 * 2 / (100 * 10.0))

    def test_bound_is_linear_in_ns(self):
        one = theorem1_max_storable_size(1000, GIB, 20, r1=1.0, r2=1.0)
        ten = theorem1_max_storable_size(10_000, GIB, 20, r1=1.0, r2=1.0)
        assert ten == pytest.approx(10 * one)

    def test_bound_takes_minimum_of_two_restrictions(self):
        capacity_bound = theorem1_max_storable_size(100, GIB, 20, r1=1.0, r2=1e-6)
        value_bound = theorem1_max_storable_size(100, GIB, 20, r1=1e-6, r2=1000.0)
        assert capacity_bound == pytest.approx(100 * GIB / (2 * 20))
        assert value_bound == pytest.approx(100 * GIB / 1000.0)

    def test_invalid_ratios_rejected(self):
        with pytest.raises(ValueError):
            theorem1_max_storable_size(100, GIB, 20, r1=0, r2=1)


class TestTheorem2:
    def test_bound_decreases_with_ratio(self):
        loose = theorem2_collision_probability_bound(1e6, 100, 1)
        tight = theorem2_collision_probability_bound(1e6, 1000, 1)
        assert tight < loose

    def test_paper_operating_point_below_1e50(self):
        bound = theorem2_collision_probability_bound(1e12, 1000, 1)
        assert bound < 1e-50

    def test_bound_scales_linearly_with_ns(self):
        a = theorem2_collision_probability_bound(10, 500, 1)
        b = theorem2_collision_probability_bound(20, 500, 1)
        assert b == pytest.approx(2 * a)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            theorem2_collision_probability_bound(10, 0, 1)


class TestTheorem3:
    PAPER = dict(k=20, ns=1e6, cap_para=1e3, gamma_m_v=0.005, security_c=1e-18)

    def test_paper_example_first_two_terms_match(self):
        """The paper's Section V-B3 example lists the first two max-terms as
        5e-6 and 0.001; check the formula reproduces them exactly."""
        assert 5 * 0.5**20 == pytest.approx(5e-6, rel=0.05)
        assert 0.5 ** (20 / 2) == pytest.approx(0.001, rel=0.05)

    def test_loss_below_one_permille_when_network_reasonably_utilised(self):
        """The headline "<= 0.1% lost at lambda=0.5" claim.

        Evaluated exactly as written, Theorem 3's third term equals 0.04 at
        gamma_m_v = 0.005 (the paper's inline example appears to mis-evaluate
        it; see EXPERIMENTS.md).  The 0.1% claim does hold once the network
        carries at least ~20% of its maximum value, which is the regime we
        assert here.
        """
        bound = theorem3_loss_ratio_bound(
            lam=0.5, k=20, ns=1e6, cap_para=1e3, gamma_m_v=0.25, security_c=1e-18
        )
        assert bound <= 0.001 + 1e-12
        assert bound == pytest.approx(0.5 ** 10)

    def test_third_term_scales_inversely_with_gamma_m_v(self):
        low = theorem3_loss_ratio_bound(lam=0.5, k=20, ns=1e6, cap_para=1e3, gamma_m_v=0.001)
        high = theorem3_loss_ratio_bound(lam=0.5, k=20, ns=1e6, cap_para=1e3, gamma_m_v=0.01)
        assert low == pytest.approx(10 * high, rel=0.05)

    def test_bound_increases_with_lambda(self):
        low = theorem3_loss_ratio_bound(lam=0.3, **self.PAPER)
        high = theorem3_loss_ratio_bound(lam=0.6, **self.PAPER)
        assert high > low

    def test_bound_decreases_with_k(self):
        weak = theorem3_loss_ratio_bound(lam=0.5, k=6, ns=1e6, cap_para=1e3, gamma_m_v=0.005)
        strong = theorem3_loss_ratio_bound(lam=0.5, k=30, ns=1e6, cap_para=1e3, gamma_m_v=0.005)
        assert strong < weak

    def test_bound_always_at_least_expected_loss(self):
        for lam in (0.2, 0.4, 0.6, 0.8):
            bound = theorem3_loss_ratio_bound(lam=lam, **self.PAPER)
            assert bound >= expected_lost_value_fraction(lam, 20)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            theorem3_loss_ratio_bound(lam=0.0, **self.PAPER)
        with pytest.raises(ValueError):
            theorem3_loss_ratio_bound(lam=1.0, **self.PAPER)


class TestTheorem4:
    PAPER = dict(k=20, ns=1e6, cap_para=1e3, security_c=1e-18)

    def test_paper_example_deposit_ratio(self):
        bound = theorem4_deposit_ratio_bound(lam=0.5, **self.PAPER)
        assert bound == pytest.approx(0.0046, abs=0.0002)

    def test_deposit_ratio_increases_with_lambda(self):
        assert theorem4_deposit_ratio_bound(lam=0.75, **self.PAPER) > theorem4_deposit_ratio_bound(
            lam=0.5, **self.PAPER
        )

    def test_deposit_ratio_covers_loss_ratio(self):
        """Consistency: gamma_deposit * lambda >= gamma_lost bound / capPara terms.

        The deposit of the corrupted lambda fraction must cover the lost
        value; sanity-check the two bounds are mutually consistent at the
        paper's parameters (Theorem 4 is derived from Theorem 3).
        """
        lam = 0.5
        deposit = theorem4_deposit_ratio_bound(lam=lam, **self.PAPER)
        loss = theorem3_loss_ratio_bound(lam=lam, gamma_m_v=1.0, k=20, ns=1e6, cap_para=1e3)
        # gamma_deposit * lambda * Nm_v >= gamma_lost * Nv  with Nv <= Nm_v
        assert deposit * lam >= loss - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            theorem4_deposit_ratio_bound(lam=0.5, k=20, ns=1.0, cap_para=1e3)
        with pytest.raises(ValueError):
            theorem4_deposit_ratio_bound(lam=0.5, k=20, ns=1e6, cap_para=1e3, security_c=2.0)


class TestExpectations:
    def test_loss_probability_is_lambda_to_k(self):
        assert expected_file_loss_probability(0.5, 3) == pytest.approx(0.125)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            expected_file_loss_probability(1.5, 3)
        with pytest.raises(ValueError):
            expected_file_loss_probability(0.5, 0)
