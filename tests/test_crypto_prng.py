"""Tests for the deterministic PRNG."""


import pytest

from oracles.lifecycle_oracles import weighted_index
from repro.crypto.prng import DeterministicPRNG


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicPRNG(b"seed")
        b = DeterministicPRNG(b"seed")
        assert a.random_bytes(64) == b.random_bytes(64)

    def test_different_seeds_differ(self):
        a = DeterministicPRNG(b"seed-a")
        b = DeterministicPRNG(b"seed-b")
        assert a.random_bytes(64) != b.random_bytes(64)

    def test_domain_separation(self):
        a = DeterministicPRNG(b"seed", domain="x")
        b = DeterministicPRNG(b"seed", domain="y")
        assert a.random_bytes(32) != b.random_bytes(32)

    def test_spawn_independent_children(self):
        parent = DeterministicPRNG(b"seed")
        c1 = parent.spawn("child", 0)
        c2 = parent.spawn("child", 1)
        assert c1.random_bytes(32) != c2.random_bytes(32)

    def test_from_int_deterministic(self):
        assert (
            DeterministicPRNG.from_int(42).random_bytes(16)
            == DeterministicPRNG.from_int(42).random_bytes(16)
        )


class TestDistributions:
    def test_randint_within_bounds(self):
        prng = DeterministicPRNG(b"seed")
        values = [prng.randint(3, 9) for _ in range(500)]
        assert all(3 <= v <= 9 for v in values)
        assert set(values) == set(range(3, 10))

    def test_randint_single_value_range(self):
        prng = DeterministicPRNG(b"seed")
        assert prng.randint(5, 5) == 5

    def test_randint_rejects_inverted_range(self):
        prng = DeterministicPRNG(b"seed")
        with pytest.raises(ValueError):
            prng.randint(5, 4)

    def test_random_in_unit_interval(self):
        prng = DeterministicPRNG(b"seed")
        values = [prng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.05

    def test_expovariate_mean(self):
        prng = DeterministicPRNG(b"seed")
        mean = 10.0
        values = [prng.expovariate(mean) for _ in range(3000)]
        assert all(v >= 0 for v in values)
        assert abs(sum(values) / len(values) - mean) < 1.0

    def test_expovariate_rejects_nonpositive_mean(self):
        prng = DeterministicPRNG(b"seed")
        with pytest.raises(ValueError):
            prng.expovariate(0)

    @pytest.mark.parametrize("consumed", [0, 3, 31, 32])
    @pytest.mark.parametrize("count", [0, 1, 5, 1000])
    def test_expovariates_is_the_scalar_draw_repeated(self, consumed, count):
        loop, batch = DeterministicPRNG(b"seed"), DeterministicPRNG(b"seed")
        loop.random_bytes(consumed)
        batch.random_bytes(consumed)
        assert batch.expovariates(2.5, count) == [
            loop.expovariate(2.5) for _ in range(count)
        ]
        assert batch.state_fingerprint() == loop.state_fingerprint()

    def test_expovariates_rejects_bad_arguments(self):
        prng = DeterministicPRNG(b"seed")
        with pytest.raises(ValueError):
            prng.expovariates(0, 3)
        with pytest.raises(ValueError):
            prng.expovariates(1.0, -1)
        assert prng.state_fingerprint() == DeterministicPRNG(b"seed").state_fingerprint()

    def test_weighted_index_respects_weights(self):
        prng = DeterministicPRNG(b"seed")
        counts = [0, 0]
        for _ in range(2000):
            counts[weighted_index(prng, [1.0, 9.0])] += 1
        assert counts[1] > counts[0] * 4

    def test_weighted_index_rejects_zero_total(self):
        prng = DeterministicPRNG(b"seed")
        with pytest.raises(ValueError):
            weighted_index(prng, [0.0, 0.0])


class TestSequences:
    def test_choice_returns_member(self):
        prng = DeterministicPRNG(b"seed")
        items = ["a", "b", "c"]
        assert all(prng.choice(items) in items for _ in range(50))

    def test_choice_empty_raises(self):
        prng = DeterministicPRNG(b"seed")
        with pytest.raises(IndexError):
            prng.choice([])

    def test_shuffle_is_permutation(self):
        prng = DeterministicPRNG(b"seed")
        items = list(range(20))
        shuffled = list(items)
        prng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_indices_distinct(self):
        prng = DeterministicPRNG(b"seed")
        indices = prng.sample_indices(100, 10)
        assert len(indices) == len(set(indices)) == 10
        assert all(0 <= i < 100 for i in indices)

    def test_sample_indices_too_many_raises(self):
        prng = DeterministicPRNG(b"seed")
        with pytest.raises(ValueError):
            prng.sample_indices(5, 6)


class TestMisc:
    def test_random_bytes_negative_raises(self):
        with pytest.raises(ValueError):
            DeterministicPRNG(b"seed").random_bytes(-1)

    def test_seed_must_be_bytes(self):
        with pytest.raises(TypeError):
            DeterministicPRNG("not-bytes")  # type: ignore[arg-type]

    def test_state_fingerprint_changes_after_use(self):
        prng = DeterministicPRNG(b"seed")
        before = prng.state_fingerprint()
        prng.random_bytes(10)
        assert prng.state_fingerprint() != before
