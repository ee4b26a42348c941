"""Tests for the Fenwick-tree weighted sampler and the capacity selector."""

import pytest

from repro.core.selector import CapacitySelector, SamplerInvariantError, WeightedSampler
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import resolve_backend_name


@pytest.fixture
def sampler_prng():
    return DeterministicPRNG.from_int(99, domain="selector-test")


def _kernel_selector(backend, seed=99, max_attempts=1000):
    return CapacitySelector(
        DeterministicPRNG.from_int(seed, domain="selector-test"),
        max_attempts=max_attempts,
        backend=backend,
    )


class TestWeightedSampler:
    def test_add_and_total_weight(self):
        sampler = WeightedSampler()
        sampler.add("a", 10)
        sampler.add("b", 30)
        assert sampler.total_weight == 40
        assert len(sampler) == 2
        assert set(sampler.keys()) == {"a", "b"}

    def test_duplicate_key_rejected(self):
        sampler = WeightedSampler()
        sampler.add("a", 1)
        with pytest.raises(KeyError):
            sampler.add("a", 2)

    def test_negative_weight_rejected(self):
        sampler = WeightedSampler()
        with pytest.raises(ValueError):
            sampler.add("a", -1)

    def test_remove_and_slot_reuse(self):
        sampler = WeightedSampler()
        for name in "abcde":
            sampler.add(name, 5)
        sampler.remove("c")
        assert not sampler.contains("c")
        sampler.add("f", 7)
        assert sampler.total_weight == 4 * 5 + 7

    def test_update_weight(self):
        sampler = WeightedSampler()
        sampler.add("a", 10)
        sampler.update_weight("a", 3)
        assert sampler.weight("a") == 3
        assert sampler.total_weight == 3

    def test_sample_respects_weights(self, sampler_prng):
        sampler = WeightedSampler()
        sampler.add("heavy", 90)
        sampler.add("light", 10)
        counts = {"heavy": 0, "light": 0}
        for _ in range(2000):
            counts[sampler.sample(sampler_prng)] += 1
        assert 0.8 < counts["heavy"] / 2000 < 0.98

    def test_sample_never_returns_zero_weight_key(self, sampler_prng):
        sampler = WeightedSampler()
        sampler.add("zero", 0)
        sampler.add("one", 1)
        for _ in range(200):
            assert sampler.sample(sampler_prng) == "one"

    def test_sample_empty_raises(self, sampler_prng):
        with pytest.raises(ValueError):
            WeightedSampler().sample(sampler_prng)

    def test_sample_after_removal_excludes_removed(self, sampler_prng):
        sampler = WeightedSampler()
        sampler.add("a", 50)
        sampler.add("b", 50)
        sampler.remove("a")
        for _ in range(100):
            assert sampler.sample(sampler_prng) == "b"

    def test_key_at_offset_walks_the_weight_line_in_slot_order(self):
        sampler = WeightedSampler()
        for key, weight in [("a", 2), ("b", 0), ("c", 3), ("d", 1)]:
            sampler.add(key, weight)
        assert [sampler.key_at_offset(o) for o in range(6)] == list("aacccd")
        sampler.update_weight("c", 0)
        assert [sampler.key_at_offset(o) for o in range(3)] == list("aad")
        for offset in (-1, 3):
            with pytest.raises(ValueError):
                sampler.key_at_offset(offset)

    def test_large_population_uniformity(self, sampler_prng):
        sampler = WeightedSampler()
        for i in range(200):
            sampler.add(f"s{i}", 1)
        counts = {}
        draws = 10_000
        for _ in range(draws):
            key = sampler.sample(sampler_prng)
            counts[key] = counts.get(key, 0) + 1
        expected = draws / 200
        assert max(counts.values()) < expected * 3


class TestSamplerInvariantError:
    def test_corrupted_tree_raises_with_state(self, sampler_prng):
        sampler = WeightedSampler()
        sampler.add("only", 10)
        # Corrupt the slot->key mapping behind the Fenwick tree's back:
        # the prefix sums still point at slot 0, which now has no key.
        sampler._keys[0] = None
        with pytest.raises(SamplerInvariantError) as excinfo:
            sampler.sample(sampler_prng)
        error = excinfo.value
        assert error.slot == 0
        assert error.weight == 10
        assert error.total == 10
        assert 0 <= error.target < 10
        assert "Fenwick tree is inconsistent" in str(error)

    def test_is_a_runtime_error(self):
        # Callers that caught the old bare RuntimeError keep working.
        assert issubclass(SamplerInvariantError, RuntimeError)

    def test_empty_sampler_still_raises_value_error(self, sampler_prng):
        # The zero-weight case is a *caller* error, not an invariant break.
        with pytest.raises(ValueError):
            WeightedSampler().sample(sampler_prng)


class TestSlotViews:
    def test_slot_weights_track_membership(self):
        sampler = WeightedSampler()
        sampler.add("a", 5)
        sampler.add("b", 7)
        sampler.remove("a")
        assert sampler.slot_count == 2
        assert sampler.slot_weights().tolist() == [0, 7]
        assert sampler.key_at(0) is None
        assert sampler.key_at(1) == "b"


class TestCapacitySelectorBackends:
    BACKENDS = ("reference", "vectorized")

    def test_backend_name_recorded(self):
        assert _kernel_selector("reference").backend == "reference"
        assert _kernel_selector("vectorized").backend == "vectorized"
        # No backend named: resolved like "auto", never a second draw path.
        default = CapacitySelector(DeterministicPRNG.from_int(0, domain="x"))
        assert default.backend == resolve_backend_name(None)

    def test_random_sector_identical_across_backends(self):
        draws = {}
        for backend in self.BACKENDS:
            selector = _kernel_selector(backend)
            selector.add_sector("big", 900)
            selector.add_sector("small", 100)
            draws[backend] = [selector.random_sector() for _ in range(200)]
        assert draws["reference"] == draws["vectorized"]
        assert draws["reference"].count("big") > draws["reference"].count("small") * 4

    def test_random_sector_is_random_slot_by_name(self):
        """One draw body: the slot-level pop serves the same sequence, and
        refills only when a draw finds the buffer empty."""
        by_name, by_slot = (
            CapacitySelector(
                DeterministicPRNG.from_int(7, domain="selector-test"),
                backend="vectorized",
                draw_batch=4,
            )
            for _ in range(2)
        )
        for selector in (by_name, by_slot):
            selector.add_sector("big", 900)
            selector.add_sector("small", 100)
        for served in range(1, 11):
            slot = by_slot.random_slot()
            assert type(slot) is int
            assert by_name.random_sector() == ("big", "small")[slot]
            assert by_slot._draw_calls == by_name._draw_calls == -(-served // 4)
            assert len(by_slot._draw_buffer) == -served % 4

    def test_single_placements_identical_and_counts(self):
        outcomes = {}
        for backend in self.BACKENDS:
            selector = _kernel_selector(backend, max_attempts=50)
            selector.add_sector("full", 1000, free=0)
            selector.add_sector("open", 1000, free=500)
            # The caller never reports a reservation, so "open" keeps its
            # 500 free across the twenty one-replica calls.
            chosen = [selector.select_batch([100])[0] for _ in range(20)]
            outcomes[backend] = (chosen, selector.samples, selector.collisions)
        assert outcomes["reference"] == outcomes["vectorized"]
        chosen, samples, collisions = outcomes["reference"]
        assert set(chosen) == {"open"}
        assert samples == 20 + collisions

    def test_placement_gives_up_after_max_attempts(self):
        for backend in (None,) + self.BACKENDS:
            selector = _kernel_selector(backend, max_attempts=50)
            selector.add_sector("full", 1000, free=0)
            assert selector.select_batch([10]) == [None]
            assert selector.collisions == 50
            assert selector.samples == 50

    def test_placement_on_empty_selector(self):
        for backend in (None,) + self.BACKENDS:
            assert _kernel_selector(backend).select_batch([1]) == [None]

    def test_select_batch_debits_free_space_between_picks(self):
        """The kernel's private free table mirrors the reserve() calls the
        protocol performs after a batched File Add selection."""
        for backend in self.BACKENDS:
            selector = _kernel_selector(backend)
            selector.add_sector("only", 100, free=150)
            batch = selector.select_batch([100, 100])
            # The first replica fits; the second must collide out even
            # though the selector's own table still says 150.
            assert batch == ["only", None]
            assert selector.tracked_free("only") == 150

    def test_select_batch_identical_across_backends(self):
        outcomes = {}
        for backend in self.BACKENDS:
            selector = _kernel_selector(backend)
            selector.add_sector("a", 600, free=128)
            selector.add_sector("b", 400, free=64)
            picks = selector.select_batch([64, 64, 64])
            outcomes[backend] = (picks, selector.samples, selector.collisions)
        assert outcomes["reference"] == outcomes["vectorized"]
        picks = outcomes["reference"][0]
        # 192 bytes fit in total, so every replica lands somewhere, and
        # each sector only has room for its own share (2x64 / 1x64).
        assert None not in picks
        assert sorted(picks) == ["a", "a", "b"]

    def test_removal_excludes_sector_from_kernel_draws(self):
        for backend in self.BACKENDS:
            selector = _kernel_selector(backend)
            selector.add_sector("a", 50)
            selector.add_sector("b", 50)
            selector.remove_sector("a")
            assert all(selector.random_sector() == "b" for _ in range(50))


class TestCapacitySelector:
    def test_random_sector_proportional_to_capacity(self, sampler_prng):
        selector = CapacitySelector(sampler_prng)
        selector.add_sector("big", 900)
        selector.add_sector("small", 100)
        counts = {"big": 0, "small": 0}
        for _ in range(2000):
            counts[selector.random_sector()] += 1
        assert counts["big"] > counts["small"] * 4

    def test_placement_skips_full_sectors(self, sampler_prng):
        selector = CapacitySelector(sampler_prng)
        selector.add_sector("full", 500)
        selector.add_sector("empty", 500)
        selector.set_free("full", 0)
        assert selector.select_batch([100]) == ["empty"]
        assert selector.samples == 1 + selector.collisions

    def test_set_free_ignores_unselectable_sectors(self, sampler_prng):
        selector = CapacitySelector(sampler_prng)
        selector.set_free("gone", 10**6)
        assert selector.tracked_free("gone") == -1

    def test_remove_sector_idempotent(self, sampler_prng):
        selector = CapacitySelector(sampler_prng)
        selector.add_sector("a", 10)
        selector.remove_sector("a")
        selector.remove_sector("a")
        assert len(selector) == 0
        assert selector.total_capacity == 0
