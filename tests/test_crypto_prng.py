"""Tests for the deterministic PRNG."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles.lifecycle_oracles import weighted_index
from repro.crypto.prng import DeterministicPRNG, exp_countdowns


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

    @pytest.mark.parametrize("consumed", [0, 1, 6, 7, 31, 32, 33])
    @pytest.mark.parametrize("count", [0, 1, 5, 1000])
    def test_countdown_decoder_is_the_scalar_draw_repeated(self, consumed, count):
        loop, batch = DeterministicPRNG(b"seed"), DeterministicPRNG(b"seed")
        loop.random_bytes(consumed)
        batch.random_bytes(consumed)
        want = [max(1, math.ceil(loop.expovariate(2.5))) for _ in range(count)]
        data = batch.random_bytes(7 * count)
        got = exp_countdowns(data, 2.5)
        assert got.dtype == np.int64 and got.tolist() == want
        assert batch.state_fingerprint() == loop.state_fingerprint()
        # The same words read at offsets, behind three bytes of another read.
        offsets = range(3, 3 + 7 * count, 7)
        assert exp_countdowns(b"\xff" * 3 + data, 2.5, offsets).tolist() == want

    def test_countdown_decoder_rejects_bad_arguments(self):
        prng = DeterministicPRNG(b"seed")
        for mean in (0, -2.5):
            with pytest.raises(ValueError, match="mean must be positive"):
                exp_countdowns(bytes(21), mean)
        with pytest.raises(ValueError):  # a negative count reads nothing
            exp_countdowns(prng.random_bytes(7 * -1), 1.0)
        with pytest.raises(ValueError, match="7-byte words"):
            exp_countdowns(bytes(20), 1.0)
        for offsets in ([14], [0, 14]):  # a word ending past the data
            with pytest.raises(IndexError):
                exp_countdowns(bytes(20), 1.0, offsets)
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


class TestUnread:
    """A reader may take a window of the stream and push its unread tail
    back: the generator must end exactly where the shorter read leaves it."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        reads=st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=4),
        pushed_back=st.integers(min_value=0, max_value=80),
    )
    @example(reads=[32], pushed_back=32)  # back to the start of a block
    @example(reads=[64], pushed_back=31)  # into the block before the last
    @example(reads=[33], pushed_back=1)  # off a one-byte block tail
    @example(reads=[5, 59], pushed_back=0)
    def test_pushback_equals_the_shorter_read(self, reads, pushed_back):
        read = sum(reads)
        assume(pushed_back <= read)
        windowed, plain = DeterministicPRNG(b"seed"), DeterministicPRNG(b"seed")
        for length in reads:
            windowed.random_bytes(length)
        windowed.unread(pushed_back)
        plain.random_bytes(read - pushed_back)
        assert windowed.state_fingerprint() == plain.state_fingerprint()
        assert windowed.random_bytes(100) == plain.random_bytes(100)

    @pytest.mark.parametrize("count", [-1, 11])
    def test_cannot_push_back_more_than_was_read(self, count):
        prng = DeterministicPRNG(b"seed")
        prng.random_bytes(10)
        before = prng.state_fingerprint()
        with pytest.raises(ValueError, match="cannot unread"):
            prng.unread(count)
        assert prng.state_fingerprint() == before


_READS = st.one_of(
    st.just(("random", 0)),
    st.tuples(st.just("bytes"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("randint"), st.integers(min_value=0, max_value=1 << 20)),
    st.tuples(st.just("unread"), st.integers(min_value=0, max_value=40)),
)


class TestRandomFastPath:
    """``random()`` reads a buffered word in place; it must equal a twin
    that reads every float as ``random_uint(53) / 2**53``, value for value
    and state for state, across 32-byte block boundaries."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(reads=st.lists(_READS, min_size=1, max_size=40))
    @example(reads=[("bytes", 25), ("random", 0), ("random", 0)])  # word ends a block
    @example(reads=[("bytes", 26), ("random", 0)])  # word straddles two blocks
    @example(reads=[("random", 0)] * 10)
    @example(reads=[("bytes", 40), ("unread", 10), ("random", 0), ("randint", 9)])
    def test_fast_path_equals_the_uint_read(self, reads):
        fast, twin = DeterministicPRNG(b"seed"), DeterministicPRNG(b"seed")
        for kind, argument in reads:
            if kind == "random":
                assert fast.random() == twin.random_uint(53) / 2**53
            elif kind == "bytes":
                assert fast.random_bytes(argument) == twin.random_bytes(argument)
            elif kind == "randint":
                assert fast.randint(0, argument) == twin.randint(0, argument)
            else:
                refused = []
                for prng in (fast, twin):
                    try:
                        prng.unread(argument)
                        refused.append(False)
                    except ValueError:
                        refused.append(True)
                assert refused[0] == refused[1]
            assert fast.state_fingerprint() == twin.state_fingerprint()
        assert fast.random_bytes(64) == twin.random_bytes(64)


def _word_bytes(words: np.ndarray) -> bytes:
    """The 7-byte stream words whose top 53 bits are ``words``."""
    shifted = (words.astype(np.uint64) << np.uint64(3)).astype(">u8")
    return shifted.view(np.uint8).reshape(-1, 8)[:, 1:].tobytes()


class _GivenUniforms(DeterministicPRNG):
    """A generator whose ``random()`` returns ``words / 2**53`` in turn."""

    def __init__(self, words: np.ndarray) -> None:
        super().__init__(b"seed")
        self.random = iter((words / 2.0**53).tolist()).__next__


def _log_off_by(ulps: int):
    """``np.log`` moved ``ulps`` ulp towards +inf (positive) or -inf."""
    log = np.log

    def shifted(values):
        out = log(values)
        for _ in range(abs(ulps)):
            out = np.nextafter(out, math.copysign(math.inf, ulps))
        return out

    return shifted


class TestCountdownBoundaries:
    """Words whose draw lands next to an integer, where ``ceil`` turns."""

    @pytest.fixture(scope="class", params=[1.0, 4.0, 50.0], ids=lambda mean: f"mean={mean:g}")
    def scan(self, request):
        mean = request.param
        centres = [
            math.floor((1.0 - math.exp(-k / mean)) * 2**53) for k in range(1, 201)
        ]
        words = np.unique(
            np.clip(np.add.outer(centres, np.arange(-2000, 2001)), 0, 2**53 - 1)
        )
        source = _GivenUniforms(words)
        want = [max(1, math.ceil(source.expovariate(mean))) for _ in range(len(words))]
        return mean, _word_bytes(words), want

    @pytest.mark.parametrize("ulps", [0, 4, -4])
    def test_decoder_equals_the_scalar_rule_next_to_every_integer(self, scan, ulps, monkeypatch):
        """Also with an ``np.log`` 4 ulp off either way: the band recomputes
        every draw such a log could round up differently."""
        mean, data, want = scan
        if ulps:
            monkeypatch.setattr(np, "log", _log_off_by(ulps))
        assert exp_countdowns(data, mean).tolist() == want

    def test_np_log_is_within_four_ulp_of_libm(self):
        """The decoder's band assumes it; a numpy with a worse ``log``
        fails here instead of shifting a countdown."""
        values = 1.0 - np.random.default_rng(0).random(100_000)  # in (0, 1]
        libm = np.array([math.log(value) for value in values.tolist()])
        gap = np.abs(np.log(values) - libm) / np.spacing(np.abs(libm))
        assert gap.max() <= 4
