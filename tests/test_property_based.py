"""Property-based tests (hypothesis) on core data structures and invariants.

The sampler-kernel differential pack at the bottom runs with a pinned
``derandomize=True`` profile so the hypothesis-generated requests are
identical on every run -- CI failures reproduce locally
bit-for-bit, and the cross-backend comparisons never flake.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles.kernel_oracle import BACKENDS, U32Randint
from repro.chain.ledger import Ledger
from repro.core.large_files import LargeFileCodec
from repro.core.selector import CapacitySelector, WeightedSampler
from repro.crypto.erasure import ReedSolomonCode
from repro.crypto.merkle import MerkleTree
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import sampler_stream
from repro.kernels.sampling import DrawTable, U32Stream
from repro.storage.provider import StorageProvider

SETTINGS = settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None)

#: Differential-pack profile: derandomized (same examples every run, no
#: example database) so the CI tier-1 job is deterministic.
DIFF_SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Merkle trees
# ----------------------------------------------------------------------
@SETTINGS
@given(
    st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=20),
    st.integers(min_value=0, max_value=19),
)
def test_merkle_root_sensitive_to_any_leaf_change(leaves, position):
    position = position % len(leaves)
    tree = MerkleTree(leaves)
    mutated = list(leaves)
    mutated[position] = mutated[position] + b"\x01"
    assert MerkleTree(mutated).root != tree.root


# ----------------------------------------------------------------------
# Reed-Solomon erasure code
# ----------------------------------------------------------------------
@SETTINGS
@given(
    data=st.binary(min_size=0, max_size=300),
    data_shards=st.integers(min_value=1, max_value=6),
    parity_shards=st.integers(min_value=0, max_value=6),
    drop_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reed_solomon_recovers_from_any_sufficient_subset(
    data, data_shards, parity_shards, drop_seed
):
    code = ReedSolomonCode(data_shards, parity_shards)
    shards = code.encode(data)
    prng = DeterministicPRNG.from_int(drop_seed, domain="rs-drop")
    surviving = list(shards)
    prng.shuffle(surviving)
    surviving = surviving[:data_shards]
    assert code.decode(surviving) == data


# ----------------------------------------------------------------------
# Weighted sampler (Fenwick tree)
# ----------------------------------------------------------------------
@SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        min_size=1,
        max_size=60,
    )
)
def test_weighted_sampler_total_weight_matches_contents(operations):
    sampler = WeightedSampler()
    expected = {}
    for index, (weight, remove_later) in enumerate(operations):
        key = f"k{index}"
        sampler.add(key, weight)
        expected[key] = weight
        if remove_later and index % 2 == 0:
            sampler.remove(key)
            del expected[key]
    assert sampler.total_weight == sum(expected.values())
    assert len(sampler) == len(expected)
    if sampler.total_weight > 0:
        prng = DeterministicPRNG.from_int(1, domain="sampler-prop")
        for _ in range(10):
            key = sampler.sample(prng)
            assert expected.get(key, 0) > 0


# ----------------------------------------------------------------------
# Ledger conservation
# ----------------------------------------------------------------------
@SETTINGS
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["mint", "transfer", "lock", "release", "confiscate", "burn"]),
            st.integers(min_value=1, max_value=1000),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_ledger_conservation_under_arbitrary_operation_sequences(operations):
    ledger = Ledger()
    accounts = [f"acct-{i}" for i in range(4)]
    for op, amount, a, b in operations:
        src, dst = accounts[a], accounts[b]
        ledger.ensure_account(src)
        ledger.ensure_account(dst)
        try:
            if op == "mint":
                ledger.mint(src, amount)
            elif op == "transfer":
                ledger.transfer(src, dst, amount)
            elif op == "lock":
                ledger.lock(src, amount)
            elif op == "release":
                ledger.release(src, amount)
            elif op == "confiscate":
                ledger.confiscate(src, amount, recipient=dst)
            elif op == "burn":
                ledger.burn(src, amount)
        except Exception:
            # Failed operations must not corrupt the books either.
            pass
        assert ledger.check_conservation()


# ----------------------------------------------------------------------
# DRep invariant
# ----------------------------------------------------------------------
@SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(min_value=4, max_value=40), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
def test_drep_unsealed_space_always_below_one_cr(file_operations):
    sector = StorageProvider("prov", disk_capacity=2000).create_sector(
        "s0", 1000, capacity_replica_size=50
    )
    stored = []
    for index, (size, remove_one) in enumerate(file_operations):
        root = index.to_bytes(32, "big")
        if size <= sector.free_capacity:
            sector.store_file(root, index.to_bytes(4, "big").ljust(size, b"\0"))
            stored.append(root)
        if remove_one and stored:
            sector.remove_file(stored.pop())
        assert sector.unsealed_space() < 50
        assert (
            sector.used_by_files + 50 * sector.capacity_replica_count
            + sector.unsealed_space() == 1000
        )


# ----------------------------------------------------------------------
# PRNG ranges
# ----------------------------------------------------------------------
@SETTINGS
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=0, max_value=200),
)
def test_prng_randint_always_within_bounds(seed, low, span):
    prng = DeterministicPRNG.from_int(seed, domain="prop-randint")
    high = low + span
    for _ in range(20):
        value = prng.randint(low, high)
        assert low <= value <= high


# ----------------------------------------------------------------------
# Large-file segmentation
# ----------------------------------------------------------------------
@SETTINGS
@given(
    data=st.binary(min_size=1, max_size=600),
    size_limit=st.integers(min_value=16, max_value=128),
    drop_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_large_file_survives_loss_of_half_the_segments(data, size_limit, drop_seed):
    codec = LargeFileCodec(size_limit=size_limit, k=10)
    segmented = codec.split(data, value=10)
    prng = DeterministicPRNG.from_int(drop_seed, domain="segment-drop")
    surviving = list(segmented.segments)
    prng.shuffle(surviving)
    # Keep exactly half the segments (the paper's survivability target).
    surviving = surviving[: segmented.total_segments // 2]
    assert codec.reassemble(segmented, surviving) == data


# ----------------------------------------------------------------------
# Sampler-kernel differential pack: reference vs vectorized, bit for bit
# ----------------------------------------------------------------------
@st.composite
def sampler_requests(draw, kinds=("draw", "place")):
    """A weight table, one request of one of ``kinds``, and a free table.

    The kernel takes exactly one request per call against a table that is
    constant for the call: ``("draw", count)`` or a ``place`` run, the
    resample-on-full loop over a column of sizes.  Zero weights (slots a
    selector has removed) and all-zero tables are generated too.
    """
    n_slots = draw(st.integers(min_value=1, max_value=12))
    table = st.lists(
        st.integers(min_value=0, max_value=1 << 40), min_size=n_slots, max_size=n_slots
    )
    weights = draw(table)
    free = draw(
        st.lists(
            st.integers(min_value=0, max_value=512), min_size=n_slots, max_size=n_slots
        )
    )
    if draw(st.sampled_from(kinds)) == "draw":
        request = ("draw", draw(st.integers(min_value=0, max_value=64)))
        if draw(st.booleans()):
            free = None  # a draw request needs no free table
    else:
        sizes = draw(st.lists(st.integers(min_value=0, max_value=256), max_size=24))
        request = (
            "place",
            np.asarray(sizes, dtype=np.int64),
            draw(st.integers(min_value=1, max_value=6)),
        )
    return weights, request, free


def _run_kernel_draw(backend_name, weights, request, free, rng):
    """Execute one request on one backend; errors are part of the outcome."""
    backend = BACKENDS[backend_name]
    try:
        result = backend.batch_weighted_draw(rng, weights, [request], free=free)
    except ValueError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", result.keys.tolist(), result.attempts, result.collisions)


@DIFF_SETTINGS
@given(batch=sampler_requests(), entropy=st.integers(min_value=0, max_value=2))
def test_batch_weighted_draw_backends_bit_identical(batch, entropy):
    """The contract itself: identical key sequences, attempt and collision
    counts -- or the identical refusal -- for every generated request,
    over a small seed grid."""
    weights, request, free = batch
    reference, vectorized = (
        _run_kernel_draw(name, weights, request, free, sampler_stream(entropy, 0))
        for name in ("reference", "vectorized")
    )
    assert reference == vectorized


class _WordReplay(np.random.PCG64):
    """A PCG64 whose raw outputs replay a known word sequence.

    A kernel call may generate past the words it consumes, so replaying
    one stream across several calls needs the test to position each call
    itself: it hands every call the shared words from the right offset,
    packed two to a raw output, low word first, as ``U32Stream`` splits
    them.
    """

    def __init__(self, words):
        super().__init__(0)
        self._words = words

    def random_raw(self, size=None, output=True):
        served, self._words = self._words[: 2 * size], self._words[2 * size :]
        assert served.size == 2 * size, "the replay ran out of words"
        return served.astype("<u4").view("<u8")


def _replay(words):
    """A generator over :class:`_WordReplay`, the form a kernel call takes."""
    return np.random.Generator(_WordReplay(words))


def _words_through(words, total, accepted):
    """Words the draw protocol reads to accept ``accepted`` candidates."""
    bits = total.bit_length()
    n_words = (bits + 31) >> 5
    at = 0
    while accepted:
        value = 0
        for word in words[at : at + n_words].tolist():
            value = (value << 32) | word
        at += n_words
        accepted -= (value >> (n_words * 32 - bits)) < total
    return at


@DIFF_SETTINGS
@given(
    batch=sampler_requests(kinds=("place",)),
    entropy=st.integers(min_value=0, max_value=1),
)
def test_place_run_is_a_loop_of_one_size_runs_on_both_backends(batch, entropy):
    """A run returns the keys, attempts and collisions -- or the refusal --
    of one one-size run per size, each continuing the word stream where
    the last stopped, against a free table the loop debits itself."""
    weights, (_, sizes, max_attempts), free = batch
    words = sampler_stream(entropy, 0).integers(0, 1 << 32, 1 << 14, dtype=np.uint32)
    for backend in ("reference", "vectorized"):
        whole = _run_kernel_draw(
            backend, weights, ("place", sizes, max_attempts), free, _replay(words)
        )
        remaining = list(free)
        keys, attempts, collisions, at = [], 0, 0, 0
        for size in sizes.tolist():
            one = _run_kernel_draw(
                backend,
                weights,
                ("place", np.array([size]), max_attempts),
                remaining,
                _replay(words[at:]),
            )
            if one[0] == "error":
                assert whole == one
                return
            at += _words_through(words[at:], sum(weights), one[2])
            if one[1][0] >= 0:
                remaining[one[1][0]] -= size
            keys += one[1]
            attempts += one[2]
            collisions += one[3]
        assert whole == ("ok", keys, attempts, collisions)


@DIFF_SETTINGS
@given(batch=sampler_requests(), entropy=st.integers(min_value=0, max_value=1))
def test_reference_kernel_is_the_fenwick_oracle(batch, entropy):
    """The reference backend must be a *thin wrapper*: serving the request
    from a hand-driven WeightedSampler on the same uint32 stream
    reproduces its keys exactly."""
    weights, request, free = batch
    via_kernel = _run_kernel_draw(
        "reference", weights, request, free, sampler_stream(entropy, 0)
    )

    sampler = WeightedSampler()
    for slot, weight in enumerate(weights):
        sampler.add(slot, weight)
    adapter = U32Randint(U32Stream(sampler_stream(entropy, 0)))
    keys = []
    try:
        if request[0] == "draw":
            keys = [sampler.sample(adapter) for _ in range(request[1])]
        else:
            remaining_free = list(free)
            for size in request[1].tolist():
                placed = -1
                for _ in range(request[2]):
                    slot = sampler.sample(adapter)
                    if remaining_free[slot] >= size:
                        remaining_free[slot] -= size
                        placed = slot
                        break
                keys.append(placed)
    except ValueError:
        assert via_kernel[0] == "error"
        return
    assert via_kernel[0] == "ok" and via_kernel[1] == keys


@DIFF_SETTINGS
@given(
    weights=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=1, max_size=10
    ),
    entropy=st.integers(min_value=0, max_value=3),
)
def test_batch_draw_never_returns_zero_weight_slots(weights, entropy):
    if sum(weights) == 0:
        return
    for name in ("reference", "vectorized"):
        result = BACKENDS[name].batch_weighted_draw(
            sampler_stream(entropy, 0), weights, [("draw", 40)]
        )
        assert all(weights[int(slot)] > 0 for slot in result.keys)


@DIFF_SETTINGS
@given(entropy=st.integers(min_value=0, max_value=50))
def test_u32_stream_chunking_is_invariant(entropy):
    """Re-chunked takes read the same words -- the property that lets the
    vectorized backend decode candidates in bulk -- and the words are the
    PCG64 raw outputs split low half first, which is also what
    ``Generator.integers(0, 2**32, dtype=uint32)`` returns."""
    one = U32Stream(sampler_stream(entropy, 9))
    other = U32Stream(sampler_stream(entropy, 9))
    a = np.concatenate([one.take(3), one.take(1), one.take(5000), one.take(60)])
    b = np.concatenate([other.take(4097), other.take(967)])
    assert np.array_equal(a, b)
    raw = sampler_stream(entropy, 9).bit_generator.random_raw(2532)
    split = np.empty(5064, dtype=np.uint32)
    split[0::2] = raw & np.uint64(0xFFFFFFFF)
    split[1::2] = raw >> np.uint64(32)
    assert np.array_equal(a, split)
    integers = sampler_stream(entropy, 9).integers(0, 1 << 32, 5064, dtype=np.uint32)
    assert np.array_equal(a, integers)


@st.composite
def guide_tables(draw):
    """Weight tables the guide index must resolve exactly: runs of zero
    weights, optionally one weight topping the total up to just below or
    above ``2**32`` or just below ``2**62`` (one weight >> the rest)."""
    runs = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=1000), st.integers(1, 6)),
            min_size=1,
            max_size=12,
        )
    )
    scale = draw(st.sampled_from([1, 1 << 22, 1 << 40]))
    weights = [weight * scale for weight, length in runs for _ in range(length)]
    top = draw(st.sampled_from([None, (1 << 32) - 1, (1 << 32) + 1, (1 << 62) - 1]))
    if top is not None and top > sum(weights):
        weights[draw(st.integers(0, len(weights) - 1))] += top - sum(weights)
    if sum(weights) == 0:
        weights[-1] = 1
    return weights


@DIFF_SETTINGS
@given(weights=guide_tables(), extra=st.lists(st.integers(min_value=0), max_size=8))
@example(weights=[5], extra=[])
@example(weights=[0, 0, (1 << 62) - 4, 0, 0, 1, 1, 1], extra=[])
@example(weights=[1] * 40 + [(1 << 32) - 40] + [0] * 9, extra=[])
def test_guide_index_resolves_like_searchsorted(weights, extra):
    """``DrawTable.slots_of`` is ``searchsorted(cum, t, side="right")`` at
    0, T - 1, every prefix boundary +-1 and arbitrary targets, before and
    after its guide index is built."""
    table = DrawTable(weights)
    total = table.total
    cum = np.cumsum(np.asarray(weights, dtype=np.int64))
    targets = [0, total - 1, *(value % total for value in extra)]
    for boundary in cum.tolist():
        targets += [boundary - 1, boundary, boundary + 1]
    targets = np.asarray([t for t in targets if 0 <= t < total], dtype=np.int64)
    want = np.searchsorted(cum, targets, side="right")
    # One target on a fresh table of many slots skips the guide; the full
    # set builds it.
    assert table.slots_of(targets[:1]).tolist() == want[:1].tolist()
    assert table.slots_of(targets).tolist() == want.tolist()
    assert table.slots_of(targets[::-1]).tolist() == want[::-1].tolist()


class _LiveWeightOracle:
    """The reference kernel fed the sampler's live weights as a plain list,
    not the table the selector keeps, so a stale table cannot agree."""

    def __init__(self, selector):
        self._selector = selector

    def batch_weighted_draw(self, rng, weights, ops, free=None):
        live = self._selector._sampler.slot_weights().tolist()
        return BACKENDS["reference"].batch_weighted_draw(rng, live, ops, free)


_SELECTOR_OP = st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=1 << 40)),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
    st.tuples(
        st.just("update"),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=1 << 40),
    ),
    st.just(("draw",)),
    st.tuples(
        st.just("place"), st.lists(st.integers(min_value=0, max_value=96), max_size=6)
    ),
)


def _selector_run(vectorized, weights, ops, draw_batch):
    """Outcomes of ``ops`` on a selector holding sectors of ``weights``;
    errors are outcomes too."""
    selector = CapacitySelector(
        DeterministicPRNG.from_int(7, domain="draw-table"),
        max_attempts=3,
        backend=BACKENDS["vectorized"],
        draw_batch=draw_batch,
    )
    if not vectorized:
        selector.kernels = _LiveWeightOracle(selector)
    sampler, outcomes = selector._sampler, []
    for weight in weights:
        selector.add_sector(f"s{len(sampler)}", weight)
    added = len(weights)
    for op in ops:
        live = sorted(sampler.keys())
        try:
            if op[0] == "add":
                selector.add_sector(f"s{added}", op[1])
                added += 1
            elif op[0] == "remove" and live:
                selector.remove_sector(live[op[1] % len(live)])
            elif op[0] == "update" and live:
                sampler.update_weight(live[op[1] % len(live)], op[2])
            elif op[0] == "draw":
                outcomes.append(selector.random_slot())
            elif op[0] == "place":
                free = np.full(selector.slot_count, 64)  # holes are never drawn
                outcomes.append(selector.select_batch_slots(op[1], free).tolist())
        except ValueError as error:
            outcomes.append(str(error))
    return outcomes, selector.samples, selector.collisions


@DIFF_SETTINGS
@given(
    weights=st.lists(st.integers(min_value=0, max_value=1 << 40), min_size=1, max_size=5),
    ops=st.lists(_SELECTOR_OP, min_size=1, max_size=30),
    draw_batch=st.sampled_from([1, 3]),
)
@example(
    weights=[100],
    ops=[("draw",), ("add", 1 << 30), ("draw",), ("update", 0, 0), ("draw",),
         ("remove", 1), ("place", [5, 5])],
    draw_batch=1,
)
def test_selector_table_follows_weight_changes(weights, ops, draw_batch):
    """Adds, removes and weight updates interleaved with draws: the
    vectorized selector, drawing against the DrawTable it keeps, gives the
    sequence of the reference kernel drawing against the live weights."""
    assert _selector_run(True, weights, ops, draw_batch) == _selector_run(
        False, weights, ops, draw_batch
    )


# ----------------------------------------------------------------------
# Discrete-event engine + lifecycle invariants (derandomized like the
# sampler differential pack: identical schedules on every run)
# ----------------------------------------------------------------------
@DIFF_SETTINGS
@given(
    schedule=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=60,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=60, max_size=60),
)
def test_engine_executes_in_time_priority_sequence_order(schedule, cancel_mask):
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()
    executed = []
    events = []
    for index, (time, priority) in enumerate(schedule):
        event = engine.schedule_at(
            time,
            (lambda e=index: executed.append(e)),
            priority=priority,
        )
        events.append((event, index))
    cancelled = set()
    for (event, index), drop in zip(events, cancel_mask):
        if drop:
            engine.cancel(event)
            cancelled.add(index)
    engine.run()
    # Cancelled events never ran; survivors ran exactly once ...
    assert set(executed) == {i for i in range(len(schedule)) if i not in cancelled}
    assert len(executed) == len(set(executed))
    # ... and strictly in (time, priority, sequence) order.
    keys = [(schedule[i][0], schedule[i][1], i) for i in executed]
    assert keys == sorted(keys)


@DIFF_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=30),
    mtbf=st.sampled_from([40.0, 120.0, 1e9]),
    timeout=st.sampled_from([25.0, 90.0]),
    regional=st.integers(min_value=0, max_value=2),
)
def test_lifecycle_invariants_hold_under_generated_dynamics(
    seed, mtbf, timeout, regional
):
    """Whatever the failure dynamics: provider capacity never goes negative,
    every state a run ends in is reachable through its table, and a lost
    file refuses every event."""
    from repro.sim.lifecycle import (
        FileLifecycleEvent,
        FileLifecycleState,
        LifecycleConfig,
        LifecycleSimulation,
    )

    sim = LifecycleSimulation(
        LifecycleConfig(
            providers=6,
            regions=2,
            files=8,
            horizon_s=120.0,
            mtbf_s=mtbf,
            mttr_s=25.0,
            retrieval_rate=0.3,
            flash_crowds=1,
            regional_failures=regional,
            departures=1,
            degrade_timeout_s=timeout,
            seed=seed,
        )
    )
    row = sim.run()
    assert row["min_free_slots"] >= 0
    for name in sim.provider_names:
        assert 0 <= sim.used[name] <= sim.capacity[name]
    for lifecycle in (sim.file_lifecycle, sim.provider_lifecycle):
        reachable = {lifecycle.initial}
        while True:
            more = {after for (before, _), after in lifecycle.table.items() if before in reachable}
            if more <= reachable:
                break
            reachable |= more
        assert set(lifecycle.states.values()) <= reachable
    for file_id, state in sim.file_lifecycle.states.items():
        if state is FileLifecycleState.LOST:
            for event in FileLifecycleEvent:
                assert not sim.file_lifecycle.can_apply(file_id, event)
