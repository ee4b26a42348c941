"""Property-based tests (hypothesis) on core data structures and invariants.

The sampler-kernel differential pack at the bottom runs with a pinned
``derandomize=True`` profile so the hypothesis-generated requests are
identical on every run -- CI failures reproduce locally
bit-for-bit, and the cross-backend comparisons never flake.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.ledger import Ledger
from repro.core.drep import SectorContentPlan
from repro.core.large_files import LargeFileCodec
from repro.core.selector import WeightedSampler
from repro.crypto.erasure import ReedSolomonCode
from repro.crypto.merkle import MerkleTree
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import get_backend, sampler_stream
from repro.kernels.sampling import U32Randint, U32Stream

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
@given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=40))
def test_merkle_every_leaf_proof_verifies(leaves):
    tree = MerkleTree(leaves)
    for index in range(len(leaves)):
        assert tree.prove(index).verify(tree.root)


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
        st.tuples(st.integers(min_value=1, max_value=40), st.booleans()),
        min_size=1,
        max_size=30,
    )
)
def test_drep_unsealed_space_always_below_one_cr(file_operations):
    plan = SectorContentPlan(capacity=1000, capacity_replica_size=50)
    stored = []
    for index, (size, remove_one) in enumerate(file_operations):
        label = f"f{index}"
        if size <= plan.free_for_files():
            plan.add_file(label, size)
            stored.append(label)
        if remove_one and stored:
            plan.remove_file(stored.pop())
        assert plan.invariant_holds()
        assert plan.file_bytes() + plan.capacity_replica_bytes() + plan.unsealed_space() == 1000


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
    backend = get_backend(backend_name)
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


class _WordReplay:
    """Stands in for a call's generator, serving a known word sequence.

    A kernel call may generate past the words it consumes, so replaying
    one stream across several calls needs the test to position each call
    itself: it hands every call the shared words from the right offset.
    """

    def __init__(self, words):
        self._words = words

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 32, np.uint32)
        served, self._words = self._words[:size], self._words[size:]
        assert served.size == size, "the replay ran out of words"
        return served


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
            backend, weights, ("place", sizes, max_attempts), free, _WordReplay(words)
        )
        remaining = list(free)
        keys, attempts, collisions, at = [], 0, 0, 0
        for size in sizes.tolist():
            one = _run_kernel_draw(
                backend,
                weights,
                ("place", np.array([size]), max_attempts),
                remaining,
                _WordReplay(words[at:]),
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
        result = get_backend(name).batch_weighted_draw(
            sampler_stream(entropy, 0), weights, [("draw", 40)]
        )
        assert all(weights[int(slot)] > 0 for slot in result.keys)


@DIFF_SETTINGS
@given(entropy=st.integers(min_value=0, max_value=50))
def test_u32_stream_chunking_is_invariant(entropy):
    """Re-chunked takes read the same words -- the property that lets the
    vectorized backend decode candidates in bulk."""
    one = U32Stream(sampler_stream(entropy, 9))
    other = U32Stream(sampler_stream(entropy, 9))
    a = np.concatenate([one.take(3), one.take(1), one.take(5000), one.take(60)])
    b = np.concatenate([other.take(4097), other.take(967)])
    assert np.array_equal(a, b)
    raw = sampler_stream(entropy, 9).integers(0, 1 << 32, 5064, dtype=np.uint32)
    assert np.array_equal(a, raw)


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
    """Whatever the failure dynamics: a lost file never transitions again,
    provider capacity never goes negative, histories are valid chains."""
    from repro.sim.lifecycle import (
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
    for machine in list(sim.registry.files.values()) + list(
        sim.registry.providers.values()
    ):
        for previous, current in zip(machine.history, machine.history[1:]):
            assert current.from_state is previous.to_state
            assert current.time >= previous.time
        for record in machine.history:
            assert machine.TRANSITIONS[(record.from_state, record.event)] is record.to_state
    for machine in sim.registry.files.values():
        lost_hits = [
            i
            for i, record in enumerate(machine.history)
            if record.to_state is FileLifecycleState.LOST
        ]
        if lost_hits:
            # LOST is entered once, as the final transition, ever.
            assert lost_hits == [len(machine.history) - 1]
            assert machine.state is FileLifecycleState.LOST


# ----------------------------------------------------------------------
# Columnar protocol engine: differential equivalence with the object
# engine under hypothesis-generated operation streams
# ----------------------------------------------------------------------
def _protocol_fingerprint(protocol):
    """Everything consensus-visible, as one comparable structure."""
    from repro.core.events import EventType

    return {
        "sectors": {
            sid: (rec.owner, rec.capacity, rec.free_capacity, rec.deposit,
                  rec.state.value, rec.registered_at, rec.stored_replicas)
            for sid, rec in sorted(protocol.sectors.items())
        },
        "files": {
            fid: (desc.owner, desc.size, desc.value, desc.replica_count,
                  desc.countdown, desc.state.value, desc.created_at,
                  desc.rent_paid, desc.compensation_received)
            for fid, desc in sorted(protocol.files.items())
        },
        "alloc": sorted(
            ((int(fid), int(idx)),
             (entry.prev, entry.next, entry.last_proof, entry.state.value))
            for (fid, idx), entry in protocol.alloc.all_entries()
        ),
        "pending": [
            (task.time, task.kind, tuple(sorted(task.payload.items())))
            for task in protocol.pending.tasks()
        ],
        "ledger": sorted(
            (account.address, account.balance, account.escrowed)
            for account in protocol.ledger.accounts()
        ),
        "events": {et.value: protocol.events.count(et) for et in EventType},
        "aggregates": (
            protocol.snapshot(),
            protocol.total_value_lost,
            protocol.stored_replica_bytes(),
        ),
    }


class _ToggleOracle:
    """Health oracle over a mutable sick set.  Ops flip the set between
    ``advance_time`` calls only, so it is pure within each sweep -- the
    contract the columnar engine's once-per-host consultation relies on."""

    def __init__(self):
        self.sick = set()

    def __call__(self, sector_id):
        return sector_id not in self.sick


def _build_engine_pair(seed, backend, charge_fees):
    from repro.core.columnar import ColumnarProtocol
    from repro.core.params import ProtocolParams
    from repro.core.protocol import FileInsurerProtocol

    pair = []
    for cls in (FileInsurerProtocol, ColumnarProtocol):
        ledger = Ledger()
        protocol = cls(
            params=ProtocolParams.small_test(),
            ledger=ledger,
            prng=DeterministicPRNG.from_int(seed, domain="columnar-hyp"),
            health_oracle=_ToggleOracle(),
            auto_prove=True,
            charge_fees=charge_fees,
            backend=backend,
        )
        for index in range(4):
            owner = f"prov-{index}"
            ledger.mint(owner, 50_000_000)
            protocol.sector_register(owner, 4 * (1 << 20))
        ledger.mint("client", 500_000_000)
        pair.append(protocol)
    return pair


_HYP_ADVANCE = st.tuples(
    st.just("advance"), st.sampled_from([30.0, 65.0, 140.0, 400.0])
)
#: Sector faults.  Beyond the detected crash: a sector that stops proving
#: ("sick": late-proof punishment, then `proof deadline exceeded`
#: corruption in the middle of a CheckProof run), proves again ("heal"),
#: or collapses without the network noticing ("crash_silent").
_HYP_FAULT = st.tuples(
    st.sampled_from(["crash", "sick", "heal", "crash_silent"]),
    st.integers(min_value=0, max_value=3),
)
_HYP_OP = st.one_of(
    st.tuples(
        st.just("batch"),
        st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("add"), st.integers(min_value=1, max_value=16)),
    _HYP_ADVANCE,
    _HYP_FAULT,
    st.tuples(st.just("discard"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("disable"), st.integers(min_value=0, max_value=3)),
    st.just(("confirm_refreshes",)),
)


def _apply_protocol_op(protocol, op):
    """Run one generated op; returns the error message if it was refused."""
    from repro.core.allocation import AllocState
    from repro.core.protocol import ProtocolError

    root = b"\x06" * 32
    try:
        if op[0] == "batch":
            sizes = [units * 16 * 1024 for units in op[1]]
            ids = protocol.file_add_batch("client", sizes, [op[2]] * len(sizes), root)
            protocol.confirm_batch(ids)
        elif op[0] == "add":
            file_id = protocol.file_add("client", op[1] * 16 * 1024, 1, root)
            for index, entry in protocol.alloc.entries_for_file(file_id):
                if entry.next is not None:
                    owner = protocol.sectors[entry.next].owner
                    protocol.file_confirm(owner, file_id, index, entry.next)
        elif op[0] == "advance":
            protocol.advance_time(protocol.now + op[1])
        elif op[0] == "crash":
            targets = sorted(protocol.sectors)
            target = targets[op[1] % len(targets)]
            if not protocol.sectors[target].is_corrupted:
                protocol.crash_sector(target)
        elif op[0] in ("sick", "heal", "crash_silent"):
            targets = sorted(protocol.sectors)
            target = targets[op[1] % len(targets)]
            if op[0] == "heal":
                protocol.health_oracle.sick.discard(target)
            else:
                protocol.health_oracle.sick.add(target)
            if op[0] == "crash_silent":
                protocol.crash_sector(target, detected=False)
        elif op[0] == "confirm_refreshes":
            # The target providers' part of every refresh still in flight.
            for notice in protocol.refresh_notices:
                entry = protocol.alloc.try_get(notice.file_id, notice.replica_index)
                if (
                    entry is not None
                    and entry.state == AllocState.ALLOC
                    and entry.next == notice.target_sector
                ):
                    protocol.file_confirm(
                        protocol.sectors[notice.target_sector].owner,
                        notice.file_id,
                        notice.replica_index,
                        notice.target_sector,
                    )
        elif op[0] == "discard":
            if op[1] in protocol.files:
                protocol.file_discard("client", op[1])
        elif op[0] == "disable":
            targets = sorted(protocol.sectors)
            target = targets[op[1] % len(targets)]
            protocol.sector_disable(protocol.sectors[target].owner, target)
    except ProtocolError as error:
        return str(error)
    return None


@DIFF_SETTINGS
@given(
    ops=st.lists(_HYP_OP, min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=7),
    backend=st.sampled_from(["reference", "vectorized"]),
    charge_fees=st.booleans(),
)
def test_columnar_engine_matches_object_engine(ops, seed, backend, charge_fees):
    """Any generated op stream leaves both engines in byte-identical state,
    refusing exactly the same operations with the same messages."""
    reference, columnar = _build_engine_pair(seed, backend, charge_fees)
    for op in ops:
        refused_ref = _apply_protocol_op(reference, op)
        refused_col = _apply_protocol_op(columnar, op)
        assert refused_col == refused_ref, op
    assert _protocol_fingerprint(columnar) == _protocol_fingerprint(reference)


@DIFF_SETTINGS
@given(
    ops=st.lists(_HYP_OP, min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=7),
)
def test_columnar_engine_matches_across_kernel_backends(ops, seed):
    """The columnar engine itself is backend-independent: reference and
    vectorized kernels replay the same op stream to identical state."""
    protocols = {
        backend: _build_engine_pair(seed, backend, False)[1]
        for backend in ("reference", "vectorized")
    }
    for op in ops:
        refusals = {
            backend: _apply_protocol_op(protocol, op)
            for backend, protocol in protocols.items()
        }
        assert refusals["vectorized"] == refusals["reference"], op
    assert _protocol_fingerprint(protocols["vectorized"]) == _protocol_fingerprint(
        protocols["reference"]
    )


@settings(DIFF_SETTINGS, max_examples=100)
@given(
    ops=st.lists(
        st.one_of(_HYP_ADVANCE, _HYP_FAULT, _HYP_OP), min_size=2, max_size=14
    ),
    seed=st.integers(min_value=0, max_value=7),
    backend=st.sampled_from(["reference", "vectorized"]),
)
def test_columnar_engine_matches_through_degraded_sweeps(ops, seed, backend):
    """The regime the masked proof sweep exists for: a stored, fee-free
    deployment whose sectors then fall sick, crash or heal between sweeps.
    Fault-heavy streams reach late-proof punishment, deadline corruption
    mid-run (the epoch re-mask), lost files and refreshes whose source or
    target dies in flight; state -- including ``last_proof`` of rows
    corrupted mid-run -- must stay byte-identical to the object engine."""
    reference, columnar = _build_engine_pair(seed, backend, False)
    for op in [("batch", [1] * 8, 1), ("advance", 65.0)] + ops:
        refused_ref = _apply_protocol_op(reference, op)
        refused_col = _apply_protocol_op(columnar, op)
        assert refused_col == refused_ref, op
        assert _protocol_fingerprint(columnar) == _protocol_fingerprint(reference), op
