"""Cross-backend equivalence gates for the simulation-kernel layer.

The :mod:`repro.kernels` contract is *bit*-equivalence: for identical
seeds and shapes, the ``reference`` oracle loops and the ``vectorized``
numpy kernels must produce identical ``PlacementResult`` fields,
identical greedy-adversary sector choices, and identical
``batch_weighted_draw`` key sequences (with matching attempt and
collision counts).  These tests sweep a seed/shape grid over both
backends and additionally pin the refresh engine's batch-size
invariance (the PR-4 metrics fix): ``batch_size`` bounds memory only,
so serial (``batch_size=1``) and batched runs must be byte-identical.
The hypothesis-generated differential pack of the sampler lives in
``tests/test_property_based.py``; the greedy adversary's (small instances
with non-dyadic values, both placement forms) is here, next to its grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.selector import CapacitySelector
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelBackend,
    KernelError,
    available_backends,
    get_backend,
    normalize_placements,
    resolve_backend_name,
    sampler_stream,
)
from repro.kernels.sampling import MAX_TOTAL_WEIGHT
from repro.sim.adversary import GreedyCapacityAdversary
from repro.sim.placement import PlacementExperiment
from repro.sim.workload import FileSizeDistribution

BACKENDS = ("reference", "vectorized")

#: (n_backups, n_sectors) shapes covering tiny, skewed and the vectorized
#: kernel's two replay layouts (segment loop below 1024 groups, padded
#: table above).
REFRESH_SHAPES = ((300, 3), (500, 7), (2000, 40), (600, 1500))


class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ["reference", "vectorized"]

    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "vectorized"
        assert get_backend().name == "vectorized"
        assert resolve_backend_name("auto") == "vectorized"
        assert resolve_backend_name("") == "vectorized"
        assert resolve_backend_name(None) == "vectorized"

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert get_backend().name == "reference"
        assert resolve_backend_name("auto") == "reference"
        # An explicit name always wins over the environment.
        assert get_backend("vectorized").name == "vectorized"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(KernelError, match="unknown kernel backend"):
            get_backend("numba")
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(KernelError, match="known backends"):
            get_backend()

    def test_instance_passthrough(self):
        backend = get_backend("reference")
        assert get_backend(backend) is backend
        assert isinstance(backend, KernelBackend)

    def test_experiment_records_backend_name(self):
        assert PlacementExperiment(backend="reference").backend == "reference"
        assert GreedyCapacityAdversary(backend="vectorized").backend == "vectorized"


class TestPlacementKernelEquivalence:
    def test_place_backups_bit_identical(self):
        sizes = np.random.default_rng(11).exponential(1.0, 5000)
        results = {}
        for name in BACKENDS:
            rng = np.random.default_rng(42)
            results[name] = get_backend(name).place_backups(rng, sizes, 37)
        assert np.array_equal(results["reference"][0], results["vectorized"][0])
        # Bit-identical usage, not merely close: bincount accumulates in
        # input order, exactly like the reference loop.
        assert np.array_equal(results["reference"][1], results["vectorized"][1])

    @pytest.mark.parametrize("distribution", list(FileSizeDistribution))
    def test_run_reallocate_identical_results(self, distribution):
        results = [
            PlacementExperiment(seed=5, backend=name).run_reallocate(
                distribution, 2000, 25, rounds=3
            )
            for name in BACKENDS
        ]
        assert results[0] == results[1]

    @pytest.mark.parametrize("shape", REFRESH_SHAPES)
    @pytest.mark.parametrize("seed", (0, 7))
    def test_run_refresh_identical_results(self, shape, seed):
        n_backups, n_sectors = shape
        results = [
            PlacementExperiment(seed=seed, backend=name).run_refresh(
                FileSizeDistribution.EXPONENTIAL,
                n_backups,
                n_sectors,
                refresh_multiplier=3,
            )
            for name in BACKENDS
        ]
        # Frozen-dataclass equality covers every field, including the
        # floats, which must match to the last bit.
        assert results[0] == results[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refresh_batch_size_invariance(self, backend):
        """Regression gate for the PR-4 metrics fix: re-batching must not
        change any reported number, including the once-per-batch-sampled
        ``mean_usage``/``overflow_rounds``."""
        reference_result = None
        for batch_size in (1, 13, 400, 10**6):
            result = PlacementExperiment(seed=3, backend=backend).run_refresh(
                FileSizeDistribution.UNIFORM_0_1,
                700,
                9,
                refresh_multiplier=3,
                batch_size=batch_size,
            )
            if reference_result is None:
                reference_result = result
            assert result == reference_result, f"batch_size={batch_size} drifted"

    def test_serial_vs_batched_refresh_identity_across_backends(self):
        """The strongest combined gate: serial reference (one move at a
        time) equals fully-batched vectorized, bit for bit."""
        serial = PlacementExperiment(seed=9, backend="reference").run_refresh(
            FileSizeDistribution.NORMAL_MU_EQ_VAR, 500, 11,
            refresh_multiplier=2, batch_size=1,
        )
        batched = PlacementExperiment(seed=9, backend="vectorized").run_refresh(
            FileSizeDistribution.NORMAL_MU_EQ_VAR, 500, 11,
            refresh_multiplier=2, batch_size=10**6,
        )
        assert serial == batched

    def test_skew_split_fallback_is_bit_identical(self, monkeypatch):
        """Force the vectorized kernel's pathological-skew half-batch
        split and assert it still matches the reference loop exactly --
        including the source resolution of backups whose moves straddle
        the split point."""
        import repro.kernels.vectorized as vectorized_module

        monkeypatch.setattr(vectorized_module, "_GROUP_LOOP_MAX", 0)
        monkeypatch.setattr(vectorized_module, "_MAX_TABLE_CELLS", 8)
        results = [
            PlacementExperiment(seed=4, backend=name).run_refresh(
                FileSizeDistribution.EXPONENTIAL, 200, 6, refresh_multiplier=4
            )
            for name in BACKENDS
        ]
        assert results[0] == results[1]

    def test_sample_interval_controls_sampling(self):
        """A finer cadence samples more often; both backends agree."""
        results = {}
        for name in BACKENDS:
            results[name] = PlacementExperiment(seed=2, backend=name).run_refresh(
                FileSizeDistribution.EXPONENTIAL, 400, 5,
                refresh_multiplier=2, sample_interval=150,
            )
        assert results["reference"] == results["vectorized"]

    def test_successive_refresh_calls_draw_independent_streams(self):
        """Five distributions swept on one experiment must not replay one
        churn realization; and the per-call streams must still agree
        across backends."""
        per_backend = {}
        for name in BACKENDS:
            experiment = PlacementExperiment(seed=6, backend=name)
            per_backend[name] = [
                experiment.run_refresh(
                    FileSizeDistribution.EXPONENTIAL, 800, 10, refresh_multiplier=2
                )
                for _ in range(2)
            ]
        first_call, second_call = per_backend["reference"]
        assert first_call.max_usage != second_call.max_usage
        assert per_backend["reference"] == per_backend["vectorized"]

    def test_refresh_rejects_bad_knobs(self):
        experiment = PlacementExperiment(seed=0)
        with pytest.raises(ValueError):
            experiment.run_refresh(
                FileSizeDistribution.EXPONENTIAL, 100, 4, batch_size=0
            )
        with pytest.raises(ValueError):
            experiment.run_refresh(
                FileSizeDistribution.EXPONENTIAL, 100, 4, sample_interval=0
            )


#: Source-resolution chunk sizes every ``refresh_moves`` case runs under
#: (``None``: the module default).  Results must not depend on it.
CHUNKS = (1, 2, 3, None)

#: Hand-built ``refresh_moves`` requests over 6 backups on 3 sectors,
#: ``assignments == [0, 1, 2, 0, 1, 2]``: name -> (chosen, targets,
#: snapshot_after).
REFRESH_CASES = {
    # backup 0 moved three times, backup 1 four times, interleaved
    "three_and_four_moves_of_one_backup": (
        [0, 1, 0, 1, 0, 1, 1], [1, 2, 2, 0, 0, 1, 2], (),
    ),
    # A -> B -> A: two real moves, not a self-move
    "there_and_back": ([0, 0], [1, 0], (1,)),
    # A -> A between real moves: the one move that must not touch usage
    "one_self_move": ([3, 0, 4], [1, 0, 2], (2,)),
    # a repeat whose second move is a self-move only via the first's target
    "self_move_after_a_move": ([0, 0, 0], [2, 2, 1], ()),
    "snapshot_inside_a_chunk": ([0, 3, 0, 4, 1], [2, 1, 1, 0, 0], (2, 4)),
}


def _refresh_state(n_backups=6, n_sectors=3):
    """Non-dyadic sizes on a round-robin placement; fresh arrays per call."""
    sizes = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 0.9, 0.4])[np.arange(n_backups) % 7]
    assignments = (np.arange(n_backups) % n_sectors).astype(np.uint32)
    usage = np.bincount(assignments, weights=sizes, minlength=n_sectors)
    return sizes, usage, assignments


def _set_knob(monkeypatch, name, value):
    """Patch a cost knob of the vectorized module (``None`` keeps the
    default); returns the value in effect."""
    import repro.kernels.vectorized as vectorized_module

    if value is not None:
        monkeypatch.setattr(vectorized_module, name, value)
    return getattr(vectorized_module, name)


def _set_chunk(monkeypatch, chunk):
    """The vectorized source-resolution chunk."""
    return _set_knob(monkeypatch, "_SOURCE_CHUNK_MOVES", chunk)


def _assert_refresh_identical(state, chosen, targets, snapshot_after=()):
    """One request on both backends from ``state``; returns the reference's
    ``(batch_max, usage, assignments, snapshots)``."""
    sizes, usage, assignments = state
    start_max = float(usage.max())
    results = {}
    for name in BACKENDS:
        live_usage, live_assignments = usage.copy(), assignments.copy()
        batch_max, snapshots = get_backend(name).refresh_moves(
            sizes, live_usage, live_assignments,
            np.asarray(chosen, dtype=np.uint32), np.asarray(targets, dtype=np.uint32),
            snapshot_after,
        )
        results[name] = (batch_max, live_usage, live_assignments, snapshots)
    reference, vectorized = results["reference"], results["vectorized"]
    # The batch_max contract: equal once folded into a running maximum
    # that covers the starting usage; -inf exactly when nothing moved.
    assert max(start_max, vectorized[0]) == max(start_max, reference[0])
    assert (vectorized[0] == float("-inf")) == (reference[0] == float("-inf"))
    assert vectorized[1].tobytes() == reference[1].tobytes()
    assert vectorized[2].tobytes() == reference[2].tobytes()
    assert len(vectorized[3]) == len(reference[3]) == len(snapshot_after)
    for ours, theirs in zip(vectorized[3], reference[3]):
        assert ours.tobytes() == theirs.tobytes()
    return reference


@st.composite
def refresh_requests(draw):
    """Small ``refresh_moves`` requests: repeats are the rule, not the exception."""
    n_backups = draw(st.integers(1, 50))
    n_sectors = draw(st.integers(1, 7))
    n_moves = draw(st.integers(0, 200))
    chosen = draw(
        st.lists(st.integers(0, n_backups - 1), min_size=n_moves, max_size=n_moves)
    )
    targets = draw(
        st.lists(st.integers(0, n_sectors - 1), min_size=n_moves, max_size=n_moves)
    )
    bounds = draw(st.sets(st.integers(1, n_moves), max_size=6)) if n_moves else set()
    return n_backups, n_sectors, chosen, targets, tuple(sorted(bounds))


class TestRefreshMovesKernelDifferential:
    """``refresh_moves`` called directly: ``run_refresh``'s uniform draws
    never put a repeated backup exactly on a chunk edge."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("case", sorted(REFRESH_CASES))
    def test_hand_built_cases(self, monkeypatch, case, chunk):
        _set_chunk(monkeypatch, chunk)
        chosen, targets, snapshot_after = REFRESH_CASES[case]
        _assert_refresh_identical(_refresh_state(), chosen, targets, snapshot_after)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_repeat_across_a_chunk_edge(self, monkeypatch, chunk):
        """Backup 0 leaves at the last position of one chunk and again at
        the first of the next: the second move reads the first's scatter."""
        edge = _set_chunk(monkeypatch, chunk)
        rng = np.random.default_rng(edge)
        state = _refresh_state(n_backups=40, n_sectors=5)
        chosen = rng.integers(1, 40, 2 * edge + 1)
        targets = rng.integers(0, 5, 2 * edge + 1)
        chosen[edge - 1] = chosen[edge] = 0
        targets[edge - 1], targets[edge] = 3, 4  # backup 0 starts in sector 0
        _, _, assignments, snapshots = _assert_refresh_identical(
            state, chosen, targets, (edge, edge + 1)
        )
        assert assignments[0] == 4
        # Between the two snapshots only backup 0 moved, from 3 to 4.
        changed = np.flatnonzero(snapshots[0] != snapshots[1])
        assert changed.tolist() == [3, 4]

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_only_self_moves_touch_nothing(self, monkeypatch, chunk):
        _set_chunk(monkeypatch, chunk)
        state = _refresh_state()
        batch_max, usage, assignments, snapshots = _assert_refresh_identical(
            state, [0, 1, 2, 0, 5], [0, 1, 2, 0, 2], (1, 5)
        )
        assert batch_max == float("-inf")
        assert usage.tobytes() == state[1].tobytes()
        assert assignments.tobytes() == state[2].tobytes()
        assert all(s.tobytes() == state[1].tobytes() for s in snapshots)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_empty_batch(self, monkeypatch, chunk):
        _set_chunk(monkeypatch, chunk)
        batch_max, *_ = _assert_refresh_identical(_refresh_state(), [], [])
        assert batch_max == float("-inf")

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(request=refresh_requests(), chunk=st.sampled_from(CHUNKS))
    def test_property_identical_to_reference(self, request, chunk):
        n_backups, n_sectors, chosen, targets, snapshot_after = request
        with pytest.MonkeyPatch.context() as monkeypatch:
            _set_chunk(monkeypatch, chunk)
            _assert_refresh_identical(
                _refresh_state(n_backups, n_sectors), chosen, targets, snapshot_after
            )

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize(
        "chosen, targets, snapshot_after, message",
        (
            ([0, 1], [-1, 2], (), "target sector index -1 out of range [0, 3)"),
            ([0, 1], [1, 3], (), "target sector index 3 out of range [0, 3)"),
            ([-1, 1], [0, 2], (), "chosen backup index -1 out of range [0, 4)"),
            ([0, 4], [0, 2], (), "chosen backup index 4 out of range [0, 4)"),
            ([0, 1], [1.5, 2.0], (), "target sector indices must be integers"),
            ([0.0, 1.0], [1, 2], (), "chosen backup indices must be integers"),
            ([True, False], [1, 2], (), "chosen backup indices must be integers"),
            ([0, 1, 2], [1, 2], (), "of one length, got shapes (3,) and (2,)"),
            ([[0, 1]], [[1, 2]], (), "must be one-dimensional"),
            ([0, 1], [1, 2], (2, 1), "strictly increasing integers in [1, 2]"),
            ([0, 1], [1, 2], (1, 1), "strictly increasing integers in [1, 2]"),
            ([0, 1], [1, 2], (0,), "strictly increasing integers in [1, 2]"),
            ([0, 1], [1, 2], (3,), "strictly increasing integers in [1, 2]"),
            ([0, 1], [1, 2], (1.0,), "strictly increasing integers in [1, 2]"),
            ([0, 1], [1, 2], (True,), "strictly increasing integers in [1, 2]"),
        ),
    )
    def test_malformed_requests_raise_alike(
        self, name, chosen, targets, snapshot_after, message
    ):
        """One ValueError per case on every backend, nothing touched."""
        sizes, usage, assignments = _refresh_state(n_backups=4)
        before = usage.tobytes(), assignments.tobytes()
        with pytest.raises(ValueError) as raised:
            get_backend(name).refresh_moves(
                sizes, usage, assignments,
                np.asarray(chosen), np.asarray(targets), snapshot_after,
            )
        assert message in str(raised.value)
        assert (usage.tobytes(), assignments.tobytes()) == before

    @pytest.mark.parametrize("name", BACKENDS)
    def test_mismatched_state_is_refused(self, name):
        sizes, usage, assignments = _refresh_state(n_backups=4)
        with pytest.raises(ValueError, match="assignments has 3 entries for 4"):
            get_backend(name).refresh_moves(
                sizes, usage, assignments[:3], np.array([0]), np.array([1])
            )

    def test_corrupt_assignment_is_refused_not_aliased(self):
        """A standing sector index past the table would alias another
        sector's grouping key; ``usage`` is checked before it is replayed."""
        sizes, usage, assignments = _refresh_state(n_backups=4)
        assignments[2] = 257  # reads as sector 1 once narrowed to uint8
        before = usage.tobytes()
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            get_backend("vectorized").refresh_moves(
                sizes, usage, assignments, np.array([2, 0]), np.array([1, 2])
            )
        assert usage.tobytes() == before

    @pytest.mark.parametrize(
        "dtype, n_keys, size",
        (
            (np.uint16, 1_000, 5_000),       # 10 + 13 bits: uint32 keys
            (np.uint32, 1 << 19, 1 << 13),   # 19 + 13 = 32 bits: the last uint32 shape
            (np.uint32, (1 << 19) + 1, 1 << 13),  # 20 + 13 = 33 bits: uint64 keys
            (np.int64, 1 << 19, (1 << 13) + 1),   # 19 + 14 = 33 bits, by the positions
            (np.int64, 10**9, 3_000),
            (np.uint16, 7, 1),
            (np.int64, 1, 0),
        ),
    )
    def test_group_order_is_the_stable_argsort(self, dtype, n_keys, size):
        from repro.kernels.vectorized import VectorizedKernels

        rng = np.random.default_rng(size)
        keys = rng.integers(0, n_keys, size).astype(dtype)
        keys[: size // 2] = keys[size // 2 : 2 * (size // 2)]  # force ties
        if size:
            keys[-1] = n_keys - 1  # the widest key present
        order = VectorizedKernels._stable_group_order(keys, n_keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))


def _greedy_workload(seed, n_sectors, n_files, replicas, equal_caps=False):
    rng = np.random.default_rng(seed)
    placements = [
        list(rng.integers(0, n_sectors, replicas)) for _ in range(n_files)
    ]
    values = [float(v) for v in rng.integers(1, 6, n_files)]
    if equal_caps:
        capacities = [1.0] * n_sectors
    else:
        capacities = [float(c) for c in rng.integers(1, 4, n_sectors)]
    return capacities, placements, values


def _select(name, capacities, placements, values, budget):
    return get_backend(name).greedy_select(
        np.asarray(capacities, dtype=float), placements, values, budget
    )


#: The case hypothesis found on the parent of PR 20: values whose sums
#: are not exact, so a score kept with ``+= v`` / ``-= v`` drifts from
#: the fresh file-order sum and a tie breaks the other way.
NON_DYADIC_CASE = dict(
    capacities=[1, 1, 2, 1, 2],
    budget=5.9103422412317945,
    placements=[
        [0, 4], [3, 1], [4, 2], [1, 4], [2, 0], [3, 3], [2, 4], [4, 1],
        [1, 3], [4, 2], [3, 0], [4, 3], [4, 1], [2, 1], [1, 4], [1, 2],
    ],
    values=[.7, .3, 1.1, .7, .2, .7, .2, .1, 1.1, .7, .1, .2, .1, .3, .3, 1.1],
)


@st.composite
def greedy_instances(draw):
    """Small adversary instances with inexact values and unequal capacities."""
    n_sectors = draw(st.integers(1, 5))
    n_files = draw(st.integers(0, 20))
    sector = st.integers(0, n_sectors - 1)
    placements = draw(
        st.lists(st.lists(sector, max_size=3), min_size=n_files, max_size=n_files)
    )
    values = draw(
        st.lists(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
            min_size=n_files, max_size=n_files,
        )
    )
    capacities = draw(
        st.lists(st.sampled_from([1, 1, 2]), min_size=n_sectors, max_size=n_sectors)
    )
    fraction = draw(st.floats(0.0, 1.0))
    return capacities, placements, values, fraction


class TestGreedyKernelEquivalence:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize(
        "shape",
        ((30, 150, 2), (60, 400, 3), (120, 500, 5)),
    )
    @pytest.mark.parametrize("budget", (0.2, 0.5))
    def test_choose_sectors_identical(self, seed, shape, budget):
        """Array form == list form == reference across the grid."""
        n_sectors, n_files, replicas = shape
        capacities, placements, values = _greedy_workload(
            seed, n_sectors, n_files, replicas
        )
        chosen = [
            GreedyCapacityAdversary(seed=seed, backend=name).choose_sectors(
                capacities, form, values, budget
            )
            for name in BACKENDS
            for form in (placements, np.array(placements))
        ]
        assert chosen[0] and all(sectors == chosen[0] for sectors in chosen)

    def test_attack_outcomes_identical(self):
        capacities, placements, values = _greedy_workload(4, 50, 300, 3, equal_caps=True)
        outcomes = [
            GreedyCapacityAdversary(seed=4, backend=name).attack(
                capacities, form, values, 0.4
            )
            for name in BACKENDS
            for form in (placements, np.array(placements))
        ]
        assert all(outcome == outcomes[0] for outcome in outcomes)

    def test_edge_cases_agree(self):
        for name in BACKENDS:
            adversary = GreedyCapacityAdversary(backend=name)
            # Zero budget corrupts nothing on either backend.
            assert adversary.choose_sectors([1.0] * 5, [[0, 1]], [1.0], 0.0) == set()
            assert adversary.choose_sectors(
                [1.0] * 5, np.array([[0, 1]]), [1.0], 0.0
            ) == set()
            # Files with empty placements never finish anything.
            assert adversary.choose_sectors(
                [1.0] * 3, [[], [0]], [5.0, 1.0], 1.0
            ) == {0, 1, 2}
            # No files at all, in either form: sectors go by index.
            assert adversary.choose_sectors([1.0] * 4, [], [], 0.5) == {0, 1}
            empty = np.empty((0, 3), dtype=np.int64)
            assert adversary.attack([1.0] * 4, empty, [], 0.5).lost_files == ()
            # Replica-less rows of an array are no more lost than empty lists.
            no_replicas = np.empty((2, 0), dtype=np.int64)
            outcome = adversary.attack([1.0] * 2, no_replicas, [1.0, 1.0], 1.0)
            assert outcome.corrupted_sectors == (0, 1) and outcome.lost_files == ()

    def test_ragged_rows_and_repeated_sectors(self):
        """A sector a file lists twice hosts one replica of it."""
        capacities = [1.0, 2.0, 1.0, 1.0]
        placements = [[1, 1, 1], [0], [3, 2, 3, 0], [], [2, 2]]
        values = [5.0, 1.0, 2.0, 9.0, 3.0]
        assert [
            _select(name, capacities, placements, values, 3.0) for name in BACKENDS
        ] == [{1, 2}, {1, 2}]
        # The same repeats as array rows (padding a row repeats a sector).
        padded = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [3, 2, 3, 0], [2, 2, 2, 2]])
        dense_values = [5.0, 1.0, 2.0, 3.0]
        as_lists = [sorted(set(row)) for row in padded.tolist()]
        picks = {
            frozenset(_select(name, capacities, form, dense_values, 3.0))
            for name in BACKENDS
            for form in (padded, as_lists)
        }
        assert picks == {frozenset({1, 2})}

    def test_non_dyadic_values_break_ties_alike(self):
        """Regression: scores are fresh file-order sums on every backend."""
        case = NON_DYADIC_CASE
        for name in BACKENDS:
            chosen = _select(
                name, case["capacities"], case["placements"], case["values"], case["budget"]
            )
            assert chosen == {0, 1, 3, 4}, name

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(instance=greedy_instances())
    def test_property_identical_sets_and_outcomes(self, instance):
        capacities, placements, values, fraction = instance
        budget = fraction * float(sum(capacities))
        reference = _select("reference", capacities, placements, values, budget)
        assert _select("vectorized", capacities, placements, values, budget) == reference
        outcomes = [
            GreedyCapacityAdversary(backend=name).attack(
                capacities, placements, values, fraction
            )
            for name in BACKENDS
        ]
        assert outcomes[0] == outcomes[1]
        # Rectangular instances go through the array form as well.
        if placements and len(set(map(len, placements))) == 1:
            array = np.array(placements, dtype=np.int64).reshape(len(placements), -1)
            for name in BACKENDS:
                assert _select(name, capacities, array, values, budget) == reference
                assert (
                    GreedyCapacityAdversary(backend=name).attack(
                        capacities, array, values, fraction
                    )
                    == outcomes[0]
                )

    def test_normalized_columns(self):
        """Distinct (file, sector) pairs sorted by file then sector, both forms."""
        capacities, values = [1.0] * 5, [1.0, 2.0, 3.0]
        ragged = [[4, 0, 4], [], [2, 1]]
        _, file_of, sector_of, _ = normalize_placements(capacities, ragged, values)
        assert file_of.tolist() == [0, 0, 2, 2] and sector_of.tolist() == [0, 4, 1, 2]
        array = np.array([[4, 0, 4], [3, 3, 3], [2, 1, 2]], dtype=np.uint16)
        _, file_of, sector_of, _ = normalize_placements(capacities, array, values)
        assert file_of.tolist() == [0, 0, 1, 2, 2]
        assert sector_of.tolist() == [0, 4, 3, 1, 2]
        assert file_of.dtype == sector_of.dtype == np.int64

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("as_array", (False, True), ids=("lists", "array"))
    @pytest.mark.parametrize(
        "placements, values, message",
        (
            ([[0, -1], [1, 2]], [1.0, 1.0], "index -1 out of range [0, 3)"),
            ([[0, 1], [1, 3]], [1.0, 1.0], "index 3 out of range [0, 3)"),
            ([[0, 0.5], [1, 2]], [1.0, 1.0], "must be integers"),
            ([[True, False], [True, True]], [1.0, 1.0], "must be integers"),
            ([[0, 1], [1, 2]], [1.0], "values has 1 entries for 2 placed files"),
            ([[0, 1], [1, 2]], [1.0, -1.0], "values must be non-negative"),
        ),
    )
    def test_malformed_requests_raise_alike(self, name, as_array, placements, values, message):
        """One ValueError, before any sector is chosen, on every backend and form."""
        form = np.array(placements) if as_array else placements
        with pytest.raises(ValueError) as raised:
            _select(name, [1.0, 1.0, 1.0], form, values, 2.0)
        assert message in str(raised.value)
        # The adversary front door reports it the same way.
        with pytest.raises(ValueError) as via_attack:
            GreedyCapacityAdversary(backend=name).attack(
                [1.0, 1.0, 1.0], form, values, 0.5
            )
        assert str(via_attack.value) == str(raised.value)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_malformed_tables_raise_alike(self, name):
        with pytest.raises(ValueError, match="capacities must be non-negative"):
            _select(name, [1.0, -1.0], [[0]], [1.0], 1.0)
        with pytest.raises(ValueError, match="2-D"):
            _select(name, [1.0, 1.0], np.array([0, 1]), [1.0, 1.0], 1.0)


def _batch_draw(name, weights, ops, free=None, entropy=0):
    return get_backend(name).batch_weighted_draw(
        sampler_stream(entropy, 0), weights, ops, free=free
    )


def _assert_batch_identical(weights, ops, free=None, entropy=0):
    reference = _batch_draw("reference", weights, ops, free=free, entropy=entropy)
    vectorized = _batch_draw("vectorized", weights, ops, free=free, entropy=entropy)
    assert np.array_equal(reference.keys, vectorized.keys)
    assert reference.keys.dtype == vectorized.keys.dtype == np.int64
    assert reference.attempts == vectorized.attempts
    assert reference.collisions == vectorized.collisions
    return reference


def _assert_refused_alike(weights, ops, free=None):
    """The request is refused with one text on both backends, before any
    word of its stream is consumed; returns the text."""
    messages = set()
    for name in BACKENDS:
        rng = sampler_stream(0, 0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError) as raised:
            get_backend(name).batch_weighted_draw(rng, weights, ops, free=free)
        assert rng.bit_generator.state == before
        messages.add(str(raised.value))
    assert len(messages) == 1
    return messages.pop()


#: One-word candidates (total < 2**32) and two-word ones (total >= 2**32).
ONE_WORD = [10, 0, 7, 1000, 3, 250, 250]
TWO_WORD = [1 << 40, (1 << 41) + 17, 5, 0]


class TestBatchWeightedDrawEquivalence:
    """One request per call -- ``("draw", n)`` or a place run -- against a
    table that is constant for the call: the only traffic the kernel has
    (``tests/test_kernel_traffic.py`` holds the producers to it)."""

    @pytest.mark.parametrize("entropy", (0, 7, 23))
    @pytest.mark.parametrize(
        "n_slots,n_draws",
        ((1, 50), (3, 0), (3, 1), (40, 64), (40, 5000), (500, 10_000)),
    )
    def test_draw_requests_identical(self, entropy, n_slots, n_draws):
        """Seed/shape grid: the big requests cross several candidate
        windows of the vectorized engine."""
        rng = np.random.default_rng(entropy + n_slots)
        weights = rng.integers(0, 1 << 16, n_slots).tolist()
        weights[0] = max(weights[0], 1)  # keep the table drawable
        result = _assert_batch_identical(weights, [("draw", n_draws)], entropy=entropy)
        assert result.attempts == len(result.keys) == n_draws
        assert result.collisions == 0

    @pytest.mark.parametrize("entropy", (0, 1, 2))
    def test_two_word_candidates_identical(self, entropy):
        """Totals at/above 2**32 consume two uint32 words per candidate."""
        result = _assert_batch_identical(TWO_WORD, [("draw", 500)], entropy=entropy)
        assert not np.any(result.keys == 3)  # the zero-weight slot
        run = ("place", np.array([4, 4, 4, 4, 4, 9, 1]), 3)
        _assert_batch_identical(TWO_WORD, [run], free=[8, 8, 8, 8], entropy=entropy)

    def test_place_semantics_identical(self):
        """Resample-on-full placement: successes debit the free table,
        exhausted attempts yield -1, collisions are counted."""
        run = ("place", np.array([60] * 4 + [5] * 6), 8)
        result = _assert_batch_identical([10, 10, 10], [run], free=[100, 60, 0], entropy=3)
        # Slot 2 never accepts (zero free capacity) and only one size-60
        # replica fits per remaining slot, so later size-60 places fail.
        assert not np.any(result.keys == 2)
        assert sorted(result.keys[:4].tolist()) == [-1, -1, 0, 1]
        assert result.collisions > 0

    def test_place_never_succeeds_when_nothing_fits(self):
        for name in BACKENDS:
            result = _batch_draw(
                name, [5, 5], [("place", np.array([10]), 7)], free=[9, 9], entropy=1
            )
            assert result.keys.tolist() == [-1]
            assert result.attempts == 7
            assert result.collisions == 7

    @pytest.mark.parametrize("entropy", (0, 4))
    @pytest.mark.parametrize(
        "weights, free, run",
        [
            ([4, 4, 4], [9, 9, 9], ("place", np.empty(0, dtype=np.int64), 3)),
            ([4, 4, 4], [9, 9, 9], ("place", np.array([5]), 3)),
            ([1, 2, 3], [0, 0, 0], ("place", np.zeros(7, dtype=np.int32), 2)),
            (  # longer than two stream chunks
                [3] * 50,
                [6000] * 50,
                ("place", np.random.default_rng(5).integers(0, 40, 9000), 5),
            ),
            # heads of the run collide until their budget is spent
            ([5, 5], [9, 9], ("place", np.array([10, 1, 10, 9, 9, 1]), 4)),
            (
                [10, 0, 7, 1000, 3],
                [60, 60, 60, 60, 60],
                ("place", np.array([50, 50, 5, 8, 8, 1, 0, 60, 2], dtype=np.uint16), 6),
            ),
        ],
    )
    def test_place_runs_identical(self, weights, free, run, entropy):
        result = _assert_batch_identical(weights, [run], free=free, entropy=entropy)
        assert len(result.keys) == run[1].size
        assert result.attempts - result.collisions == np.count_nonzero(result.keys >= 0)

    def test_zero_total_raises_at_the_first_draw(self):
        run = ("place", np.array([1]), 2)
        for weights in ([0, 0, 0], []):
            free = [5] * len(weights)
            for ops in ([("draw", 1)], [run]):
                assert "empty or zero-weight" in _assert_refused_alike(weights, ops, free)
            # A request that owes no draw never samples the empty table.
            for ops in ([("draw", 0)], [("place", np.empty(0, dtype=np.int64), 2)]):
                assert _assert_batch_identical(weights, ops, free=free).attempts == 0

    def test_total_weight_bound_raises_at_the_request(self):
        half = MAX_TOTAL_WEIGHT // 2
        for weights in (
            [MAX_TOTAL_WEIGHT],  # one over-bound weight: refused at validation
            [half, half],  # in-bound weights, over-bound total: the guard
        ):
            for count in (1, 0):  # the guard does not wait for a draw
                assert "2**62" in _assert_refused_alike(weights, [("draw", count)])
        for weights in ([1 << 63], np.array([1, 1 << 63], dtype=np.uint64)):
            message = _assert_refused_alike(weights, [("draw", 1)])
            assert message == "weights must fit in int64"  # not wrapped negative
        _assert_batch_identical([half, half - 1], [("draw", 40)])  # just under

    @pytest.mark.parametrize(
        "ops",
        [
            [],
            [("draw", 1), ("draw", 1)],
            [("place", np.array([1]), 2), ("draw", 1)],
            [("set", 0, 1)],
            [("set", 0, 1), ("draw", 1)],
            [("bogus", 1)],
            [("place", 1, 2)],  # a bare-integer size
            [("place", [1, 1], 2)],  # a list is not a sizes array
            [("draw",)],
            [("draw", 1, 2)],
            [("place", np.array([1]))],
            [["draw", 1]],
            ["draw"],
            [None],
            ("draw", 1),  # a bare request, not a sequence holding one
        ],
    )
    def test_anything_but_one_request_is_refused_with_one_message(self, ops):
        message = _assert_refused_alike([1, 2], ops, free=[5, 5])
        assert message.startswith("batch_weighted_draw takes exactly one request")

    @pytest.mark.parametrize(
        "weights, ops, free, message",
        [
            ([1, 2], [("draw", -1)], None, "'draw' count must be non-negative"),
            ([1, 2], [("draw", 2.9)], None, "'draw' count must be an integer"),
            ([1, 2], [("draw", True)], None, "'draw' count must be an integer"),
            ([1, 2], [("draw", "3")], None, "'draw' count must be an integer"),
            ([-1, 2], [("draw", 1)], None, "weights must be non-negative"),
            ([[1, 2]], [("draw", 1)], None, "weights must be one-dimensional"),
            ([1, 2], [("draw", 1)], [1], "free must match the weight table's shape"),
            ([1, 2], [("draw", 1)], np.array([1, 1 << 63], dtype=np.uint64),
             "free must fit in int64"),
            ([1, 2], [("place", np.array([1]), 3)], None,
             "'place' operations require a free table"),
            ([1, 2], [("place", np.array([1]), 0)], [5, 5],
             "'place' max_attempts must be >= 1"),
            ([1, 2], [("place", np.array([3]), 2.0)], [5, 5],
             "'place' max_attempts must be an integer"),
            ([1, 2], [("place", np.array([2, -1, 2]), 3)], [5, 5],
             "'place' sizes must be non-negative"),
            ([1, 2], [("place", np.array([2, 1 << 63], dtype=np.uint64), 3)], [5, 5],
             "'place' sizes must fit in int64"),
            ([1, 2], [("place", np.array([2, 1.5]), 3)], [5, 5],
             "'place' sizes must be integers, got dtype float64"),
            ([1, 2], [("place", np.array([False, True]), 3)], [5, 5],
             "'place' sizes must be integers, got dtype bool"),
            ([1, 2], [("place", np.ones((2, 2), int), 1)], [5, 5],
             "'place' sizes must be one-dimensional"),
        ],
    )
    def test_malformed_operands_are_refused_not_truncated(
        self, weights, ops, free, message
    ):
        """``int()`` used to draw 2.9 times as 2."""
        assert _assert_refused_alike(weights, ops, free) == message

    @pytest.mark.parametrize(
        "table",
        [
            [1.9, 0.9, 2.5],  # used to be sampled as [1, 0, 2]
            np.array([2.0, 1.0, 3.0]),
            ["3", "4", "5"],
            [True, False, True],
            np.array([1, 2.5, 3], dtype=object),
            [1, None, 3],
        ],
    )
    def test_non_integer_tables_are_refused_not_truncated(self, table):
        """``np.array(table, dtype=np.int64)`` truncated floats, parsed
        strings and took a mask for a table; one text per table now."""
        dtype = np.asarray(table).dtype
        run = ("place", np.array([1]), 2)
        for ops in ([("draw", 4)], [run]):
            assert _assert_refused_alike(table, ops, free=[5, 5, 5]) == (
                f"weights must be integers, got dtype {dtype}"
            )
            assert _assert_refused_alike([3, 4, 5], ops, free=table) == (
                f"free must be integers, got dtype {dtype}"
            )

    def test_integer_tables_of_any_width_are_taken_exactly(self):
        expected = _assert_batch_identical([3, 4, 5], [("draw", 30)])
        for dtype in (np.uint8, np.int16, np.uint64):
            result = _assert_batch_identical(np.array([3, 4, 5], dtype=dtype), [("draw", 30)])
            assert np.array_equal(result.keys, expected.keys)
        # numpy integers are integers.
        run = ("place", np.array([3], dtype=np.uint8), np.int32(2))
        for ops in ([("draw", np.int64(2))], [run]):
            _assert_batch_identical([1, 2], ops, free=np.array([5, 5], dtype=np.uint16))

    def test_inputs_are_never_mutated(self):
        weights = np.asarray([3, 4, 5], dtype=np.int64)
        free = np.asarray([50, 50, 50], dtype=np.int64)
        sizes = np.asarray([10, 45, 45, 45], dtype=np.int64)
        for name in BACKENDS:
            for ops in ([("draw", 5)], [("place", sizes, 4)]):
                _batch_draw(name, weights, ops, free=free, entropy=2)
                assert weights.tolist() == [3, 4, 5]
                assert free.tolist() == [50, 50, 50]
                assert sizes.tolist() == [10, 45, 45, 45]

    def test_dedicated_streams_differ_by_spawn_key(self):
        """Two calls on different spawn keys draw different sequences --
        the domain separation select/refresh call sites rely on."""
        weights = [1] * 16
        a = get_backend("vectorized").batch_weighted_draw(
            sampler_stream(4, 0), weights, [("draw", 64)]
        )
        b = get_backend("vectorized").batch_weighted_draw(
            sampler_stream(4, 1), weights, [("draw", 64)]
        )
        assert not np.array_equal(a.keys, b.keys)


#: Caps on the vectorized engine's candidate window every case below runs
#: under (``None``: the module default).  Results must not depend on it.
WINDOW_CAPS = (1, 2, 3, 7, None)


class TestDrawWindowEdges:
    """The vectorized engine decodes candidates a window at a time, sized
    to the draws it owes: where a window ends -- inside a draw request,
    inside a place run's accepted prefix, on a collision's retries -- must
    not show in keys, attempts or collisions."""

    @pytest.mark.parametrize("cap", WINDOW_CAPS)
    @pytest.mark.parametrize("weights", (ONE_WORD, TWO_WORD), ids=("one-word", "two-word"))
    @pytest.mark.parametrize("count", (0, 1, 64, 10_000))
    def test_draw_requests_identical(self, monkeypatch, cap, weights, count):
        _set_knob(monkeypatch, "_DRAW_CHUNK_CANDIDATES", cap)
        result = _assert_batch_identical(weights, [("draw", count)], entropy=cap or 0)
        assert result.attempts == count

    @pytest.mark.parametrize("cap", WINDOW_CAPS)
    @pytest.mark.parametrize("entropy", (0, 3))
    def test_place_runs_identical(self, monkeypatch, cap, entropy):
        _set_knob(monkeypatch, "_DRAW_CHUNK_CANDIDATES", cap)
        free = [100, 0, 60, 150, 5, 90, 90]
        sizes = [30, 30, 30, 5, 5, 60, 60, 60, 90, 1, 1, 1, 200] + [2] * 40
        for max_attempts in (1, 2, 6):
            result = _assert_batch_identical(
                ONE_WORD, [("place", np.array(sizes), max_attempts)],
                free=free, entropy=entropy,
            )
            # collisions, and a budget spent without a fit (nothing holds 200)
            assert result.collisions > 0 and result.keys[12] == -1
        result = _assert_batch_identical(
            TWO_WORD, [("place", np.array([4, 4, 4, 4, 4, 9]), 3)],
            free=[8, 8, 8, 8], entropy=entropy,
        )
        assert result.keys[5] == -1 and result.collisions >= 3

    @pytest.mark.parametrize("total", ((1 << 24) + 1, (1 << 24) - 500))
    def test_a_prefetch_is_served_by_at_most_two_refills(self, monkeypatch, total):
        """A window sized to the 64 draws owed: one refill, or a short
        second one when acceptance ran low -- never the 8 / 32 / 128
        ramp.  Totals just above and just below a power of two bracket
        the acceptance rate (1/2 and 1)."""
        import repro.kernels.vectorized as vectorized_module

        refills = []
        refill = vectorized_module._WeightedDrawEngine._refill

        def counted(engine, *owed):
            refills.append(owed)
            refill(engine, *owed)

        monkeypatch.setattr(vectorized_module._WeightedDrawEngine, "_refill", counted)
        weights = np.full(10_000, 1 << 10)
        weights[0] = total - weights[1:].sum()
        for entropy in range(25):
            del refills[:]
            result = _batch_draw("vectorized", weights, [("draw", 64)], entropy=entropy)
            assert result.attempts == 64 and 1 <= len(refills) <= 2


class TestSelectorDrawSequencePinned:
    """File Add -> refresh prefetch -> File Add at the selector.

    The literals were produced by the tuple-per-replica selector this
    suite replaced: equal slots mean the run form kept the kernel-call
    numbering (one dedicated stream per call, in call order) and the
    words each call consumes.
    """

    PINNED = {
        (0, 1): ([3, 2, 4, 5, 3], [1, 5], [4, 1, 2], 12, 2),
        (1, 4): ([4, 2, 3, 1, 3], [5, 5, 5, 2, 1], [2, 0, 0], 16, 0),
        (2, 8): ([4, 5, 0, 5, 0], [5, 2, 2, 5, 1, 2, 2, 4, 0], [2, 4, 0], 27, 3),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed, draw_batch", sorted(PINNED))
    def test_sequence_matches_the_pinned_parent(self, backend, seed, draw_batch):
        selector = CapacitySelector(
            DeterministicPRNG.from_int(seed, domain="pin"),
            max_attempts=4,
            backend=backend,
            draw_batch=draw_batch,
        )
        for index in range(6):
            selector.add_sector(f"s{index}", 100 + 20 * index, free=40)
        first = selector.select_batch_slots([30, 30, 30, 5, 5]).tolist()
        prefetched = [selector.random_slot() for _ in range(draw_batch + 1)]
        second = selector.select_batch_slots(np.array([30, 12, 12])).tolist()
        assert (
            first,
            prefetched,
            second,
            selector.samples,
            selector.collisions,
        ) == self.PINNED[seed, draw_batch]


class TestScenarioBackendThreading:
    def test_resolve_params_concretises_auto(self, monkeypatch):
        from repro.runner.registry import get_scenario, load_builtin_scenarios, resolve_params

        load_builtin_scenarios()
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        for scenario_name in (
            "table3", "robustness", "churn", "retrieval_load", "segmentation"
        ):
            params = resolve_params(get_scenario(scenario_name))
            assert params["backend"] == "vectorized"
            params = resolve_params(
                get_scenario(scenario_name), {"backend": "reference"}
            )
            assert params["backend"] == "reference"
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_params(get_scenario("table3"))["backend"] == "reference"

    def test_resolve_params_rejects_unknown_backend(self):
        from repro.runner.registry import (
            ScenarioError,
            get_scenario,
            load_builtin_scenarios,
            resolve_params,
        )

        load_builtin_scenarios()
        with pytest.raises(ScenarioError, match="backend"):
            resolve_params(get_scenario("table3"), {"backend": "cuda"})

    def test_manifests_record_concrete_backend_and_rows_match(self, monkeypatch):
        from repro.runner.executor import run_scenario

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        overrides = {
            "lambdas": (0.5,),
            "n_sectors": 60,
            "n_files": 80,
            "k": 3,
            "trials": 2,
        }
        manifests = {
            name: run_scenario(
                "robustness", {**overrides, "backend": name}, seed=5
            )
            for name in BACKENDS
        }
        for name in BACKENDS:
            assert manifests[name].params["backend"] == name
        # Identical trial rows: the backend changes speed, never results.
        assert [
            {key: value for key, value in row.items()}
            for row in manifests["reference"].rows
        ] == [dict(row) for row in manifests["vectorized"].rows]
