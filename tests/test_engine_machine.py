"""The engine differential: one hypothesis state machine over the harness ops.

``ColumnarProtocol`` must leave the Figure 1 spec's state (the object
engine of ``tests/oracles/protocol.py``, always on the reference kernels)
after every op stream.  :class:`EngineMachine` deploys both from a start,
then each rule is one ``oracles.harness.apply`` per engine.  After every op
the engines refuse alike and have an equal ``identity``, and a refused op
leaves that identity as it was: it persists nothing and announces nothing.
Each engine also keeps two sector invariants after every op: a normal or
disabled sector has ``0 <= free <= capacity`` (so it is drained exactly
when ``free == capacity``) and holds ``capacity - free`` bytes exactly for
the replicas it hosts plus those it has reserved.  And every file and
sector state change an op makes follows the protocol's own transition
table, :data:`FILE_EDGES` / :data:`SECTOR_EDGES`.
A new engine differential is a rule or a start here, not a new test.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.core.sector import SectorState

from oracles.harness import apply, deploy, identity

KIB = 1 << 10
FAILED = EventType.FILE_UPLOAD_FAILED
FOUR, EIGHT = dict(providers=4, capacity_mb=4), dict(providers=8)
EVERY_CYCLE = dict(avg_refresh=0.01, seed=11)
CYCLE = [("step",), ("confirm_refreshes",)]

#: name: (deployment, fees -- None: drawn --, the op list it starts with).
STARTS = {
    "four_small": (FOUR, None, []),
    "six": (dict(providers=6, capacity_mb=10), None, []),
    "eight": (EIGHT, None, []),
    "fill_until_refused": (dict(providers=8, capacity_mb=1, cap_para=1000.0), None, []),
    "compensation": (dict(providers=10, capacity_mb=1, deposit_ratio=0.3, cap_para=4.0), True, []),
    "two_unequal_sectors": (dict(capacity_mb=(8, 1), seed=5), None, []),
    "refresh_every_cycle": (dict(avg_refresh=0.01), None, []),
    # Regimes: a rent period passes; a batch is truncated once three sectors
    # holding a replica each are disabled; a stored file is discarded (with
    # fees, only the gas tells); three of four sectors crash and CheckProof
    # loses files; half of eight sectors crash, one survivor stops proving
    # (late-proof punishment, then deadline corruption mid-run), refreshes
    # complete while another one loses its target in flight.
    "rent_period": (FOUR, True, [("batch", [64 * KIB] * 3, 1), *[("advance", 400.0)] * 2]),
    "truncated_batch": (FOUR, False, [
        *[("add", 16 * KIB)] * 3, *[("disable", i) for i in range(3)],
        ("batch", [256 * KIB] * 5, 3),
    ]),
    "discard": (FOUR, True, [("batch", [64 * KIB] * 3, 1), ("advance", 65.0), ("discard", 1)]),
    "lose_files": (FOUR, True, [
        ("batch", [16 * KIB] * 8, 1), ("advance", 65.0), *[("crash", i) for i in range(3)],
        ("advance", 140.0),
    ]),
    "degraded": (EIGHT, False, [
        ("batch", [64 * KIB] * 30, 1), ("advance", 130.0), *[("crash", i) for i in range(4)],
        ("advance", 60.0), ("sick", 4), *[("confirm_refreshes",), ("advance", 60.0)] * 7,
        ("confirm_refreshes",), ("crash_target",), ("advance", 120.0),
    ]),
    # Refresh stretches, each a case TestRefreshInColumns pins the counters
    # of (seed 11, fees off), files due at (nearly) every checkpoint:
    # targets run out of room (36 of 40 replica places taken); replicas
    # still in transfer (ALLOC, then CONFIRM) or on a crashed host postpone;
    # no sector accepts; CheckRefresh ties with the next CheckProof
    # (transfer deadline == proof cycle) and every other swap fails; 255
    # and 256 replicas (one and two index bytes) due in one stretch.
    "collisions": (
        dict(providers=4, capacity_mb=1, redundancy_factor=1.0, cap_para=100.0,
             avg_refresh=0.01, seed=11),
        None, [("batch", [100 * KIB] * 12, 1), ("step",), *CYCLE * 4],
    ),
    "blocked_alloc": (EVERY_CYCLE, None, [("batch", [64 * KIB] * 20, 1), *[("step",)] * 4]),
    "blocked_confirm": (EVERY_CYCLE, None, [("batch", [64 * KIB] * 20, 1), ("step",), *CYCLE * 3]),
    "blocked_corrupted": (
        EVERY_CYCLE, None, [("batch", [KIB] * 20, 1), ("step",), ("crash", 0), *CYCLE * 3],
    ),
    "empty_selector": (dict(providers=4, avg_refresh=0.01, seed=11), None, [
        ("batch", [64 * KIB] * 20, 1), ("step",), *[("disable", i) for i in range(4)],
        *[("step",)] * 3,
    ]),
    "tied_deadlines": (
        dict(providers=10, avg_refresh=1.0, delay_per_size=2.0**-10, seed=11), None,
        [("batch", [60 * KIB] * 20, 1), ("step",), *[("step",), ("confirm_refreshes", 2)] * 4],
    ),
    # Half of one batch is never confirmed: one CheckAlloc run stores
    # some files and fails the others.
    "unconfirmed_uploads": (FOUR, None, [("batch", [64 * KIB] * 6, 1, 2), ("step",)]),
    # Two sectors: every refresh of the seed's three files draws its own
    # host as the target, and the files are discarded while those swaps
    # are in flight, so their removal gives the host's bytes back twice.
    "self_target_removal": (
        dict(providers=2, capacity_mb=4, avg_refresh=0.01, seed=1), None,
        [("batch", [64 * KIB] * 3, 1), ("step",), ("step",),
         *[("discard", file_id) for file_id in range(3)], ("step",)],
    ),
    "draw_byte": (
        dict(providers=36, capacity_mb=1, k=1, redundancy_factor=1.0, cap_para=1000.0,
             avg_refresh=1.0, seed=11),
        None, [*[("add", 64 * KIB, value) for value in (255, 256, 1)], *CYCLE * 8],
    ),
}
#: What a start is there to reach, within its examples: event types, a
#: sector corrupted inside a CheckProof run (the sweep's re-mask), a
#: CheckAlloc run that both stores and fails files, and a file removed
#: while one of its refreshes targets the normal sector already hosting it.
REACH = {
    "rent_period": {"rent_distributed"},
    "truncated_batch": {"file_upload_failed"},
    "discard": {"file_discarded"},
    "lose_files": {"file_lost", "file_compensated"},
    "degraded": {"file_lost", "file_refresh_failed", "corrupted_mid_run"},
    "collisions": {"collision_resampled"},
    "unconfirmed_uploads": {"mixed_check_alloc_run"},
    "self_target_removal": {"self_target_removal"},
}
reached: set = set()

SIZE = st.integers(1, 16).map(lambda units: units * 16 * KIB)
SECTOR = st.integers(0, 9)


def paths(*edges):
    """The ``(before, after)`` pairs a path of ``edges`` joins, staying put
    included: one op can take a file or sector along several edges."""
    pairs = {(state, state) for state in type(edges[0][0])} | set(edges)
    while True:
        longer = {(a, d) for a, b in pairs for c, d in pairs if b == c}
        if longer <= pairs:
            return pairs
        pairs |= longer


#: The protocol's file and sector transition tables, as ``(before, after)``
#: edges.  LOST, FAILED, CORRUPTED and REMOVED have no edge out.
FILE_EDGES = paths(
    (FileState.PENDING, FileState.NORMAL),
    (FileState.PENDING, FileState.FAILED),
    (FileState.PENDING, FileState.DISCARDED),
    (FileState.NORMAL, FileState.DISCARDED),
    (FileState.NORMAL, FileState.LOST),
    # Discarded while PENDING, a file still fails at its CheckAlloc, in both engines.
    (FileState.DISCARDED, FileState.FAILED),
)
SECTOR_EDGES = paths(
    (SectorState.NORMAL, SectorState.DISABLED),
    (SectorState.NORMAL, SectorState.CORRUPTED),
    (SectorState.DISABLED, SectorState.CORRUPTED),
    (SectorState.DISABLED, SectorState.REMOVED),
)


def check_edges(before, after, op):
    """Every file and sector of fingerprint ``before`` is, in ``after``,
    where it was or a path of declared edges away."""
    for part, column, states, edges in (
        ("files", 5, FileState, FILE_EDGES),
        ("sectors", 4, SectorState, SECTOR_EDGES),
    ):
        for key, record in before[part].items():
            moved = states(record[column]), states(after[part][key][column])
            assert moved in edges, f"{op!r} moved {part} {key}: {moved[0].value} -> {moved[1].value}"


def check_held_bytes(state):
    """Every normal or disabled sector of the fingerprint ``state`` has
    ``0 <= free <= capacity`` and holds ``capacity - free`` bytes: its
    hosted plus its reserved replicas."""
    held = {}
    for (file_id, _), (host, target, _, _) in state["alloc"]:
        for sector_id in (host, target):
            held[sector_id] = held.get(sector_id, 0) + state["files"][file_id][1]
    for sector_id, (_, capacity, free, _, sector_state) in state["sectors"].items():
        if sector_state in (SectorState.NORMAL.value, SectorState.DISABLED.value):
            assert 0 <= free <= capacity, f"{sector_id}: {free} free of {capacity}"
            assert capacity - free == held.get(sector_id, 0), (
                f"{sector_id}: {capacity - free} bytes used, replicas hold "
                f"{held.get(sector_id, 0)}"
            )


def _op(kind, **arguments):
    """The rule applying op ``kind`` with its drawn ``arguments``, in order."""
    return rule(**arguments)(
        lambda self, **drawn: self.run((kind, *(drawn[name] for name in arguments)))
    )


class EngineMachine(RuleBasedStateMachine):
    def __init__(self, start):
        super().__init__()
        self.start = start

    @initialize(
        charge_fees=st.booleans(),
        seed=st.integers(0, 7),
        backend=st.sampled_from(["reference", "vectorized", None]),
        draw_batch=st.sampled_from([1, 8, 64]),
    )
    def deploy(self, charge_fees, seed, backend, draw_batch):
        shape, fees, ops = STARTS[self.start]
        shape = {"charge_fees": charge_fees if fees is None else fees, "seed": seed, **shape}
        self.engines = [
            deploy("object", backend="reference", draw_batch=draw_batch, **shape),
            deploy("columnar", backend=backend, draw_batch=draw_batch, **shape),
        ]
        columnar = self.engines[1]
        check_proof_run = columnar._check_proof_run

        def recording(file_ids):
            epoch = columnar._corruption_events
            check_proof_run(file_ids)
            if columnar._corruption_events != epoch and not columnar.charge_fees:
                reached.add("corrupted_mid_run")

        columnar._check_proof_run = recording
        check_alloc_run = columnar._check_alloc_run

        def recording_alloc(file_ids):
            stored, failed = columnar.files_stored, columnar.events.count(FAILED)
            check_alloc_run(file_ids)
            if columnar.files_stored > stored and columnar.events.count(FAILED) > failed:
                reached.add("mixed_check_alloc_run")

        columnar._check_alloc_run = recording_alloc
        spec = self.engines[0]
        remove_file = spec._remove_file

        def recording_removal(descriptor):
            for _, entry in spec.alloc.entries_for_file(descriptor.file_id):
                if entry.prev is not None and entry.next == entry.prev and (
                    spec.sectors[entry.prev].state is SectorState.NORMAL
                ):
                    reached.add("self_target_removal")
            remove_file(descriptor)

        spec._remove_file = recording_removal
        self.last = identity(columnar)
        self.fingerprints = [identity(engine)["state"] for engine in self.engines]
        for fingerprint in self.fingerprints:
            check_held_bytes(fingerprint)
        for op in ops:
            self.run(op)

    def run(self, op):
        spec, columnar = self.engines
        refusals = [apply(spec, op), apply(columnar, op)]
        want, got = identity(spec), identity(columnar)
        assert refusals[1] == refusals[0], f"{op!r} refused unlike the spec: {refusals}"
        for part in want:
            assert got[part] == want[part], f"{op!r}: the engines' {part} diverge"
        assert refusals[0] is None or want == self.last, f"refused {op!r} left a trace"
        self.last = want
        fingerprints = [want["state"], got["state"]]
        for before, after in zip(self.fingerprints, fingerprints):
            check_held_bytes(after)
            check_edges(before, after, op)
        self.fingerprints = fingerprints
        reached.update(name for name, count in want["state"]["events"].items() if count)

    batch = _op(
        "batch", sizes=st.lists(SIZE, min_size=1, max_size=5), value=st.integers(1, 3),
        every=st.sampled_from([1, 2, 3]),
    )
    add = _op("add", size=SIZE, value=st.sampled_from([1, 2, 3, 255, 256]))
    advance = _op("advance", seconds=st.sampled_from([30.0, 65.0, 140.0]))
    step = _op("step")
    crash = _op("crash", sector=SECTOR)
    sick = _op("sick", sector=SECTOR)
    heal = _op("heal", sector=SECTOR)
    crash_silent = _op("crash_silent", sector=SECTOR)
    crash_target = _op("crash_target")
    discard = _op("discard", file_id=st.integers(0, 40))
    disable = _op("disable", sector=SECTOR)
    confirm_refreshes = _op("confirm_refreshes", every=st.sampled_from([1, 2]))


SETTINGS = settings(
    max_examples=6, stateful_step_count=8, derandomize=True, database=None, deadline=None,
    suppress_health_check=list(HealthCheck),
)


@pytest.mark.parametrize("start", sorted(STARTS))
def test_engines_agree(start):
    """The machine from one start; within its examples the start reaches
    what it is there for, so no edit here can quietly stop covering it."""
    reached.clear()
    run_state_machine_as_test(lambda: EngineMachine(start), settings=SETTINGS)
    assert REACH.get(start, set()) <= reached, f"never reached: {REACH[start] - reached}"
