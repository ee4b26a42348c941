"""Tests for the FileInsurer protocol state machine (Figures 4-9)."""

from functools import partial

import pytest

from repro.core.allocation import AllocState
from repro.core.columnar import ColumnarProtocol
from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolError
from repro.core.sector import SectorState
from repro.chain.ledger import InsufficientFundsError

from oracles.harness import deploy, replay
from oracles.protocol import FileInsurerProtocol, fingerprint
from test_engine_machine import STARTS

ROOT = b"\x07" * 32


#: The shape of these tests: three funded 1 MiB sectors, fees charged.
deployment = partial(
    deploy, providers=3, capacity_mb=1, charge_fees=True, backend="vectorized", seed=7
)


def all_sick(protocol):
    """No sector proves from now on."""
    protocol.health_oracle.sick.update(protocol.sectors)
    return protocol


def store_file(protocol, size=4096, value=1):
    """File Add, every replica confirmed, then CheckAlloc: a stored file."""
    replay(protocol, [("add", size, value), ("step",)])
    return len(protocol.files) - 1


class TestSectorRegister:
    def test_register_creates_record_and_locks_deposit(self):
        protocol = deployment(providers=0)
        protocol.ledger.mint("alice", 1_000_000)
        sector_id = protocol.sector_register("alice", protocol.params.min_capacity)
        record = protocol.sectors[sector_id]
        assert record.owner == "alice"
        assert record.state == SectorState.NORMAL
        assert record.deposit > 0
        assert protocol.ledger.escrowed("alice") == record.deposit
        assert protocol.selector.contains(sector_id)

    def test_a_deposit_beyond_int64_is_kept_exactly(self):
        """Deposits scale with the deposit ratio, which no column width
        bounds: a deposit past 2**63 is pledged, read back and confiscated
        as the exact integer."""
        protocol = deployment(providers=0, deposit_ratio=2.0**63)
        params = protocol.params
        deposit = params.sector_deposit(params.min_capacity)
        assert deposit >= 2**63
        protocol.ledger.mint("whale", deposit + 1_000_000)
        sector_id = protocol.sector_register("whale", params.min_capacity)
        assert protocol.sectors[sector_id].deposit == deposit
        assert protocol.ledger.escrowed("whale") == deposit
        protocol.crash_sector(sector_id)
        assert protocol.fund.total_confiscated == deposit

    def test_sector_ids_unique_per_owner(self):
        protocol = deployment(providers=0)
        protocol.ledger.mint("alice", 10_000_000)
        a = protocol.sector_register("alice", protocol.params.min_capacity)
        b = protocol.sector_register("alice", protocol.params.min_capacity)
        assert a != b

    def test_capacity_must_be_multiple_of_min(self):
        protocol = deployment()
        with pytest.raises(ProtocolError):
            protocol.sector_register("prov-0", protocol.params.min_capacity + 1)

    def test_register_without_funds_fails(self):
        protocol = deployment(providers=0)
        protocol.ledger.mint("broke", 1)
        with pytest.raises(ProtocolError):
            protocol.sector_register("broke", protocol.params.min_capacity)

    def test_disable_requires_owner(self):
        protocol = deployment()
        sector_id = next(iter(protocol.sectors))
        with pytest.raises(ProtocolError):
            protocol.sector_disable("not-the-owner", sector_id)

    def test_disable_empty_sector_removes_and_refunds(self):
        protocol = deployment()
        sector_id = next(iter(protocol.sectors))
        owner = protocol.sectors[sector_id].owner
        deposit = protocol.sectors[sector_id].deposit
        assert protocol.ledger.escrowed(owner) == deposit
        protocol.sector_disable(owner, sector_id)
        record = protocol.sectors[sector_id]
        assert record.state == SectorState.REMOVED
        assert protocol.ledger.escrowed(owner) == 0  # deposit released
        assert protocol.events.count(EventType.DEPOSIT_REFUNDED) == 1
        assert not protocol.selector.contains(sector_id)

    @pytest.mark.parametrize("engine", [FileInsurerProtocol, ColumnarProtocol])
    def test_disabled_sector_is_removed_with_its_last_replica(self, engine):
        """Drained means no byte reserved: the disabled host of two files
        stays until the second file's replica leaves it."""
        protocol = deployment(engine, avg_refresh=1e6)
        files = [store_file(protocol), store_file(protocol)]
        hosts = [{entry.prev for _, entry in protocol.alloc.entries_for_file(f)} for f in files]
        sector_id = sorted(hosts[0] & hosts[1])[0]
        protocol.sector_disable(protocol.sectors[sector_id].owner, sector_id)
        for file_id, state in zip(files, (SectorState.DISABLED, SectorState.REMOVED)):
            protocol.file_discard("client", file_id)
            protocol.advance_time(protocol.now + protocol.params.proof_cycle + 1)
            assert protocol.sectors[sector_id].state == state
        assert protocol.events.count(EventType.DEPOSIT_REFUNDED) == 1


class TestFileAdd:
    def test_file_add_creates_descriptor_and_allocations(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        descriptor = protocol.files[file_id]
        assert descriptor.replica_count == protocol.params.k
        entries = protocol.alloc.entries_for_file(file_id)
        assert len(entries) == descriptor.replica_count
        assert all(entry.state == AllocState.ALLOC for _, entry in entries)
        assert all(entry.next is not None for _, entry in entries)

    def test_replica_count_scales_with_value(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 2, ROOT)
        assert protocol.files[file_id].replica_count == 2 * protocol.params.k

    def test_allocations_reserve_sector_space(self):
        protocol = deployment()
        free_before = {s: r.free_capacity for s, r in protocol.sectors.items()}
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        reserved = sum(
            free_before[s] - record.free_capacity for s, record in protocol.sectors.items()
        )
        assert reserved == 4096 * protocol.files[file_id].replica_count

    def test_zero_size_rejected(self):
        protocol = deployment()
        with pytest.raises(ProtocolError):
            protocol.file_add("client", 0, 1, ROOT)

    def test_oversized_file_rejected(self):
        protocol = deployment()
        with pytest.raises(ProtocolError):
            protocol.file_add("client", protocol.params.size_limit + 1, 1, ROOT)

    def test_value_cap_enforced(self):
        protocol = deployment(providers=2, cap_para=0.5, k=1)
        # max value = 0.5 * 2 = 1 value unit
        store_file(protocol, size=1024, value=1)
        with pytest.raises(ProtocolError):
            protocol.file_add("client", 1024, 1, ROOT)

    def test_redundant_capacity_budget_enforced(self):
        protocol = deployment(providers=2, k=2, cap_para=1000.0)
        huge = protocol.params.min_capacity // 2
        protocol.file_add("client", huge, 1, ROOT)
        with pytest.raises(ProtocolError):
            protocol.file_add("client", huge, 1, ROOT)


class TestCheckAlloc:
    def test_confirmed_file_becomes_normal(self):
        protocol = deployment()
        file_id = store_file(protocol)
        descriptor = protocol.files[file_id]
        assert descriptor.state == FileState.NORMAL
        entries = protocol.alloc.entries_for_file(file_id)
        assert all(entry.state == AllocState.NORMAL for _, entry in entries)
        assert all(entry.prev is not None and entry.next is None for _, entry in entries)
        assert protocol.events.count(EventType.FILE_STORED) == 1

    def test_unconfirmed_file_fails_and_releases_space(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        # nobody confirms
        protocol.advance_time(protocol.pending.peek_time())
        assert protocol.files[file_id].state == FileState.FAILED
        assert protocol.events.count(EventType.FILE_UPLOAD_FAILED) == 1
        assert len(protocol.alloc.entries_for_file(file_id)) == 0
        total_free = sum(record.free_capacity for record in protocol.sectors.values())
        total_capacity = sum(record.capacity for record in protocol.sectors.values())
        assert total_free == total_capacity

    def test_partially_confirmed_file_fails(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        entries = protocol.alloc.entries_for_file(file_id)
        index, entry = entries[0]
        owner = protocol.sectors[entry.next].owner
        protocol.file_confirm(owner, file_id, index, entry.next)
        protocol.advance_time(protocol.pending.peek_time())
        assert protocol.files[file_id].state == FileState.FAILED

    def test_traffic_fee_paid_only_on_confirm(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        escrowed = protocol.ledger.escrowed("client")
        assert escrowed > 0
        for index, entry in protocol.alloc.entries_for_file(file_id):
            owner = protocol.sectors[entry.next].owner
            protocol.file_confirm(owner, file_id, index, entry.next)
        assert protocol.ledger.escrowed("client") == 0
        assert protocol.events.count(EventType.TRAFFIC_FEE_PAID) == protocol.params.k


class TestFileConfirmAndProve:
    def test_confirm_requires_matching_sector(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        entries = protocol.alloc.entries_for_file(file_id)
        index, entry = entries[0]
        wrong_sector = next(s for s in protocol.sectors if s != entry.next)
        owner = protocol.sectors[wrong_sector].owner
        with pytest.raises(ProtocolError):
            protocol.file_confirm(owner, file_id, index, wrong_sector)

    def test_confirm_requires_sector_owner(self):
        protocol = deployment()
        file_id = protocol.file_add("client", 4096, 1, ROOT)
        index, entry = protocol.alloc.entries_for_file(file_id)[0]
        with pytest.raises(ProtocolError):
            protocol.file_confirm("someone-else", file_id, index, entry.next)

    def test_prove_updates_last_proof(self):
        protocol = deployment()
        file_id = store_file(protocol)
        index, entry = protocol.alloc.entries_for_file(file_id)[0]
        owner = protocol.sectors[entry.prev].owner
        protocol.advance_time(protocol.now + 10)
        protocol.file_prove(owner, file_id, index, entry.prev)
        assert entry.last_proof == protocol.now

    def test_prove_from_non_host_rejected(self):
        protocol = deployment()
        file_id = store_file(protocol)
        index, entry = protocol.alloc.entries_for_file(file_id)[0]
        other = next(s for s in protocol.sectors if s != entry.prev)
        with pytest.raises(ProtocolError):
            protocol.file_prove(protocol.sectors[other].owner, file_id, index, other)


class TestCheckProofAndRent:
    def test_rent_charged_each_cycle(self):
        protocol = deployment()
        file_id = store_file(protocol)
        balance_before = protocol.ledger.balance("client")
        protocol.advance_time(protocol.now + 3 * protocol.params.proof_cycle)
        assert protocol.ledger.balance("client") < balance_before
        assert protocol.events.count(EventType.RENT_CHARGED) >= 2
        assert protocol.files[file_id].rent_paid > 0

    def test_broke_client_file_discarded(self):
        protocol = deployment()
        file_id = store_file(protocol)
        # Drain the client's balance so the next cycle cannot be paid.
        balance = protocol.ledger.balance("client")
        protocol.ledger.transfer("client", "sink", balance)
        protocol.advance_time(protocol.now + 2 * protocol.params.proof_cycle)
        descriptor = protocol.files[file_id]
        assert descriptor.state == FileState.DISCARDED
        assert len(protocol.alloc.entries_for_file(file_id)) == 0

    def test_rent_distributed_to_providers(self):
        protocol = deployment()
        store_file(protocol)
        protocol.advance_time(protocol.now + protocol.params.rent_period + 1)
        assert protocol.fees.rent.total_collected > 0
        assert protocol.fees.rent.total_distributed > 0
        assert protocol.fees.rent.total_distributed <= protocol.fees.rent.total_collected
        assert protocol.events.count(EventType.RENT_DISTRIBUTED) >= 1

    def test_missed_proofs_lead_to_corruption_and_loss(self):
        # Health oracle says sectors are unhealthy -> no automatic proofs.
        protocol = all_sick(deployment())
        file_id = store_file(protocol)
        protocol.advance_time(
            protocol.now + protocol.params.proof_deadline + 2 * protocol.params.proof_cycle
        )
        assert protocol.files[file_id].state == FileState.LOST
        assert protocol.events.count(EventType.SECTOR_CORRUPTED) >= 1
        assert protocol.events.count(EventType.DEPOSIT_CONFISCATED) >= 1

    def test_late_proofs_punished_but_not_fatal(self):
        overrides = dict(proof_cycle=60.0, proof_due=30.0, proof_deadline=100_000.0)
        protocol = all_sick(deployment(**overrides))
        file_id = store_file(protocol)
        protocol.advance_time(protocol.now + 3 * protocol.params.proof_cycle)
        assert protocol.events.count(EventType.PROVIDER_PUNISHED) >= 1
        assert protocol.files[file_id].state == FileState.NORMAL


class TestDiscardAndLoss:
    def test_discard_removes_file_at_next_checkpoint(self):
        protocol = deployment()
        file_id = store_file(protocol)
        protocol.file_discard("client", file_id)
        assert protocol.files[file_id].state == FileState.DISCARDED
        protocol.advance_time(protocol.now + protocol.params.proof_cycle + 1)
        assert len(protocol.alloc.entries_for_file(file_id)) == 0
        total_free = sum(r.free_capacity for r in protocol.sectors.values())
        total_capacity = sum(r.capacity for r in protocol.sectors.values())
        assert total_free == total_capacity

    def test_discard_requires_owner(self):
        protocol = deployment()
        file_id = store_file(protocol)
        with pytest.raises(ProtocolError):
            protocol.file_discard("mallory", file_id)

    def test_crash_all_hosts_compensates_owner_fully(self):
        protocol = deployment()
        file_id = store_file(protocol, value=1)
        balance_before = protocol.ledger.balance("client")
        hosting = {entry.prev for _, entry in protocol.alloc.entries_for_file(file_id)}
        for sector_id in hosting:
            protocol.crash_sector(sector_id)
        protocol.advance_time(protocol.now + protocol.params.proof_cycle + 1)
        descriptor = protocol.files[file_id]
        assert descriptor.state == FileState.LOST
        assert descriptor.compensation_received >= descriptor.value
        assert protocol.ledger.balance("client") > balance_before - descriptor.rent_paid
        assert protocol.events.count(EventType.FILE_COMPENSATED) == 1

    def test_partial_crash_keeps_file_alive(self):
        protocol = deployment(providers=4)
        file_id = store_file(protocol)
        hosting = sorted({entry.prev for _, entry in protocol.alloc.entries_for_file(file_id)})
        if len(hosting) > 1:
            protocol.crash_sector(hosting[0])
        protocol.advance_time(protocol.now + protocol.params.proof_cycle + 1)
        assert protocol.files[file_id].state == FileState.NORMAL

    def test_corrupted_sector_removed_from_selection(self):
        protocol = deployment()
        sector_id = next(iter(protocol.sectors))
        protocol.crash_sector(sector_id)
        assert not protocol.selector.contains(sector_id)
        assert protocol.sectors[sector_id].state == SectorState.CORRUPTED

    @pytest.mark.parametrize("engine", [FileInsurerProtocol, ColumnarProtocol])
    def test_crash_of_a_removed_sector_changes_nothing(self, engine):
        """A drained sector was removed with its deposit refunded: it holds
        nothing a collapse could take, and counts in no total."""
        shape, fees, ops = STARTS["truncated_batch"]
        protocol = deploy(engine, charge_fees=fees, **{**shape, "seed": 3})
        replay(protocol, ops)
        removed = sorted(protocol.sectors)[0]
        assert protocol.sectors[removed].state == SectorState.REMOVED
        before = fingerprint(protocol)
        replay(protocol, [("crash", 0)])
        assert protocol.sectors[removed].state == SectorState.REMOVED
        assert protocol.events.count(EventType.SECTOR_CORRUPTED) == 0
        assert fingerprint(protocol) == before


class TestRefresh:
    def test_refresh_eventually_moves_replicas(self):
        protocol = deployment(providers=4, avg_refresh=1.0)
        params = protocol.params
        file_id = store_file(protocol)
        # The providers confirm every refresh, so the swaps complete.
        replay(protocol, [("advance", params.proof_cycle), ("confirm_refreshes",)] * 12)
        assert protocol.events.count(EventType.FILE_REFRESH_STARTED) >= 1
        assert protocol.events.count(EventType.FILE_REFRESH_COMPLETED) >= 1
        assert protocol.files[file_id].state == FileState.NORMAL

    def test_failed_refresh_punishes_and_retries(self):
        protocol = deployment(providers=4, avg_refresh=1.0)
        params = protocol.params
        file_id = store_file(protocol)
        # Never confirm refresh swaps: every CheckRefresh should punish and retry.
        for _ in range(10):
            protocol.advance_time(protocol.now + params.proof_cycle)
        assert protocol.events.count(EventType.FILE_REFRESH_FAILED) >= 1
        assert protocol.events.count(EventType.PROVIDER_PUNISHED) >= 1
        assert protocol.files[file_id].state == FileState.NORMAL

    @staticmethod
    def _in_flight_refresh(engine, onto_own_sector):
        """A stored file advanced until one replica is mid-refresh (state
        ALLOC with a target).  RandomSector() may re-draw the replica's
        current sector, so the caller says which kind of swap it wants."""
        protocol = deployment(providers=4, engine=engine, avg_refresh=1.0)
        params = protocol.params
        file_id = store_file(protocol)
        for _ in range(60):
            protocol.advance_time(protocol.now + params.proof_cycle)
            for _, entry in protocol.alloc.entries_for_file(file_id):
                if (
                    entry.state == AllocState.ALLOC
                    and entry.next is not None
                    and (entry.next == entry.prev) == onto_own_sector
                ):
                    return protocol, file_id, entry
        raise AssertionError("no such refresh started within 60 cycles")

    @pytest.mark.parametrize("engine", [FileInsurerProtocol, ColumnarProtocol])
    def test_crash_of_refresh_target_does_not_lose_the_replica(self, engine):
        """If the *target* sector of an in-flight swap collapses, the
        predecessor still holds the replica and the entry stays normal."""
        protocol, file_id, entry = self._in_flight_refresh(engine, False)
        protocol.crash_sector(entry.next)
        assert entry.state == AllocState.NORMAL
        assert entry.next is None
        assert protocol.files[file_id].state == FileState.NORMAL

    @pytest.mark.parametrize("engine", [FileInsurerProtocol, ColumnarProtocol])
    def test_crash_of_a_refresh_onto_its_own_sector_corrupts_the_replica(self, engine):
        """When the drawn target *is* the current host, its collapse takes
        the only copy of that replica with it."""
        protocol, _, entry = self._in_flight_refresh(engine, True)
        protocol.crash_sector(entry.next)
        assert entry.state == AllocState.CORRUPTED

    def test_refresh_releases_space_on_old_sector(self):
        protocol = deployment(providers=4, avg_refresh=1.0)
        params = protocol.params
        file_id = store_file(protocol, size=8192)
        descriptor = protocol.files[file_id]
        replay(protocol, [("advance", params.proof_cycle), ("confirm_refreshes",)] * 15)
        # Total reserved space must equal replicas * size plus one extra
        # reservation per swap still in flight (the target sector holds its
        # space until CheckRefresh resolves) -- i.e. no space leaks.
        in_flight = sum(
            1
            for _, entry in protocol.alloc.entries_for_file(file_id)
            if entry.next is not None
        )
        reserved = sum(
            record.capacity - record.free_capacity for record in protocol.sectors.values()
        )
        assert reserved == descriptor.size * (descriptor.replica_count + in_flight)


class TestTimeAndQueries:
    def test_time_cannot_go_backwards(self):
        protocol = deployment()
        protocol.advance_time(10.0)
        with pytest.raises(ValueError):
            protocol.advance_time(5.0)

    def test_file_locations_unknown_file(self):
        protocol = deployment()
        with pytest.raises(ProtocolError):
            protocol.file_locations(999)

    def test_snapshot_and_aggregates(self):
        protocol = deployment()
        store_file(protocol)
        snapshot = protocol.snapshot()
        assert snapshot["files_stored"] == 1.0
        assert protocol.weighted_sector_count() == pytest.approx(3.0)
        assert protocol.weighted_value_count() == pytest.approx(1.0)
        assert protocol.value_loss_ratio() == 0.0

    def test_ledger_conservation_through_full_lifecycle(self):
        protocol = deployment()
        file_id = store_file(protocol)
        hosting = {entry.prev for _, entry in protocol.alloc.entries_for_file(file_id)}
        for sector_id in hosting:
            protocol.crash_sector(sector_id)
        protocol.advance_time(protocol.now + protocol.params.rent_period + 1)
        assert protocol.ledger.check_conservation()


# ----------------------------------------------------------------------
# One refusal per cause, whichever entry point and engine
# ----------------------------------------------------------------------
_REFUSAL_PARAMS = ProtocolParams.small_test().scaled(min_value=2)
_REFUSALS = {
    "empty file": ({"size": 0}, ProtocolError),
    "over size_limit": ({"size": _REFUSAL_PARAMS.size_limit + 1}, ProtocolError),
    "zero value": ({"value": 0}, ProtocolError),
    "negative value": ({"value": -2}, ProtocolError),
    "value off the min_value grid": ({"value": 3}, ProtocolError),
    "gas beyond the balance": ({"owner": "poor"}, InsufficientFundsError),
}
_ENGINES = {
    "object": (FileInsurerProtocol, True),
    "columnar": (ColumnarProtocol, True),
    "columnar placement-only": (ColumnarProtocol, False),
}


@pytest.mark.parametrize(
    "cause, entry, engine",
    [
        (cause, entry, engine)
        for cause in _REFUSALS
        for entry in ("file_add", "file_add_batch")
        for engine, (_, charge_fees) in _ENGINES.items()
        if charge_fees or _REFUSALS[cause][1] is not InsufficientFundsError
    ],
)
def test_each_refusal_has_one_error_type(cause, entry, engine):
    """``file_add`` is the one-file ``file_add_batch``: a size or value the
    protocol does not accept raises ``ProtocolError`` and unaffordable gas
    ``InsufficientFundsError``, through both entry points on both engines,
    and leaves no file behind."""
    request, error = _REFUSALS[cause]
    cls, charge_fees = _ENGINES[engine]
    protocol = deployment(cls, charge_fees=charge_fees, min_value=_REFUSAL_PARAMS.min_value)
    protocol.ledger.mint("poor", 1)
    owner = request.get("owner", "client")
    size = request.get("size", 4096)
    value = request.get("value", 2)
    with pytest.raises(error):
        if entry == "file_add":
            protocol.file_add(owner, size, value, ROOT)
        else:
            protocol.file_add_batch(owner, [size], [value], ROOT)
    assert len(protocol.files) == 0
