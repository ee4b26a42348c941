"""Tests for the event log and the chain application adapter."""

import pytest

from repro.chain.blockchain import Blockchain, ConsensusConfig
from repro.chain.ledger import Ledger
from repro.core.chain_app import FileInsurerChainApp
from repro.core.events import CountingEventLog, EventLog, EventType
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams

ROOT = b"\x09" * 32


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(EventType.FILE_STORED, 1.0, "file#1", owner="c")
        log.emit(EventType.FILE_LOST, 2.0, "file#2")
        assert len(log) == 2
        assert log.count(EventType.FILE_STORED) == 1
        assert log.of_type(EventType.FILE_LOST)[0].subject == "file#2"
        assert log.last().event_type == EventType.FILE_LOST
        assert log.last(EventType.FILE_STORED).subject == "file#1"

    def test_last_of_missing_type_is_none(self):
        log = EventLog()
        assert log.last() is None
        assert log.last(EventType.FILE_LOST) is None

    def test_describe_contains_type_and_subject(self):
        log = EventLog()
        event = log.emit(EventType.SECTOR_REGISTERED, 3.5, "p#0", capacity=10)
        assert "sector_registered" in event.describe()
        assert "p#0" in event.describe()

    def test_iteration_order(self):
        log = EventLog()
        for i in range(5):
            log.emit(EventType.RENT_CHARGED, float(i), f"file#{i}")
        times = [event.time for event in log]
        assert times == sorted(times)

    def test_counting_log_emit_many_is_emit_repeated(self):
        loop, batch = CountingEventLog(), CountingEventLog()
        for _ in range(5):
            loop.emit(EventType.FILE_STORED, 1.0, "")
        batch.emit_many(EventType.FILE_STORED, 2)
        batch.emit_many(EventType.FILE_STORED, 3)
        batch.emit_many(EventType.FILE_LOST, 0)  # no counter springs up
        assert batch.counts() == loop.counts() == {EventType.FILE_STORED: 5}
        assert len(batch) == len(loop) == 5


def build_chain_app():
    # Block time must be shorter than the file-transfer deadline so a
    # provider's File Confirm can land in a later block before CheckAlloc.
    params = ProtocolParams.small_test()
    chain = Blockchain(config=ConsensusConfig(epoch_seconds=5.0))
    app = FileInsurerChainApp(
        chain,
        params=params,
        health_oracle=lambda sector_id: True,
        auto_prove=True,
    )
    for index in range(3):
        chain.ledger.mint(f"prov-{index}", 1_000_000)
    chain.ledger.mint("client", 1_000_000)
    return chain, app, params


class TestChainApp:
    def test_sector_register_via_transaction(self):
        chain, app, params = build_chain_app()
        app.submit("prov-0", "sector_register", capacity=params.min_capacity)
        block = chain.produce_block()
        receipt = block.receipts[0]
        assert receipt.success, receipt.error
        assert receipt.result in app.protocol.sectors

    def test_full_file_lifecycle_through_blocks(self):
        chain, app, params = build_chain_app()
        for index in range(3):
            app.submit(f"prov-{index}", "sector_register", capacity=params.min_capacity)
        chain.produce_block()
        # 20 KiB at delay_per_size=1e-3 gives a ~20 s transfer deadline, i.e.
        # several 5 s blocks for the confirmations to land.
        app.submit("client", "file_add", size=20480, value=1, merkle_root=ROOT)
        block = chain.produce_block()
        file_id = block.receipts[0].result
        assert block.receipts[0].success
        for index, entry in app.protocol.alloc.entries_for_file(file_id):
            owner = app.protocol.sectors[entry.next].owner
            app.submit(owner, "file_confirm", file_id=file_id, index=index, sector_id=entry.next)
        chain.produce_block()
        # Advance enough blocks for CheckAlloc to fire.
        chain.run_epochs(6)
        assert app.protocol.files[file_id].state == FileState.NORMAL

    def test_failed_transaction_reports_error(self):
        chain, app, params = build_chain_app()
        app.submit("client", "file_add", size=0, value=1, merkle_root=ROOT)
        block = chain.produce_block()
        assert not block.receipts[0].success
        assert "size" in block.receipts[0].error

    def test_unknown_method_rejected(self):
        chain, app, _ = build_chain_app()
        app.submit("client", "not_a_method")
        block = chain.produce_block()
        assert not block.receipts[0].success

    def test_state_root_changes_with_protocol_state(self):
        chain, app, params = build_chain_app()
        root_before = app.state_root()
        app.submit("prov-0", "sector_register", capacity=params.min_capacity)
        chain.produce_block()
        assert app.state_root() != root_before

    def test_block_time_drives_protocol_clock(self):
        chain, app, params = build_chain_app()
        chain.run_epochs(3)
        assert app.protocol.now == pytest.approx(3 * chain.config.epoch_seconds)

    def test_deterministic_replay(self):
        """Two independent deployments fed the same transactions reach the
        same state root -- the property that makes the DSN a consensus app."""
        outcomes = []
        for _ in range(2):
            chain, app, params = build_chain_app()
            for index in range(3):
                app.submit(f"prov-{index}", "sector_register", capacity=params.min_capacity)
            chain.produce_block()
            app.submit("client", "file_add", size=2048, value=1, merkle_root=ROOT)
            chain.run_epochs(2)
            outcomes.append(app.state_root())
        assert outcomes[0] == outcomes[1]
