"""End-to-end DSN scenario: chain, protocol, providers, clients, network.

Wires every substrate together into a runnable deployment:

* a token :class:`Ledger` funding clients and providers;
* the :class:`ColumnarProtocol` state machine (on-chain view);
* physical :class:`StorageProvider` actors with disks and Capacity Replicas;
* :class:`StorageClient` actors preparing and verifying files;
* a :class:`SimulatedNetwork` bounding transfer times against the
  protocol's ``DelayPerSize`` deadline.

The scenario moves simulated time in proof-cycle steps, performing the
physical side effects the protocol requests (file transfers for new
allocations and refresh swaps) and feeding proof outcomes back through a
health oracle.  Examples and integration tests drive deployments through
this class; the robustness experiments use it with an adversary crashing
providers mid-run.

Alongside the physical layer, every deployment now carries an auditable
lifecycle view (:mod:`repro.sim.lifecycle`): each file and provider has
an explicit state machine, transitions are scheduled as events on the
deployment's :class:`~repro.sim.engine.SimulationEngine` (drained as
:meth:`advance_to` moves time), and the transition totals surface in
:meth:`summary`.  The purely event-driven heavy-traffic variant lives in
:class:`~repro.sim.lifecycle.LifecycleSimulation` (the
``lifecycle_churn`` scenario).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.ledger import Ledger
from repro.core.columnar import ColumnarProtocol
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.core.protocol import RefreshNotice
from repro.crypto.prng import DeterministicPRNG
from repro.sim.engine import SimulationEngine
from repro.sim.lifecycle import (
    FileLifecycleEvent,
    FileLifecycleState,
    LifecycleRegistry,
    ProviderLifecycleEvent,
)
from repro.sim.network import LatencyModel, SimulatedNetwork
from repro.storage.client import PreparedFile, StorageClient
from repro.storage.disk import DiskCorruptedError, DiskFullError
from repro.storage.provider import ProviderSector, SectorFullError, StorageProvider
from repro.telemetry import counter

__all__ = ["ScenarioConfig", "DSNScenario"]

#: What ``store_file`` raises when physical storage *refuses* a replica;
#: anything else is a bug and propagates.
_STORAGE_REFUSED = (SectorFullError, DiskFullError, DiskCorruptedError)


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of a scenario deployment."""

    params: ProtocolParams = field(default_factory=ProtocolParams.small_test)
    provider_count: int = 4
    sectors_per_provider: int = 2
    sector_capacity_multiple: int = 1
    client_count: int = 2
    provider_funds: int = 1_000_000
    client_funds: int = 1_000_000
    seed: int = 42
    #: Kernel injection seam for the protocol's sector selection (see
    #: :func:`repro.kernels.get_backend`; ``None`` runs the vectorized
    #: kernels).  The deployment is deterministic in ``seed`` and its
    #: draws are bit-identical on the kernel oracle.
    backend: Optional[str] = None
    latency: LatencyModel = field(
        default_factory=lambda: LatencyModel(
            base_latency_s=0.001, bandwidth_bytes_per_s=100 * 1024 * 1024, jitter_fraction=0.1
        )
    )

    @property
    def sector_capacity(self) -> int:
        """Capacity of each sector in bytes."""
        return self.sector_capacity_multiple * self.params.min_capacity


class DSNScenario:
    """A fully wired FileInsurer deployment over simulated time."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        params = self.config.params
        self.ledger = Ledger()
        self.network = SimulatedNetwork(latency=self.config.latency, seed=self.config.seed)
        self.protocol = ColumnarProtocol(
            params=params,
            ledger=self.ledger,
            prng=DeterministicPRNG.from_int(self.config.seed, domain="scenario-protocol"),
            health_oracle=self.sector_is_healthy,
            auto_prove=True,
            backend=self.config.backend,
        )
        #: Event engine + lifecycle audit trail over the deployment.
        self.engine = SimulationEngine()
        self.lifecycle = LifecycleRegistry()
        self.providers: Dict[str, StorageProvider] = {}
        self.clients: Dict[str, StorageClient] = {}
        #: On-chain sector id -> (provider name, physical sector).
        self.sector_map: Dict[str, Tuple[str, ProviderSector]] = {}
        self._processed_notices = 0
        self._file_payloads: Dict[int, PreparedFile] = {}
        self._build()

    # ------------------------------------------------------------------
    # Deployment construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        params = config.params
        for index in range(config.provider_count):
            name = f"provider-{index}"
            self.ledger.mint(name, config.provider_funds)
            disk_capacity = config.sectors_per_provider * config.sector_capacity
            provider = StorageProvider(name, disk_capacity=disk_capacity)
            self.providers[name] = provider
            self.lifecycle.provider(name).apply(
                ProviderLifecycleEvent.ACTIVATED, time=self.protocol.now
            )
            for _ in range(config.sectors_per_provider):
                self.register_sector(name, config.sector_capacity)
        for index in range(config.client_count):
            name = f"client-{index}"
            self.ledger.mint(name, config.client_funds)
            self.clients[name] = StorageClient(name)

    def register_sector(self, provider_name: str, capacity: int) -> str:
        """Register a new sector for ``provider_name`` on chain and on disk."""
        provider = self.providers[provider_name]
        sector_id = self.protocol.sector_register(provider_name, capacity)
        physical = provider.create_sector(
            sector_id, capacity, self.config.params.capacity_replica_size
        )
        self.sector_map[sector_id] = (provider_name, physical)
        return sector_id

    def add_provider(self, name: str, sectors: int = 1) -> None:
        """Add a brand-new provider mid-run (provider churn)."""
        if name in self.providers:
            raise ValueError(f"provider {name!r} already exists")
        self.ledger.mint(name, self.config.provider_funds)
        disk_capacity = sectors * self.config.sector_capacity
        self.providers[name] = StorageProvider(name, disk_capacity=disk_capacity)
        self.lifecycle.provider(name).apply(
            ProviderLifecycleEvent.ACTIVATED, time=self.protocol.now
        )
        for _ in range(sectors):
            self.register_sector(name, self.config.sector_capacity)

    # ------------------------------------------------------------------
    # Health oracle used by the protocol's automatic proof crediting
    # ------------------------------------------------------------------
    def sector_is_healthy(self, sector_id: str) -> bool:
        """True if the sector's provider exists and its disk is intact."""
        entry = self.sector_map.get(sector_id)
        if entry is None:
            return False
        provider_name, _ = entry
        provider = self.providers.get(provider_name)
        return provider is not None and provider.is_healthy()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def store_file(self, client_name: str, name: str, data: bytes, value: int) -> int:
        """Store a file end to end: File Add, physical transfers, confirms.

        Returns the file id.  The allocation is finalised when time advances
        past the transfer deadline (``Auto CheckAlloc``); call
        :meth:`run_cycles` or :meth:`settle_uploads` afterwards.
        """
        client = self.clients[client_name]
        prepared = client.prepare_file(name, data, value)
        file_id = self.protocol.file_add(
            client_name, prepared.size, prepared.value, prepared.merkle_root
        )
        self._file_payloads[file_id] = prepared
        self._deliver_initial_replicas(file_id, prepared)
        # Lifecycle: the file starts PENDING; an engine event at the
        # transfer deadline settles it to PLACED or LOST from whatever
        # CheckAlloc decided by then.
        self.lifecycle.file(file_id)
        deadline = self.protocol.now + self.config.params.transfer_deadline(prepared.size)
        self.engine.schedule_at(
            max(deadline, self.engine.now),
            lambda f=file_id: self._settle_placement(f),
        )
        return file_id

    def _settle_placement(self, file_id: int) -> None:
        """Engine event: resolve a PENDING file's lifecycle from chain state."""
        machine = self.lifecycle.file(file_id)
        if machine.state is not FileLifecycleState.PENDING:
            return
        placed = self.protocol.files.state_of(file_id) is FileState.NORMAL and any(
            s is not None for s in self.protocol.file_locations(file_id)
        )
        if placed:
            machine.apply(FileLifecycleEvent.PLACEMENT_CONFIRMED, time=self.engine.now)
        else:
            machine.apply(FileLifecycleEvent.PLACEMENT_FAILED, time=self.engine.now)

    def _deliver_initial_replicas(self, file_id: int, prepared: PreparedFile) -> None:
        files = self.protocol.files
        owner, size = files.owners[file_id], files.size.item(file_id)
        deadline = self.protocol.now + self.config.params.transfer_deadline(size)
        for index, sector_id in self.protocol.alloc.awaiting(file_id):
            provider_name, physical = self.sector_map[sector_id]
            provider = self.providers[provider_name]
            message = self.network.transfer(owner, provider_name, size, now=self.protocol.now)
            if not self.network.meets_deadline(message, deadline):
                continue
            if not provider.is_healthy():
                continue
            try:
                physical.store_file(prepared.merkle_root, prepared.data)
            except _STORAGE_REFUSED:
                # The physical sector/disk could not take the replica (e.g. a
                # transient double-copy during churn); the provider simply
                # never confirms and CheckAlloc fails the upload.
                counter("scenario.replica_refused", category="sim")
                continue
            self.protocol.file_confirm(provider_name, file_id, index, sector_id)

    def settle_uploads(self) -> None:
        """Advance time just far enough to run pending ``CheckAlloc`` tasks."""
        next_time = self.protocol.pending.peek_time()
        if next_time is not None and next_time > self.protocol.now:
            self.advance_to(next_time)

    def retrieve_file(self, client_name: str, file_id: int) -> bytes:
        """Retrieve a file from any healthy provider and verify its root.

        Models the Retrieval Market: the first healthy replica holder serves
        the request; the client checks the payload against the on-chain
        Merkle root.
        """
        client = self.clients[client_name]
        if file_id not in self.protocol.files:
            raise KeyError(f"unknown file#{file_id}")
        merkle_root = self.protocol.files.merkle_roots[file_id]
        for sector_id in self.protocol.file_locations(file_id):
            if sector_id is None:
                continue
            mapped = self.sector_map.get(sector_id)
            if mapped is None:
                continue
            provider_name, physical = mapped
            provider = self.providers[provider_name]
            if not provider.is_healthy() or not physical.holds_file(merkle_root):
                continue
            payload = physical.read_raw_file(merkle_root)
            self.network.transfer(
                provider_name, client_name, len(payload), now=self.protocol.now
            )
            if not client.verify_retrieved(merkle_root, payload):
                continue
            return payload
        raise LookupError(f"no healthy replica of file#{file_id} could be retrieved")

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def crash_provider(self, provider_name: str) -> None:
        """Corrupt a provider's disk.

        The loss surfaces when proofs stop arriving and the proof deadline
        passes, exactly as in the paper.
        """
        provider = self.providers[provider_name]
        provider.crash()
        self.network.set_offline(provider_name, True)
        self.lifecycle.provider(provider_name).apply_if_valid(
            ProviderLifecycleEvent.CRASHED, time=self.protocol.now
        )
        # Files with a replica on the crashed provider degrade when the
        # engine next moves time (detection is not instantaneous).
        for file_id in sorted(self._files_on_provider(provider_name)):
            self.engine.schedule_at(
                self.engine.now,
                lambda f=file_id: self._degrade_file(f),
            )

    def _files_on_provider(self, provider_name: str) -> List[int]:
        """File ids with at least one replica mapped onto the provider."""
        hosted = self.protocol.alloc.files_hosted_on(
            [
                sector_id
                for sector_id, (owner, _) in self.sector_map.items()
                if owner == provider_name
            ]
        )
        return [file_id for file_id in self._file_payloads if file_id in hosted]

    def _degrade_file(self, file_id: int) -> None:
        """Engine event: a replica holder failed; degrade the lifecycle."""
        machine = self.lifecycle.file(file_id)
        if machine.is_terminal or machine.state is FileLifecycleState.PENDING:
            return
        machine.apply_if_valid(FileLifecycleEvent.REPLICA_DEGRADED, time=self.engine.now)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Advance protocol time, service replica swaps, drain the engine."""
        self.protocol.advance_time(time)
        self._process_refresh_notices()
        self.engine.run(until=time)
        self._sync_lost_files()

    def _sync_lost_files(self) -> None:
        """Fold on-chain losses into the lifecycle machines."""
        for file_id in self.protocol.files.with_state(FileState.LOST):
            machine = self.lifecycle.file(file_id)
            if machine.state is FileLifecycleState.LOST:
                continue
            now = self.engine.now
            if machine.state is FileLifecycleState.PENDING:
                machine.apply(FileLifecycleEvent.PLACEMENT_FAILED, time=now)
                continue
            if machine.state in (FileLifecycleState.PLACED, FileLifecycleState.REFRESHED):
                machine.apply(FileLifecycleEvent.REPLICA_DEGRADED, time=now)
            machine.apply(FileLifecycleEvent.ALL_REPLICAS_LOST, time=now)

    def run_cycles(self, cycles: int) -> None:
        """Advance time by whole proof cycles, servicing swaps in between."""
        for _ in range(cycles):
            self.advance_to(self.protocol.now + self.config.params.proof_cycle)

    # ------------------------------------------------------------------
    # Refresh servicing (physical replica movement)
    # ------------------------------------------------------------------
    def _process_refresh_notices(self) -> None:
        notices = self.protocol.refresh_notices
        while self._processed_notices < len(notices):
            notice = notices[self._processed_notices]
            self._processed_notices += 1
            self._service_refresh(notice)

    def _service_refresh(self, notice: RefreshNotice) -> None:
        files = self.protocol.files
        if files.state_of(notice.file_id) is not FileState.NORMAL:
            return
        if (notice.replica_index, notice.target_sector) not in self.protocol.alloc.awaiting(
            notice.file_id
        ):
            return
        target_mapped = self.sector_map.get(notice.target_sector)
        if target_mapped is None:
            return
        target_provider_name, target_sector = target_mapped
        target_provider = self.providers[target_provider_name]
        if not target_provider.is_healthy():
            return

        merkle_root = files.merkle_roots[notice.file_id]
        raw = self._obtain_raw_bytes(merkle_root, notice)
        if raw is None:
            return
        message = self.network.transfer(
            notice.source_sector or files.owners[notice.file_id],
            target_provider_name,
            files.size.item(notice.file_id),
            now=self.protocol.now,
        )
        if not self.network.meets_deadline(message, notice.deadline):
            return
        if not target_sector.holds_file(merkle_root):
            try:
                target_sector.store_file(merkle_root, raw)
            except _STORAGE_REFUSED:
                # Physical storage refused the replica; the swap simply is
                # not confirmed and CheckRefresh retries elsewhere.
                counter("scenario.replica_refused", category="sim")
                return
        self.protocol.file_confirm(
            target_provider_name, notice.file_id, notice.replica_index, notice.target_sector
        )
        # Lifecycle: a serviced swap is a completed refresh.  The machine
        # may not have observed the degradation yet (losses can surface
        # through proof deadlines rather than crash_provider), so walk it
        # through the guarded chain degraded -> refreshing -> refreshed.
        machine = self.lifecycle.file(notice.file_id)
        if not machine.is_terminal and machine.state is not FileLifecycleState.PENDING:
            machine.apply_if_valid(FileLifecycleEvent.REPLICA_DEGRADED, time=self.engine.now)
            machine.apply_if_valid(FileLifecycleEvent.REFRESH_STARTED, time=self.engine.now)
            machine.apply_if_valid(
                FileLifecycleEvent.REFRESH_COMPLETED, time=self.engine.now
            )
        # Remove the replica from the predecessor once the swap is confirmed
        # (the old sector keeps it only until the network completes the move).
        if notice.source_sector is not None:
            source_mapped = self.sector_map.get(notice.source_sector)
            if source_mapped is not None:
                _, source_sector = source_mapped
                source_sector.remove_file(merkle_root)

    def _obtain_raw_bytes(self, merkle_root: bytes, notice: RefreshNotice) -> Optional[bytes]:
        """Fetch the raw file for a swap: from the predecessor, any healthy
        replica holder, or (last resort) the uploading client's copy."""
        if notice.source_sector is not None:
            mapped = self.sector_map.get(notice.source_sector)
            if mapped is not None:
                provider_name, physical = mapped
                provider = self.providers[provider_name]
                if provider.is_healthy() and physical.holds_file(merkle_root):
                    return physical.read_raw_file(merkle_root)
        for sector_id in self.protocol.file_locations(notice.file_id):
            if sector_id is None or sector_id == notice.source_sector:
                continue
            mapped = self.sector_map.get(sector_id)
            if mapped is None:
                continue
            provider_name, physical = mapped
            provider = self.providers[provider_name]
            if provider.is_healthy() and physical.holds_file(merkle_root):
                return physical.read_raw_file(merkle_root)
        prepared = self._file_payloads.get(notice.file_id)
        return prepared.data if prepared is not None else None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Combined protocol and physical-layer summary."""
        result = dict(self.protocol.snapshot())
        result["healthy_providers"] = float(
            sum(1 for provider in self.providers.values() if provider.is_healthy())
        )
        result["providers"] = float(len(self.providers))
        result["bytes_transferred"] = float(self.network.total_bytes_transferred())
        transitions = self.lifecycle.transition_counts()
        result["lifecycle_transitions"] = float(sum(transitions.values()))
        result["lifecycle_refreshes"] = float(transitions.get("file.refresh_completed", 0))
        result["lifecycle_files_lost"] = float(
            self.lifecycle.state_counts().get("file.lost", 0)
        )
        return result
