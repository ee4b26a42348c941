"""Benchmarks E8/E9: the protocol state machine end to end.

* Protocol throughput: File Add placement rate and refresh servicing rate
  of the on-chain state machine (micro-benchmarks of the Fenwick-tree
  selector inside the real protocol).
* End-to-end lifecycle (Fig. 3): one file through Add -> CheckAlloc ->
  proof cycles -> refresh -> crash -> compensation in the full scenario.
"""

from __future__ import annotations

import pytest

from repro.chain.ledger import Ledger
from repro.core.columnar import ColumnarProtocol
from repro.core.file_descriptor import FileState
from repro.core.params import ProtocolParams
from repro.crypto.prng import DeterministicPRNG
from repro.sim.scenario import DSNScenario, ScenarioConfig


def _build_protocol(providers: int, params: ProtocolParams) -> ColumnarProtocol:
    ledger = Ledger()
    protocol = ColumnarProtocol(
        params=params,
        ledger=ledger,
        prng=DeterministicPRNG.from_int(11, domain="bench-protocol"),
        health_oracle=lambda sector_id: True,
        auto_prove=True,
        charge_fees=False,
    )
    for index in range(providers):
        protocol.sector_register(f"prov-{index}", params.min_capacity)
    return protocol


def test_file_add_placement_throughput(benchmark, record):
    """File Add placements per second with 200 sectors (Fenwick selector)."""
    params = ProtocolParams.small_test().scaled(k=3, cap_para=1000.0)
    size = 1024

    def fresh_protocol():
        # Every round starts empty: rounds sharing one deployment fill it
        # until File Add refuses with "capacity limit exceeded".
        return (_build_protocol(200, params),), {}

    def add_batch(protocol):
        for _ in range(100):
            protocol.file_add("client", size, 1, b"\x00" * 32)

    benchmark.pedantic(add_batch, setup=fresh_protocol, rounds=20)
    record(
        "File Add placement throughput",
        f"{100 / benchmark.stats['mean']:.0f} adds/s (200 sectors, k=3)",
        "placement is O(k log Ns) per file",
    )


def test_proof_cycle_processing_rate(benchmark, record):
    """Auto CheckProof processing rate for 200 stored files."""
    params = ProtocolParams.small_test().scaled(k=3, cap_para=1000.0)
    protocol = _build_protocol(100, params)
    for _ in range(200):
        file_id = protocol.file_add("client", 512, 1, b"\x00" * 32)
        for index, entry in protocol.alloc.entries_for_file(file_id):
            protocol.file_confirm(protocol.sectors[entry.next].owner, file_id, index, entry.next)
    protocol.run_until_idle(max_time=protocol.now + 1.0)

    def one_cycle():
        protocol.advance_time(protocol.now + params.proof_cycle)

    benchmark.pedantic(one_cycle, rounds=5, iterations=1)
    record(
        "Auto CheckProof cycle for 200 files",
        f"{benchmark.stats['mean'] * 1000:.1f} ms per checkpoint",
        "periodic proof checking is cheap consensus work",
    )


def test_end_to_end_lifecycle(benchmark, record):
    """Fig. 3 walkthrough: store, maintain, crash, compensate."""

    def run():
        scenario = DSNScenario(
            ScenarioConfig(provider_count=4, sectors_per_provider=2, client_count=1, seed=5)
        )
        data = b"lifecycle payload" * 64
        file_id = scenario.store_file("client-0", "life", data, value=1)
        scenario.settle_uploads()
        scenario.run_cycles(6)
        hosts = {
            scenario.sector_map[s][0]
            for s in scenario.protocol.file_locations(file_id)
            if s is not None
        }
        for provider in hosts:
            scenario.crash_provider(provider)
        scenario.run_cycles(6)
        return scenario, file_id

    scenario, file_id = benchmark.pedantic(run, rounds=1, iterations=1)
    descriptor = scenario.protocol.files[file_id]
    assert descriptor.state == FileState.LOST
    assert descriptor.compensation_received >= descriptor.value
    record(
        "End-to-end lifecycle (Fig. 3): compensation after total crash",
        f"compensated {descriptor.compensation_received} of value {descriptor.value}",
        "full compensation for lost files",
    )
