"""Benchmarks E8/E9: the protocol state machine end to end.

* Protocol throughput: File Add placement rate (a micro-benchmark of the
  Fenwick-tree selector inside the real protocol) and the Auto CheckProof
  cycle over 200 stored files, no refresh starting inside the timed cycles.
* End-to-end lifecycle (Fig. 3): one file through Add -> CheckAlloc ->
  proof cycles -> refresh -> crash -> compensation in the full scenario.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.events import EventType
from repro.core.file_descriptor import FileState
from repro.sim.scenario import DSNScenario, ScenarioConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.harness import deploy  # noqa: E402

ROOT = b"\x00" * 32

#: 1 MiB sectors, ``cap_para`` far above the file count, vectorized kernels.
SHAPE = dict(capacity_mb=1, backend="vectorized", cap_para=1000.0)


def test_file_add_placement_throughput(benchmark, record):
    """File Add placements per second with 200 sectors (Fenwick selector)."""

    def fresh_protocol():
        # Every round starts empty: rounds sharing one deployment fill it
        # until File Add refuses with "capacity limit exceeded".
        return (deploy(providers=200, **SHAPE),), {}

    def add_batch(protocol):
        for _ in range(100):
            protocol.file_add("client", 1024, 1, ROOT)

    benchmark.pedantic(add_batch, setup=fresh_protocol, rounds=20)
    record(
        "File Add placement throughput",
        f"{100 / benchmark.stats['mean']:.0f} adds/s (200 sectors, k=3)",
        "placement is O(k log Ns) per file",
    )


def test_proof_cycle_processing_rate(benchmark, record):
    """Auto CheckProof processing rate for 200 stored files.

    The mean refresh countdown is 10**6 proof cycles, so no file starts a
    refresh inside the timed cycles: each one is the CheckProof sweep
    alone, not refreshes failing and restarting (nobody confirms them).
    """
    protocol = deploy(providers=100, avg_refresh=1e6, **SHAPE)
    protocol.confirm_batch(protocol.file_add_batch("client", [512] * 200, [1] * 200, ROOT))
    protocol.advance_time(protocol.pending.peek_time())  # CheckAlloc
    assert protocol.files_stored == 200

    def one_cycle():
        protocol.advance_time(protocol.now + protocol.params.proof_cycle)

    benchmark.pedantic(one_cycle, rounds=5, iterations=1)
    assert protocol.events.count(EventType.FILE_REFRESH_STARTED) == 0
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
