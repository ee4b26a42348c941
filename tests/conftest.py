"""Shared fixtures for the FileInsurer reproduction test suite."""

from __future__ import annotations

import contextlib
import signal

import pytest

from repro.chain.ledger import Ledger
from repro.core.params import ProtocolParams
from repro.core.columnar import ColumnarProtocol
from repro.crypto.prng import DeterministicPRNG


@pytest.fixture
def params() -> ProtocolParams:
    """Small, fast protocol parameters used across tests."""
    return ProtocolParams.small_test()


@pytest.fixture
def ledger() -> Ledger:
    """A fresh ledger."""
    return Ledger()


@pytest.fixture
def prng() -> DeterministicPRNG:
    """A deterministic PRNG with a fixed seed."""
    return DeterministicPRNG.from_int(12345)


@pytest.fixture
def funded_protocol(params, ledger) -> ColumnarProtocol:
    """A protocol instance with three funded providers and one funded client.

    Providers own one sector each; proofs are auto-credited (all sectors
    healthy unless a test overrides the oracle).
    """
    protocol = ColumnarProtocol(
        params=params,
        ledger=ledger,
        prng=DeterministicPRNG.from_int(7, domain="test-protocol"),
        health_oracle=lambda sector_id: True,
        auto_prove=True,
    )
    for index in range(3):
        owner = f"prov-{index}"
        ledger.mint(owner, 1_000_000)
        protocol.sector_register(owner, params.min_capacity)
    ledger.mint("client", 1_000_000)
    return protocol


def confirm_all(protocol: ColumnarProtocol, file_id: int) -> None:
    """Helper: every selected sector confirms receipt of the file."""
    for index, entry in protocol.alloc.entries_for_file(file_id):
        if entry.next is not None:
            owner = protocol.sectors[entry.next].owner
            protocol.file_confirm(owner, file_id, index, entry.next)


@pytest.fixture
def confirm_all_helper():
    """Expose :func:`confirm_all` to tests as a fixture."""
    return confirm_all


@pytest.fixture
def campaign_scenarios():
    """Register two tiny scenarios ('camp-alpha', 'camp-beta') for campaign tests.

    The trial functions live in :mod:`campaign_testlib` (a uniquely named
    module) so they stay picklable into pool workers.
    """
    from campaign_testlib import campaign_test_specs

    from repro.runner.registry import _REGISTRY, register

    specs = campaign_test_specs()
    for spec in specs:
        register(spec, replace=True)
    yield specs
    for spec in specs:
        _REGISTRY.pop(spec.name, None)


@pytest.fixture
def oracle_kernels(monkeypatch):
    """Run every kernel call on the per-item oracle of ``kernel_oracle``.

    Patches the one instance :func:`repro.kernels.get_backend` hands out,
    so whole scenarios run on the oracle; fork-started pool workers
    inherit the patch.  Returns the oracle instance.
    """
    import repro.kernels
    from oracles.kernel_oracle import ReferenceKernels

    oracle = ReferenceKernels()
    monkeypatch.setattr(repro.kernels, "KERNELS", oracle)
    return oracle


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` raises ``TimeoutError`` inside a block
    still running after ``seconds`` (SIGALRM), so a regression to a hang
    fails its test instead of stalling the suite."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
