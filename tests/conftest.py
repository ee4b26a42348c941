"""Shared fixtures for the FileInsurer reproduction test suite."""

from __future__ import annotations

import contextlib
import signal
import time

import pytest

from repro.chain.ledger import Ledger
from repro.core.params import ProtocolParams


@pytest.fixture
def params() -> ProtocolParams:
    """Small, fast protocol parameters used across tests."""
    return ProtocolParams.small_test()


@pytest.fixture
def ledger() -> Ledger:
    """A fresh ledger."""
    return Ledger()


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
    fails its test instead of stalling the suite.  A block that ends on its
    own after ``seconds`` raises it too: the alarm's exception is lost when
    it lands where Python only reports it (a gc callback, a ``__del__``)."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        started = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.monotonic() - started
        if elapsed > seconds:
            raise TimeoutError(f"ran {elapsed:.3f} s, past its {seconds} s")

    return limit
