"""A census of what the producers send ``batch_weighted_draw``.

The kernel's contract is one request per call -- ``("draw", count)`` or
``("place", int sizes array, max_attempts)`` -- against tables that are
constant for the call.  That contract was cut to the traffic the program
paths actually send; this census holds the six producers to it, so the
claim cannot drift back into a guess: a producer that starts sending a
second op, a point update or a scalar size fails here, not in a kernel
three layers down.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.selector import CapacitySelector
from repro.crypto.prng import DeterministicPRNG
from repro.kernels import VectorizedKernels
from repro.kernels.sampling import DrawTable
from repro.runner import run_scenario
from repro.runner.registry import load_builtin_scenarios
from repro.sim.lifecycle import LifecycleConfig, LifecycleSimulation

from oracles.protocol import select_batch


class Census(VectorizedKernels):
    """The vectorized backend, recording every draw call's arguments."""

    name = "census"

    def __init__(self) -> None:
        self.calls = []

    def batch_weighted_draw(self, rng, weights, ops, free=None):
        self.calls.append((weights, ops, free))
        return super().batch_weighted_draw(rng, weights, ops, free)


def assert_single_requests(calls, kinds):
    """Every call holds one request, of the two shapes, over int tables
    (a weight table may come as a ``DrawTable``; its weights are read)."""
    assert sorted({ops[0][0] for _, ops, _ in calls}) == sorted(kinds)
    for weights, ops, free in calls:
        assert isinstance(ops, (list, tuple)) and len(ops) == 1
        (request,) = ops
        assert isinstance(request, tuple)
        if request[0] == "draw":
            _, count = request
            assert type(count) is int and count >= 0
        else:
            kind, sizes, max_attempts = request
            assert kind == "place" and type(max_attempts) is int
            assert isinstance(sizes, np.ndarray) and sizes.ndim == 1
            assert sizes.dtype.kind in "iu"
            assert free is not None
        if isinstance(weights, DrawTable):
            weights = weights.weights
        for table in (weights, free):
            assert table is None or np.asarray(table).dtype.kind in "iu"


def test_selector_sends_one_draw_or_one_place_run():
    census = Census()
    selector = CapacitySelector(
        DeterministicPRNG.from_int(3, domain="census"),
        max_attempts=4,
        backend=census,
        draw_batch=8,
    )
    for index in range(6):
        selector.add_sector(f"s{index}", 100 + 20 * index, free=40)
    selector.select_batch_slots([30, 30, 30, 5, 5])
    for _ in range(9):  # one more than a prefetch: two draw calls
        selector.random_slot()
    select_batch(selector, [12, 12])
    assert len(census.calls) == 4
    assert_single_requests(census.calls, ("draw", "place"))


def test_lifecycle_and_scenarios_send_one_request_per_call(monkeypatch):
    census = Census()
    monkeypatch.setattr(kernels, "KERNELS", census)

    LifecycleSimulation(
        LifecycleConfig(providers=6, files=8, horizon_s=120.0, mtbf_s=60.0, mttr_s=20.0, seed=1)
    ).run()
    lifecycle_calls = len(census.calls)
    assert lifecycle_calls == 2  # placement, then the retrieval stream
    assert_single_requests(census.calls, ("draw", "place"))

    load_builtin_scenarios()
    run_scenario(
        "retrieval_load",
        {"trials": 1, "requests": 10, "rates": (2.0,)},
    )
    retrieval_calls = census.calls[lifecycle_calls:]
    assert retrieval_calls
    assert_single_requests(retrieval_calls, ("draw",))

    run_scenario("segmentation", {"trials": 1})
    segmentation_calls = census.calls[lifecycle_calls + len(retrieval_calls) :]
    assert segmentation_calls
    assert_single_requests(segmentation_calls, ("place",))
