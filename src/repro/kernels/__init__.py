"""Backend-dispatched simulation kernels for the hot experiment loops.

The Table III refresh churn and Section V-C greedy-adversary loops are
the hottest code in the repository -- every scenario the runner and
campaign layers fan out ultimately spends its time there.  This package
carves those loops out of :mod:`repro.sim` behind an explicit backend
seam:

* :mod:`repro.kernels.base` -- the :class:`~repro.kernels.base.KernelBackend`
  contract (four kernels, bit-equivalence rules);
* :mod:`repro.kernels.sampling` -- the shared uint32 draw protocol behind
  ``batch_weighted_draw`` (word stream, rejection adapter, validation);
* :mod:`repro.kernels.placements` -- the shared validation of
  ``greedy_select``'s two placement forms into CSR columns;
* :mod:`repro.kernels.moves` -- the shared validation of one
  ``refresh_moves`` request;
* :mod:`repro.kernels.reference` -- the original readable loops, kept as
  the correctness oracle;
* :mod:`repro.kernels.vectorized` -- numpy sorted/grouped-scan
  implementations, >= 5x faster at the pinned benchmark shapes (more on
  typical CI hardware) and bit-identical to reference (the default).

Backend selection, in precedence order:

1. an explicit argument -- ``PlacementExperiment(backend="reference")``,
   ``GreedyCapacityAdversary(backend=...)``, or a scenario's ``backend``
   parameter (``repro run table3 --backend reference``);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the built-in default, ``vectorized``.

Scenarios expose the choice as an ordinary ``backend`` parameter whose
``"auto"`` default resolves through :func:`resolve_backend_name` at
parameter-resolution time, so run manifests always record the *concrete*
backend and ``repro diff`` flags backend drift like any other parameter
change.

Future backends (numba, multiprocess sharding) plug in by subclassing
:class:`~repro.kernels.base.KernelBackend` and registering in
``_BACKENDS`` -- call sites and tests are already backend-agnostic.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import telemetry
from repro.kernels.base import KernelBackend
from repro.kernels.placements import Placements, normalize_placements
from repro.kernels.reference import ReferenceKernels
from repro.kernels.sampling import BatchDrawResult, sampler_stream
from repro.kernels.vectorized import VectorizedKernels

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "BatchDrawResult",
    "InstrumentedBackend",
    "KernelBackend",
    "KernelError",
    "ReferenceKernels",
    "VectorizedKernels",
    "available_backends",
    "get_backend",
    "normalize_placements",
    "resolve_backend_name",
    "sampler_stream",
]

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Backend used when neither an argument nor the environment chooses one.
DEFAULT_BACKEND = "vectorized"

_BACKENDS: Dict[str, KernelBackend] = {
    ReferenceKernels.name: ReferenceKernels(),
    VectorizedKernels.name: VectorizedKernels(),
}


class KernelError(ValueError):
    """An unknown kernel backend was requested."""


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete registered name.

    ``None``, ``""`` and ``"auto"`` defer to ``$REPRO_KERNEL_BACKEND``,
    falling back to :data:`DEFAULT_BACKEND`; anything else must name a
    registered backend.  Raises :class:`KernelError` (a ``ValueError``)
    otherwise, naming the known backends.
    """
    requested = name
    if requested in (None, "", "auto"):
        requested = os.environ.get(BACKEND_ENV_VAR, "") or DEFAULT_BACKEND
    if requested not in _BACKENDS:
        raise KernelError(
            f"unknown kernel backend {requested!r}; known backends: "
            f"{', '.join(available_backends())} (or 'auto')"
        )
    return requested


class InstrumentedBackend(KernelBackend):
    """A recording proxy around a real backend (telemetry-enabled runs).

    Delegates every kernel verbatim -- results are bit-identical to the
    wrapped backend's, because the only added work is reading the clock
    and appending to the telemetry buffer, never consuming RNG words --
    while recording one ``kernel.<name>`` span per call (batch size and
    backend in the span args) and a per-kernel draw/move counter.
    :func:`get_backend` wraps resolved backends in this proxy only while
    telemetry is enabled, so disabled runs dispatch with zero
    indirection.
    """

    def __init__(self, inner: KernelBackend) -> None:
        self._inner = inner
        self.name = inner.name

    def place_backups(
        self, rng: "np.random.Generator", sizes: "np.ndarray", n_sectors: int
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        with telemetry.span(
            "kernel.place_backups", category="kernel",
            backend=self.name, batch=int(len(sizes)),
        ):
            result = self._inner.place_backups(rng, sizes, n_sectors)
        telemetry.counter("kernel.place_backups.backups", int(len(sizes)))
        return result

    def refresh_moves(
        self,
        sizes: "np.ndarray",
        usage: "np.ndarray",
        assignments: "np.ndarray",
        chosen: "np.ndarray",
        targets: "np.ndarray",
        snapshot_after: Sequence[int] = (),
    ) -> Tuple[float, List["np.ndarray"]]:
        with telemetry.span(
            "kernel.refresh_moves", category="kernel",
            backend=self.name, batch=int(len(chosen)),
        ):
            result = self._inner.refresh_moves(
                sizes, usage, assignments, chosen, targets, snapshot_after
            )
        telemetry.counter("kernel.refresh_moves.moves", int(len(chosen)))
        return result

    def greedy_select(
        self,
        capacities: "np.ndarray",
        placements: Placements,
        values: Sequence[float],
        budget: float,
    ) -> Set[int]:
        with telemetry.span(
            "kernel.greedy_select", category="kernel",
            backend=self.name, sectors=int(len(capacities)),
        ):
            result = self._inner.greedy_select(capacities, placements, values, budget)
        telemetry.counter("kernel.greedy_select.calls")
        return result

    def batch_weighted_draw(
        self,
        rng: "np.random.Generator",
        weights: Sequence[int],
        ops: Sequence[Tuple],
        free: Optional[Sequence[int]] = None,
    ) -> BatchDrawResult:
        with telemetry.span(
            "kernel.batch_weighted_draw", category="kernel",
            backend=self.name, ops=int(len(ops)),
        ):
            result = self._inner.batch_weighted_draw(rng, weights, ops, free)
        telemetry.counter("kernel.draws", int(result.attempts))
        return result


def get_backend(
    backend: Optional[Union[str, KernelBackend]] = None
) -> KernelBackend:
    """The kernel backend for ``backend`` (name, instance or ``None``).

    Strings resolve via :func:`resolve_backend_name`; an already-built
    :class:`KernelBackend` passes through untouched, which lets tests and
    future callers inject custom backends without registering them.
    While telemetry is enabled, resolved backends come wrapped in
    :class:`InstrumentedBackend` so every kernel call is recorded; the
    wrapped results are bit-identical to the bare backend's.
    """
    if isinstance(backend, KernelBackend):
        return backend
    resolved = _BACKENDS[resolve_backend_name(backend)]
    if telemetry.is_enabled():
        return InstrumentedBackend(resolved)
    return resolved
