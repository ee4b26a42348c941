"""Simulation kernels for the hot experiment loops.

The Table III refresh churn and Section V-C greedy-adversary loops are
the hottest code in the repository -- every scenario the runner and
campaign layers fan out ultimately spends its time there.  This package
carves those loops out of :mod:`repro.sim` behind one small contract:

* :mod:`repro.kernels.base` -- the :class:`~repro.kernels.base.KernelBackend`
  contract (four kernels, bit-equivalence rules);
* :mod:`repro.kernels.sampling` -- the shared uint32 draw protocol behind
  ``batch_weighted_draw`` (word stream, validation);
* :mod:`repro.kernels.placements` -- the shared validation of
  ``greedy_select``'s two placement forms into CSR columns;
* :mod:`repro.kernels.moves` -- the shared validation of one
  ``refresh_moves`` request;
* :mod:`repro.kernels.vectorized` -- numpy sorted/grouped-scan
  implementations, the one backend the program runs.

The readable per-item loops the vectorized kernels must reproduce
bit-for-bit live in ``tests/oracles/kernel_oracle.py``, the oracle of every
differential suite.  Call sites take a ``backend=`` argument only as an
injection seam: :func:`get_backend` passes a :class:`KernelBackend`
instance through untouched, which is how tests run a scenario on the
oracle and how benchmarks wrap the kernels in a timing proxy.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.kernels.base import KernelBackend
from repro.kernels.placements import normalize_placements
from repro.kernels.sampling import BatchDrawResult, sampler_stream
from repro.kernels.vectorized import VectorizedKernels

__all__ = [
    "KERNELS",
    "BatchDrawResult",
    "KernelBackend",
    "VectorizedKernels",
    "get_backend",
    "normalize_placements",
    "sampler_stream",
]

#: The kernels every call site runs unless it is handed an instance.
KERNELS: KernelBackend = VectorizedKernels()


def get_backend(backend: Optional[Union[str, KernelBackend]] = None) -> KernelBackend:
    """The kernels for ``backend``: an instance as it is, else :data:`KERNELS`.

    ``None`` and ``"vectorized"`` name the one runtime backend; any other
    string raises ``ValueError``.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend not in (None, VectorizedKernels.name):
        raise ValueError(
            f"unknown kernel backend {backend!r}; accepted: None, "
            f"{VectorizedKernels.name!r} or a KernelBackend instance"
        )
    return KERNELS
