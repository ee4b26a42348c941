"""One ``refresh_moves`` request, validated the same way on every backend.

:func:`normalize_refresh_request` is to ``refresh_moves`` what
:func:`~repro.kernels.sampling.normalize_draw_request` and
:func:`~repro.kernels.placements.normalize_placements` are to their
kernels: the one place a malformed request is refused, *before* ``usage``
or ``assignments`` is touched, so both backends fail with the same
``ValueError`` instead of a wrapped negative index here and a broadcast
error there -- and a kernel that applies a batch chunk by chunk can never
stop half-applied on a bad move.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.placements import checked_indices

__all__ = ["normalize_refresh_request"]


def normalize_refresh_request(
    sizes: np.ndarray,
    usage: np.ndarray,
    assignments: np.ndarray,
    chosen: np.ndarray,
    targets: np.ndarray,
    snapshot_after: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Validate one ``refresh_moves`` request; returns its move columns.

    Returns ``(chosen, targets, snapshot_after)`` as two aligned 1-D
    integer arrays and a tuple of Python ints.  ``chosen`` must index
    ``sizes`` (which ``assignments`` must match in length), ``targets``
    must index ``usage``, and ``snapshot_after`` must be strictly
    increasing integers in ``[1, len(chosen)]``; anything else raises
    ``ValueError`` with no state touched.
    """
    chosen, targets = np.asarray(chosen), np.asarray(targets)
    if chosen.ndim != 1 or chosen.shape != targets.shape:
        raise ValueError(
            "chosen and targets must be one-dimensional and of one length, "
            f"got shapes {chosen.shape} and {targets.shape}"
        )
    if len(assignments) != len(sizes):
        raise ValueError(
            f"assignments has {len(assignments)} entries for {len(sizes)} backup sizes"
        )
    chosen = checked_indices(chosen, len(sizes), "chosen backup")
    targets = checked_indices(targets, len(usage), "target sector")
    bounds = []
    previous = 0
    for bound in snapshot_after:
        if (
            isinstance(bound, bool)
            or not isinstance(bound, (int, np.integer))
            or not previous < bound <= chosen.size
        ):
            raise ValueError(
                "snapshot_after must be strictly increasing integers in "
                f"[1, {chosen.size}], got {list(snapshot_after)}"
            )
        previous = int(bound)
        bounds.append(previous)
    return chosen, targets, tuple(bounds)
