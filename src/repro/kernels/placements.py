"""Replica placements as validated CSR columns, shared by every backend.

``greedy_select`` takes the replica placement in one of two forms: a
sequence of per-file sector sequences (possibly ragged, possibly empty)
or a 2-D integer ``numpy`` array with one row per file.
:func:`normalize_placements` turns either into the same pair of int32
columns -- the *distinct* ``(file, sector)`` incidences sorted by file,
then sector -- and is where a malformed request is rejected, so both
backends fail with the same ``ValueError`` before any sector is chosen.
A request of 2**31 or more files or sectors is refused the same way:
its indices would not fit the columns.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Placements",
    "checked_indices",
    "checked_placement_array",
    "normalize_placements",
]

#: The two accepted placement forms.
Placements = Union[Sequence[Sequence[int]], np.ndarray]

#: The largest file or sector index an int32 column holds.
_MAX_INDEX = 2**31 - 1


def checked_indices(indices: np.ndarray, upper: int, what: str) -> np.ndarray:
    """``indices`` once its entries are integers in ``[0, upper)``."""
    if indices.size == 0:
        return indices.astype(np.int64)
    if indices.dtype.kind not in "iu":  # floats, booleans, objects
        raise ValueError(f"{what} indices must be integers, got dtype {indices.dtype}")
    low, high = int(indices.min()), int(indices.max())
    if low < 0 or high >= upper:
        raise ValueError(
            f"{what} index {low if low < 0 else high} out of range [0, {upper})"
        )
    return indices


def checked_placement_array(placements: np.ndarray, n_sectors: int) -> np.ndarray:
    """The array form, validated: 2-D, integer, every index a real sector."""
    if placements.ndim != 2:
        raise ValueError("a placements array must be 2-D (files x replicas)")
    return checked_indices(placements, n_sectors, "placement sector")


def normalize_placements(
    capacities: Sequence[float],
    placements: Placements,
    values: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate one ``greedy_select`` request; returns its columns.

    Returns ``(capacities, file_of, sector_of, values)``: the float
    capacity and value tables and the distinct ``(file, sector)``
    incidences as two aligned int32 columns sorted by ``(file,
    sector)`` -- a file listing one sector twice hosts one replica
    there, a file with no sector contributes no row.  Sector indices must
    be integers in ``[0, len(capacities))``, ``values`` must carry one
    entry per file, capacities and values must be non-negative (the
    greedy loop relies on the spent capacity never shrinking), and there
    must be fewer than 2**31 files and sectors; anything else raises
    ``ValueError``.
    """
    caps = np.asarray(capacities, dtype=float)
    values_arr = np.asarray(values, dtype=float)
    if caps.ndim != 1 or values_arr.ndim != 1:
        raise ValueError("capacities and values must be one-dimensional")
    n_sectors = int(caps.size)
    n_files = len(placements)
    if max(n_sectors, n_files) > _MAX_INDEX:
        raise ValueError(
            f"{n_files} files on {n_sectors} sectors: int32 placement columns "
            f"hold at most 2**31 - 1 = {_MAX_INDEX} of either"
        )
    if not (caps >= 0).all():
        raise ValueError("capacities must be non-negative")
    if not (values_arr >= 0).all():
        raise ValueError("values must be non-negative")

    if isinstance(placements, np.ndarray):
        # Sorted rows put a file's repeated sector next to its twin; the
        # int32 copy is sorted in place.
        rows = checked_placement_array(placements, n_sectors).astype(np.int32)
        rows.sort(axis=1)
        distinct = np.ones(rows.shape, dtype=bool)
        distinct[:, 1:] = rows[:, 1:] != rows[:, :-1]
        file_of = np.repeat(np.arange(n_files, dtype=np.int32), distinct.sum(axis=1))
        sector_of = rows[distinct]
    else:
        lengths = np.fromiter(map(len, placements), dtype=np.int64, count=n_files)
        flat = checked_indices(
            np.asarray(list(chain.from_iterable(placements))),
            n_sectors,
            "placement sector",
        )
        # One sort of the combined key orders by (file, sector) at once;
        # equal keys are one file naming one sector again.
        stride = max(n_sectors, 1)
        file_all = np.repeat(np.arange(n_files, dtype=np.int64), lengths)
        keys = np.sort(file_all * stride + flat.astype(np.int64))
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        file_of, sector_of = np.divmod(keys[distinct], stride)
        file_of = file_of.astype(np.int32)
        sector_of = sector_of.astype(np.int32)
    if values_arr.size != n_files:
        raise ValueError(
            f"values has {values_arr.size} entries for {n_files} placed files"
        )
    return caps, file_of, sector_of, values_arr
