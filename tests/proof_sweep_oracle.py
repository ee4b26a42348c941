"""The general reductions of ``ColumnarProtocol._proof_sweep_mask``.

The function as it stood before the clean-run rule (a run whose rows are
all live on healthy hosts skips the reductions), kept as the reference
``test_core_columnar.py`` compares the mask against on every kind of run.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.allocation import AllocState
from repro.core.columnar import (
    _ABSENT,
    _ALLOC_CODE,
    _FILE_CODE,
    _SECTOR_CODE,
    ColumnarProtocol,
    _appears_once,
)
from repro.core.file_descriptor import FileState
from repro.core.sector import SectorState


def proof_sweep_mask(
    self: ColumnarProtocol, file_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(vector, proof_rows, offsets)`` by three ``reduceat`` passes."""
    count = len(file_ids)
    vector = np.zeros(count, dtype=bool)
    offsets = np.zeros(count + 1, dtype=np.int64)
    no_rows = np.empty(0, dtype=np.int64)
    limit = min(len(self.files), len(self.alloc.block_start))
    if (
        self.charge_fees
        or not self.auto_prove
        or self.health_oracle is None
        or limit == 0
    ):
        return vector, no_rows, offsets
    known = (file_ids >= 0) & (file_ids < limit)
    ids = np.where(known, file_ids, 0)
    candidate = (
        known
        & (self.files.state[ids] == _FILE_CODE[FileState.NORMAL])
        & (self.alloc.block_start[ids] >= 0)
        & _appears_once(ids)
    )
    positions = np.nonzero(candidate)[0]
    if len(positions) == 0:
        return vector, no_rows, offsets
    candidates = file_ids[positions]
    rows = self.alloc.block_rows(candidates)
    replicas = self.files.replica_count[candidates].astype(np.int64)
    starts = np.cumsum(replicas) - replicas
    states = self.alloc.state[rows]
    hosts = self.alloc.prev[rows]
    available = (states != _ABSENT) & (
        states != _ALLOC_CODE[AllocState.CORRUPTED]
    )
    live = available & (hosts >= 0)
    live_hosts = hosts[live]
    distinct = np.nonzero(np.bincount(live_hosts, minlength=len(self.sectors)))[0]
    standing = distinct[
        self.sectors.state[distinct] != _SECTOR_CODE[SectorState.CORRUPTED]
    ]
    healthy = np.zeros(len(self.sectors), dtype=bool)
    healthy[
        [
            sector_row
            for sector_row in standing.tolist()
            if self.health_oracle(self.sectors.sector_ids[sector_row])
        ]
    ] = True
    sick = np.zeros(len(rows), dtype=bool)
    sick[live] = ~healthy[live_hosts]
    swept = (np.add.reduceat(available, starts) > 0) & (
        np.add.reduceat(sick, starts) == 0
    )
    vector[positions] = swept
    credited = live & np.repeat(swept, replicas)
    offsets[positions + 1] = np.add.reduceat(credited, starts)
    np.cumsum(offsets, out=offsets)
    return vector, rows[credited], offsets
