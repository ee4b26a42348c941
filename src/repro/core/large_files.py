"""Handling extremely large files (Section VI-C).

Files whose sizes are comparable to sector capacities would break storage
randomness because their allocations might fail to find space.  The paper's
remedy: enforce a ``sizeLimit`` on individual files and convert anything
larger into a collection of erasure-coded segments (e.g. Reed-Solomon),
sized so the file survives the loss of half the segments, and store each
segment as an individual file with value ``2 * value / k``.

:class:`LargeFileCodec` performs the split and reassembly and computes the
per-segment value so the compensation received for lost segments still
covers the whole file's value in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.crypto.erasure import ReedSolomonCode, Shard
from repro.crypto.merkle import MerkleTree

__all__ = ["FileSegment", "SegmentedFile", "LargeFileCodec"]


@dataclass(frozen=True)
class FileSegment:
    """One erasure-coded segment, stored in the DSN as an individual file."""

    segment_index: int
    data: bytes
    merkle_root: bytes
    value: int

    @property
    def size(self) -> int:
        """Size of the segment in bytes."""
        return len(self.data)


@dataclass(frozen=True)
class SegmentedFile:
    """The full description of a segmented large file."""

    original_size: int
    original_root: bytes
    data_segments: int
    total_segments: int
    segments: Tuple[FileSegment, ...]


class LargeFileCodec:
    """Splits oversized files into erasure-coded segments and reassembles them."""

    def __init__(self, size_limit: int, k: int, chunk_size: int = 1024) -> None:
        if size_limit <= 0:
            raise ValueError("size_limit must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self.size_limit = size_limit
        self.k = k
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def needs_segmentation(self, size: int) -> bool:
        """True if a file of ``size`` bytes exceeds the limit."""
        return size > self.size_limit

    def plan_segments(self, size: int) -> Tuple[int, int]:
        """Return ``(data_segments, total_segments)`` for a file of ``size``.

        Data segments are the minimum count keeping each segment at or below
        ``size_limit``; the code adds the same number of parity segments so
        the file survives the loss of half of all segments.
        """
        data_segments = max(1, math.ceil(size / self.size_limit))
        total_segments = 2 * data_segments
        return data_segments, total_segments

    def segment_value(self, value: int) -> int:
        """Per-segment value: ``2 * value / k``, at least 1 (Section VI-C)."""
        return max(1, math.ceil(2 * value / self.k))

    def split(self, data: bytes, value: int) -> SegmentedFile:
        """Split ``data`` into erasure-coded segments ready for File Add."""
        if not data:
            raise ValueError("cannot segment an empty file")
        data_segments, total_segments = self.plan_segments(len(data))
        code = ReedSolomonCode(data_segments, total_segments - data_segments)
        shards = code.encode(data)
        per_segment_value = self.segment_value(value)
        segments = tuple(
            FileSegment(
                segment_index=shard.index,
                data=shard.data,
                merkle_root=MerkleTree.from_data(shard.data, self.chunk_size).root,
                value=per_segment_value,
            )
            for shard in shards
        )
        return SegmentedFile(
            original_size=len(data),
            original_root=MerkleTree.from_data(data, self.chunk_size).root,
            data_segments=data_segments,
            total_segments=total_segments,
            segments=segments,
        )

    # ------------------------------------------------------------------
    # Reassembly
    # ------------------------------------------------------------------
    def reassemble(
        self, segmented: SegmentedFile, available: Sequence[FileSegment]
    ) -> bytes:
        """Reconstruct the original bytes from any sufficient subset of segments."""
        code = ReedSolomonCode(
            segmented.data_segments, segmented.total_segments - segmented.data_segments
        )
        shards = [Shard(index=seg.segment_index, data=seg.data) for seg in available]
        data = code.decode(shards)
        if len(data) != segmented.original_size:
            raise ValueError("reassembled size does not match the original")
        if MerkleTree.from_data(data, self.chunk_size).root != segmented.original_root:
            raise ValueError("reassembled data fails the Merkle root check")
        return data
