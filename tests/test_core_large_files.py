"""Tests for large-file segmentation (Section VI-C)."""

import pytest

from repro.core.large_files import LargeFileCodec


class TestLargeFileCodec:
    def test_small_file_does_not_need_segmentation(self):
        codec = LargeFileCodec(size_limit=1000, k=20)
        assert not codec.needs_segmentation(1000)
        assert codec.needs_segmentation(1001)

    def test_plan_segments_doubles_for_parity(self):
        codec = LargeFileCodec(size_limit=100, k=20)
        data_segments, total = codec.plan_segments(250)
        assert data_segments == 3
        assert total == 6

    def test_segment_value_formula(self):
        codec = LargeFileCodec(size_limit=100, k=20)
        assert codec.segment_value(100) == 10  # 2 * value / k
        assert codec.segment_value(1) == 1  # floor at 1

    def test_split_and_reassemble_all_segments(self):
        codec = LargeFileCodec(size_limit=64, k=4)
        data = bytes(range(256)) * 2
        segmented = codec.split(data, value=8)
        assert len(segmented.segments) == segmented.total_segments
        assert codec.reassemble(segmented, segmented.segments) == data

    def test_reassemble_with_half_segments_lost(self):
        codec = LargeFileCodec(size_limit=64, k=4)
        data = b"large file contents " * 20
        segmented = codec.split(data, value=8)
        surviving = segmented.segments[:: 2]  # keep every other segment (half)
        assert len(surviving) >= segmented.data_segments
        assert codec.reassemble(segmented, surviving) == data

    def test_too_few_segments_fails(self):
        codec = LargeFileCodec(size_limit=64, k=4)
        data = b"x" * 300
        segmented = codec.split(data, value=4)
        with pytest.raises(ValueError):
            codec.reassemble(segmented, segmented.segments[: segmented.data_segments - 1])

    def test_each_segment_fits_limit_and_has_root(self):
        codec = LargeFileCodec(size_limit=64, k=4)
        segmented = codec.split(b"y" * 500, value=4)
        for segment in segmented.segments:
            assert segment.size <= 64 + 16  # limit plus the length framing overhead
            assert len(segment.merkle_root) == 32

    def test_empty_file_rejected(self):
        codec = LargeFileCodec(size_limit=64, k=4)
        with pytest.raises(ValueError):
            codec.split(b"", value=1)
