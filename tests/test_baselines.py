"""Tests for the baseline DSN models and the Table IV comparison harness."""

import pytest

from repro.baselines.arweave import ArweaveModel
from repro.baselines.comparison import ComparisonHarness
from repro.baselines.filecoin import FilecoinModel
from repro.baselines.fileinsurer_model import FileInsurerModel
from repro.baselines.sia import SiaModel
from repro.baselines.storj import StorjModel
from repro.scenarios.table4 import paper_expectations


def load(model, n_files=200, size=1.0, value=1.0):
    for _ in range(n_files):
        model.store_file(size, value)
    return model


class TestFileInsurerModel:
    def test_replica_count_scales_with_value(self):
        model = FileInsurerModel(50, 1000.0)
        low = model.store_file(1.0, 1.0)
        high = model.store_file(1.0, 3.0)
        assert len(low.placements) == 10
        assert len(high.placements) == 30

    def test_full_compensation_flag_and_amount(self):
        model = load(FileInsurerModel(50, 1000.0))
        model.corrupt_fraction(1.0)
        report = model.report()
        assert model.full_compensation
        assert report.compensation_ratio == pytest.approx(1.0)

    def test_random_placement_spreads_load(self):
        model = load(FileInsurerModel(100, 10_000.0), n_files=500)
        assert model.max_capacity_usage() < 1.0

    def test_survives_moderate_targeted_corruption(self):
        model = load(FileInsurerModel(100, 10_000.0), n_files=300)
        model.corrupt_fraction(0.3, targeted=True)
        assert model.report().value_loss_ratio < 0.05


class TestFilecoinModel:
    def test_deal_placement_confined_to_preferred_pool(self):
        model = load(FilecoinModel(100, 10_000.0))
        used_sectors = {s for f in model.files for s in f.placements}
        assert used_sectors <= set(model.preferred_pool)

    def test_targeted_attack_on_pool_is_catastrophic(self):
        model = load(FilecoinModel(100, 10_000.0))
        model.corrupt_fraction(0.3, targeted=True)
        assert model.report().value_loss_ratio > 0.5

    def test_compensation_is_limited(self):
        model = load(FilecoinModel(100, 10_000.0))
        model.corrupt_fraction(1.0)
        report = model.report()
        assert 0 < report.compensation_ratio < 0.5
        assert not model.full_compensation


class TestStorjModel:
    def test_erasure_tolerates_partial_shard_loss(self):
        model = StorjModel(40, 1000.0)
        stored = model.store_file(4.0, 1.0)
        # Lose up to (total - data) shards: file still recoverable.
        model.corrupt_sectors(stored.placements[:4])
        assert not model.file_is_lost(stored)
        model.corrupt_sectors(stored.placements[4:5])
        assert model.file_is_lost(stored)

    def test_shard_size_is_fraction_of_file(self):
        model = StorjModel(40, 1000.0)
        model.store_file(8.0, 1.0)
        assert model.used.sum() == pytest.approx(8.0 / 4 * 8)

    def test_no_compensation(self):
        model = load(StorjModel(40, 1000.0))
        model.corrupt_fraction(1.0)
        assert model.report().compensation_paid == 0.0


class TestSiaModel:
    def test_sybil_identities_collapse_together(self, monkeypatch):
        monkeypatch.setattr(SiaModel, "sybil_collusion_fraction", 0.3)
        model = SiaModel(50, 1000.0, seed=5)
        stored = [model.store_file(1.0, 1.0) for _ in range(100)]
        # Corrupt a single sybil identity: every file whose surviving copies
        # were all on sybil identities is gone.
        sybil = next(iter(model.sybil_group))
        model.corrupt_sectors([sybil])
        lost_with_sybil = len(model.lost_files())
        # Same corruption in a sybil-free deployment loses nothing (3 replicas).
        monkeypatch.setattr(SiaModel, "sybil_collusion_fraction", 0.0)
        clean = SiaModel(50, 1000.0, seed=5)
        for _ in range(100):
            clean.store_file(1.0, 1.0)
        clean.corrupt_sectors([sybil])
        assert len(clean.lost_files()) <= lost_with_sybil

    def test_not_sybil_resistant_flag(self):
        assert not SiaModel(10, 100.0).prevents_sybil_attacks

    def test_no_compensation(self):
        model = load(SiaModel(50, 1000.0))
        model.corrupt_fraction(1.0)
        assert model.report().compensation_paid == 0.0


class TestArweaveModel:
    def test_wide_replication(self):
        model = ArweaveModel(100, 100_000.0)
        stored = model.store_file(1.0, 1.0)
        assert len(stored.placements) == 15

    def test_survives_random_corruption_below_replication(self):
        model = load(ArweaveModel(100, 100_000.0), n_files=100)
        model.corrupt_fraction(0.5)
        assert model.report().lost_files == 0

    def test_no_compensation_flag(self):
        assert not ArweaveModel(10, 100.0).full_compensation


class TestBaselineCommon:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FileInsurerModel(0, 100.0)

    def test_invalid_file_rejected(self):
        model = FileInsurerModel(10, 100.0)
        with pytest.raises(ValueError):
            model.store_file(0, 1.0)

    def test_corrupt_sector_out_of_range(self):
        model = FileInsurerModel(10, 100.0)
        with pytest.raises(IndexError):
            model.corrupt_sectors([10])

    def test_corrupt_fraction_bounds(self):
        model = FileInsurerModel(10, 100.0)
        with pytest.raises(ValueError):
            model.corrupt_fraction(1.5)


class TestComparisonHarness:
    def test_table_matches_paper_yes_no_entries(self):
        harness = ComparisonHarness(n_sectors=100, n_files=200, corruption_fraction=0.3, seed=1)
        results = {r.protocol: r for r in harness.run()}
        for protocol, expected in paper_expectations().items():
            ours = results[protocol]
            assert ours.capacity_scalability == expected["capacity_scalability"], protocol
            assert ours.prevents_sybil_attacks == expected["prevents_sybil_attacks"], protocol
            assert ours.provable_robustness == expected["provable_robustness"], protocol
            assert ours.compensation_for_loss == expected["compensation_for_loss"], protocol

    def test_fileinsurer_lowest_targeted_loss(self):
        harness = ComparisonHarness(n_sectors=100, n_files=200, corruption_fraction=0.3, seed=2)
        results = {r.protocol: r for r in harness.run(["FileInsurer", "Filecoin", "Sia"])}
        assert results["FileInsurer"].loss_ratio_targeted <= results["Filecoin"].loss_ratio_targeted
        assert results["FileInsurer"].loss_ratio_targeted <= results["Sia"].loss_ratio_targeted

    def test_table_output_formatted(self):
        harness = ComparisonHarness(n_sectors=60, n_files=100, seed=3)
        table = harness.table(["FileInsurer", "Storj"])
        assert "FileInsurer" in table and "Storj" in table
