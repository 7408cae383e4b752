"""Tests for the synthetic regional log generator."""
from __future__ import annotations

import csv

import numpy as np
import pytest

from d2dlab.fixtures import REGION_PRESETS, region_model, write_region_log
from d2dlab.ingest import dedup_unique, parse_log, to_empirical
from d2dlab.popularity import sample_ranks


class TestRegionPresets:
    def test_three_regions(self):
        assert set(REGION_PRESETS) == {1, 2, 3}

    @pytest.mark.parametrize(
        "region,gamma,q,m", [(1, 1.28, 34.0, 18553), (2, 1.16, 22.0, 7345), (3, 1.11, 18.0, 5405)]
    )
    def test_model_parameters(self, region, gamma, q, m):
        model = region_model(region)
        assert (model.gamma, model.q, model.m_total) == (gamma, q, m)

    def test_unknown_region(self):
        with pytest.raises(ValueError, match="region"):
            region_model(7)


class TestWriteRegionLog:
    def test_roundtrip_recovers_sampled_multiset(self, tmp_path):
        path = tmp_path / "r3.csv"
        model = write_region_log(path, region=3, n_accesses=5000, seed=4)
        parsed = parse_log(path)
        assert parsed.malformed == 0
        assert parsed.rows > 5000  # duplicates present
        unique = dedup_unique(parsed.records)
        assert unique.n_unique == 5000  # duplicates collapsed
        emp = to_empirical(unique)
        expected = np.bincount(
            sample_ranks(model, np.random.default_rng(4), 5000),
            minlength=model.m_total + 1,
        )[1:]
        expected = np.sort(expected[expected > 0])[::-1].astype(float)
        np.testing.assert_array_equal(emp.counts, expected)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_region_log(a, region=2, n_accesses=500, seed=9)
        write_region_log(b, region=2, n_accesses=500, seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_csv_writer(self, tmp_path):
        path = tmp_path / "log.csv"
        write_region_log(path, region=1, n_accesses=3000, seed=5)
        model = region_model(1)
        rng = np.random.default_rng(5)
        ranks = sample_ranks(model, rng, 3000)
        dup = rng.random(3000) < 0.1  # one access in ten is written twice
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "content_id", "region_id"])
            for i, rank in enumerate(ranks):
                row = [f"u{i:07d}", f"c{rank:06d}", "1"]
                writer.writerow(row)
                if dup[i]:
                    writer.writerow(row)
        assert path.read_bytes() == oracle.read_bytes()
