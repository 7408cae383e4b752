"""Tests for the synthetic regional log generator."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from oracles import reference_region_log

from d2dlab import fixtures
from d2dlab.fixtures import REGION_PRESETS, region_model, write_region_log
from d2dlab.ingest import read_counts
from d2dlab.popularity import sample_ranks

CHUNK = fixtures._CHUNK


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

    @pytest.mark.parametrize("region", [2.0, True, "2", None])
    def test_region_must_be_an_integer(self, region):
        """2.0 and True equal preset keys, yet neither is a region id."""
        with pytest.raises(ValueError, match="region must be an integer"):
            region_model(region)


class TestWriteRegionLog:
    def test_roundtrip_recovers_sampled_multiset(self, tmp_path):
        path = tmp_path / "r3.csv"
        n = 5000
        model = write_region_log(path, region=3, n_accesses=n, seed=4)
        emp, report = read_counts(path)
        repeats = int((np.random.default_rng(4).random(2 * n)[n:] < 0.1).sum())
        assert repeats > 0
        assert report.malformed == 0
        assert report.unique_pairs == n  # repeats collapsed
        assert report.rows == n + repeats
        expected = np.bincount(
            sample_ranks(model, np.random.default_rng(4), n),
            minlength=model.m_total + 1,
        )[1:]
        expected = np.sort(expected[expected > 0])[::-1].astype(float)
        np.testing.assert_array_equal(emp.counts, expected)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_region_log(a, region=2, n_accesses=500, seed=9)
        write_region_log(b, region=2, n_accesses=500, seed=9)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("region", [1, 2, 3])
    def test_bytes_match_csv_writer(self, tmp_path, region, n):
        path = tmp_path / "log.csv"
        write_region_log(path, region=region, n_accesses=n, seed=n + region)
        oracle = reference_region_log(region_model(region), region, n, seed=n + region)
        assert path.read_bytes() == oracle

    @pytest.mark.parametrize("region", [1, 2, 3])
    def test_rows_widen_at_ten_million_users(self, region):
        """User ids grow an eighth digit at 10**7 without 10**7 rows written."""
        rank = REGION_PRESETS[region][2]
        for user in range(9_999_998, 10_000_002):
            rows = fixtures._format_rows(np.array([user]), np.array([rank]), region)
            assert rows.tobytes() == f"u{user:07d},c{rank:06d},{region}\r\n".encode()

    def test_memory_is_bounded_in_the_log_size(self, tmp_path):
        """Four times the accesses take no more than 1.5x the traced peak."""
        def peak(n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_region_log(tmp_path / f"{n}.csv", region=1, n_accesses=n, seed=1)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(1 << 19) <= 1.5 * peak(1 << 17)

    @pytest.mark.parametrize("n", [-1, 2.5, 10.0, "10", None, True])
    def test_bad_size_rejected_before_any_file(self, tmp_path, n):
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError, match="n_accesses"):
            write_region_log(path, n_accesses=n)
        assert not path.exists()

    @pytest.mark.parametrize("region", [2.0, True])
    def test_bad_region_rejected_before_any_file(self, tmp_path, region):
        """A region that only equals a preset would be written into every row
        as it prints, "2.0" or "True", and no row of the log would check out."""
        path = tmp_path / "log.csv"
        with pytest.raises(ValueError, match="region must be an integer"):
            write_region_log(path, region=region, n_accesses=10)
        assert not path.exists()

    def test_numpy_integer_region(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_region_log(a, region=np.int64(2), n_accesses=700, seed=3)
        write_region_log(b, region=2, n_accesses=700, seed=3)
        assert a.read_bytes() == b.read_bytes()

    def test_numpy_integer_size(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_region_log(a, n_accesses=np.int64(700), seed=3)
        write_region_log(b, n_accesses=700, seed=3)
        assert a.read_bytes() == b.read_bytes()
