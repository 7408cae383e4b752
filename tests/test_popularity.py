"""Tests for the MZipf model: pmf, sampling, the reference KL distance, and fitting."""
from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dlab.policy import _BLOCK, optimal_policy
from d2dlab.popularity import (
    _GAMMA_HI,
    EmpiricalDistribution,
    PopularityModel,
    UnidentifiableFitError,
    _guide_table,
    _log_pmf,
    _power_law,
    _ranks_from_cdf,
    fit_mzipf,
    sample_ranks,
)

from oracles import (
    kl_to_model,
    mzipf_pmf_direct,
    out_of_place_law,
    profile_kl,
    searchsorted_ranks,
)


REGION2 = dict(gamma=1.16, q=22.0, m_total=7345)
REGION3 = dict(gamma=1.11, q=18.0, m_total=5405)
REGION_SAMPLES = [
    (dict(gamma=1.28, q=34.0, m_total=18553), 400_000),
    (REGION2, 300_000),
    (REGION3, 300_000),
]
REGION_IDS = ["region1", "region2", "region3"]


def region_sample(params, n_samples) -> EmpiricalDistribution:
    """Ranked counts of n_samples draws from the model, seeded by its M."""
    truth = PopularityModel(**params)
    rng = np.random.default_rng(truth.m_total)
    counts = np.bincount(sample_ranks(truth, rng, n_samples), minlength=truth.m_total + 1)[1:]
    counts = np.sort(counts)[::-1]
    return EmpiricalDistribution(counts=counts[counts > 0].astype(float))


def traced_peak(build):
    """build() and the bytes allocated at its peak above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPmf:
    def test_single_file_library(self):
        model = PopularityModel(gamma=2.0, q=5.0, m_total=1)
        assert model.pmf_values[0] == 1.0

    def test_harmonic_weights(self):
        """gamma=1, q=0, M=3 gives weights 1, 1/2, 1/3 over a total of 11/6."""
        model = PopularityModel(gamma=1.0, q=0.0, m_total=3)
        assert model.pmf_values == pytest.approx([6 / 11, 3 / 11, 2 / 11], rel=1e-14)

    def test_region2_head_ratio(self):
        """With a plateau out to ~q, rank 1 vs rank 23 differ by (23/45)^-1.16."""
        model = PopularityModel(**REGION2)
        pmf = model.pmf_values
        ratio = pmf[0] / pmf[22]
        assert ratio == pytest.approx((23.0 / 45.0) ** -1.16, rel=1e-12)
        # The head is nearly flat: less than a factor 2^gamma across the plateau.
        assert pmf[0] / pmf[21] < 2 ** 1.16

    def test_matches_direct_summation(self):
        model = PopularityModel(gamma=1.4, q=7.0, m_total=50)
        direct = mzipf_pmf_direct(1.4, 7.0, 50)
        np.testing.assert_allclose(model.pmf_values, direct, rtol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(gamma=st.floats(0.05, 4.0), q=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
           m_total=st.integers(1, 20_000), data=st.data())
    def test_law_keeps_the_out_of_place_bits(self, gamma, q, m_total, data):
        """Built in one buffer, the law has the bits of the plain expressions,
        and over any range of ranks, from (gamma, q, Z) alone, the log law
        and the normalized power law the bits of those ranks."""
        model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
        pmf, normalizer, log_pmf = out_of_place_law(gamma, q, m_total)
        assert model.normalizer == normalizer
        assert model.pmf_values.tobytes() == pmf.tobytes()
        lo = data.draw(st.integers(0, m_total), label="lo")
        hi = data.draw(st.integers(lo, m_total), label="hi")
        for start, stop in [(0, m_total), (lo, hi)]:
            out = np.full(stop - start, np.nan)
            assert _log_pmf(gamma, q, model.normalizer, start, stop, out) is out
            assert out.tobytes() == log_pmf[start:stop].tobytes()
            assert _power_law(gamma, q, start, stop, out) is out
            out /= model.normalizer
            assert out.tobytes() == pmf[start:stop].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.05, 4.0),
           q=st.one_of(st.sampled_from([0.0, 0.1, 22.3, 1e4 + 0.3]), st.floats(0.0, 1e4)),
           normalizer=st.floats(1e-3, 1e3), lo=st.integers(0, 10**12),
           width=st.integers(0, 3 * _BLOCK + 1))
    def test_law_keeps_the_bits_at_large_rank_offsets(self, gamma, q, normalizer, lo, width):
        """Far into a library and over several blocks, the law written into
        out has the bits of the out-of-place expressions over the ranks."""
        hi = lo + width
        shifted = np.arange(lo + 1, hi + 1, dtype=np.float64) + q
        out = np.full(width, np.nan)
        assert _log_pmf(gamma, q, normalizer, lo, hi, out) is out
        assert out.tobytes() == (-gamma * np.log(shifted) - math.log(normalizer)).tobytes()
        assert _power_law(gamma, q, lo, hi, out) is out
        assert out.tobytes() == np.power(shifted, -gamma).tobytes()

    def test_law_peaks_at_one_library_array(self):
        """The pmf takes one M-length buffer, and the log law over all M
        ranks, written into a caller's buffer, one M-length temporary."""
        m_total = 10**6
        model, pmf_peak = traced_peak(lambda: PopularityModel(gamma=1.16, q=22.0, m_total=m_total))
        out = np.empty(m_total)
        _, log_pmf_peak = traced_peak(
            lambda: _log_pmf(model.gamma, model.q, model.normalizer, 0, m_total, out))
        assert pmf_peak <= 1.25 * 8 * m_total
        assert log_pmf_peak <= 1.25 * 8 * m_total

    @pytest.mark.parametrize(
        "kwargs", [dict(gamma=0.0), dict(gamma=-1.0), dict(q=-0.5), dict(m_total=0),
                   dict(q=math.nan), dict(q=math.inf), dict(gamma=math.inf), dict(gamma=math.nan)]
    )
    def test_invalid_parameters(self, kwargs):
        params = dict(gamma=1.0, q=0.0, m_total=10) | kwargs
        with pytest.raises(ValueError):
            PopularityModel(**params)

    @pytest.mark.parametrize("m_total", [2.5, 1000.0, np.float64(10.0), "10", True])
    def test_non_integer_library_size_rejected(self, m_total):
        """2.5 would build a 3-file law labelled 2.5; 1000.0 a law no policy takes."""
        with pytest.raises(ValueError, match="m_total must be an integer"):
            PopularityModel(gamma=1.0, q=0.0, m_total=m_total)

    def test_numpy_integer_library_size_accepted(self):
        model = PopularityModel(gamma=1.0, q=0.0, m_total=np.int64(3))
        assert model.pmf_values.tobytes() == PopularityModel(1.0, 0.0, 3).pmf_values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(gamma=st.floats(), q=st.floats(), m_total=st.integers(1, 20))
    def test_any_float_gives_a_valid_model_or_value_error(self, gamma, q, m_total):
        in_domain = 0 < gamma < math.inf and 0 <= q < math.inf
        try:
            model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
        except ValueError as exc:
            assert not in_domain or "underflow" in str(exc)
            return
        assert in_domain
        pmf = model.pmf_values
        assert np.all(np.isfinite(pmf))
        assert abs(pmf.sum() - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(0.5, 2.5),
        q=st.floats(0.0, 200.0),
        m_total=st.integers(10, 100_000),
    )
    def test_normalization_and_monotonicity(self, gamma, q, m_total):
        model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
        pmf = model.pmf_values
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(pmf) <= 0)

    @settings(max_examples=40, deadline=None)
    @given(gamma=st.floats(0.5, 2.5), q=st.floats(1.0, 200.0))
    def test_plateau_head_is_flat(self, gamma, q):
        model = PopularityModel(gamma=gamma, q=q, m_total=1000)
        breakpoint_rank = math.ceil(q)
        ratio = model.pmf_values[0] / model.pmf_values[min(breakpoint_rank, 1000) - 1]
        assert ratio <= 2 ** gamma + 1e-12


def lookup(model: PopularityModel, u: float) -> int:
    """The one inverse-CDF lookup, as the simulator and sample_ranks call it."""
    return int(_ranks_from_cdf(model._cdf_guide, u))


class TestSampling:
    def test_left_edge_maps_to_rank_one(self):
        model = PopularityModel(gamma=1.5, q=3.0, m_total=100)
        assert lookup(model, 0.0) == 1

    def test_hand_cdf(self):
        """CDF is (6/11, 9/11, 1); a draw of 0.6 lands on rank 2."""
        model = PopularityModel(gamma=1.0, q=0.0, m_total=3)
        assert lookup(model, 0.6) == 2
        assert lookup(model, 0.5) == 1
        assert lookup(model, 0.9) == 3

    def test_rank1_frequency_within_three_sigma(self):
        """1e6 draws from the region-3 model: rank-1 frequency is binomial."""
        model = PopularityModel(**REGION3)
        rng = np.random.default_rng(42)
        ranks = sample_ranks(model, rng, 10**6)
        p1 = model.pmf_values[0]
        freq = np.mean(ranks == 1)
        se = math.sqrt(p1 * (1 - p1) / 10**6)
        assert abs(freq - p1) <= 3 * se

    def test_vector_sampler_matches_scalar(self):
        """Uniform draws, every cdf entry exactly, and draws at or above the
        last cumulative sum all map to min(searchsorted(cdf, u, "right"), M-1) + 1,
        scalar or vector. Rounding leaves the last sum above 1 for the first
        model and below 1 for the second."""
        rng = np.random.default_rng(7)
        for model, last_below_one in [
            (PopularityModel(gamma=1.3, q=5.0, m_total=50), False),
            (PopularityModel(gamma=1.2, q=0.0, m_total=100), True),
        ]:
            cdf = model.cdf_values
            assert (cdf[-1] < 1.0) == last_below_one
            at_or_above_last = np.array([cdf[-1], np.nextafter(cdf[-1], 2.0), 1.0 - 2.0**-53])
            draws = np.concatenate([
                rng.random(200), cdf, at_or_above_last[at_or_above_last < 1.0],
            ])
            expected = (
                np.minimum(np.searchsorted(cdf, draws, side="right"), model.m_total - 1) + 1
            )
            np.testing.assert_array_equal(
                _ranks_from_cdf(_guide_table(model.pmf_values), draws), expected
            )
            for u, want in zip(draws, expected):
                assert lookup(model, float(u)) == want
            assert lookup(model, float(cdf[-1])) == model.m_total

    @pytest.mark.parametrize("source", ["region2-s100-policy", "flat-tail-policy",
                                        "last-sum-below-one"])
    def test_guide_table_lookup_matches_binary_search(self, source):
        """Every cdf entry, every guide bucket edge k/K, 0 and the largest
        double below 1, each with its neighbours on both sides, map to the
        binary-search rank. The guide table is built on first use only."""
        if source == "last-sum-below-one":
            owner = PopularityModel(gamma=1.2, q=0.0, m_total=100)
            cdf, max_rank = owner.cdf_values, owner.m_total
            assert cdf[-1] < 1.0
        else:
            s_cache, g_c, model = (100, 100, REGION2) if source == "region2-s100-policy" else (
                4, 4, REGION3)
            owner = optimal_policy(PopularityModel(**model), s_cache, g_c)
            cdf, max_rank = np.cumsum(owner.probs), owner.m_star
            assert (max_rank < cdf.size) == (source == "flat-tail-policy")
        assert "_cdf_guide" not in owner.__dict__
        guide = owner._cdf_guide
        buckets = guide[1].size - 1
        points = np.concatenate([
            cdf, np.arange(buckets + 1) / buckets, [0.0, 1.0 - 2.0**-53],
        ])
        draws = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        draws = draws[(draws >= 0.0) & (draws < 1.0)]
        np.testing.assert_array_equal(
            _ranks_from_cdf(guide, draws), searchsorted_ranks(cdf, draws, max_rank)
        )

    @pytest.mark.parametrize("owner", ["model", "flat-tail-policy"])
    def test_guide_sums_are_the_cdf_of_its_pmf_prefix(self, owner):
        """The guide sums all but the last entry of the pmf prefix it is built
        from: the bits of np.cumsum(pmf)[:-1], then inf. A model builds it
        without building its cdf_values."""
        model = PopularityModel(**REGION3)
        if owner == "model":
            source, pmf = model, model.pmf_values
        else:
            source = optimal_policy(model, 4, 4)
            pmf = source.probs[: source.m_star]
            assert pmf.size < model.m_total
        sums, _ = source._cdf_guide
        assert sums.tobytes() == np.append(np.cumsum(pmf)[:-1], np.inf).tobytes()
        assert "cdf_values" not in model.__dict__

    @settings(max_examples=80, deadline=None)
    @given(u=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 10))
    def test_cdf_bracket_invariant(self, u, seed):
        model = PopularityModel(gamma=1.0 + 0.2 * seed, q=float(seed), m_total=30)
        rank = lookup(model, u)
        cdf = model.cdf_values
        left = cdf[rank - 2] if rank >= 2 else 0.0
        assert left <= u
        if rank < model.m_total:
            assert u < cdf[rank - 1]


class TestKlDistance:
    """The reference KL distance, kl_to_model, that criterion 7 scores the fit with."""

    def test_identity_is_zero(self):
        model = PopularityModel(gamma=1.4, q=3.0, m_total=20)
        assert kl_to_model(model.pmf_values, model.pmf_values) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        """Empirical (1, 0) against a uniform model over 2 ranks is log 2."""
        model = PopularityModel(gamma=1e-9, q=0.0, m_total=2)
        assert kl_to_model([1.0, 0.0], model.pmf_values) == pytest.approx(math.log(2), rel=1e-6)

    def test_shrinks_with_sample_size(self):
        model = PopularityModel(**REGION2)
        rng = np.random.default_rng(3)
        values = []
        for n in (10**4, 10**5, 10**6):
            counts = np.bincount(sample_ranks(model, rng, n), minlength=model.m_total + 1)[1:]
            counts = np.sort(counts)[::-1].astype(float)
            values.append(kl_to_model(counts, model.pmf_values))
        assert values[0] > values[1] > values[2] > 0

    def test_support_beyond_library_rejected(self):
        model = PopularityModel(gamma=1.0, q=0.0, m_total=2)
        with pytest.raises(ValueError, match="support"):
            kl_to_model([3.0, 2.0, 1.0], model.pmf_values)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        gamma=st.floats(0.6, 2.0),
        q=st.floats(0.0, 30.0),
    )
    def test_nonnegative(self, seed, gamma, q):
        model = PopularityModel(gamma=gamma, q=q, m_total=40)
        rng = np.random.default_rng(seed)
        counts = np.sort(rng.integers(0, 50, size=40))[::-1].astype(float)
        if counts.sum() == 0:
            counts[0] = 1.0
        assert kl_to_model(counts, model.pmf_values) >= 0.0


class TestEmpiricalDistribution:
    def test_rejects_increasing_counts(self):
        with pytest.raises(ValueError, match="non-increasing"):
            EmpiricalDistribution(counts=np.array([1.0, 2.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            EmpiricalDistribution(counts=np.array([2.0, -1.0]))

    @pytest.mark.parametrize("counts", [[math.nan, 3.0, 2.0, 1.0], [math.inf, 3.0, 2.0, 1.0],
                                        [3.0, 2.0, 1.0, -math.inf], [3.0, math.nan]])
    def test_rejects_non_finite(self, counts):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDistribution(counts=np.array(counts))

    @pytest.mark.parametrize("counts", [[], [[2.0, 1.0]]], ids=["empty", "2-d"])
    def test_rejects_shape(self, counts):
        with pytest.raises(ValueError, match="counts must be a non-empty 1-d vector"):
            EmpiricalDistribution(counts=np.array(counts))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="counts must have positive total"):
            EmpiricalDistribution(counts=np.zeros(3))

    def test_total_and_ranks(self):
        emp = EmpiricalDistribution(counts=np.array([5.0, 3.0, 0.0]))
        assert emp.counts.sum() == 8.0
        assert emp.n_ranks == 2


class TestFit:
    def test_recovers_own_pmf(self):
        """Fitting a model's exact pmf recovers its parameters."""
        truth = PopularityModel(**REGION2)
        empirical = EmpiricalDistribution(counts=truth.pmf_values)
        result = fit_mzipf(empirical)
        assert result.model.m_total == truth.m_total
        assert result.model.gamma == pytest.approx(truth.gamma, abs=0.02)
        assert result.model.q == pytest.approx(truth.q, abs=2.0)
        assert result.kl_distance <= 1e-6

    def test_pure_zipf_degenerates(self):
        """A q=0 library fits with a near-zero plateau factor."""
        truth = PopularityModel(gamma=1.5, q=0.0, m_total=1000)
        result = fit_mzipf(EmpiricalDistribution(counts=truth.pmf_values))
        assert result.model.q <= 1.0
        assert result.model.gamma == pytest.approx(1.5, abs=0.02)

    @pytest.mark.parametrize("params,n_samples", REGION_SAMPLES, ids=REGION_IDS)
    def test_region_shaped_samples(self, params, n_samples):
        truth = PopularityModel(**params)
        result = fit_mzipf(region_sample(params, n_samples))
        assert result.model.gamma == pytest.approx(truth.gamma, abs=0.05)
        assert result.model.q == pytest.approx(truth.q, rel=0.25)

    # KL of the grid + coordinate-descent fit that the profile fit replaced.
    KL_BEFORE = [0.001510914851555651, 0.0017467499452549547, 0.0011857889889202778]

    @pytest.mark.parametrize("sample,kl_before", list(zip(REGION_SAMPLES, KL_BEFORE)), ids=REGION_IDS)
    def test_region_fit_certificate(self, sample, kl_before):
        """At the fit, dKL/dgamma = E_data[L] - E_model[L] vanishes, the
        profile KL rises on both sides of q, and KL is no worse than before."""
        empirical = region_sample(*sample)
        result = fit_mzipf(empirical)
        model = result.model
        p_data = (empirical.counts / empirical.counts.sum())[: model.m_total]
        log_f = np.log(np.arange(1, model.m_total + 1) + model.q)
        assert abs(p_data @ log_f - model.pmf_values @ log_f) <= 1e-9
        for q in (model.q * (1 - 1e-3), model.q * (1 + 1e-3)):
            assert profile_kl(p_data, q) >= result.kl_distance
        assert result.kl_distance <= kl_before

    def test_one_evaluation_at_the_gamma_bound(self):
        """On region 1, gamma*(q) lies past _GAMMA_HI at the top scan points;
        each q evaluates near that bound once rather than bisecting toward it."""
        result = fit_mzipf(region_sample(*REGION_SAMPLES[0]))
        near = Counter(q for g, q, _ in result.search_trace if abs(g - _GAMMA_HI) <= 1e-6)
        assert near and max(near.values()) == 1

    def test_equal_fits_hash_equal(self):
        """A frozen result holds an immutable trace, so it hashes."""
        emp = EmpiricalDistribution(counts=PopularityModel(1.2, 4.0, 200).pmf_values)
        a, b = fit_mzipf(emp), fit_mzipf(emp)
        assert a is not b and a == b
        assert hash(a) == hash(b)

    def test_degenerate_single_rank(self):
        with pytest.raises(UnidentifiableFitError):
            fit_mzipf(EmpiricalDistribution(counts=np.array([10.0, 0.0, 0.0])))

    def test_trace_and_determinism(self):
        truth = PopularityModel(gamma=1.2, q=4.0, m_total=300)
        emp = EmpiricalDistribution(counts=truth.pmf_values)
        a = fit_mzipf(emp)
        b = fit_mzipf(emp)
        assert a.model == b.model
        assert a.search_trace == b.search_trace
        assert len(a.search_trace) >= 12 * 12
        assert all(kl >= 0 for _, _, kl in a.search_trace)
