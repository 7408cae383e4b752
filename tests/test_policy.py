"""Tests for the water-filling caching policy and the constant c1."""
from __future__ import annotations

import gc
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from d2dlab import policy as policy_module
from d2dlab.network import NetworkConfig
from d2dlab.policy import (
    CachingPolicy,
    _c1,
    optimal_policy,
    solve_c1,
    theoretical_mstar,
)
from d2dlab.popularity import PopularityModel, _guide_table
from d2dlab.simulator import build_grid, run_monte_carlo

from oracles import (
    c1_fixed_point_iteration,
    c1_relative_error,
    full_scan_policy,
    iid_hit_probability,
    kkt_mstar,
    log_space_z,
    simplex_grid,
)

REGION2 = dict(gamma=1.16, q=22.0, m_total=7345)
HAND_MODEL = PopularityModel(gamma=1.0, q=0.0, m_total=3)  # pmf (6/11, 3/11, 2/11)
# The functions of (model, S, g_c); _c1 solves the scaling constant c1.
FUNCS_OF_SIZES = [pytest.param(_c1, id="scaling_constants"), optimal_policy, theoretical_mstar]


def hand_policy(probs) -> CachingPolicy:
    """A caching pmf built by hand: no water level, m* its last cached file."""
    p = np.asarray(probs, dtype=np.float64)
    return CachingPolicy(probs=p, water_level=math.nan, m_star=int(np.flatnonzero(p)[-1]) + 1)


def residual(c1: float, c2: float) -> float:
    if c2 == 0.0:
        return abs(c1 - 1.0)
    if c1 < c2 * 1e12:
        return abs(c1 - 1.0 - c2 * math.log1p(c1 / c2))
    return abs(c1 - 1.0 - c2 * (math.log(c2 + c1) - math.log(c2)))


class TestSolveC1:
    def test_zero_plateau_limit(self):
        assert solve_c1(0.0) == 1.0

    def test_unit_c2(self):
        """Root of x = 1 + log(1+x), cross-checked by fixed-point iteration."""
        c1 = solve_c1(1.0)
        assert c1 == pytest.approx(2.146, abs=1e-3)
        assert c1 == pytest.approx(c1_fixed_point_iteration(1.0), rel=1e-12)

    @pytest.mark.parametrize("c2", [1e-6, 0.1, 1.0, 10.0, 100.0, 1e4])
    def test_residual_tolerance(self, c2):
        c1 = solve_c1(c2)
        assert residual(c1, c2) <= 1e-10 * max(1.0, c1)
        assert c1 >= 1.0

    @pytest.mark.parametrize("c2", [10.0, 100.0, 1e4, 1e5])
    def test_sqrt_growth_for_large_c2(self, c2):
        """For large c2 the root behaves like sqrt(2*c2): expanding the log
        gives c1 - 1 = c2*(c1/c2 - c1^2/(2 c2^2) + ...), so c1^2 ~ 2*c2."""
        assert 1.0 <= solve_c1(c2) / math.sqrt(2.0 * c2) <= 1.2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            solve_c1(-0.1)

    @settings(max_examples=100, deadline=None)
    @given(c2=st.floats(0.0, 1e5))
    def test_residual_property(self, c2):
        c1 = solve_c1(c2)
        assert residual(c1, c2) <= 1e-10 * max(1.0, c1)

    @settings(max_examples=40, deadline=None)
    @given(c2=st.floats(1e-3, 1e3))
    def test_monotone_in_c2(self, c2):
        assert solve_c1(c2 * 1.05) > solve_c1(c2)

    @pytest.mark.parametrize("c2", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, c2):
        with pytest.raises(ValueError, match="finite"):
            solve_c1(c2)

    @pytest.mark.parametrize("c2", [1.0000001e12, 1e50, 1e308, 1.7976931348623157e308])
    def test_beyond_1e12_rejected(self, c2):
        """The residual cancels to noise there; 10*c2 even overflows at the top."""
        with pytest.raises(ValueError, match="1e12"):
            solve_c1(c2)

    @pytest.mark.parametrize("c2, c1", [
        (0.1, 1.2610868638149877), (1e4, 142.08880709801156), (1e12, 1414214.2291342271),
    ])
    def test_bits_kept_up_to_the_limit(self, c2, c1):
        assert solve_c1(c2) == c1

    @settings(max_examples=300, deadline=None)
    @given(c2=st.floats())
    def test_any_float_gives_the_root_or_value_error(self, c2):
        if not 0 <= c2 <= 1e12:
            with pytest.raises(ValueError):
                solve_c1(c2)
            return
        c1 = solve_c1(c2)
        assert 1.0 <= c1 < math.inf
        if c2 > 0:
            assert c1_relative_error(c1, c2) <= 1e-9


class TestZValues:
    def test_exponent_one_identity(self):
        """S=1, g_c=3 makes the exponent 1, so z is a copy of the pmf."""
        z = optimal_policy(HAND_MODEL, 1, 3).z
        np.testing.assert_array_equal(z, HAND_MODEL.pmf_values)
        assert not np.shares_memory(z, HAND_MODEL.pmf_values)

    @settings(max_examples=60, deadline=None)
    @given(gamma=st.floats(0.05, 4.0), q=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
           m_total=st.integers(2, 20_000), sizes=st.sampled_from([(1, 3), (2, 2)]),
           block=st.sampled_from([1, 3, 1 << 12, policy_module._BLOCK]))
    def test_exponent_one_is_the_pmf_bit_for_bit(self, gamma, q, m_total, sizes, block):
        """At exponent 1, z evaluated from (gamma, q, Z) block by block has
        the bits of the model's pmf over every searched file."""
        model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(policy_module, "_BLOCK", block)
            z = optimal_policy(model, *sizes).z
        assert z.tobytes() == model.pmf_values[: z.size].tobytes()

    def test_large_exponent_flattens(self):
        model = PopularityModel(**REGION2)
        z = optimal_policy(model, 4, 200).z
        assert z[0] / z[-1] < 1.02
        assert z[0] / z[-1] > 1.0

    def test_non_increasing(self):
        model = PopularityModel(gamma=1.7, q=9.0, m_total=400)
        z = optimal_policy(model, 2, 10).z
        assert z.size == model.m_total
        assert np.all(np.diff(z) <= 0)

    @pytest.mark.parametrize("s,g_c", [(1, 4), (4, 100), (60, 5000)])
    @pytest.mark.parametrize("model", [PopularityModel(**REGION2),
                                       PopularityModel(gamma=4.0, q=0.0, m_total=1000)])
    def test_blockwise_law_keeps_the_inline_bits(self, model, s, g_c):
        """n > 1: the law evaluated block by block gives the inline expression's bits."""
        z = optimal_policy(model, s, g_c).z
        assert z.tobytes() == log_space_z(model, s, g_c)[: z.size].tobytes()

    @pytest.mark.parametrize("s,g_c", [(1, 2), (1, 1), (2, 1)])
    def test_cluster_too_small(self, s, g_c):
        with pytest.raises(ValueError, match="cluster too small"):
            optimal_policy(HAND_MODEL, s, g_c)

    @pytest.mark.parametrize("s,g_c,message", [
        (4.5, 10, "s_cache must be an integer, got 4.5"),
        (4, 10.0, "cluster_size must be an integer, got 10.0"),
        (np.float64(2.0), 6, f"s_cache must be an integer, got {np.float64(2.0)!r}"),
    ], ids=["4.5-10", "4-10.0", "2.0-6"])
    @pytest.mark.parametrize("func", FUNCS_OF_SIZES)
    def test_non_integer_cache_or_cluster_rejected(self, func, s, g_c, message):
        """S = 4.5 would water-fill with the exponent 39.5 of no cluster."""
        with pytest.raises(ValueError, match=re.escape(message)):
            func(PopularityModel(gamma=1.1, q=18.0, m_total=100), s, g_c)

    def test_numpy_integer_sizes_accepted(self):
        model = PopularityModel(**REGION2)
        assert optimal_policy(model, np.int64(4), np.int32(100)).m_star == (
            optimal_policy(model, 4, 100).m_star
        )

    @pytest.mark.parametrize("s,g_c,message", [
        (-1, -2, "s_cache must be >= 1, got -1"),
        (-3, 0, "s_cache must be >= 1, got -3"),
        (0, 5, "s_cache must be >= 1, got 0"),
        (2, 0, "cluster_size must be >= 1, got 0"),
        (-2, 3, "s_cache must be >= 1, got -2"),
    ], ids=["-1--2", "-3-0", "0-5", "2-0", "-2-3"])
    @pytest.mark.parametrize("func", FUNCS_OF_SIZES)
    def test_non_positive_cache_or_cluster_rejected(self, func, s, g_c, message):
        """Two negative factors can make S*(g_c-1)-1 look admissible; both are checked."""
        with pytest.raises(ValueError, match=re.escape(message)):
            func(PopularityModel(**REGION2), s, g_c)


class TestOptimalPolicy:
    def test_hand_water_filling(self):
        policy = optimal_policy(HAND_MODEL, 1, 3)
        np.testing.assert_allclose(policy.probs, [2 / 3, 1 / 3, 0.0], atol=1e-12)
        assert policy.water_level == pytest.approx(2 / 11, rel=1e-12)
        assert policy.m_star == 2

    def test_uniform_pmf_gives_uniform_policy(self):
        model = PopularityModel(gamma=1e-12, q=0.0, m_total=8)
        policy = optimal_policy(model, 2, 5)
        np.testing.assert_allclose(policy.probs, np.full(8, 1 / 8), atol=1e-9)
        assert policy.m_star == 8

    def test_region2_covers_plateau_head(self):
        model = PopularityModel(**REGION2)
        policy = optimal_policy(model, 1, 100)
        assert policy.m_star == kkt_mstar(model, 1, 100)
        assert policy.m_star >= model.q
        assert policy.m_star <= model.m_total / 10

    def test_probabilities_sum_to_one(self):
        model = PopularityModel(**REGION2)
        policy = optimal_policy(model, 4, 100)
        assert abs(policy.probs.sum() - 1.0) <= 1e-9

    def test_kkt_stationarity(self):
        """On the support nu = z_f*(1 - p_f); off it z_f <= nu."""
        model = PopularityModel(gamma=1.4, q=10.0, m_total=500)
        policy = optimal_policy(model, 2, 16)
        z, nu, m = policy.z, policy.water_level, policy.m_star
        np.testing.assert_allclose(
            z[:m] * (1.0 - policy.probs[:m]), np.full(m, nu), rtol=1e-9
        )
        assert np.all(z[m:] <= nu + 1e-15)

    def test_grid_search_cannot_beat_it(self):
        """Exhaustive simplex search at 0.01 resolution on the hand instance.

        The search maximizes the probability of finding the request among
        the other users' S*(g_c-1) cache slots, the quantity the
        water-filling construction optimizes; the argmax lands on the
        water-filling solution (2/3, 1/3, 0) to grid resolution.
        """
        slots = 1 * (3 - 1)  # S=1, g_c=3
        pmf = HAND_MODEL.pmf_values
        policy = optimal_policy(HAND_MODEL, 1, 3)
        own = iid_hit_probability(pmf, policy.probs, slots)
        best_val, best_p = -1.0, None
        for p in simplex_grid(3, 0.01):
            val = iid_hit_probability(pmf, p, slots)
            if val > best_val:
                best_val, best_p = val, p
        assert own >= best_val - 1e-12
        np.testing.assert_allclose(best_p, policy.probs, atol=0.011)

    def test_extreme_model_stays_finite(self):
        """Steep tail, big plateau, large library: log-space z computation
        keeps everything finite and the two truncation routes agree."""
        model = PopularityModel(gamma=2.5, q=200.0, m_total=100_000)
        policy = optimal_policy(model, 1, 10_000)
        assert np.all(np.isfinite(policy.probs))
        assert abs(policy.probs.sum() - 1.0) <= 1e-9
        assert policy.m_star == kkt_mstar(model, 1, 10_000)

    @settings(max_examples=60, deadline=None)
    @given(
        gamma=st.floats(0.5, 2.5),
        q=st.floats(0.0, 40.0),
        m_total=st.integers(2, 200),
        s=st.integers(1, 3),
        g_c=st.integers(3, 20),
    )
    def test_scan_and_construction_agree(self, gamma, q, m_total, s, g_c):
        model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
        policy = optimal_policy(model, s, g_c)
        assert policy.m_star == kkt_mstar(model, s, g_c)
        assert abs(policy.probs.sum() - 1.0) <= 1e-9
        assert np.all(np.diff(policy.probs) <= 1e-15)
        positive = policy.probs > 0
        assert positive[: policy.m_star].all() and not positive[policy.m_star :].any()

    @pytest.mark.parametrize("gamma,s,g_c", [(200.0, 2, 2), (1e308, 4, 10)])
    def test_underflowed_weights_cache_the_head_silently(self, gamma, s, g_c):
        """Past file 1 the weights underflow to 0 (the pmf at n = 1; at
        gamma = 1e308 even the log-pmf overflows to -inf). Their infinite
        reciprocals are the limit: m* = 1, nu = 0, and file 1 is cached."""
        model = PopularityModel(gamma=gamma, q=0.0, m_total=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy = optimal_policy(model, s, g_c)
            z = policy.z
        assert policy.m_star == 1
        assert z[0] > 0.0
        assert policy.water_level == 0.0
        np.testing.assert_array_equal(policy.probs, np.eye(1, 100)[0])

    def test_one_file_library_rejected(self):
        with pytest.raises(ValueError, match="library of at least 2 files"):
            optimal_policy(PopularityModel(gamma=1.0, q=0.0, m_total=1), 1, 4)


def assert_same_bits(policy, reference):
    """m*, nu and probs equal the full scan's bits, and z its searched prefix.

    The prefix holds index m* unless m* = M, and the scan's z past it sits
    at or below nu, so the prefix certifies every file the scan's z does.
    """
    probs, nu, m_star, z = reference
    size = policy.z.size
    assert policy.m_star == m_star
    assert policy.water_level == nu
    assert policy.probs.tobytes() == probs.tobytes()
    assert size == z.size or size > m_star
    assert policy.z.tobytes() == z[:size].tobytes()
    assert np.all(z[size:] <= nu)


def traced(call, *args):
    """call(*args) and the bytes allocated at its peak above what was live
    before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPrefixSearch:
    """optimal_policy walks the library in blocks; the full scan is its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        gamma=st.floats(0.05, 4.0),
        q=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
        m_total=st.integers(2, 300_000),
        s=st.integers(1, 60),
        g_c=st.integers(2, 5000),
    )
    @example(gamma=1.16, q=22.0, m_total=7345, s=1, g_c=3)  # n = 1: z is the pmf
    @example(gamma=1.11, q=18.0, m_total=5405, s=4, g_c=2500)  # m* = M
    @example(gamma=1.16, q=22.0, m_total=300_000, s=4, g_c=100)  # m* well inside the first prefix
    def test_matches_the_full_scan(self, gamma, q, m_total, s, g_c):
        assume(s * (g_c - 1) >= 2)
        model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
        assert_same_bits(optimal_policy(model, s, g_c), full_scan_policy(model, s, g_c))

    def test_z_is_the_searched_prefix_at_a_large_library(self):
        """m* near 400 of 10^6 files: z stops at the first block and still certifies m*."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=1_000_000)
        policy = optimal_policy(model, 4, 100)
        assert 300 <= policy.m_star <= 500
        assert policy.z.size == policy_module._BLOCK
        assert policy.z.tobytes() == log_space_z(model, 4, 100)[: policy.z.size].tobytes()
        assert policy.z[policy.m_star] <= policy.water_level

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_every_growth_step_at_small_libraries(self, monkeypatch, block):
        """Tiny blocks put m* everywhere in a block: inside it, at its last
        entry (nu then comes from the carried sum), at its first entry, and
        at M. z ends with the block that holds file m*+1."""
        monkeypatch.setattr(policy_module, "_BLOCK", block)
        seen = set()
        for m_total in range(2, 70):
            for gamma, q in [(0.8, 0.0), (1.6, 5.0), (3.0, 40.0)]:
                model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
                for s, g_c in [(1, 3), (1, 4), (2, 6), (4, 30), (8, 200)]:
                    policy = optimal_policy(model, s, g_c)
                    assert_same_bits(policy, full_scan_policy(model, s, g_c))
                    m_star = policy.m_star
                    if m_star == m_total:
                        assert policy.z.size == m_total
                        seen.add("m* = M")
                        continue
                    assert policy.z.size == min(-(-(m_star + 1) // block) * block, m_total)
                    position = (m_star - 1) % block
                    if position == block - 1:
                        seen.add("m* at a block's last entry")
                    if position == 0:
                        seen.add("m* at a block's first entry")
                    if 0 < position < block - 1:
                        seen.add("m* inside a block")
        expected = {"m* = M", "m* at a block's last entry", "m* at a block's first entry"}
        assert seen == (expected | {"m* inside a block"} if block >= 3 else expected)

    def test_peak_memory_is_one_library_array(self):
        """m* = M at M = 10^6: beyond the one array that holds z and then
        probs, only block-sized scratch."""
        m_total = 1_000_000
        model = PopularityModel(gamma=1.16, q=22.0, m_total=m_total)
        policy, peak = traced(optimal_policy, model, 4, 400_000)
        assert policy.m_star == m_total
        assert peak <= 8 * m_total + 2**20

    def test_peak_memory_of_a_short_search_is_one_library_array(self):
        """m* in the first block of a fresh M = 10^6 model: no law of the
        library's length is evaluated, so the peak is that of m* = M."""
        m_total = 1_000_000
        model = PopularityModel(gamma=1.16, q=22.0, m_total=m_total)
        policy, peak = traced(optimal_policy, model, 4, 100)
        assert policy.z.size == policy_module._BLOCK
        assert peak <= 8 * m_total + 2**20

    @pytest.mark.parametrize("block", [1, 3, 1 << 12, policy_module._BLOCK])
    @pytest.mark.parametrize("m_total, s, g_c", [
        (7345, 4, 100), (7345, 4, 2500), (5405, 60, 5000), (300_000, 4, 100), (50, 2, 6),
    ])
    def test_law_evaluated_once_per_searched_file(self, monkeypatch, block, m_total, s, g_c):
        """The log law is evaluated for the files of z and no others: once
        each, in order, and once more on each later read of z."""
        calls = []
        law = policy_module._log_pmf

        def counted(gamma, q, normalizer, lo, hi, out):
            calls.append((lo, hi))
            return law(gamma, q, normalizer, lo, hi, out)

        monkeypatch.setattr(policy_module, "_BLOCK", block)
        monkeypatch.setattr(policy_module, "_log_pmf", counted)
        policy = optimal_policy(PopularityModel(gamma=1.16, q=22.0, m_total=m_total), s, g_c)
        runs = [calls.copy()]
        for _ in range(2):
            calls.clear()
            size = policy.z.size
            runs.append(calls.copy())
        for run in runs:  # files 0..size, each once, in order
            assert run[0][0] == 0 and run[-1][1] == size
            assert all(hi == lo for (_, hi), (lo, _) in zip(run, run[1:]))


class TestCachingPolicy:
    """A water-filled policy holds probs alone and evaluates z when it is read."""

    def test_each_read_of_z_is_the_inline_law(self):
        model = PopularityModel(gamma=1.16, q=22.0, m_total=1_000_000)
        policy = optimal_policy(model, 4, 400_000)
        first, second = policy.z, policy.z
        assert first.size == model.m_total
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()
        assert first.tobytes() == log_space_z(model, 4, 400_000)[: first.size].tobytes()

    def test_probs_is_the_only_array_held(self):
        policy = optimal_policy(PopularityModel(**REGION2), 4, 2500)
        _ = policy._cdf_guide, policy.z
        held = {name: value for name, value in vars(policy).items() if name != "_cdf_guide"}
        assert [name for name, value in held.items() if isinstance(value, np.ndarray)] == ["probs"]

    def test_hand_built_policy_has_no_z(self):
        assert hand_policy([0.5, 0.5, 0.0]).z is None

    @pytest.mark.parametrize("s, g_c", [(4, 100), (4, 400_000), (1, 3)])
    def test_policy_does_not_keep_its_model_alive(self, s, g_c):
        """The policy keeps (gamma, q, Z), not the model: once the model is
        dropped its tables are freed, and z still reads the inline law."""
        params = dict(gamma=1.16, q=22.0, m_total=100_000)
        model = PopularityModel(**params)
        _ = model.cdf_values, model._cdf_guide
        policy, ref = optimal_policy(model, s, g_c), weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None
        z = policy.z
        assert z.tobytes() == log_space_z(PopularityModel(**params), s, g_c)[: z.size].tobytes()

    def test_guide_reads_only_the_cached_files(self):
        """The guide takes the cumulative sums of the m* cached files, not of
        the library: the same bits as the sums over all of it, at a peak far
        below one array of the library's length."""
        policy = optimal_policy(PopularityModel(gamma=1.16, q=22.0, m_total=1_000_000), 4, 100)
        assert policy.m_star < 1000
        guide, peak = traced(lambda: policy._cdf_guide)
        expected = _guide_table(np.cumsum(policy.probs), policy.m_star)
        assert [a.tobytes() for a in guide] == [a.tobytes() for a in expected]
        assert peak < 2**20


class TestKktMstar:
    def test_hand_instance(self):
        assert kkt_mstar(HAND_MODEL, 1, 3) == 2

    def test_never_exceeds_library(self):
        model = PopularityModel(gamma=1.1, q=5.0, m_total=50)
        assert kkt_mstar(model, 4, 100) <= 50

    def test_tracks_theoretical_at_moderate_clusters(self):
        """Mirrors the closed-form-vs-scan comparison at gamma=1.16, M=1e4."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=10_000)
        for g_c in (50, 100, 400, 1600, 5000):
            scan = kkt_mstar(model, 1, g_c)
            theo = theoretical_mstar(model, 1, g_c)
            assert abs(scan - theo) / scan <= 0.05


class TestTheoreticalMstar:
    def test_clamped_at_library_size(self):
        model = PopularityModel(gamma=1.16, q=22.0, m_total=500)
        assert theoretical_mstar(model, 4, 10_000) == 500.0

    def test_large_plateau_scales_with_q(self):
        """With q ten times the per-cluster memory scale, m* tracks q."""
        gamma, s, g_c = 1.16, 1, 50
        q = 10.0 * s * g_c / gamma
        model = PopularityModel(gamma=gamma, q=q, m_total=100_000)
        ratio = theoretical_mstar(model, s, g_c) / q
        assert 0.3 <= ratio <= 1.0


class TestC1:
    def test_residual(self):
        """c1 of S=1, g_c=100 solves the fixed point at c2 = q*gamma/(S*(g_c-1)-1)."""
        c2 = 22.0 * (1.16 / 98)
        c1 = _c1(PopularityModel(**REGION2), 1, 100)
        assert c1 == solve_c1(c2)
        assert residual(c1, c2) <= 1e-10 * max(1.0, c1)


class TestDominance:
    def test_beats_uniform_and_proportional(self):
        """Monte Carlo D2D hit rate of the optimal policy dominates baselines."""
        model = PopularityModel(gamma=1.3, q=2.0, m_total=4)
        s, g_c, trials = 1, 4, 20_000
        network = build_grid(g_c, g_c)
        config = NetworkConfig(
            n_users=g_c, s_cache=s, rate_c=1.0, reuse_k=4, cluster_size=g_c
        )
        optimal = optimal_policy(model, s, g_c)
        uniform = hand_policy(np.full(4, 0.25))
        proportional = hand_policy(model.pmf_values)
        outcomes = {
            name: run_monte_carlo(network, pol, model, config, trials, base_seed=90)
            for name, pol in [("opt", optimal), ("uni", uniform), ("prop", proportional)]
        }
        for name in ("uni", "prop"):
            assert outcomes["opt"].d2d_hit_rate >= (
                outcomes[name].d2d_hit_rate
                - 2 * (outcomes["opt"].d2d_hit_se + outcomes[name].d2d_hit_se)
            )
