"""Tests for the water-filling caching policy and its scaling constants."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from d2dlab import policy as policy_module
from d2dlab.network import NetworkConfig
from d2dlab.policy import (
    CachingPolicy,
    optimal_policy,
    scaling_constants,
    solve_c1,
    theoretical_mstar,
)
from d2dlab.popularity import PopularityModel
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
    def test_memoized_law_keeps_the_inline_bits(self, model, s, g_c):
        """n > 1: the law read from the model's memo gives the inline expression's bits."""
        z = optimal_policy(model, s, g_c).z
        assert z.tobytes() == log_space_z(model, s, g_c)[: z.size].tobytes()

    def test_law_evaluated_once_per_model(self):
        model = PopularityModel(**REGION2)
        optimal_policy(model, 4, 100)
        law = model._log_pmf
        optimal_policy(model, 1, 400)
        assert model._log_pmf is law

    @pytest.mark.parametrize("s,g_c", [(1, 2), (1, 1), (2, 1)])
    def test_cluster_too_small(self, s, g_c):
        with pytest.raises(ValueError, match="cluster too small"):
            optimal_policy(HAND_MODEL, s, g_c)

    @pytest.mark.parametrize("s,g_c", [(-1, -2), (-3, 0), (0, 5), (2, 0), (-2, 3)])
    @pytest.mark.parametrize("func", [scaling_constants, optimal_policy, theoretical_mstar])
    def test_non_positive_cache_or_cluster_rejected(self, func, s, g_c):
        """Two negative factors can make S*(g_c-1)-1 look admissible; both are checked."""
        with pytest.raises(ValueError, match="s_cache and cluster_size must be >= 1"):
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


class TestPrefixSearch:
    """optimal_policy searches m* on a growing prefix; the full scan is its oracle."""

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
        """m* near 400 of 10^6 files: z stops at the first prefix and still certifies m*."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=1_000_000)
        policy = optimal_policy(model, 4, 100)
        assert 300 <= policy.m_star <= 500
        assert policy.z.size == policy_module._PREFIX_START
        assert policy.z.tobytes() == log_space_z(model, 4, 100)[: policy.z.size].tobytes()
        assert policy.z[policy.m_star] <= policy.water_level

    @pytest.mark.parametrize("start", [1, 2])
    def test_every_growth_step_at_small_libraries(self, monkeypatch, start):
        """A tiny first prefix makes small libraries take every growth step:
        m* inside a prefix, m* exactly at a prefix's end, and m* = M."""
        monkeypatch.setattr(policy_module, "_PREFIX_START", start)
        boundaries = {start << k for k in range(12)}
        seen = set()
        for m_total in range(2, 70):
            for gamma, q in [(0.8, 0.0), (1.6, 5.0), (3.0, 40.0)]:
                model = PopularityModel(gamma=gamma, q=q, m_total=m_total)
                for s, g_c in [(1, 3), (1, 4), (2, 6), (4, 30), (8, 200)]:
                    policy = optimal_policy(model, s, g_c)
                    assert_same_bits(policy, full_scan_policy(model, s, g_c))
                    if policy.m_star == m_total:
                        seen.add("m* = M")
                    elif policy.m_star in boundaries:
                        seen.add("m* at a prefix end")
                    else:
                        seen.add("m* inside a prefix")
        assert seen == {"m* = M", "m* at a prefix end", "m* inside a prefix"}


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


class TestScalingConstants:
    def test_fields(self):
        model = PopularityModel(**REGION2)
        sc = scaling_constants(model, 1, 100)
        assert sc.a_prime == pytest.approx(1.16 / 98, rel=1e-12)
        assert sc.c2 == pytest.approx(22.0 * 1.16 / 98, rel=1e-12)
        assert residual(sc.c1, sc.c2) <= 1e-10 * max(1.0, sc.c1)
        assert sc.c6 == pytest.approx(0.22, rel=1e-12)
        assert sc.d_ratio == pytest.approx(22.0 / 7345, rel=1e-12)
        assert sc.rho == pytest.approx(sc.c1 * 100 / 7345, rel=1e-12)


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
