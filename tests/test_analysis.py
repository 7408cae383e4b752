"""Tests for the closed-form hit probability and tradeoff expressions."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from d2dlab import analysis
from d2dlab.analysis import (
    REGIME1,
    REGIME2,
    RegimeError,
    hit_prob_closed_form,
    hit_prob_lower_bound,
    tradeoff_curve,
    tradeoff_point,
)
from d2dlab.network import NetworkConfig
from d2dlab.policy import optimal_policy, scaling_constants, solve_c1
from d2dlab.popularity import PopularityModel

from oracles import eq5_direct, eq6_direct, iid_hit_probability, regime1_outage_direct


def config(g_c: int, s: int = 1, c: float = 1.0, k: int = 4, n: int | None = None) -> NetworkConfig:
    return NetworkConfig(
        n_users=n if n is not None else max(10_000, g_c),
        s_cache=s, rate_c=c, reuse_k=k, cluster_size=g_c,
    )


def point_in(regime: str, model: PopularityModel, cfg: NetworkConfig):
    """tradeoff_point, asserting the regime the point falls in."""
    point = tradeoff_point(model, cfg)
    assert point.regime_tag == regime
    return point


class TestClosedForm:
    MODEL = PopularityModel(gamma=1.16, q=100.0, m_total=10_000)

    def test_matches_independent_evaluation(self):
        got = hit_prob_closed_form(self.MODEL, config(200, s=4))
        assert got == pytest.approx(eq5_direct(1.16, 100.0, 10_000, 4, 200), rel=1e-9)

    def test_in_unit_interval_and_increasing_in_cluster_size(self):
        values = [
            hit_prob_closed_form(self.MODEL, config(g, s=4))
            for g in (50, 100, 200, 400, 800, 1600)
        ]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_limit_at_regime_boundary(self):
        """Approaching g_c -> gamma*M/(c1*S) the value rises to its A=M
        limit, 1 + (1-gamma)*(M+q)^-gamma*M/den; at this library size that
        limit is ~0.855 and only tends to 1 as M grows."""
        gamma, q, m = 1.16, 100.0, 10_000
        g = 2000
        for _ in range(30):  # fixed point of the boundary condition
            c1 = scaling_constants(self.MODEL, 4, g).c1
            g = int(gamma * m / (c1 * 4))
        while True:
            try:
                last = hit_prob_closed_form(self.MODEL, config(g, s=4))
                break
            except RegimeError:
                g -= 1
        e = 1.0 - gamma
        den = (m + q) ** e - (q + 1.0) ** e
        boundary_limit = 1.0 - e * (m + q) ** (-gamma) * m / den
        assert last == pytest.approx(boundary_limit, abs=0.01)
        assert last > hit_prob_closed_form(self.MODEL, config(400, s=4))

    def test_regime_error_beyond_boundary(self):
        with pytest.raises(RegimeError, match="regime 2"):
            hit_prob_closed_form(self.MODEL, config(5000, s=4))

    @pytest.mark.parametrize(
        "q,s,g_c",
        [(100.0, 4, 100), (100.0, 4, 200), (100.0, 8, 100), (22.0, 4, 100),
         (100.0, 4, 1000), (100.0, 16, 400)],
    )
    def test_within_finite_size_slack_of_exact(self, q, s, g_c):
        """Across M=1e4, g_c >= 100, S >= 4 the closed form sits within the
        documented 0.02 of the exact iid-cache hit probability."""
        model = PopularityModel(gamma=1.16, q=q, m_total=10_000)
        analytic = hit_prob_closed_form(model, config(g_c, s=s))
        policy = optimal_policy(model, s, g_c)
        exact = iid_hit_probability(model.pmf_values, policy.probs, s * g_c)
        assert abs(analytic - exact) <= 0.02

    def test_gamma_near_one_limit_form(self):
        """The log-limit branch is continuous with the direct formula."""
        cfg = config(100, s=2)
        direct = hit_prob_closed_form(
            PopularityModel(gamma=1.0 + 1e-4, q=10.0, m_total=2000), cfg
        )
        limit = hit_prob_closed_form(
            PopularityModel(gamma=1.0 + 1e-8, q=10.0, m_total=2000), cfg
        )
        assert limit == pytest.approx(direct, rel=5e-4)

    def test_cluster_too_small(self):
        with pytest.raises(ValueError, match="cluster too small"):
            hit_prob_closed_form(self.MODEL, config(2, s=1))


class TestLowerBound:
    def test_matches_independent_evaluation(self):
        model = PopularityModel(gamma=1.16, q=15.0, m_total=5000)
        got = hit_prob_lower_bound(model, config(1369, s=8))
        assert got == pytest.approx(eq6_direct(1.16, 15.0, 5000, 8, 1369), rel=1e-9)

    def test_zero_plateau_reduces_to_zipf_bound(self):
        model = PopularityModel(gamma=1.3, q=0.0, m_total=1000)
        cfg = config(900, s=2)
        sc = scaling_constants(model, 2, 900)
        assert sc.c1 == 1.0  # q=0 means c2=0
        assert hit_prob_lower_bound(model, cfg) == 1.0

    @pytest.mark.parametrize("gamma", [0.8, 1.0, 1.2, 1.5])
    def test_rises_to_the_zero_plateau_value_as_q_falls(self, gamma):
        """M=1000, S=4, g_c=400: the bound rises as q falls through 1e-6,
        1e-9 and 1e-12 to its value at q=0, with no point clamped."""
        points = [
            point_in(REGIME2, PopularityModel(gamma=gamma, q=q, m_total=1000), config(400, s=4))
            for q in (1e-6, 1e-9, 1e-12, 0.0)
        ]
        hits = [p.hit_prob for p in points]
        assert all(a < b for a, b in zip(hits, hits[1:]))
        assert not any(p.clamped for p in points)

    def test_close_to_exact_hit_probability(self):
        """The asymptotic bound sits within ~1e-3 of the exact value here
        (slightly above it: the finite-size slack is not one-sided)."""
        model = PopularityModel(gamma=1.16, q=15.0, m_total=5000)
        bound = hit_prob_lower_bound(model, config(1369, s=8))
        policy = optimal_policy(model, 8, 1369)
        exact = iid_hit_probability(model.pmf_values, policy.probs, 8 * 1369)
        assert 0.0 < bound < 1.0
        assert bound <= exact + 1e-3

    def test_increases_toward_one_with_rho(self):
        model = PopularityModel(gamma=1.11, q=18.0, m_total=2000)
        values = [
            hit_prob_lower_bound(model, config(g, s=4)) for g in (700, 1000, 1500, 2500)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_gamma_one_limit_form(self):
        """At gamma = 1 the log-limit branch runs; gamma = 1 -/+ 2e-6 lie outside it
        and bracket its value within 1e-6."""
        cfg = config(3000, s=1)
        below, at, above = (
            hit_prob_lower_bound(PopularityModel(gamma=g, q=5.0, m_total=1000), cfg)
            for g in (1.0 - 2e-6, 1.0, 1.0 + 2e-6)
        )
        assert analysis._GAMMA_ONE_EPS < 2e-6
        assert below < at < above
        assert above - below < 1e-6

    def test_regime_error_below_boundary(self):
        model = PopularityModel(gamma=1.16, q=22.0, m_total=10_000)
        with pytest.raises(RegimeError, match="rho"):
            hit_prob_lower_bound(model, config(100, s=1))


class TestRegime1:
    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=7345)

    def test_throughput_is_exact_ratio(self):
        point = point_in(REGIME1, self.MODEL, config(100, s=1, c=1.0, k=4))
        assert point.throughput == (1.0 / 4) / 100
        assert point.regime_tag == REGIME1

    def test_outage_value_fixed_by_oracle(self):
        """gamma=1.16, q=22, S=1, g_c=100: independent re-evaluation gives
        0.8351483790 (c6=0.22, c1 from the 22*1.16/98 fixed point)."""
        point = point_in(REGIME1, self.MODEL, config(100, s=1))
        assert point.outage == pytest.approx(0.8351483790246113, rel=1e-9)
        assert point.outage == pytest.approx(
            regime1_outage_direct(1.16, 22.0, 1, 100), rel=1e-9
        )

    def test_vanishing_plateau_gives_vanishing_outage(self):
        """P_o -> 0 as q -> 0 (slowly: the leading factor is (q/g_c)^0.16)."""
        outages = [
            point_in(
                REGIME1, PopularityModel(gamma=1.16, q=q, m_total=7345), config(100, s=1)
            ).outage
            for q in (1.0, 1e-3, 1e-6, 1e-9, 0.0)
        ]
        assert all(a > b for a, b in zip(outages, outages[1:]))
        assert outages[-1] == 0.0

    def test_zero_plateau_below_unit_gamma_clamps_to_full_outage(self):
        """At gamma < 1 the law's leading factor c6^(gamma-1) grows without
        bound as q -> 0+, so at q = 0 the outage clamps to 1 and is flagged,
        as it is at q = 1e-9."""
        cfg = config(100, s=4)
        for q in (0.0, 1e-9):
            point = point_in(REGIME1, PopularityModel(gamma=0.8, q=q, m_total=100_000), cfg)
            assert (point.outage, point.clamped) == (1.0, True)

    def test_scale_invariance_in_link_rate(self):
        base = point_in(REGIME1, self.MODEL, config(100, s=1, c=1.0))
        doubled = point_in(REGIME1, self.MODEL, config(100, s=1, c=2.0))
        assert doubled.throughput == 2.0 * base.throughput
        assert doubled.outage == base.outage

    def test_doubling_cluster_halves_throughput_exactly(self):
        t1 = point_in(REGIME1, self.MODEL, config(100, s=1)).throughput
        t2 = point_in(REGIME1, self.MODEL, config(200, s=1)).throughput
        assert t2 == t1 / 2

    def test_kappa_admissibility(self):
        """Regime 1 admits q <= 10*S*g_c/gamma, 862.07 at gamma=1.16, S=1,
        g_c=100; beyond it the error names the bound to four digits."""
        admitted = PopularityModel(gamma=1.16, q=862.0, m_total=100_000)
        point_in(REGIME1, admitted, config(100, s=1))
        refused = PopularityModel(gamma=1.16, q=863.0, m_total=100_000)
        with pytest.raises(RegimeError) as excinfo:
            tradeoff_point(refused, config(100, s=1))
        assert str(excinfo.value) == (
            "plateau factor q=863.0 exceeds kappa*S*g_c/gamma=862.1; "
            "the regime-1 outage expression assumes q = O(S*g_c/gamma)"
        )

    def test_outage_complements_closed_form_in_the_large_library_limit(self):
        """The regime-1 outage law is the M->infinity limit of one minus
        the closed-form hit probability; the gap shrinks like M^-(gamma-1),
        so it is checked as monotone convergence rather than equality."""
        cfg = config(100, s=1)
        gaps = []
        for m_total in (10**3, 10**4, 10**5, 10**6):
            model = PopularityModel(gamma=1.16, q=22.0, m_total=m_total)
            po = point_in(REGIME1, model, cfg).outage
            gaps.append(abs(po - (1.0 - hit_prob_closed_form(model, cfg))))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05


class TestRegime2:
    def test_throughput_formula_and_tag(self):
        model = PopularityModel(gamma=1.11, q=18.0, m_total=5405)
        cfg = config(2500, s=8, c=1.0, k=4)
        sc = scaling_constants(model, 8, 2500)
        point = point_in(REGIME2, model, cfg)
        assert point.regime_tag == REGIME2
        assert point.throughput == pytest.approx(
            (1.0 / 4) * 8 * sc.c1 / (sc.rho * 5405), rel=1e-12
        )
        assert point.outage < 0.05  # deep regime 2: almost everything is cached

    def test_matches_regime1_throughput_at_any_cluster_size(self):
        """rho is defined from g_c, so T = (C/K)*S*c1/(rho*M) collapses to
        (C/K)/g_c; the two regimes hand off continuously."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=2000)
        g_c = 2600  # beyond the regime boundary for S=1
        point = point_in(REGIME2, model, config(g_c, s=1))
        assert point.throughput == pytest.approx((1.0 / 4) / g_c, rel=1e-12)

    def test_doubling_library_and_cluster_halves_throughput(self):
        model1 = PopularityModel(gamma=1.16, q=22.0, m_total=2000)
        model2 = PopularityModel(gamma=1.16, q=22.0, m_total=4000)
        t1 = point_in(REGIME2, model1, config(2600, s=1)).throughput
        t2 = point_in(REGIME2, model2, config(5200, s=1)).throughput
        assert t2 == pytest.approx(t1 / 2, rel=1e-12)

    def test_outage_complements_lower_bound(self):
        model = PopularityModel(gamma=1.16, q=22.0, m_total=2000)
        cfg = config(2600, s=1)
        point = point_in(REGIME2, model, cfg)
        assert point.outage == pytest.approx(
            1.0 - hit_prob_lower_bound(model, cfg), abs=1e-15
        )

    def test_zero_plateau_point_is_its_limit(self):
        """Above gamma = 1 the D^(1-gamma) term of the bound grows without
        limit as q -> 0+, so the q=0 point is that limit: hit 1 and outage 0,
        with nothing clamped."""
        model = PopularityModel(gamma=1.3, q=0.0, m_total=1000)
        point = point_in(REGIME2, model, config(900, s=2))
        assert (point.hit_prob, point.outage, point.clamped) == (1.0, 0.0, False)


class TestTradeoffCurve:
    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=2000)

    def base(self) -> NetworkConfig:
        return config(10, s=1)

    def test_empty_and_singleton(self):
        assert tradeoff_curve(self.MODEL, self.base(), []) == []
        points = tradeoff_curve(self.MODEL, self.base(), [100])
        assert len(points) == 1 and points[0].regime_tag == REGIME1

    def test_monotone_sweep_with_regime_dispatch(self):
        g_list = [50, 100, 200, 400, 800, 1600, 2400, 3200]
        points = tradeoff_curve(self.MODEL, self.base(), g_list)
        assert {p.g_c_used for p in points} == set(g_list)
        by_gc = sorted(points, key=lambda p: p.g_c_used)
        ts = [p.throughput for p in by_gc]
        po = [p.outage for p in by_gc]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert all(a > b for a, b in zip(po, po[1:]))
        tags = [p.regime_tag for p in by_gc]
        assert REGIME1 in tags and REGIME2 in tags
        assert tags == sorted(tags)  # regime1 strictly before regime2

    def test_points_in_input_order(self):
        """Points keep the input order, a repeated cluster size and a
        failed point in the middle included."""
        g_list = [50, 2, 800, 200, 800]
        points = tradeoff_curve(self.MODEL, self.base(), g_list)
        assert [p.g_c_used for p in points] == g_list
        assert [p.error is None for p in points] == [True, False, True, True, True]
        assert points[2] == points[4]
        assert points[0].outage > points[3].outage > points[2].outage

    def test_hit_prob_is_the_regime_formula(self):
        model = self.MODEL
        below = point_in(REGIME1, model, config(100, s=1))
        assert below.hit_prob == hit_prob_closed_form(model, config(100, s=1))
        beyond = point_in(REGIME2, model, config(2600, s=1))
        assert beyond.hit_prob == hit_prob_lower_bound(model, config(2600, s=1))

    def test_one_scaling_constants_call_per_point(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return scaling_constants(*args)

        monkeypatch.setattr(analysis, "scaling_constants", counted)
        g_list = [50, 100, 800, 2600, 3200]
        points = tradeoff_curve(self.MODEL, self.base(), g_list)
        assert {p.regime_tag for p in points} == {REGIME1, REGIME2}
        assert len(calls) == len(g_list)

    def test_pure_zipf_degeneration_stays_finite(self):
        """q=0 collapses to a pure Zipf library: every expression evaluates
        to a finite number and the usual regime structure survives."""
        model = PopularityModel(gamma=1.3, q=0.0, m_total=1000)
        base = config(10, s=2)
        points = tradeoff_curve(model, base, [10, 50, 200, 400, 900])
        assert all(p.error is None for p in points)
        assert all(math.isfinite(p.throughput) and math.isfinite(p.outage) for p in points)
        assert {p.regime_tag for p in points} == {REGIME1, REGIME2}
        regime1_points = [p for p in points if p.regime_tag == REGIME1]
        assert all(p.outage == 0.0 for p in regime1_points)  # q=0: no plateau miss
        assert math.isfinite(hit_prob_closed_form(model, config(50, s=2)))

    def test_per_point_errors_recorded_not_fatal(self):
        points = tradeoff_curve(self.MODEL, self.base(), [2, 100])
        failed = [p for p in points if p.error]
        assert len(failed) == 1
        assert failed[0].g_c_used == 2
        assert "cluster too small" in failed[0].error
        assert math.isnan(failed[0].throughput)
        assert math.isnan(failed[0].hit_prob)
        ok = [p for p in points if not p.error]
        assert len(ok) == 1 and ok[0].outage > 0
