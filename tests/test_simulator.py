"""Tests for the clustered-grid Monte Carlo simulator."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from d2dlab import simulator
from d2dlab.network import NetworkConfig
from d2dlab.policy import CachingPolicy, optimal_policy
from d2dlab.popularity import PopularityModel
from d2dlab.simulator import (
    SimOutcome,
    TrialOutcome,
    build_grid,
    run_monte_carlo,
    run_trial,
    simulate_tradeoff,
)

from oracles import enumerate_single_cluster, iid_hit_probability, whole_trial


def hand_policy(probs) -> CachingPolicy:
    """A caching pmf built by hand: no water level, m* its last cached file."""
    p = np.asarray(probs, dtype=np.float64)
    return CachingPolicy(probs=p, water_level=math.nan, m_star=int(np.flatnonzero(p)[-1]) + 1)


def make_config(network, s=1, c=1.0, k=4) -> NetworkConfig:
    return NetworkConfig(
        n_users=network.n_users,
        s_cache=s,
        rate_c=c,
        reuse_k=k,
        cluster_size=network.cluster_size,
    )


class TestBuildGrid:
    def test_four_clusters_of_four(self):
        net = build_grid(16, 4)
        assert (net.side, net.cluster_side) == (4, 2)
        assert net.n_clusters == 4
        assert net.padding == 0

    def test_hundred_by_hundred(self):
        net = build_grid(10_000, 100)
        assert net.side == 100
        assert net.n_clusters == 100

    def test_padding_reported(self):
        net = build_grid(10, 4)
        assert net.n_users == 16
        assert net.padding == 6

    def test_non_square_cluster_rejected(self):
        with pytest.raises(ValueError, match="perfect square"):
            build_grid(100, 10)

    @pytest.mark.parametrize("n_users", [0, -16])
    def test_non_positive_user_count_rejected(self, n_users):
        with pytest.raises(ValueError, match="n_users must be >= 1"):
            build_grid(n_users, 4)

    @pytest.mark.parametrize("cluster_size", [0, -4])
    def test_non_positive_cluster_rejected(self, cluster_size):
        with pytest.raises(ValueError, match="cluster_size must be >= 1"):
            build_grid(16, cluster_size)

    def test_members_partition_all_users(self):
        net = build_grid(36, 9)
        members = net.members
        assert members.shape == (4, 9)
        assert sorted(members.ravel().tolist()) == list(range(36))

    def test_members_are_contiguous_blocks(self):
        net = build_grid(16, 4)
        # Top-left 2x2 block of the 4x4 grid.
        assert sorted(net.members[0].tolist()) == [0, 1, 4, 5]


class TestRunTrial:
    def test_all_self_hits_consume_no_airtime(self):
        """Single-file library: every user self-hits, zero outage, zero D2D."""
        model = PopularityModel(gamma=1.0, q=0.0, m_total=1)
        policy = hand_policy([1.0])
        net = build_grid(16, 4)
        t = run_trial(net, policy, model, make_config(net), seed=1)
        assert t.hits == 16
        assert t.self_hits == 16
        assert t.outages == 0
        assert t.cluster_links.sum() == 0
        assert np.all(t.throughput == 0.0)

    def test_uncached_request_is_outage(self):
        """Nobody caches file 2, so every user requesting it is in outage."""
        model = PopularityModel(gamma=1.0, q=0.0, m_total=2)  # pmf (2/3, 1/3)
        policy = hand_policy([1.0, 0.0])
        net = build_grid(16, 16)
        t = run_trial(net, policy, model, make_config(net), seed=7)
        rng = np.random.default_rng(7)
        _ = rng.random((16, 1))
        requests = np.searchsorted(model.cdf_values, rng.random(16), side="right") + 1
        assert t.outages == int((requests == 2).sum())
        assert t.cluster_links.sum() == 0

    def test_outage_identity_exact_per_trial(self):
        model = PopularityModel(gamma=1.2, q=3.0, m_total=40)
        net = build_grid(64, 16)
        policy = optimal_policy(model, 2, 16)
        for seed in range(5):
            t = run_trial(net, policy, model, make_config(net, s=2), seed=seed)
            assert t.hits + t.outages == t.n_users
            assert t.hit_frac + t.outage_frac == 1.0

    def test_throughput_conservation_per_cluster(self):
        """Active clusters deliver C/K in total; silent ones deliver zero."""
        model = PopularityModel(gamma=1.2, q=3.0, m_total=40)
        net = build_grid(64, 16)
        policy = optimal_policy(model, 1, 16)
        cfg = make_config(net, s=1, c=2.0, k=4)
        t = run_trial(net, policy, model, cfg, seed=3)
        for cl in range(net.n_clusters):
            total = t.throughput[net.members[cl]].sum()
            if t.cluster_links[cl] > 0:
                assert total == pytest.approx(2.0 / 4, rel=1e-12)
            else:
                assert total == 0.0

    def test_bitwise_reproducible(self):
        model = PopularityModel(gamma=1.3, q=8.0, m_total=100)
        net = build_grid(100, 25)
        policy = optimal_policy(model, 2, 25)
        cfg = make_config(net, s=2)
        a = run_trial(net, policy, model, cfg, seed=123)
        b = run_trial(net, policy, model, cfg, seed=123)
        assert a.hits == b.hits and a.self_hits == b.self_hits
        np.testing.assert_array_equal(a.throughput, b.throughput)
        np.testing.assert_array_equal(a.cluster_links, b.cluster_links)

    def test_config_network_mismatch_rejected(self):
        model = PopularityModel(gamma=1.0, q=0.0, m_total=3)
        net = build_grid(16, 4)
        cfg = NetworkConfig(n_users=16, s_cache=1, rate_c=1.0, reuse_k=4, cluster_size=16)
        with pytest.raises(ValueError, match="does not match"):
            run_trial(net, hand_policy([1.0, 0.0, 0.0]), model, cfg, seed=0)


class TestAgainstEnumeration:
    def test_single_cluster_brute_force(self):
        """Monte Carlo matches exhaustive enumeration of one g_c=4 cluster."""
        model = PopularityModel(gamma=1.0, q=0.0, m_total=3)
        policy = optimal_policy(model, 1, 4)
        net = build_grid(4, 4)
        cfg = make_config(net, s=1, c=1.0, k=4)
        trials = 40_000
        out = run_monte_carlo(net, policy, model, cfg, trials, base_seed=11)
        exact = enumerate_single_cluster(
            model.pmf_values.tolist(), policy.probs.tolist(), 4, rate=1.0 / 4
        )
        assert out.hit_prob_estimate == pytest.approx(exact["hit"], abs=3 * out.hit_prob_se)
        assert out.outage_estimate == pytest.approx(exact["outage"], abs=3 * out.hit_prob_se)
        se_self = math.sqrt(exact["self_hit"] * (1 - exact["self_hit"]) / (4 * trials))
        assert out.self_hit_rate == pytest.approx(exact["self_hit"], abs=4 * se_self)
        assert out.per_user_throughput_mean == pytest.approx(
            exact["mean_throughput"], abs=3 * out.throughput_se
        )
        assert out.good_cluster_rate == pytest.approx(
            exact["good_cluster"], abs=4 * math.sqrt(exact["good_cluster"] / trials)
        )

    def test_product_form_hit_probability(self):
        """With iid caches, P(hit) = sum_f pmf_f*(1-(1-p_f)^(S*g_c))."""
        model = PopularityModel(gamma=1.16, q=5.0, m_total=200)
        policy = optimal_policy(model, 2, 16)
        net = build_grid(64, 16)
        cfg = make_config(net, s=2)
        out = run_monte_carlo(net, policy, model, cfg, trials=4000, base_seed=5)
        exact = iid_hit_probability(model.pmf_values, policy.probs, 2 * 16)
        assert out.hit_prob_estimate == pytest.approx(exact, abs=3 * out.hit_prob_se)
        exact_d2d = iid_hit_probability(model.pmf_values, policy.probs, 2 * 15)
        assert out.d2d_hit_rate == pytest.approx(exact_d2d, abs=3 * out.d2d_hit_se)


class TestRunMonteCarlo:
    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)

    def test_single_trial_equals_run_trial(self):
        net = build_grid(64, 16)
        policy = optimal_policy(self.MODEL, 1, 16)
        cfg = make_config(net)
        out = run_monte_carlo(net, policy, self.MODEL, cfg, trials=1, base_seed=17)
        t = run_trial(net, policy, self.MODEL, cfg, seed=17)
        assert out.hit_prob_estimate == t.hit_frac
        assert out.outage_estimate == t.outage_frac
        assert out.per_user_throughput_mean == cfg.cluster_rate * (t.cluster_links > 0).sum() / t.n_users
        assert out.min_avg_throughput == t.throughput.min()
        assert out.hit_prob_se == 0.0

    def test_every_cluster_good_gives_zero_throughput_se(self):
        """Every trial's mean throughput is C/K * good / n_users, so equal
        good-cluster counts leave no spread, not float noise."""
        net = build_grid(64, 16)
        policy = optimal_policy(self.MODEL, 8, 16)
        cfg = make_config(net, s=8)
        out = run_monte_carlo(net, policy, self.MODEL, cfg, 50, base_seed=0)
        assert out.good_cluster_rate == 1.0
        assert out.throughput_se == 0.0
        assert out.per_user_throughput_mean == cfg.cluster_rate * net.n_clusters / net.n_users

    def test_outage_is_exact_complement(self):
        net = build_grid(64, 16)
        policy = optimal_policy(self.MODEL, 1, 16)
        out = run_monte_carlo(net, policy, self.MODEL, make_config(net), 50, base_seed=2)
        assert out.hit_prob_estimate + out.outage_estimate == 1.0

    def test_standard_error_shrinks_with_trials(self):
        net = build_grid(64, 16)
        policy = optimal_policy(self.MODEL, 1, 16)
        cfg = make_config(net)
        se_small = run_monte_carlo(net, policy, self.MODEL, cfg, 400, base_seed=0).hit_prob_se
        se_large = run_monte_carlo(net, policy, self.MODEL, cfg, 800, base_seed=0).hit_prob_se
        assert 0.5 < se_large / se_small < 0.9  # about 1/sqrt(2)

    def test_per_user_throughput_symmetric(self):
        """Round-robin plus symmetric placement: per-user averages agree."""
        net = build_grid(16, 4)
        policy = optimal_policy(self.MODEL, 1, 4)
        cfg = make_config(net)
        trials = 4000
        sums = np.zeros(16)
        sq_sums = np.zeros(16)
        for i in range(trials):
            t = run_trial(net, policy, self.MODEL, cfg, seed=1000 + i)
            sums += t.throughput
            sq_sums += t.throughput**2
        means = sums / trials
        var = sq_sums / trials - means**2
        se = np.sqrt(var / trials)
        spread = means.max() - means.min()
        assert spread <= 4 * (se.max() + se.min())

    def test_bigger_cache_never_hurts(self):
        net = build_grid(100, 25)
        outs = []
        for s in (1, 2):
            policy = optimal_policy(self.MODEL, s, 25)
            cfg = make_config(net, s=s)
            outs.append(run_monte_carlo(net, policy, self.MODEL, cfg, 300, base_seed=77))
        assert outs[1].hit_prob_estimate >= (
            outs[0].hit_prob_estimate - 2 * (outs[0].hit_prob_se + outs[1].hit_prob_se)
        )

    def test_large_cache_offloads_most_traffic(self):
        """Region-2 library with caches near M/70 per device: the cluster
        finds almost every request locally."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=7345)
        net = build_grid(10_000, 100)
        policy = optimal_policy(model, 100, 100)
        cfg = make_config(net, s=100, c=1.0, k=4)
        out = run_monte_carlo(net, policy, model, cfg, trials=5, base_seed=9)
        assert 1.0 - out.outage_estimate >= 0.9

    def test_invalid_trials(self):
        net = build_grid(16, 4)
        with pytest.raises(ValueError, match="trials"):
            run_monte_carlo(
                net, optimal_policy(self.MODEL, 1, 4), self.MODEL, make_config(net), 0
            )


def count_kernel_calls(monkeypatch) -> list[list[int]]:
    """Wrap the kernel so that each call appends the trial count of every batch it yields."""
    calls = []
    kernel = simulator._run_trials

    def counted(*args):
        batches = []
        calls.append(batches)
        for t in kernel(*args):
            batches.append(t.hits.size)
            yield t

    monkeypatch.setattr(simulator, "_run_trials", counted)
    return calls


class TestBatching:
    """run_monte_carlo runs its trials in batches; the batch size never shows."""

    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)
    TRIALS = 10

    def case(self):
        net = build_grid(64, 16)
        cfg = make_config(net, s=2)
        return net, optimal_policy(self.MODEL, 2, 16), cfg

    @pytest.mark.parametrize("trials_per_batch", [1, 3])
    def test_batch_size_leaves_every_field_bit_identical(self, monkeypatch, trials_per_batch):
        net, policy, cfg = self.case()
        entries = net.n_users * cfg.s_cache
        assert simulator._BATCH_ENTRIES >= self.TRIALS * entries  # one batch by default
        default = run_monte_carlo(net, policy, self.MODEL, cfg, self.TRIALS, base_seed=40)
        monkeypatch.setattr(simulator, "_BATCH_ENTRIES", trials_per_batch * entries)
        batched = run_monte_carlo(net, policy, self.MODEL, cfg, self.TRIALS, base_seed=40)
        for field in dataclasses.fields(SimOutcome):
            assert getattr(batched, field.name) == getattr(default, field.name), field.name

    def test_one_kernel_call_serves_every_batch(self, monkeypatch):
        net, policy, cfg = self.case()
        monkeypatch.setattr(simulator, "_BATCH_ENTRIES", 3 * net.n_users * cfg.s_cache)
        calls = count_kernel_calls(monkeypatch)
        run_monte_carlo(net, policy, self.MODEL, cfg, self.TRIALS, base_seed=40)
        assert calls == [[3, 3, 3, 1]]

    def test_trial_hits_sum_to_the_estimate(self):
        net, policy, cfg = self.case()
        out = run_monte_carlo(net, policy, self.MODEL, cfg, self.TRIALS, base_seed=40)
        hits = sum(
            run_trial(net, policy, self.MODEL, cfg, seed=40 + i).hits for i in range(self.TRIALS)
        )
        assert hits / (self.TRIALS * net.n_users) == pytest.approx(
            out.hit_prob_estimate, rel=1e-12
        )


class TestStrips:
    """A trial over the budget runs in strips of whole cluster rows; the strips never show."""

    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)
    BUDGETS = [None, 1, 2]  # the default, then cluster rows per strip

    def case(self):
        net = build_grid(100, 4)  # 5 cluster rows, so strips of 2 rows leave a short last one
        cfg = make_config(net, s=3, c=2.0)
        return net, optimal_policy(self.MODEL, 3, 4), cfg

    def set_budget(self, monkeypatch, net, cfg, rows):
        entries = net.n_users * cfg.s_cache
        if rows is None:
            assert simulator._BATCH_ENTRIES >= entries  # the whole trial at once
        else:
            row_entries = entries * net.cluster_side // net.side
            monkeypatch.setattr(simulator, "_BATCH_ENTRIES", rows * row_entries)

    @pytest.mark.parametrize("rows", BUDGETS, ids=["default", "one-row", "two-rows"])
    def test_trial_matches_the_whole_trial_oracle(self, monkeypatch, rows):
        net, policy, cfg = self.case()
        self.set_budget(monkeypatch, net, cfg, rows)
        for seed in (0, 1, 7):
            trial = run_trial(net, policy, self.MODEL, cfg, seed=seed)
            expected = whole_trial(net, policy, self.MODEL, cfg, seed)
            for field in dataclasses.fields(TrialOutcome):
                got, want = getattr(trial, field.name), expected[field.name]
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
                else:
                    assert type(got) is type(want) and got == want, field.name

    @pytest.mark.parametrize("rows", BUDGETS[1:], ids=["one-row", "two-rows"])
    def test_monte_carlo_is_bit_identical_in_strips(self, monkeypatch, rows):
        net, policy, cfg = self.case()
        whole = run_monte_carlo(net, policy, self.MODEL, cfg, 6, base_seed=3)
        self.set_budget(monkeypatch, net, cfg, rows)
        stripped = run_monte_carlo(net, policy, self.MODEL, cfg, 6, base_seed=3)
        for field in dataclasses.fields(SimOutcome):
            assert getattr(stripped, field.name) == getattr(whole, field.name), field.name

    def test_one_kernel_call_serves_every_strip(self, monkeypatch):
        net, policy, cfg = self.case()
        self.set_budget(monkeypatch, net, cfg, 1)
        calls = count_kernel_calls(monkeypatch)
        run_monte_carlo(net, policy, self.MODEL, cfg, 6, base_seed=3)
        assert calls == [[1] * 6]

    def test_one_row_strips_bound_the_peak_memory(self, monkeypatch):
        net = build_grid(1024, 4)  # 16 cluster rows
        cfg = make_config(net, s=32)
        policy = optimal_policy(self.MODEL, 32, 4)
        entries = net.n_users * cfg.s_cache

        def peak(budget: int) -> int:
            monkeypatch.setattr(simulator, "_BATCH_ENTRIES", budget)
            run_trial(net, policy, self.MODEL, cfg, seed=5)  # builds the cached lookup tables
            tracemalloc.start()
            try:
                run_trial(net, policy, self.MODEL, cfg, seed=5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert 4 * peak(entries // 16) <= peak(entries)


class TestSimulateTradeoff:
    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)

    def base_config(self, n=1024, s=4) -> NetworkConfig:
        return NetworkConfig(n_users=n, s_cache=s, rate_c=1.0, reuse_k=4, cluster_size=4)

    def test_singleton(self):
        points = simulate_tradeoff(
            self.MODEL, self.base_config(), [16], trials=5, base_seed=0
        )
        assert len(points) == 1
        assert points[0].error is None
        assert points[0].outcome.trials == 5

    def test_per_point_errors_recorded(self):
        points = simulate_tradeoff(
            self.MODEL, self.base_config(), [10, 16], trials=3, base_seed=0
        )
        assert points[0].error is not None and "perfect square" in points[0].error
        assert points[1].error is None

    def test_throughput_and_outage_fall_with_cluster_size(self):
        """Bigger clusters trade throughput for outage, both falling.

        The mean per-user throughput is the monotone statistic; the
        min-over-users estimate equals it in truth (symmetric network) but
        collapses to 0 whenever one user goes unserved for a whole run.
        """
        points = simulate_tradeoff(
            self.MODEL, self.base_config(), [4, 16, 64, 256], trials=50, base_seed=31
        )
        outs = [p.outcome for p in points]
        assert all(o is not None for o in outs)
        tps = [o.per_user_throughput_mean for o in outs]
        pos = [o.outage_estimate for o in outs]
        assert all(a > b for a, b in zip(tps, tps[1:]))
        assert all(a > b for a, b in zip(pos, pos[1:]))
        assert all(o.min_avg_throughput <= m for o, m in zip(outs, tps))

    def test_thread_pool_matches_sequential(self):
        kwargs = dict(trials=8, base_seed=5)
        seq = simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], **kwargs)
        par = simulate_tradeoff(
            self.MODEL, self.base_config(), [16, 64], max_workers=4, **kwargs
        )
        for a, b in zip(seq, par):
            assert a.outcome == b.outcome

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_memory_error_stays_at_its_point(self, monkeypatch, max_workers):
        kwargs = dict(trials=4, base_seed=5, max_workers=max_workers)
        clean = simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], **kwargs)
        real = simulator.run_monte_carlo

        def out_of_memory_at_16(network, *args, **kw):
            if network.cluster_size == 16:
                raise MemoryError
            return real(network, *args, **kw)

        monkeypatch.setattr(simulator, "run_monte_carlo", out_of_memory_at_16)
        points = simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], **kwargs)
        assert points[0].outcome is None and points[0].error == "MemoryError"
        assert points[1].error is None
        assert points[1].outcome == clean[1].outcome

    @pytest.mark.parametrize("trials", [0, -1])
    def test_bad_trials_fail_the_whole_sweep(self, monkeypatch, trials):
        def no_point_may_run(*args, **kw):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(simulator, "build_grid", no_point_may_run)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], trials=trials)

    def test_negative_seed_fails_the_whole_sweep(self, monkeypatch):
        def no_point_may_run(*args, **kw):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(simulator, "build_grid", no_point_may_run)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], trials=3, base_seed=-5)
