"""Tests for the clustered D2D Monte Carlo simulator."""
from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d2dlab import simulator
from d2dlab.analysis import tradeoff_curve
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
        assert (net.n_users, net.cluster_size) == (16, 4)
        assert net.n_clusters == 4
        assert net.padding == 0

    def test_hundred_by_hundred(self):
        net = build_grid(10_000, 100)
        assert net.n_users == 10_000
        assert net.n_clusters == 100

    def test_padding_reported(self):
        net = build_grid(10, 4)
        assert net.n_users == 12
        assert net.padding == 2

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
        assert net.members[0].tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("call", ["members", "run_trial", "run_monte_carlo"])
    def test_a_layout_of_partial_clusters_is_refused(self, call):
        """Ten users cannot fill clusters of four. The kernel reads clusters
        as views of the layout, so a hand-built network states its fields up
        front, not through an IndexError or numpy's reshape error."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=500)
        policy = optimal_policy(model, 1, 4)
        cfg = NetworkConfig(n_users=10, s_cache=1, rate_c=1.0, reuse_k=4, cluster_size=4)
        calls = {
            "members": lambda net: net.members,
            "run_trial": lambda net: run_trial(net, policy, model, cfg, seed=0),
            "run_monte_carlo": lambda net: run_monte_carlo(net, policy, model, cfg, 3),
        }
        with pytest.raises(ValueError, match="^n_users 10 is not a multiple of cluster_size 4$"):
            calls[call](simulator.GridNetwork(n_users=10, cluster_size=4, n_requested=10))

    @pytest.mark.parametrize("fields, message", [
        ((0, 4, 1), "n_users must be >= 1, got 0"),
        ((12.0, 4, 10), "n_users must be an integer, got 12.0"),
        ((12, 0, 10), "cluster_size must be >= 1, got 0"),
        ((12, 4, 0), "n_requested must be >= 1, got 0"),
        ((12, 4, 13), "n_requested 13 exceeds n_users 12"),
        ((12, 4, 10.0), "n_requested must be an integer, got 10.0"),
    ])
    def test_layout_fields_are_checked(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulator.GridNetwork(*fields)


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

    def test_config_user_count_mismatch_rejected(self):
        """The kernel reads the network's user count, so a config that
        counts the requested users, not the padded ones, is refused."""
        model = PopularityModel(gamma=1.0, q=0.0, m_total=3)
        policy = hand_policy([1.0, 0.0, 0.0])
        net = build_grid(10, 4)  # 12 users
        cfg = NetworkConfig(n_users=10, s_cache=1, rate_c=1.0, reuse_k=4, cluster_size=4)
        message = "^config n_users 10 does not match network n_users 12$"
        with pytest.raises(ValueError, match=message):
            run_trial(net, policy, model, cfg, seed=0)
        with pytest.raises(ValueError, match=message):
            run_monte_carlo(net, policy, model, cfg, 3)


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

    @pytest.mark.parametrize("g_c", [2, 3, 5, 12])
    def test_product_form_hit_at_cluster_sizes_that_are_not_squares(self, g_c):
        """At S=4 the Monte Carlo hit lies within 4 SE of the exact
        S*g_c-slot i.i.d. hit, with clusters of any size."""
        model = PopularityModel(gamma=1.16, q=22.0, m_total=500)
        policy = optimal_policy(model, 4, g_c)
        net = build_grid(60, g_c)
        out = run_monte_carlo(net, policy, model, make_config(net, s=4), trials=2000, base_seed=39)
        exact = iid_hit_probability(model.pmf_values, policy.probs, 4 * g_c)
        assert abs(out.hit_prob_estimate - exact) <= 4 * out.hit_prob_se


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
    """A trial over the budget runs in strips of whole clusters; the strips never show."""

    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)
    BUDGETS = [None, 1, 2]  # the default, then clusters per strip

    def case(self):
        net = build_grid(100, 4)  # 25 clusters, so strips of 2 clusters leave a short last one
        cfg = make_config(net, s=3, c=2.0)
        return net, optimal_policy(self.MODEL, 3, 4), cfg

    def set_budget(self, monkeypatch, net, cfg, clusters):
        if clusters is None:
            assert simulator._BATCH_ENTRIES >= net.n_users * cfg.s_cache  # the whole trial at once
        else:
            cluster_entries = net.cluster_size * cfg.s_cache
            monkeypatch.setattr(simulator, "_BATCH_ENTRIES", clusters * cluster_entries)

    @pytest.mark.parametrize("clusters", BUDGETS, ids=["default", "one-cluster", "two-clusters"])
    def test_trial_matches_the_whole_trial_oracle(self, monkeypatch, clusters):
        net, policy, cfg = self.case()
        self.set_budget(monkeypatch, net, cfg, clusters)
        for seed in (0, 1, 7, 2**64 - 1):
            trial = run_trial(net, policy, self.MODEL, cfg, seed=seed)
            expected = whole_trial(net, policy, self.MODEL, cfg, seed)
            for field in dataclasses.fields(TrialOutcome):
                got, want = getattr(trial, field.name), expected[field.name]
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
                else:
                    assert type(got) is type(want) and got == want, field.name

    @pytest.mark.parametrize("clusters", BUDGETS[1:], ids=["one-cluster", "two-clusters"])
    def test_monte_carlo_is_bit_identical_in_strips(self, monkeypatch, clusters):
        net, policy, cfg = self.case()
        whole = run_monte_carlo(net, policy, self.MODEL, cfg, 6, base_seed=3)
        self.set_budget(monkeypatch, net, cfg, clusters)
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
        """Strips of one cluster (128 entries) keep a trial of 256 clusters
        at a quarter of its whole-trial peak or less."""
        net = build_grid(1024, 4)  # 256 clusters
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

        assert 4 * peak(net.cluster_size * cfg.s_cache) <= peak(entries)


def generator_states(seeds) -> list[dict]:
    """The PCG64 state of the kernel's generator for each seed of a range."""
    return [rng.bit_generator.state for rng in simulator._seeded_generators(seeds)]


def default_rng_states(seeds) -> list[dict]:
    return [np.random.default_rng(seed).bit_generator.state for seed in seeds]


EDGE_SEEDS = [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**160 + 5]


class TestSeeding:
    """The kernel's generators are default_rng(seed)'s, bit for bit.

    numpy's SeedSequence is the specification of the hash that the kernel
    runs over arrays of seeds; default_rng, which seeds PCG64 through it,
    stands for it here. Setting _SEED_BLOCK_MIN to 1 sends every run below
    2^64, one seed long included, through the array hash.
    """

    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)

    @pytest.fixture(scope="class")
    def first_states(self):
        return default_rng_states(range(10_000))

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_first_ten_thousand_seeds_in_blocks(self, monkeypatch, first_states, block):
        monkeypatch.setattr(simulator, "_SEED_BLOCK_MIN", 1)
        monkeypatch.setattr(simulator, "_SEED_BLOCK", block)
        assert generator_states(range(10_000)) == first_states

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("hash_min", [1, None], ids=["array-hash", "default"])
    def test_seeds_at_word_boundaries(self, monkeypatch, seed, hash_min):
        if hash_min is not None:
            monkeypatch.setattr(simulator, "_SEED_BLOCK_MIN", hash_min)
        for seeds in (range(seed, seed + 1), range(seed - 9, seed + 9)):
            assert generator_states(seeds) == default_rng_states(seeds), seeds

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 2**200 - 1),
                     st.builds(lambda bits, step: max(0, (1 << bits) + step),
                               st.integers(1, 199), st.integers(-20, 20))),
           st.integers(1, 40), st.integers(1, 16))
    def test_any_seed_below_2_to_the_200(self, start, count, block):
        seeds = range(start, start + count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_SEED_BLOCK_MIN", 1)
            patch.setattr(simulator, "_SEED_BLOCK", block)
            assert generator_states(seeds) == default_rng_states(seeds)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 2**64 + 40), st.integers(2**64 - 40, 2**64 + 40)),
           st.integers(1, 40))
    def test_only_runs_below_2_to_the_64_take_the_array_hash(self, start, count):
        self.check_array_hash(range(start, start + count))

    @pytest.mark.parametrize("seeds", [range(2**64 - 9, 2**64), range(2**64 - 1, 2**64 + 1)],
                             ids=["below", "across"])
    def test_array_hash_stops_at_2_to_the_64(self, seeds):
        self.check_array_hash(seeds)

    @staticmethod
    def check_array_hash(seeds):
        calls = []
        hash_words = simulator._pcg64_seed_words

        def counted(start, stop):
            calls.append((start, stop))
            return hash_words(start, stop)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_SEED_BLOCK_MIN", 1)
            patch.setattr(simulator, "_pcg64_seed_words", counted)
            assert generator_states(seeds) == default_rng_states(seeds)
        assert bool(calls) == (seeds.stop <= 2**64), (seeds, calls)

    def test_kernel_rows_across_2_to_the_64_match_the_whole_trial_oracle(self):
        net = build_grid(16, 4)
        cfg = make_config(net, s=3)
        policy = optimal_policy(self.MODEL, 3, 4)
        seeds = range(2**64 - 6, 2**64 + 6)
        rows = 0
        for t in simulator._run_trials(net, policy, self.MODEL, cfg, seeds):
            for i in range(t.hits.size):
                want = whole_trial(net, policy, self.MODEL, cfg, seeds[rows])
                assert int(t.hits[i]) == want["hits"]
                assert int(t.self_hits[i]) == want["self_hits"]
                assert int(t.d2d_available[i]) == want["d2d_available"]
                assert t.cluster_links[i].tobytes() == want["cluster_links"].tobytes()
                assert t.throughput[i].tobytes() == want["throughput"].tobytes()
                rows += 1
        assert rows == len(seeds)

    def test_no_trial_seeds_its_own_default_rng(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial called np.random.default_rng")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        net = build_grid(64, 16)
        policy = optimal_policy(self.MODEL, 2, 16)
        out = run_monte_carlo(net, policy, self.MODEL, make_config(net, s=2), 2_000, base_seed=9)
        assert out.trials == 2_000
        config = NetworkConfig(n_users=64, s_cache=2, rate_c=1.0, reuse_k=4, cluster_size=4)
        points = simulate_tradeoff(self.MODEL, config, [4, 16], trials=50, base_seed=3)
        assert [p.error for p in points] == [None, None]


class CountedGenerator:
    """A generator that counts the random and advance calls made on it; the
    kernel reaches advance through bit_generator, which is the proxy too."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.bit_generator = self
        self.calls = {"random": 0, "advance": 0}

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self.rng.random(*args, **kwargs)

    def advance(self, delta: int) -> None:
        self.calls["advance"] += 1
        self.rng.bit_generator.advance(delta)


def count_draw_calls(monkeypatch) -> list[dict]:
    """Hand the kernel counted generators; returns them, one a trial, in seed order."""
    counted = []
    seeded = simulator._seeded_generators

    def proxies(seeds):
        for rng in seeded(seeds):
            counted.append(CountedGenerator(rng))
            yield counted[-1]

    monkeypatch.setattr(simulator, "_seeded_generators", proxies)
    return counted


def kernel_rows(net, policy, model, cfg, seeds) -> list[dict]:
    """The kernel's trials, one dict of TrialOutcome fields each."""
    rows = []
    for t in simulator._run_trials(net, policy, model, cfg, seeds):
        for i in range(t.hits.size):
            rows.append({
                "n_users": net.n_users,
                "hits": int(t.hits[i]),
                "self_hits": int(t.self_hits[i]),
                "d2d_available": int(t.d2d_available[i]),
                "cluster_links": t.cluster_links[i],
                "throughput": t.throughput[i],
            })
    return rows


class TestKernel:
    """The kernel's rows are the whole-trial oracle's, drawn with few calls."""

    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 5), g_c=st.integers(2, 30), n_users=st.integers(1, 100),
           start=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 12, 2**64 + 4)),
           trials=st.integers(1, 12), layout=st.sampled_from(["batches", "one-strip", "strips"]),
           parts=st.integers(1, 50), trim=st.integers(0, 149))
    def test_rows_match_the_whole_trial_oracle(self, s, g_c, n_users, start, trials, layout,
                                               parts, trim):
        """Batches of 1..5 trials, one strip, or strips of 1..n_clusters-1
        clusters; a budget trimmed below a whole number of clusters plans
        the same strips as the whole number, since a strip is the fewest
        clusters that reach it."""
        assume(s * (g_c - 1) >= 2)  # optimal_policy needs two slots besides a user's own
        net = build_grid(n_users, g_c)
        cfg = make_config(net, s=s)
        policy = optimal_policy(self.MODEL, s, g_c)
        cluster_entries = g_c * s
        clusters = {
            "batches": (1 + parts % 5) * net.n_clusters,
            "one-strip": net.n_clusters,
            "strips": min(parts, max(1, net.n_clusters - 1)),
        }[layout]
        budget = clusters * cluster_entries - trim % cluster_entries
        seeds = range(start, start + trials)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_BATCH_ENTRIES", budget)
            rows = kernel_rows(net, policy, self.MODEL, cfg, seeds)
        assert len(rows) == trials
        for seed, got in zip(seeds, rows):
            want = whole_trial(net, policy, self.MODEL, cfg, seed)
            for field in dataclasses.fields(TrialOutcome):
                if isinstance(want[field.name], np.ndarray):
                    assert got[field.name].dtype == want[field.name].dtype, field.name
                    assert got[field.name].tobytes() == want[field.name].tobytes(), field.name
                else:
                    assert got[field.name] == want[field.name], field.name

    def test_a_trial_of_one_strip_draws_once(self, monkeypatch):
        net = build_grid(64, 16)
        cfg = make_config(net, s=2)
        policy = optimal_policy(self.MODEL, 2, 16)
        counted = count_draw_calls(monkeypatch)
        run_monte_carlo(net, policy, self.MODEL, cfg, 20, base_seed=8)  # one batch
        run_trial(net, policy, self.MODEL, cfg, seed=8)
        assert [proxy.calls for proxy in counted] == [{"random": 1, "advance": 0}] * 21

    # A strip is the fewest clusters of 12 entries that reach the budget, so
    # step = ceil(budget / 12) clusters and a trial of 25 takes ceil(25 / step) strips.
    @pytest.mark.parametrize("budget, strips", [(12, 25), (13, 13), (24, 13), (100, 3), (288, 2)],
                             ids=["step-1", "step-2", "step-2-exact", "step-9", "step-24"])
    def test_a_trial_in_strips_draws_once_a_strip_and_once_for_its_requests(
            self, monkeypatch, budget, strips):
        net = build_grid(100, 4)  # 25 clusters of 4 users, 12 cache entries each
        cfg = make_config(net, s=3)
        policy = optimal_policy(self.MODEL, 3, 4)
        monkeypatch.setattr(simulator, "_BATCH_ENTRIES", budget)
        counted = count_draw_calls(monkeypatch)
        run_monte_carlo(net, policy, self.MODEL, cfg, 3, base_seed=8)
        # Forward to the requests, then back to the first strip.
        assert [proxy.calls for proxy in counted] == [{"random": strips + 1, "advance": 2}] * 3

    def test_throughput_total_is_a_sum_in_seed_order(self, monkeypatch):
        net = build_grid(16, 16)
        cfg = make_config(net, s=1, k=3)  # a link rate of 1/3 rounds, so sums in other orders show
        policy = optimal_policy(self.MODEL, 1, 16)
        monkeypatch.setattr(simulator, "_BATCH_ENTRIES", 64 * net.n_users)
        calls = count_kernel_calls(monkeypatch)
        out = run_monte_carlo(net, policy, self.MODEL, cfg, 200, base_seed=21)
        assert calls == [[64, 64, 64, 8]]
        total = sum(run_trial(net, policy, self.MODEL, cfg, seed=21 + i).throughput
                    for i in range(200))
        assert out.min_avg_throughput == float((total / 200).min())


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
            self.MODEL, self.base_config(), [1, 16], trials=3, base_seed=0
        )
        assert points[0].error is not None and "cluster too small" in points[0].error
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

    def test_one_worker_is_the_default(self):
        kwargs = dict(trials=8, base_seed=5)
        default = simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], **kwargs)
        one = simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], max_workers=1, **kwargs)
        assert [p.outcome for p in one] == [p.outcome for p in default]

    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_other_worker_counts_fail_the_whole_sweep(self, monkeypatch, max_workers):
        def no_point_may_run(*args, **kw):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(simulator, "build_grid", no_point_may_run)
        with pytest.raises(ValueError, match=f"max_workers must be 1, got {max_workers}"):
            simulate_tradeoff(self.MODEL, self.base_config(), [16, 64], trials=3,
                              max_workers=max_workers)

    def test_memory_error_stays_at_its_point(self, monkeypatch):
        kwargs = dict(trials=4, base_seed=5)
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

    @pytest.mark.parametrize("g_c, message", [
        (4.0, "cluster_size must be an integer, got 4.0"),
        (49.0, "cluster_size must be an integer, got 49.0"),
        ("4", "cluster_size must be an integer, got '4'"),
    ], ids=["4.0", "49.0", "str"])
    def test_both_sweeps_name_a_non_integer_cluster_size_alike(self, g_c, message):
        """49.0 exceeds the 36 users; both sweeps name it as they name 4.0, by
        NetworkConfig's integer check, which no user-count rule precedes."""
        base = self.base_config(n=36, s=2)
        assert tradeoff_curve(self.MODEL, base, [g_c])[0].error == message
        assert simulate_tradeoff(self.MODEL, base, [g_c], trials=3)[0].error == message

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


class TestIntegerArguments:
    """A count or seed that is not an integer fails up front, naming its argument."""

    MODEL = PopularityModel(gamma=1.16, q=22.0, m_total=500)

    def case(self):
        net = build_grid(16, 4)
        return net, optimal_policy(self.MODEL, 1, 4), make_config(net)

    @pytest.mark.parametrize("trials, base_seed, message", [
        (2.5, 0, "trials must be an integer, got 2.5"),
        ("3", 0, "trials must be an integer, got '3'"),
        (3, 1.5, "base_seed must be an integer, got 1.5"),
        (3, -1, "base_seed must be >= 0, got -1"),
        (True, 0, "trials must be an integer, got True"),
    ])
    def test_run_monte_carlo(self, trials, base_seed, message):
        net, policy, cfg = self.case()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_monte_carlo(net, policy, self.MODEL, cfg, trials, base_seed)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
        (False, "seed must be an integer, got False"),
    ])
    def test_run_trial(self, seed, message):
        net, policy, cfg = self.case()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_trial(net, policy, self.MODEL, cfg, seed)

    @pytest.mark.parametrize("n_users, cluster_size, message", [
        (16.0, 4, "n_users must be an integer, got 16.0"),
        (16, 4.0, "cluster_size must be an integer, got 4.0"),
        (True, True, "n_users must be an integer, got True"),
    ])
    def test_build_grid(self, n_users, cluster_size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_grid(n_users, cluster_size)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trials=2.5), "trials must be an integer, got 2.5"),
        (dict(trials=3, base_seed=1.5), "base_seed must be an integer, got 1.5"),
    ])
    def test_simulate_tradeoff_fails_the_whole_sweep(self, monkeypatch, kwargs, message):
        def no_point_may_run(*args, **kw):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(simulator, "build_grid", no_point_may_run)
        config = NetworkConfig(n_users=64, s_cache=1, rate_c=1.0, reuse_k=4, cluster_size=4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_tradeoff(self.MODEL, config, [4, 16], **kwargs)

    def test_a_non_integer_cluster_size_fails_at_its_point(self):
        config = NetworkConfig(n_users=64, s_cache=1, rate_c=1.0, reuse_k=4, cluster_size=4)
        points = simulate_tradeoff(self.MODEL, config, [16.0, 16], trials=2)
        assert points[0].error == "cluster_size must be an integer, got 16.0"
        assert points[1].error is None

    def test_numpy_integers_are_integers(self):
        net, policy, cfg = self.case()
        assert build_grid(np.int64(16), np.int32(4)) == build_grid(16, 4)
        out = run_monte_carlo(net, policy, self.MODEL, cfg, np.int64(9), np.uint64(4))
        assert out == run_monte_carlo(net, policy, self.MODEL, cfg, 9, 4)
