"""Monte Carlo simulation of the clustered grid D2D network.

Users sit on a square grid partitioned into square clusters of g_c users.
Each trial draws every device's cache (S independent draws from the
caching distribution, duplicates allowed) and one request per user. A
request is a hit when the file sits in the user's own cache (a self-hit,
which consumes no airtime) or in some other cluster member's cache. The
potential D2D links of a cluster share the cluster rate C/K equally in
expectation, one link active at a time.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .network import NetworkConfig
from .policy import CachingPolicy, optimal_policy
from .popularity import _LOOKUP_BLOCK, PopularityModel, _ranks_from_cdf

__all__ = [
    "GridNetwork",
    "TrialOutcome",
    "SimOutcome",
    "SweepPoint",
    "build_grid",
    "run_trial",
    "run_monte_carlo",
    "simulate_tradeoff",
]


@dataclass(frozen=True)
class GridNetwork:
    """Square user grid split into contiguous square clusters."""

    side: int
    cluster_side: int
    n_requested: int

    @property
    def n_users(self) -> int:
        return self.side * self.side

    @property
    def cluster_size(self) -> int:
        return self.cluster_side * self.cluster_side

    @property
    def n_clusters(self) -> int:
        return (self.side // self.cluster_side) ** 2

    @property
    def padding(self) -> int:
        """Users added beyond the requested count to fill whole clusters."""
        return self.n_users - self.n_requested

    @cached_property
    def members(self) -> np.ndarray:
        """User ids per cluster, shape (n_clusters, cluster_size)."""
        blocks = self.side // self.cluster_side
        ids = np.arange(self.n_users).reshape(self.side, self.side)
        grouped = ids.reshape(blocks, self.cluster_side, blocks, self.cluster_side)
        return grouped.transpose(0, 2, 1, 3).reshape(self.n_clusters, self.cluster_size)


def build_grid(n_users: int, cluster_size: int) -> GridNetwork:
    """Lay out at least n_users on a square grid of whole square clusters.

    cluster_size must be a perfect square. The grid side is the smallest
    multiple of the cluster side whose square covers n_users, so the
    actual user count may exceed the request; the difference is reported
    as padding.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
    cluster_side = math.isqrt(cluster_size)
    if cluster_side * cluster_side != cluster_size:
        raise ValueError(
            f"cluster_size must be a perfect square (grid clusters are square cells), "
            f"got {cluster_size}"
        )
    min_side = math.isqrt(n_users)
    if min_side * min_side < n_users:
        min_side += 1
    side = ((min_side + cluster_side - 1) // cluster_side) * cluster_side
    return GridNetwork(side=side, cluster_side=cluster_side, n_requested=n_users)


@dataclass(frozen=True)
class TrialOutcome:
    """Exact per-trial counts and the per-user D2D throughput vector; cluster
    counts come from cluster_links, the potential D2D links per cluster."""

    n_users: int
    hits: int
    self_hits: int
    d2d_available: int
    cluster_links: np.ndarray
    throughput: np.ndarray

    @property
    def outages(self) -> int:
        return self.n_users - self.hits

    @property
    def hit_frac(self) -> float:
        return self.hits / self.n_users

    @property
    def outage_frac(self) -> float:
        # Exact complement so the per-trial outage identity holds to the bit.
        return 1.0 - self.hit_frac


# Cache entries (users x slots) the kernel holds at once. Trials that fit
# run in batches of up to this many entries, about 60 bytes each, which
# share one lookup, copy count and link pass. A larger trial runs alone, in
# strips of as many whole cluster rows as fit, and at least one row. Every
# batch or strip costs a few dozen numpy calls: at 2**12 entries they made
# a trial of 4*10**4 entries (S=4, N=10**4) about 1.3x slower in strips
# than whole, and small-trial batches about 1.3x slower than at 2**14.
_BATCH_ENTRIES = 1 << 14


@dataclass(frozen=True)
class _Trials:
    """Per-trial counts of consecutive seeds, one row per trial."""

    hits: np.ndarray
    self_hits: np.ndarray
    d2d_available: np.ndarray
    cluster_links: np.ndarray  # (trials, clusters)
    throughput: np.ndarray     # (trials, users)


def _run_trials(
    network: GridNetwork,
    policy: CachingPolicy,
    popularity: PopularityModel,
    config: NetworkConfig,
    seeds: range,
) -> Iterator[_Trials]:
    """The Monte Carlo kernel: one network realization per seed, yielded in
    batches of consecutive seeds, in seed order.

    It plans its batches and strips from _BATCH_ENTRIES. Each seed's own
    default_rng draws the trial's caches (users x slots) and then its
    requests. A strip holds the contiguous user ids lo .. hi-1, so its cache
    draws start at offset lo*S of that stream; user u's request sits at
    N*S + u, and the first strip draws every request. bit_generator.advance
    moves between the two, since one double takes one 64-bit output; a
    trial of one strip draws straight through. One inverse-CDF lookup, one
    own-cache test and one copy count serve every trial of a strip, and one
    link pass every trial of a batch, in buffers made once per call.
    """
    s, n_users, n_clusters = config.s_cache, network.n_users, network.n_clusters
    blocks = network.side // network.cluster_side
    row_users = n_users // blocks
    step = max(1, _BATCH_ENTRIES // (row_users * s))  # cluster rows a strip
    n = min(max(1, step // blocks), len(seeds))  # trials a batch
    height = min(step, blocks)
    width = policy.m_star + 1
    cluster = np.empty(n_users, dtype=np.intp)
    cluster[network.members] = np.arange(n_clusters)[:, None]
    group = np.arange(n)[:, None] * n_clusters + cluster

    cache_draws = np.empty(n * height * row_users * s)
    caches = np.empty(cache_draws.size, dtype=np.intp)
    same = np.empty(cache_draws.size, dtype=bool)
    request_draws = np.empty((n, n_users))
    requests = np.empty((n, n_users), dtype=np.intp)
    scratch = np.empty(min(max(cache_draws.size, request_draws.size), _LOOKUP_BLOCK))
    self_hit = np.empty((n, n_users), dtype=bool)
    other_has = np.empty((n, n_users), dtype=bool)
    for first in range(0, len(seeds), n):
        streams = [np.random.default_rng(seed) for seed in seeds[first : first + n]]
        k = len(streams)
        # Copy-count keys, with clusters counted from the strip's first, stay below this.
        bins = ((k - 1) * n_clusters + height * blocks) * width
        at = 0  # where every stream stands, in 64-bit outputs
        for r0 in range(0, blocks, step):
            lo, hi = r0 * row_users, min(r0 + step, blocks) * row_users
            shape = (k, hi - lo, s)
            draws = cache_draws[: k * (hi - lo) * s].reshape(shape)
            to_caches = (lo * s - at) % 2**128  # the period is 2**128: a step back is a step on
            for row, rng in enumerate(streams):
                if to_caches:
                    rng.bit_generator.advance(to_caches)
                rng.random(out=draws[row])
            at = hi * s
            if r0 == 0:
                to_requests = n_users * s - at
                for row, rng in enumerate(streams):
                    if to_requests:
                        rng.bit_generator.advance(to_requests)
                    rng.random(out=request_draws[row])
                at = n_users * s + n_users
                _ranks_from_cdf(popularity._cdf_guide, request_draws[:k], requests[:k], scratch)
            ranks = _ranks_from_cdf(policy._cdf_guide, draws, caches[: draws.size].reshape(shape),
                                    scratch)
            wanted = requests[:k, lo:hi]
            own = np.equal(ranks, wanted[:, :, None],
                           out=same[: draws.size].reshape(shape)).sum(axis=2)

            # Count the copies of each file per cluster with one bincount over
            # (trial, cluster, file) keys, and keep only the requested files'
            # counts, so that the next strip or batch never holds this one's.
            # File 0 never enters a cache, so requests for files no device
            # caches look it up and find no copy.
            base = (group[:k, lo:hi] - r0 * blocks) * width
            ranks += base[:, :, None]
            in_cluster = np.bincount(ranks.reshape(-1), minlength=bins)[
                base + np.where(wanted < width, wanted, 0)]
            np.greater(own, 0, out=self_hit[:k, lo:hi])
            np.greater(in_cluster, own, out=other_has[:k, lo:hi])

        potential = other_has[:k] & ~self_hit[:k]
        links = np.bincount(group[:k][potential], minlength=k * n_clusters).reshape(k, n_clusters)
        per_link_rate = np.zeros(links.shape)
        np.divide(config.cluster_rate, links, out=per_link_rate, where=links > 0)
        yield _Trials(
            hits=(self_hit[:k] | other_has[:k]).sum(axis=1),
            self_hits=self_hit[:k].sum(axis=1),
            d2d_available=other_has[:k].sum(axis=1),
            cluster_links=links,
            throughput=potential * per_link_rate.reshape(-1)[group[:k]],
        )


def _check_config(network: GridNetwork, config: NetworkConfig) -> None:
    if config.cluster_size != network.cluster_size:
        raise ValueError(
            f"config cluster_size {config.cluster_size} does not match "
            f"network cluster_size {network.cluster_size}"
        )


def run_trial(
    network: GridNetwork,
    policy: CachingPolicy,
    popularity: PopularityModel,
    config: NetworkConfig,
    seed: int,
) -> TrialOutcome:
    """One network realization: caches, requests, links, and throughput.

    Deterministic given the seed: default_rng(seed) draws the S cache
    entries of each user in turn and then one request per user, so user u's
    cache draws sit at stream offsets u*S .. u*S+S-1 and its request at
    N*S + u. A trial of more than _BATCH_ENTRIES cache entries runs in
    strips of as many whole cluster rows as fit that budget, at least one,
    each reaching its stretch of the stream by bit_generator.advance. Its
    memory then grows with one strip's entries and the trial's N users,
    not with N*S. One kernel call runs every strip in buffers it makes once.
    The strips change no bit of the outcome.
    """
    _check_config(network, config)
    t = next(_run_trials(network, policy, popularity, config, range(seed, seed + 1)))
    return TrialOutcome(
        n_users=network.n_users,
        hits=int(t.hits[0]),
        self_hits=int(t.self_hits[0]),
        d2d_available=int(t.d2d_available[0]),
        cluster_links=t.cluster_links[0],
        throughput=t.throughput[0],
    )


@dataclass(frozen=True)
class SimOutcome:
    """Monte Carlo estimates over independent trials.

    outage_estimate is the exact complement of hit_prob_estimate; the per
    trial identity (hit fraction + outage fraction = 1) carries over to
    the averages, and hit_prob_se is the standard error of both.
    min_avg_throughput is the smallest per-user average D2D throughput,
    the finite-sample estimate of the minimum average throughput the
    scheduler guarantees.
    """

    hit_prob_estimate: float
    outage_estimate: float
    min_avg_throughput: float
    per_user_throughput_mean: float
    self_hit_rate: float
    d2d_hit_rate: float
    good_cluster_rate: float
    trials: int
    n_users: int
    hit_prob_se: float
    throughput_se: float
    d2d_hit_se: float


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def run_monte_carlo(
    network: GridNetwork,
    policy: CachingPolicy,
    popularity: PopularityModel,
    config: NetworkConfig,
    trials: int,
    base_seed: int = 0,
) -> SimOutcome:
    """Average run_trial over seeds base_seed .. base_seed+trials-1.

    Standard errors are sample standard deviations of the per-trial
    statistics divided by sqrt(trials). Trials run in batches of at most
    _BATCH_ENTRIES cache entries, and a trial larger than that alone, in
    strips of whole cluster rows as in run_trial, so memory is bounded by
    one batch or one strip beside the per-user arrays. One kernel call
    serves the whole run and reuses its buffers across every batch and
    strip. Every statistic is reduced in the order of one trial at a time,
    so neither batches nor strips change a bit of the result.
    """
    _check_trials(trials)
    _check_seed(base_seed)
    _check_config(network, config)
    n_users = network.n_users
    hit_fracs = np.empty(trials)
    self_fracs = np.empty(trials)
    d2d_fracs = np.empty(trials)
    good = np.empty(trials)
    tp_user_sum = np.zeros(n_users)
    hi = 0
    seeds = range(base_seed, base_seed + trials)
    for t in _run_trials(network, policy, popularity, config, seeds):
        lo, hi = hi, hi + t.hits.size
        hit_fracs[lo:hi] = t.hits / n_users
        self_fracs[lo:hi] = t.self_hits / n_users
        d2d_fracs[lo:hi] = t.d2d_available / n_users
        good[lo:hi] = (t.cluster_links > 0).sum(axis=1)
        for row in t.throughput:  # trial by trial, as a sum in seed order
            tp_user_sum += row

    hit = float(hit_fracs.mean())
    # Each cluster with links carries exactly C/K in total, so a trial's mean
    # per-user throughput is cluster_rate * good / n_users. Taken from the
    # integer counts, its standard error is exactly 0 when every trial has
    # the same number of good clusters.
    return SimOutcome(
        hit_prob_estimate=hit,
        outage_estimate=1.0 - hit,
        min_avg_throughput=float((tp_user_sum / trials).min()),
        per_user_throughput_mean=config.cluster_rate * float(good.mean()) / n_users,
        self_hit_rate=float(self_fracs.mean()),
        d2d_hit_rate=float(d2d_fracs.mean()),
        good_cluster_rate=float((good / network.n_clusters).mean()),
        trials=trials,
        n_users=n_users,
        hit_prob_se=_stderr(hit_fracs),
        throughput_se=config.cluster_rate * _stderr(good) / n_users,
        d2d_hit_se=_stderr(d2d_fracs),
    )


@dataclass(frozen=True)
class SweepPoint:
    g_c: int
    outcome: SimOutcome | None
    error: str | None = None


def simulate_tradeoff(
    popularity: PopularityModel,
    config_base: NetworkConfig,
    g_c_list: list[int],
    trials: int = 100,
    base_seed: int = 0,
    max_workers: int = 1,
) -> list[SweepPoint]:
    """Simulate the tradeoff across cluster sizes.

    For each cluster size: build the grid, compute the optimal caching
    policy, run the Monte Carlo. Per-point failures, running out of memory
    included, are recorded on the point rather than raised; trials < 1 and
    base_seed < 0 raise for the whole sweep. Each point consumes a disjoint,
    position-derived seed range, so results are identical whether points
    run sequentially or on a thread pool.
    """
    _check_trials(trials)
    _check_seed(base_seed)

    def one_point(item: tuple[int, int]) -> SweepPoint:
        i, g_c = item
        try:
            network = build_grid(config_base.n_users, g_c)
            cfg = replace(config_base, cluster_size=g_c, n_users=network.n_users)
            policy = optimal_policy(popularity, cfg.s_cache, g_c)
            outcome = run_monte_carlo(
                network, policy, popularity, cfg, trials, base_seed + i * trials
            )
            return SweepPoint(g_c=g_c, outcome=outcome)
        except (ValueError, MemoryError) as exc:
            return SweepPoint(g_c=g_c, outcome=None, error=str(exc) or type(exc).__name__)

    items = list(enumerate(g_c_list))
    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(one_point, items))
    return [one_point(item) for item in items]
