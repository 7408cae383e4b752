"""Monte Carlo simulation of the clustered D2D network.

Users are numbered 0 .. N-1, and a cluster is a run of g_c consecutive
user ids: user u is in cluster u // g_c. No position or distance enters a
trial. Each trial draws every device's cache (S independent draws from the
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
from functools import cache, cached_property
from itertools import islice

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .network import NetworkConfig, _check_integer
from .policy import CachingPolicy, optimal_policy
from .popularity import _LOOKUP_BLOCK, PopularityModel, _ranks_from_cdf


@dataclass(frozen=True)
class GridNetwork:
    """n_users users in whole clusters of cluster_size consecutive user ids."""

    n_users: int
    cluster_size: int
    n_requested: int

    @property
    def n_clusters(self) -> int:
        return self.n_users // self.cluster_size

    @property
    def padding(self) -> int:
        """Users added beyond the requested count to fill whole clusters."""
        return self.n_users - self.n_requested

    @cached_property
    def members(self) -> np.ndarray:
        """User ids per cluster, shape (n_clusters, cluster_size)."""
        return np.arange(self.n_users).reshape(self.n_clusters, self.cluster_size)


def build_grid(n_users: int, cluster_size: int) -> GridNetwork:
    """At least n_users in whole clusters of cluster_size consecutive ids.

    The user count is n_users rounded up to a multiple of cluster_size; the
    users added to fill the last cluster are reported as padding.
    """
    n_users = _check_integer("n_users", n_users, 1)
    cluster_size = _check_integer("cluster_size", cluster_size, 1)
    return GridNetwork(n_users=-(-n_users // cluster_size) * cluster_size,
                       cluster_size=cluster_size, n_requested=n_users)


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """Exact per-trial counts and the per-user D2D throughput vector; cluster
    counts come from cluster_links, the potential D2D links per cluster.
    It compares and hashes by identity."""

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


# Cache entries (users x slots) the kernel plans its work by, about 60
# bytes each. A strip is the fewest whole clusters whose entries reach this
# budget, so it holds less than the budget plus one cluster's entries. A
# trial of at most one strip runs in a batch of as many trials as that
# strip holds, which share one lookup, copy count and link pass; a larger
# trial runs alone, strip by strip. Every batch or strip costs a few dozen
# numpy calls: at 2**12 entries they made a trial of 4*10**4 entries (S=4,
# N=10**4) about 1.3x slower in strips than whole, and small-trial batches
# about 1.3x slower than at 2**14.
_BATCH_ENTRIES = 1 << 14


# numpy's SeedSequence, the specification of the seeding below: the hash
# constants of its entropy mixing (A) and state output (B), its mix
# multipliers and its pool of 4 uint32 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# Seeds hashed at once. A block peaks at about 140 bytes a seed in hash
# temporaries and keeps 32 bytes a seed of PCG64 words while its
# generators are in use. One block costs about 60 numpy calls, as much as
# _SEED_BLOCK_MIN hashes by SeedSequence itself, so smaller runs use that.
_SEED_BLOCK = 1 << 12
_SEED_BLOCK_MIN = 8


@cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first count values of SeedSequence's running hash constant, as a
    column (shared: read it, never write it)."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of values in turn: row j takes the
    running constant at consts[j] and steps it to consts[j+1]."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of y into x, element by element."""
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _pcg64_seed_words(start: int, stop: int) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed of
    start .. stop-1, one row each, hashed together as uint32 arrays.

    The seeds must lie below 2**64. A seed becomes its two little-endian
    uint32 words, zero-padded to fill the pool, as SeedSequence's padding
    hash of 0 does.
    """
    seeds = np.arange(stop - start, dtype=np.uint64)
    seeds += np.uint64(start)
    entropy = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    entropy[0] = seeds
    entropy[1] = seeds >> 32

    # mix_entropy: hash the words into the pool, then mix every pool word
    # into every other.
    hash_a = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + 1)
    pool = _hashmix(entropy, hash_a[: _POOL + 1])
    at = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a[at : at + _POOL]))
        at += _POOL - 1

    # generate_state: 8 uint32 words from the pool, cycled, paired into 4
    # uint64 words low word first, whatever the host's byte order.
    state = _hashmix(np.concatenate((pool, pool)), _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1))
    words = state[1::2].astype(np.uint64) << 32
    words |= state[0::2]
    return np.ascontiguousarray(words.T)


class _PresetSeedSequence(ISeedSequence):
    """An ISeedSequence whose generate_state returns words that are already
    hashed. PCG64 reads them without a check, so they must be the 4
    C-contiguous uint64 words it asks for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _seeded_generators(seeds: range) -> Iterator[Generator]:
    """np.random.default_rng(seed) for each seed of a range of step 1, in
    order, bit for bit.

    A run of at least _SEED_BLOCK_MIN seeds, all below 2**64, is hashed in
    blocks of up to _SEED_BLOCK seeds, and each generator is
    Generator(PCG64) seeded in C from its row of words. The run makes one
    _PresetSeedSequence and sets its words before each PCG64, which reads
    them when it is made; every generator then holds that one object as its
    seed_seq, so they are for the kernel, not to be spawned from or handed
    out. A shorter run, or one with a seed from 2**64 up, seeds each PCG64
    through SeedSequence itself: no workload draws seeds that high, so the
    array hash takes only two words a seed.
    """
    if len(seeds) < _SEED_BLOCK_MIN or seeds.stop > 2**64:
        yield from (Generator(PCG64(seed)) for seed in seeds)
        return
    preset = _PresetSeedSequence(None)
    for start in range(seeds.start, seeds.stop, _SEED_BLOCK):
        for words in _pcg64_seed_words(start, min(seeds.stop, start + _SEED_BLOCK)):
            preset.words = words
            yield Generator(PCG64(preset))


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

    It plans its batches and strips from _BATCH_ENTRIES: a strip is the
    fewest whole clusters whose cache entries reach it, and a batch as many
    trials as a strip holds, at least one. Each seed's own
    generator draws the trial's caches (users x slots) and then its
    requests. _seeded_generators builds them for the whole run, hashing its
    seeds in blocks, in the state default_rng(seed) would give: numpy's
    SeedSequence is the specification, and tests/test_simulator.py::
    TestSeeding its guard, so the seed contract and every output byte are
    as with default_rng.

    Each trial has one row of draws: a strip's cache draws, then its N
    requests. User u's cache draws sit at stream offsets u*S .. u*S+S-1 and
    its request at N*S + u, since one double takes one 64-bit output. A
    trial of one strip, which every trial of a batch is, reads its caches
    and requests straight on from its stream, so one rng.random(out=row)
    fills the row. A larger trial draws its requests first: its stream
    advances N*S, draws the N requests and advances back to offset 0, and
    each strip, the users lo .. hi-1 of its clusters, then draws its
    caches straight on. One inverse-CDF lookup, one own-copy count and one
    copy count serve every trial of a strip, and one link pass every trial
    of a batch, in buffers made once per call. A user's own copies are one
    bincount of its matching slots.
    """
    s, n_users, n_clusters = config.s_cache, network.n_users, network.n_clusters
    g_c = network.cluster_size
    step = -(-_BATCH_ENTRIES // (g_c * s))  # clusters a strip
    n = min(max(1, step // n_clusters), len(seeds))  # trials a batch
    height = min(step, n_clusters)
    width = policy.m_star + 1
    group = np.arange(n)[:, None] * n_clusters + np.arange(n_users) // g_c

    first = height * g_c * s  # the first strip's cache draws; the requests follow
    draws = np.empty((n, first + n_users))
    caches = np.empty(n * first, dtype=np.intp)
    same = np.empty(caches.size, dtype=bool)
    requests = np.empty((n, n_users), dtype=np.intp)
    scratch = np.empty(min(draws.size, _LOOKUP_BLOCK))
    self_hit = np.empty((n, n_users), dtype=bool)
    other_has = np.empty((n, n_users), dtype=bool)
    whole = step >= n_clusters
    generators = _seeded_generators(seeds)
    while streams := list(islice(generators, n)):
        k = len(streams)
        rows = draws[:k]
        for row, rng in zip(rows, streams):
            if whole:
                rng.random(out=row)
            else:  # requests first; the period is 2**128, so the step back is a step on
                rng.bit_generator.advance(n_users * s)
                rng.random(out=row[first:])
                rng.bit_generator.advance(-n_users * (s + 1) % 2**128)
        _ranks_from_cdf(popularity._cdf_guide, rows[:, first:], requests[:k], scratch)
        # Copy-count keys, with clusters counted from the strip's first, stay below this.
        bins = ((k - 1) * n_clusters + height) * width
        for c0 in range(0, n_clusters, step):
            lo, hi = c0 * g_c, min(c0 + step, n_clusters) * g_c
            shape = (k, hi - lo, s)
            m = (hi - lo) * s
            if not whole:
                for row, rng in zip(rows, streams):
                    rng.random(out=row[:m])
            ranks = _ranks_from_cdf(policy._cdf_guide, rows[:, :m].reshape(shape),
                                    caches[: k * m].reshape(shape), scratch)
            wanted = requests[:k, lo:hi]
            match = np.equal(ranks, wanted[:, :, None], out=same[: k * m].reshape(shape))
            own = np.bincount(np.flatnonzero(match) // s, minlength=k * (hi - lo)).reshape(k, -1)

            # Count the copies of each file per cluster with one bincount over
            # (trial, cluster, file) keys, and keep only the requested files'
            # counts, so that the next strip or batch never holds this one's.
            # File 0 never enters a cache, so requests for files no device
            # caches look it up and find no copy.
            base = (group[:k, lo:hi] - c0) * width
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
    for name in ("n_users", "cluster_size"):
        if getattr(config, name) != getattr(network, name):
            raise ValueError(
                f"config {name} {getattr(config, name)} does not match "
                f"network {name} {getattr(network, name)}"
            )


def run_trial(
    network: GridNetwork,
    policy: CachingPolicy,
    popularity: PopularityModel,
    config: NetworkConfig,
    seed: int,
) -> TrialOutcome:
    """One network realization: caches, requests, links, and throughput.

    Deterministic given the seed: a generator in the state of
    default_rng(seed), built as _run_trials says, draws the S cache
    entries of each user in turn and then one request per user, so user u's
    cache draws sit at stream offsets u*S .. u*S+S-1 and its request at
    N*S + u. A trial runs in strips, each the fewest whole clusters whose
    cache entries reach _BATCH_ENTRIES, the last one perhaps fewer. A trial
    of more than one strip draws its requests first, by
    bit_generator.advance, and then each strip's caches in stream order.
    Its memory then grows with one strip's entries, less than the budget
    plus one cluster's, and the trial's N users, not with N*S. One kernel
    call runs every strip in buffers it makes once. The strips change no
    bit of the outcome.
    """
    seed = _check_integer("seed", seed, 0)
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
    min_avg_throughput is, over all n_users users, the smallest of each
    user's D2D throughput averaged over the trials. A minimum of noisy
    averages, it is biased low and depends on trials: for the README
    tradeoff model at g_c=100, S=4 and N=10^4 it read 0.000615 at 25
    trials and 0.00225 at 1,600, against a per_user_throughput_mean of
    0.0025.
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
    statistics divided by sqrt(trials). Trials of one strip run in batches
    of as many trials as a strip holds, and a larger trial alone, in strips
    as in run_trial, so memory is bounded by one batch or one strip, less
    than _BATCH_ENTRIES plus one cluster's cache entries, beside the
    per-user arrays. One kernel call serves the whole run and reuses its
    buffers across every batch and strip. Every statistic is reduced in the
    order of one trial at a time, so neither batches nor strips change a
    bit of the result: the per-user throughput total takes one sum a batch,
    which adds the batch's rows to it in seed order.
    """
    trials = _check_integer("trials", trials, 1)
    base_seed = _check_integer("base_seed", base_seed, 0)
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
        # A sum in seed order: the running total joins the first trial's row,
        # since adding it there commutes, and numpy adds the rows along axis 0
        # one after another. (Rows of one user would be summed pairwise, but a
        # network of one user has one-user clusters and no D2D throughput.)
        t.throughput[0] += tp_user_sum
        tp_user_sum = np.add.reduce(t.throughput, axis=0)

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
    """Simulate the tradeoff across cluster sizes, one point after another.

    For each cluster size: build the network, compute the optimal caching
    policy, run the Monte Carlo. Per-point failures, running out of memory
    included, are recorded on the point rather than raised; a trials or
    base_seed that is not an integer, trials < 1, base_seed < 0 and
    max_workers other than 1 raise for the whole sweep. The counts of
    config_base are checked when it is built (NetworkConfig).
    Point i takes the seeds from base_seed + i*trials onwards.
    """
    trials = _check_integer("trials", trials, 1)
    base_seed = _check_integer("base_seed", base_seed, 0)
    if max_workers != 1:
        raise ValueError(f"max_workers must be 1, got {max_workers}")
    points = []
    for i, g_c in enumerate(g_c_list):
        try:
            network = build_grid(config_base.n_users, g_c)
            cfg = replace(config_base, cluster_size=g_c, n_users=network.n_users)
            policy = optimal_policy(popularity, cfg.s_cache, g_c)
            outcome = run_monte_carlo(
                network, policy, popularity, cfg, trials, base_seed + i * trials
            )
            points.append(SweepPoint(g_c=g_c, outcome=outcome))
        except (ValueError, MemoryError) as exc:
            points.append(SweepPoint(g_c=g_c, outcome=None, error=str(exc) or type(exc).__name__))
    return points
