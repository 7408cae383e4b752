"""Independent oracles the tests check library results against.

Everything here is deliberately written from first principles (plain
loops, exhaustive enumeration, damped fixed-point iteration) so it shares
no code path with the library implementations it validates; the one
library name used is PopularityModel, for its parameters, normalizer and
pmf_values. kkt_mstar scans log_space_z, the weights with the law
evaluated inline, which tests pin bit for bit to optimal_policy's z.
full_scan_policy is the water-filling construction as it stood before
optimal_policy searched a growing prefix: one pass over the whole
library, its own log-space law, and the last feasible index.
optimal_policy must match it bit for bit.
out_of_place_law is the MZipf law as PopularityModel evaluated it before
it worked in one buffer: one expression, a temporary per operation.
reference_counts is log ingest as it stood before read_counts: a row
loop, a set of (user, content) pairs and a Counter. whole_trial is one
Monte Carlo trial drawn whole from one generator and counted cluster by
cluster, with no strips, batches or copy-count keys. reference_region_log
is the synthetic log as csv.writer writes it, row by row, from one draw
of every double it needs. kl_to_model is the KL distance from counts
to a model pmf, which fit_mzipf computes inline.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np

from d2dlab.popularity import PopularityModel


def iid_hit_probability(request_pmf, cache_probs, slots: int) -> float:
    """P(request found among `slots` iid cache draws), exact.

    Each of the `slots` cache entries is an independent draw from
    cache_probs, so the request at rank f is missed with probability
    (1 - cache_probs[f])^slots.
    """
    total = 0.0
    for pr, pc in zip(request_pmf, cache_probs):
        total += pr * (1.0 - (1.0 - pc) ** slots)
    return total


def searchsorted_ranks(cdf, draws, max_rank: int) -> np.ndarray:
    """Inverse-CDF ranks by plain binary search: min(#{cdf <= u}, max_rank-1) + 1."""
    return np.minimum(np.searchsorted(cdf, draws, side="right"), max_rank - 1) + 1


def whole_trial(network, policy, popularity, config, seed: int) -> dict:
    """One trial drawn whole from one generator, counted cluster by cluster.

    default_rng(seed) draws every cache (users x slots) and then every
    request; searchsorted_ranks maps the draws to ranks. Each cluster's
    members are then compared with one another directly: a user self-hits
    when the request sits in its own cache and has D2D access when it sits
    in another member's; the users with access but no self-hit share the
    cluster rate equally. Returns the TrialOutcome fields by name.
    """
    rng = np.random.default_rng(seed)
    caches = searchsorted_ranks(
        np.cumsum(policy.probs), rng.random((network.n_users, config.s_cache)), policy.m_star
    )
    requests = searchsorted_ranks(
        popularity.cdf_values, rng.random(network.n_users), popularity.m_total
    )
    self_hit = np.zeros(network.n_users, dtype=bool)
    other_has = np.zeros(network.n_users, dtype=bool)
    links = np.zeros(network.n_clusters, dtype=np.int64)
    throughput = np.zeros(network.n_users)
    for c, members in enumerate(network.members):
        for u in members:
            self_hit[u] = bool((caches[u] == requests[u]).any())
            others = members[members != u]
            other_has[u] = bool((caches[others] == requests[u]).any())
        linked = members[other_has[members] & ~self_hit[members]]
        links[c] = linked.size
        if linked.size:
            throughput[linked] = config.cluster_rate / linked.size
    return {
        "n_users": network.n_users,
        "hits": int((self_hit | other_has).sum()),
        "self_hits": int(self_hit.sum()),
        "d2d_available": int(other_has.sum()),
        "cluster_links": links,
        "throughput": throughput,
    }


def enumerate_single_cluster(request_pmf, cache_probs, g_c: int, rate: float = 1.0) -> dict:
    """Exhaustive enumeration of one cluster with one cache slot per user.

    Walks every joint (cache assignment, request assignment) outcome and
    accumulates exact expectations: per-user hit/outage/self-hit/D2D
    availability, potential links, good-cluster probability, and mean
    per-user D2D throughput at the given active-cluster rate.
    """
    m = len(request_pmf)
    files = range(m)
    acc = {
        "hit": 0.0,
        "outage": 0.0,
        "self_hit": 0.0,
        "d2d_available": 0.0,
        "good_cluster": 0.0,
        "mean_throughput": 0.0,
        "mean_links": 0.0,
    }
    for caches in itertools.product(files, repeat=g_c):
        p_cache = 1.0
        for c in caches:
            p_cache *= cache_probs[c]
        if p_cache == 0.0:
            continue
        for requests in itertools.product(files, repeat=g_c):
            p_req = 1.0
            for r in requests:
                p_req *= request_pmf[r]
            w = p_cache * p_req
            if w == 0.0:
                continue
            self_hits = [requests[u] == caches[u] for u in range(g_c)]
            other_has = [
                any(caches[v] == requests[u] for v in range(g_c) if v != u)
                for u in range(g_c)
            ]
            hits = [s or o for s, o in zip(self_hits, other_has)]
            potential = [o and not s for s, o in zip(self_hits, other_has)]
            links = sum(potential)
            acc["hit"] += w * sum(hits) / g_c
            acc["outage"] += w * (g_c - sum(hits)) / g_c
            acc["self_hit"] += w * sum(self_hits) / g_c
            acc["d2d_available"] += w * sum(other_has) / g_c
            acc["good_cluster"] += w * (1.0 if links > 0 else 0.0)
            acc["mean_links"] += w * links
            per_user_tp = [rate / links if potential[u] else 0.0 for u in range(g_c)]
            acc["mean_throughput"] += w * sum(per_user_tp) / g_c
    return acc


def c1_fixed_point_iteration(c2: float, max_iters: int = 10**6) -> float:
    """Solve c1 = 1 + c2*log(1 + c1/c2) by direct fixed-point iteration.

    The map is increasing and a contraction (its derivative c2/(c2+x) lies
    in (0, 1) for x > 0), so from the start 1 <= c1 the iterates rise
    monotonically until they stop changing, at the root to within
    rounding. The contraction weakens as c2 grows: about 2,000 steps at
    c2 = 1e4 and 17,000 at c2 = 1e6.
    Raises RuntimeError rather than return an iterate that is still moving.
    """
    if c2 == 0.0:
        return 1.0
    x = 1.0
    for _ in range(max_iters):
        nxt = 1.0 + c2 * math.log(1.0 + x / c2)
        if nxt == x:
            return x
        x = nxt
    raise RuntimeError(
        f"fixed-point iteration for c2={c2} still moving after {max_iters} steps"
    )


def mzipf_pmf_direct(gamma: float, q: float, m_total: int) -> np.ndarray:
    """Rank probabilities by direct summation with plain ** operators."""
    weights = [(f + q) ** (-gamma) for f in range(1, m_total + 1)]
    z = sum(weights)
    return np.array([w / z for w in weights])


def out_of_place_law(gamma: float, q: float, m_total: int):
    """(pmf, normalizer, log_pmf) of the MZipf law, each by one numpy expression."""
    ranks = np.arange(1, m_total + 1, dtype=np.float64)
    weights = np.power(ranks + q, -gamma)
    normalizer = float(weights.sum())
    log_pmf = -gamma * np.log(ranks + q) - math.log(normalizer)
    return weights / normalizer, normalizer, log_pmf


def kl_to_model(counts, pmf) -> float:
    """KL(data || model) = sum_m p_m^data * log(p_m^data / p_m^model), natural log.

    The sum runs over ranks with nonzero count; it is +inf if the model
    gives such a rank probability 0, and a count past the model's library
    is an error.
    """
    counts = np.asarray(counts, dtype=np.float64)
    support = np.nonzero(counts)[0]
    if support[-1] >= len(pmf):
        raise ValueError(f"support reaches rank {support[-1] + 1}, past a library of {len(pmf)}")
    p_data = counts[support] / counts.sum()
    p_model = np.asarray(pmf)[support]
    if np.any(p_model <= 0.0):
        return math.inf
    return float(np.sum(p_data * np.log(p_data / p_model)))


def profile_kl(p_data: np.ndarray, q: float) -> float:
    """min over gamma in [0.5, 3] of KL(p_data || MZipf(gamma, q)).

    With L = log(f+q), dKL/dgamma = E_data[L] - E_model[L] rises with gamma,
    so plain bisection on its sign (60 halvings) finds the minimizer.
    """
    ranks = np.arange(1, p_data.size + 1, dtype=np.float64)
    log_f = np.log(ranks + q)
    e_data = float(p_data @ log_f)

    def model(gamma):
        w = (ranks + q) ** -gamma
        return w / w.sum()

    lo, hi = 0.5, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if e_data > float(model(mid) @ log_f):
            hi = mid
        else:
            lo = mid
    return float(np.sum(p_data * np.log(p_data / model(0.5 * (lo + hi)))))


def regime1_outage_direct(gamma: float, q: float, s_cache: int, g_c: int) -> float:
    """Regime-1 outage expression, re-derived with plain ** arithmetic."""
    n = s_cache * (g_c - 1) - 1
    c1 = c1_fixed_point_iteration(q * gamma / n)
    c6 = q / g_c
    return c6 ** (gamma - 1.0) * (s_cache * c1 + c6) / (s_cache * c1 / gamma + c6) ** gamma


def eq5_direct(gamma: float, q: float, m_total: int, s_cache: int, g_c: int) -> float:
    """Regime-1 hit probability, re-derived with plain ** arithmetic."""
    n = s_cache * (g_c - 1) - 1
    c1 = c1_fixed_point_iteration(q * gamma / n)
    a = c1 * s_cache * g_c / gamma
    e = 1.0 - gamma
    num = (a + q) ** e - e * (a + q) ** (-gamma) * a - (q + 1.0) ** e
    den = (m_total + q) ** e - (q + 1.0) ** e
    return num / den


def eq6_direct(gamma: float, q: float, m_total: int, s_cache: int, g_c: int) -> float:
    """Regime-2 hit probability lower bound, plain ** arithmetic."""
    n = s_cache * (g_c - 1) - 1
    c1 = c1_fixed_point_iteration(q * gamma / n)
    rho = c1 * s_cache * g_c / m_total
    d = q / m_total
    beta = gamma / n
    e = 1.0 - gamma
    den = (1.0 + d) ** e - d ** e if d > 0 else 1.0
    bracket = (1.0 + d) ** (beta + 1.0) - (d ** (beta + 1.0) if d > 0 else 0.0)
    return 1.0 - (e * math.exp(-(rho / c1 - gamma)) / den) * bracket ** (-n)


def simplex_grid(m: int, step: float):
    """All probability vectors of length m on a grid of the given step."""
    k = round(1.0 / step)
    for combo in itertools.product(range(k + 1), repeat=m - 1):
        rest = k - sum(combo)
        if rest >= 0:
            yield np.array([*combo, rest], dtype=float) / k


def kkt_mstar(popularity: PopularityModel, s_cache: int, cluster_size: int) -> int:
    """Truncation index from a direct scan of the optimality conditions.

    Independent of optimal_policy's construction: walks m upward with a
    running sum and returns the unique m where 1 - nu(m)/z_m > 0 while
    1 - nu(m)/z_{m+1} <= 0 (treating z beyond the library as 0).
    """
    z = log_space_z(popularity, s_cache, cluster_size)
    m_total = popularity.m_total
    found = []
    running = 0.0
    for m in range(1, m_total + 1):
        running += 1.0 / z[m - 1]
        nu = (m - 1) / running
        z_next = z[m] if m < m_total else 0.0
        if z[m - 1] > nu and z_next <= nu:
            found.append(m)
    if len(found) != 1:
        raise RuntimeError(
            f"KKT scan found {len(found)} candidate truncation indices; expected 1"
        )
    return found[0]


def log_space_z(popularity: PopularityModel, s_cache: int, cluster_size: int) -> np.ndarray:
    """Water-filling weights P_r(f)^(1/n), n = S*(g_c-1)-1, with the law evaluated inline.

    At n = 1 they are the pmf itself; otherwise the log-pmf
    -gamma*log(f+q) - log(Z) is divided by n and exponentiated.
    """
    n = s_cache * (cluster_size - 1) - 1
    if n == 1:
        return popularity.pmf_values.copy()
    ranks = np.arange(1, popularity.m_total + 1, dtype=np.float64)
    log_pmf = -popularity.gamma * np.log(ranks + popularity.q) - math.log(popularity.normalizer)
    return np.exp(log_pmf / n)


def full_scan_policy(popularity: PopularityModel, s_cache: int, cluster_size: int):
    """(probs, nu, m_star, z) of water-filling over the whole library at once.

    nu(m) = (m-1) / sum_{f<=m} 1/z_f for every m; m_star is the last m
    with z_m > nu(m), and probs = max(1 - nu/z, 0) cut to zero past it.
    """
    z = log_space_z(popularity, s_cache, cluster_size)
    inv_cumsum = np.cumsum(1.0 / z)
    m = np.arange(1, popularity.m_total + 1, dtype=np.float64)
    nu_at = (m - 1.0) / inv_cumsum
    m_star = int(np.nonzero(z > nu_at)[0][-1]) + 1
    nu = float(nu_at[m_star - 1])
    probs = np.maximum(1.0 - nu / z, 0.0)
    probs[m_star:] = 0.0
    return probs, nu, m_star, z


def c1_relative_error(c1: float, c2: float) -> float:
    """First-order relative distance of c1 from the root of c1 = 1 + c2*log(1 + c1/c2).

    Evaluated in 400-digit decimal arithmetic, where the cancellation in
    c1 - c2*log(1 + c1/c2) that limits double precision does not occur:
    the residual divided by its slope c1/(c2 + c1) is the Newton step.
    """
    with localcontext() as ctx:
        ctx.prec = 400
        x, c = Decimal(c1), Decimal(c2)
        residual = x - 1 - c * (1 + x / c).ln()
        return float(abs(residual * (c + x) / x) / x)


def _ascii_integer(text: str) -> bool:
    """text, stripped, is ASCII digits with an optional sign."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits != "" and all(ch in "0123456789" for ch in digits)


def reference_counts(text: str, region: int | None) -> tuple[list[float], dict]:
    """(ranked distinct-user counts, report fields) of a log held in text.

    Checks each non-blank row: arity, non-empty ids, an integer region and
    an empty or integer timestamp. Keeps the rows of region (all when None),
    collapses them into a set of (user, content) pairs and counts each
    content's pairs. The counts come back sorted in descending order; the
    report has the IngestReport field names.
    """
    reader = csv.reader(io.StringIO(text))
    header = tuple(h.strip() for h in next(reader))
    width = 4 if header == ("user_id", "content_id", "region_id", "timestamp") else 3
    rows = malformed = 0
    kept = []
    for row in reader:
        if not row:
            continue
        rows += 1
        if len(row) != width:
            malformed += 1
            continue
        user, content = row[0].strip(), row[1].strip()
        valid = (user != "" and content != "" and _ascii_integer(row[2])
                 and (width == 3 or row[3].strip() == "" or _ascii_integer(row[3])))
        if not valid:
            malformed += 1
        elif region is None or int(row[2]) == region:
            kept.append((user, content))
    pairs = set(kept)
    per_content = Counter(content for _, content in pairs)
    report = {
        "rows": rows,
        "malformed": malformed,
        "kept": len(kept),
        "unique_pairs": len(pairs),
        "distinct_users": len({user for user, _ in pairs}),
        "distinct_contents": len(per_content),
    }
    return sorted(map(float, per_content.values()), reverse=True), report


def reference_region_log(model: PopularityModel, region: int, n_accesses: int, seed: int) -> bytes:
    """The bytes of a synthetic region log, one csv.writer row at a time.

    One rng.random(2n) call from default_rng(seed) gives every double: the
    first n map to ranks through searchsorted_ranks, and one in ten of the
    next n (a double below 0.1) writes its access's row twice. Access i is
    user u{i:07d} requesting content c{rank:06d}.
    """
    draws = np.random.default_rng(seed).random(2 * n_accesses)
    ranks = searchsorted_ranks(model.cdf_values, draws[:n_accesses], model.m_total)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["user_id", "content_id", "region_id"])
    for i, (rank, repeat) in enumerate(zip(ranks, draws[n_accesses:])):
        row = [f"u{i:07d}", f"c{rank:06d}", str(region)]
        writer.writerow(row)
        if repeat < 0.1:
            writer.writerow(row)
    return text.getvalue().encode("ascii")
