"""Optimal random caching policy via water-filling, plus its scaling constants.

The hit-maximizing caching distribution has the water-filling form
P_c(f) = max(1 - nu/z_f, 0) with z_f = P_r(f)^(1/(S*(g_c-1)-1)). The
water-filling construction yields the truncation index m_star (the number
of files cached with positive probability); theoretical_mstar gives its
closed-form asymptotic counterpart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .popularity import PopularityModel, _guide_table

__all__ = [
    "CachingPolicy",
    "ScalingConstants",
    "solve_c1",
    "optimal_policy",
    "theoretical_mstar",
    "scaling_constants",
]

_C1_TOL = 1e-10


def solve_c1(c2: float) -> float:
    """Solve c1 = 1 + c2*log(1 + c1/c2) for the unique root c1 >= 1.

    Natural log; c2 = 0 returns exactly 1. Bracketed bisection on
    [1, max(10, 10*c2)] down to a relative residual of 1e-10. Above
    c2 = 1e12 the residual cancels to noise near the root (about
    sqrt(2*c2)), so such c2 are rejected.
    """
    if not 0 <= c2 <= 1e12:
        raise ValueError(f"c2 must be finite and in [0, 1e12], got {c2}")
    if c2 == 0.0:
        return 1.0

    def g(x: float) -> float:
        if x < c2 * 1e12:  # ratio safely representable, log1p keeps precision
            return x - 1.0 - c2 * math.log1p(x / c2)
        return x - 1.0 - c2 * (math.log(c2 + x) - math.log(c2))

    lo, hi = 1.0, max(10.0, 10.0 * c2)
    if g(hi) <= 0:  # cannot happen for the admissible bracket
        raise RuntimeError(f"c1 bracket failed for c2={c2}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    c1 = 0.5 * (lo + hi)
    if abs(g(c1)) > _C1_TOL * max(1.0, c1):
        raise RuntimeError(f"c1 solver failed to converge for c2={c2}")
    return c1


@dataclass(frozen=True)
class ScalingConstants:
    """Derived constants for a (popularity, cache, cluster) combination."""

    a_prime: float  # gamma / (S*(g_c-1) - 1)
    c2: float       # q * a_prime
    c1: float       # fixed point of c1 = 1 + c2*log(1 + c1/c2)
    c6: float       # q / g_c
    rho: float      # c1*S*g_c / M  (regime-2 cluster-size ratio)
    d_ratio: float  # q / M


def _policy_exponent(s_cache: int, cluster_size: int) -> int:
    if s_cache < 1 or cluster_size < 1:
        raise ValueError(
            f"s_cache and cluster_size must be >= 1, "
            f"got s_cache={s_cache}, cluster_size={cluster_size}"
        )
    n = s_cache * (cluster_size - 1) - 1
    if n < 1:
        raise ValueError(
            f"cluster too small: need s_cache*(cluster_size-1) >= 2, "
            f"got s_cache={s_cache}, cluster_size={cluster_size}"
        )
    return n


def scaling_constants(
    popularity: PopularityModel, s_cache: int, cluster_size: int
) -> ScalingConstants:
    n = _policy_exponent(s_cache, cluster_size)
    a_prime = popularity.gamma / n
    c2 = popularity.q * a_prime
    c1 = solve_c1(c2)
    return ScalingConstants(
        a_prime=a_prime,
        c2=c2,
        c1=c1,
        c6=popularity.q / cluster_size,
        rho=c1 * s_cache * cluster_size / popularity.m_total,
        d_ratio=popularity.q / popularity.m_total,
    )


@dataclass(frozen=True)
class CachingPolicy:
    """Random caching distribution with its water-filling certificate.

    probs[f-1] is the probability a device caches file f on each of its
    draws; water_level is the Lagrangian threshold nu; m_star the number
    of files with positive caching probability. z holds the water-filling
    weights of the prefix that optimal_policy searched; it is unset only on
    policies that tests build by hand. That prefix is the whole library
    when m_star = M, and otherwise reaches past index m_star, where
    z[m_star] <= nu. The weights are non-increasing, so every file past the
    prefix has z_f <= nu too: the prefix is the policy's complete KKT
    certificate.
    """

    probs: np.ndarray
    water_level: float
    m_star: int
    z: np.ndarray | None = None

    @cached_property
    def _cdf_guide(self) -> tuple[np.ndarray, np.ndarray]:
        return _guide_table(np.cumsum(self.probs), self.m_star)


# Length of the first prefix optimal_policy searches for m_star; each
# further prefix is twice as long, up to the library.
_PREFIX_START = 1 << 12


def optimal_policy(
    popularity: PopularityModel, s_cache: int, cluster_size: int
) -> CachingPolicy:
    """Hit-probability-maximizing random caching distribution.

    Water-filling construction: m_star is the largest m whose water level
    nu(m) = (m-1) / sum_{f<=m} 1/z_f still sits below z_m; the caching
    probabilities are max(1 - nu/z_f, 0) and sum to 1 by construction.
    The weights z_f = P_r(f)^(1/n), n = S*(g_c-1)-1, are the pmf itself at
    n = 1; otherwise the model's memoized log-pmf is divided by n and
    exponentiated, so large exponents do not underflow.

    The feasible m (z_m > nu(m)) form a prefix. With C_m = sum_{f<=m} 1/z_f,
    z_{m+1} <= nu(m+1) = m / (C_m + 1/z_{m+1}) reduces to
    z_{m+1}*C_m <= m-1, that is to z_{m+1} <= nu(m). So once z_m <= nu(m),
    the non-increasing z give z_{m+1} <= z_m <= nu(m), and m+1 is
    infeasible too. m_star is therefore the count of m before the first
    infeasible one, and only the prefix up to it decides the answer.

    The search evaluates z, the running sum, nu and the test on a prefix of
    _PREFIX_START entries and doubles the prefix until it holds an
    infeasible m or spans the library. Each extension evaluates z and
    continues the running sum only past the end of the last prefix, so no
    entry is computed twice and none past the last prefix at all. Each z_f
    is computed on its own, and numpy's float64 cumsum adds sequentially,
    so these sums are bit for bit those of one cumsum over the whole
    library, and m_star, nu and probs those of a scan for the last feasible
    m over all of it whenever the rounded test keeps the prefix property
    (tests check this against such a scan). The policy keeps z of the
    searched prefix: it holds the first infeasible index m_star unless
    m_star = M, so by the argument above it certifies the whole library.
    """
    if popularity.m_total < 2:
        raise ValueError("optimal_policy requires a library of at least 2 files")
    n = _policy_exponent(s_cache, cluster_size)
    m_total = popularity.m_total
    # Both written, and so resident, only up to the last prefix.
    z = np.empty(m_total)
    inv_cumsum = np.empty(m_total)
    lo, hi = 0, min(_PREFIX_START, m_total)
    while True:
        z_new = z[lo:hi]
        if n == 1:
            np.copyto(z_new, popularity.pmf_values[lo:hi])
        else:
            np.exp(np.divide(popularity._log_pmf[lo:hi], n, out=z_new), out=z_new)
        sums = np.divide(1.0, z_new, out=inv_cumsum[lo:hi])
        if lo:
            sums[0] += inv_cumsum[lo - 1]
        np.cumsum(sums, out=sums)
        nu_at = np.arange(lo, hi, dtype=np.float64)  # m-1 for m = lo+1..hi
        np.divide(nu_at, sums, out=nu_at)
        infeasible = np.flatnonzero(z_new <= nu_at)
        if infeasible.size or hi == m_total:
            break
        lo, hi = hi, min(2 * hi, m_total)
    m_star = lo + int(infeasible[0]) if infeasible.size else m_total
    nu = float((m_star - 1) / inv_cumsum[m_star - 1])
    probs = np.zeros(m_total)
    head = np.divide(nu, z[:m_star], out=probs[:m_star])
    np.subtract(1.0, head, out=head)
    return CachingPolicy(probs=probs, water_level=nu, m_star=m_star, z=z[:hi])


def theoretical_mstar(
    popularity: PopularityModel, s_cache: int, cluster_size: int
) -> float:
    """Closed-form truncation index min(c1*S*g_c/gamma, M).

    Asymptotically exact for large clusters; at small cluster sizes it
    overshoots the water-filled index because S*g_c exceeds the effective
    exponent S*(g_c-1)-1 by a non-negligible factor.
    """
    c1 = scaling_constants(popularity, s_cache, cluster_size).c1
    return min(c1 * s_cache * cluster_size / popularity.gamma, float(popularity.m_total))
