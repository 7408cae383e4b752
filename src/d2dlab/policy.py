"""Optimal random caching policy via water-filling, and the constant c1.

The hit-maximizing caching distribution has the water-filling form
P_c(f) = max(1 - nu/z_f, 0) with z_f = P_r(f)^(1/(S*(g_c-1)-1)). The
water-filling construction yields the truncation index m_star (the number
of files cached with positive probability); theoretical_mstar gives its
closed-form asymptotic counterpart. Both scaling laws rest on one solved
constant, c1, the root of c1 = 1 + c2*log(1 + c1/c2); every other constant
of the analysis is a ratio of the inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import _check_integer
from .popularity import PopularityModel, _guide_table, _log_pmf, _power_law

_C1_TOL = 1e-10


def solve_c1(c2: float) -> float:
    """Solve c1 = 1 + c2*log(1 + c1/c2) for the unique root c1 >= 1.

    Natural log. Bracketed bisection on [1, max(10, 10*c2)] of the residual
    x - 1 - c2*log1p(x/c2) down to a relative residual of 1e-10. Below
    c2 = 1e-20, 0 included, it returns exactly 1: there c1 - 1 <= c2*log1p(2/c2)
    < 2^-53, so the root rounds to 1. Above c2 = 1e12 the residual cancels to
    noise near the root (about sqrt(2*c2)), so such c2 are rejected.
    """
    if not 0 <= c2 <= 1e12:
        raise ValueError(f"c2 must be finite and in [0, 1e12], got {c2}")
    if c2 < 1e-20:
        return 1.0

    def g(x: float) -> float:
        return x - 1.0 - c2 * math.log1p(x / c2)

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


def _policy_exponent(popularity: PopularityModel, s_cache: int, cluster_size: int) -> int:
    """The exponent n = S*(g_c-1)-1, after the one check of M >= 2, S and g_c."""
    if popularity.m_total < 2:
        raise ValueError("optimal_policy requires a library of at least 2 files")
    _check_integer("s_cache", s_cache, 1)
    _check_integer("cluster_size", cluster_size, 1)
    n = s_cache * (cluster_size - 1) - 1
    if n < 1:
        raise ValueError(
            f"cluster too small: need s_cache*(cluster_size-1) >= 2, "
            f"got s_cache={s_cache}, cluster_size={cluster_size}"
        )
    return n


def _c1(popularity: PopularityModel, s_cache: int, cluster_size: int) -> tuple[float, float]:
    """c1, solve_c1 at c2 = q*gamma/(S*(g_c-1)-1), and the closed form's index
    a = c1*S*g_c/gamma, which theoretical_mstar and analysis._regime_of read."""
    n = _policy_exponent(popularity, s_cache, cluster_size)
    c1 = solve_c1(popularity.q * (popularity.gamma / n))
    return c1, c1 * s_cache * cluster_size / popularity.gamma


@dataclass(frozen=True, eq=False)
class CachingPolicy:
    """Random caching distribution with its water-filling certificate.

    probs[f-1] is the probability a device caches file f on each of its
    draws; water_level is the Lagrangian threshold nu; m_star the number
    of files with positive caching probability. z holds the water-filling
    weights of the blocks that optimal_policy evaluated, from file 1 to the
    end of the block that holds m_star + 1. The policy does not keep it,
    nor the model: each read evaluates z again, with the search's bits,
    from the law's three numbers (gamma, q, Z) and the exponent that
    optimal_policy recorded; it is None on policies built by hand. That is
    the whole library when m_star = M,
    and otherwise reaches past index m_star, where z[m_star] <= nu. The
    weights are non-increasing, so every file past z has z_f <= nu too: z
    is the policy's complete KKT certificate.

    It compares and hashes by identity.
    """

    probs: np.ndarray
    water_level: float
    m_star: int
    # What z is evaluated from: the law's (gamma, q, Z), the exponent
    # S*(g_c-1)-1 and the number of files the search evaluated.
    _law: tuple[float, float, float] | None = field(default=None, repr=False)
    _exponent: int = field(default=1, repr=False)
    _searched: int = field(default=0, repr=False)

    @property
    def z(self) -> np.ndarray | None:
        if self._law is None:
            return None
        z = np.empty(self._searched)
        # Block by block, so that a read holds no temporary of z's length.
        for lo in range(0, z.size, _BLOCK):
            hi = min(lo + _BLOCK, z.size)
            _weights(self._law, self._exponent, lo, hi, z[lo:hi])
        return z

    @cached_property
    def _cdf_guide(self) -> tuple[np.ndarray, np.ndarray]:
        return _guide_table(self.probs[: self.m_star])


# Files per block of optimal_policy's walk over the library (see there).
_BLOCK = 1 << 14


def _weights(law: tuple[float, float, float], n: int, lo: int, hi: int,
             out: np.ndarray) -> np.ndarray:
    """The water-filling weights z_f = P_r(f)^(1/n) of the files f = lo+1..hi
    of the law (gamma, q, Z), into out, which is returned: the one evaluator
    of z (see optimal_policy)."""
    gamma, q, normalizer = law
    if n == 1:
        _power_law(gamma, q, lo, hi, out)
        out /= normalizer
    else:
        _log_pmf(gamma, q, normalizer, lo, hi, out)
        out /= n
        np.exp(out, out=out)
    return out


def optimal_policy(
    popularity: PopularityModel, s_cache: int, cluster_size: int
) -> CachingPolicy:
    """Hit-probability-maximizing random caching distribution.

    Water-filling construction: m_star is the largest m whose water level
    nu(m) = (m-1) / sum_{f<=m} 1/z_f still sits below z_m; the caching
    probabilities are max(1 - nu/z_f, 0) and sum to 1 by construction.
    The weights z_f = P_r(f)^(1/n), n = S*(g_c-1)-1, are evaluated block by
    block by _weights from the model's (gamma, q, Z) alone: the pmf itself
    at n = 1 (popularity._power_law divided by Z, the bits of pmf_values),
    otherwise the log-pmf (popularity._log_pmf) divided by n and
    exponentiated, so large exponents do not underflow. No table of the
    model is read. A weight that underflows to 0 anyway
    has an infinite reciprocal and is never feasible; at worst m_star = 1,
    nu = 0 and the policy caches file 1.

    The feasible m (z_m > nu(m)) form a prefix. With C_m = sum_{f<=m} 1/z_f,
    z_{m+1} <= nu(m+1) = m / (C_m + 1/z_{m+1}) reduces to
    z_{m+1}*C_m <= m-1, that is to z_{m+1} <= nu(m). So once z_m <= nu(m),
    the non-increasing z give z_{m+1} <= z_m <= nu(m), and m+1 is
    infeasible too. m_star is therefore the count of m before the first
    infeasible one, and only the prefix up to it decides the answer.

    The search walks the library in blocks of _BLOCK = 2^14 files. Each
    block pays a fixed cost of numpy calls and Python frames, about 10 us,
    so larger blocks pay it less often; but a block's z and its sums take
    128 KB each at 2^14, which still fit in L2, and at 2^16 they no longer
    do and the walk slows again. Each block's z
    goes into the call's one buffer; its 1/z and their running sum C go into one
    block-sized scratch, reused for every block, whose first entry takes on
    the last sum of the block before. By the prefix property, a block whose
    last m passes the test is feasible throughout, so the test is made on
    every m only in the first block whose last m fails it, or in the last
    block; nu is read from the sums at m_star, or from the carried sum when
    m_star closes the block before. Each z_f is computed on its own, and
    numpy's float64 cumsum adds sequentially, so the sums are bit for bit
    those of one cumsum over the whole library, and m_star, nu and probs
    those of a scan for the last feasible m over all of it whenever the
    rounded test keeps the prefix property (tests check this against such a
    scan). The z of the evaluated blocks holds the first
    infeasible index m_star unless m_star = M, so by the argument above it
    certifies the whole library.

    Once m_star and nu are known, the buffer becomes probs in place: z past
    m_star is zeroed and z before it turned into 1 - nu/z. So the call holds
    one array of the library's length, resident up to the last evaluated
    block, and evaluates the log law only for the files its search scans.
    The policy records the law's (gamma, q, Z), n and the number of files
    searched instead of z, and evaluates the same z again, through
    _weights, each time it is read. It keeps no reference to the model, so
    the model's tables are freed with the model.
    """
    n = _policy_exponent(popularity, s_cache, cluster_size)
    m_total = popularity.m_total
    law = (popularity.gamma, popularity.q, popularity.normalizer)
    # z of the searched blocks, turned into probs in place at the end; written,
    # and so resident, only up to the last block.
    z = np.zeros(m_total)
    sums = np.empty(min(_BLOCK, m_total))
    lo, carry = 0, 0.0  # carry is C_lo, the running sum before the block
    # A weight that underflowed to 0 makes 1/z_f and C infinite: the intended limit.
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            hi = min(lo + _BLOCK, m_total)
            z_new = _weights(law, n, lo, hi, z[lo:hi])
            block = np.divide(1.0, z_new, out=sums[: hi - lo])
            block[0] += carry
            np.cumsum(block, out=block)
            if hi == m_total or not z_new[-1] > (hi - 1) / block[-1]:
                break
            carry, lo = block[-1], hi
    nu_at = np.arange(lo, hi, dtype=np.float64)  # m-1 for m = lo+1..hi
    np.divide(nu_at, block, out=nu_at)
    infeasible = np.flatnonzero(z_new <= nu_at)
    m_star = lo + int(infeasible[0]) if infeasible.size else m_total
    nu = float((m_star - 1) / (block[m_star - lo - 1] if m_star > lo else carry))
    z[m_star:hi] = 0.0
    head = np.divide(nu, z[:m_star], out=z[:m_star])
    np.subtract(1.0, head, out=head)
    return CachingPolicy(probs=z, water_level=nu, m_star=m_star,
                         _law=law, _exponent=n, _searched=hi)


def theoretical_mstar(
    popularity: PopularityModel, s_cache: int, cluster_size: int
) -> float:
    """Closed-form truncation index min(a, M), with a = c1*S*g_c/gamma from _c1.

    Asymptotically exact for large clusters; at small cluster sizes it
    overshoots the water-filled index because S*g_c exceeds the effective
    exponent S*(g_c-1)-1 by a non-negligible factor.
    """
    return min(_c1(popularity, s_cache, cluster_size)[1], float(popularity.m_total))
