"""Mandelbrot-Zipf (MZipf) popularity model: evaluation, sampling, and KL fitting.

The MZipf law assigns rank f (1-based) the probability (f+q)^-gamma / Z,
where Z normalizes over the library of M files. The plateau factor q
flattens the head of the distribution up to roughly rank q; q=0 recovers
a pure Zipf law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import _check_integer


class UnidentifiableFitError(ValueError):
    """Raised when the empirical input cannot identify (gamma, q)."""


@dataclass(frozen=True)
class PopularityModel:
    """MZipf popularity distribution over ranks 1..m_total.

    Parameters
    ----------
    gamma : float
        Zipf factor (tail decay exponent), must be > 0.
    q : float
        Plateau factor, must be >= 0.
    m_total : int
        Library size M, must be >= 1.

    The law is evaluated once, on construction: normalizer is Z and
    pmf_values holds the probability of each rank, shape (m_total,).
    (gamma, q, Z) determine the law: _power_law (divided by Z, the bits of
    pmf_values) and _log_pmf evaluate it over any range of ranks from those
    three numbers, so a caller that keeps them needs neither the model nor
    an array of the library's length.
    """

    gamma: float
    q: float
    m_total: int
    normalizer: float = field(init=False, repr=False, compare=False)
    pmf_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 <= self.q < math.inf:
            raise ValueError(f"q must be non-negative and finite, got {self.q}")
        _check_integer("m_total", self.m_total, 1)
        w = _power_law(self.gamma, self.q, 0, self.m_total)
        z = float(w.sum())
        if not z > 0:
            raise ValueError(
                f"gamma={self.gamma} and q={self.q} underflow the normalizer to 0"
            )
        w /= z
        object.__setattr__(self, "normalizer", z)
        object.__setattr__(self, "pmf_values", w)

    @cached_property
    def cdf_values(self) -> np.ndarray:
        return np.cumsum(self.pmf_values)

    @cached_property
    def _cdf_guide(self) -> tuple[np.ndarray, np.ndarray]:
        return _guide_table(self.cdf_values, self.m_total)


def _shifted_ranks(lo: int, hi: int, q: float, out: np.ndarray | None = None) -> np.ndarray:
    """f + q for the ranks f = lo+1..hi, as float64, into out when given.

    The law is then evaluated in this one buffer: each step is the operation
    an out-of-place expression over the whole library would apply, in the
    same order, so the bits are the same, whatever the range, and a model
    peaks at one array of the library's length.
    """
    w = np.arange(lo + 1, hi + 1, dtype=np.float64)
    return np.add(w, q, out=w if out is None else out)


def _power_law(gamma: float, q: float, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """(f + q)^-gamma, the law before normalization, for the ranks f =
    lo+1..hi, into out when given: the one linear-space evaluator of the law.

    Divided by the normalizer, it has the bits of pmf_values[lo:hi].
    """
    w = _shifted_ranks(lo, hi, q, out)
    return np.power(w, -gamma, out=w)


def _log_pmf(gamma: float, q: float, normalizer: float, lo: int, hi: int,
             out: np.ndarray) -> np.ndarray:
    """log P_r(f) = -gamma*log(f+q) - log(Z) for the ranks f = lo+1..hi of
    the law (gamma, q, Z), evaluated in log space into out, a float64 array
    of hi-lo entries, which is returned: the one log-space evaluator of the law.

    pmf_values underflows to 0 at large gamma, where this stays finite;
    policy takes its water-filling weights from it, block by block.
    Where gamma*log(f+q) overflows it reads -inf, the log of the
    underflowed probability.
    """
    _shifted_ranks(lo, hi, q, out)
    np.log(out, out=out)
    with np.errstate(over="ignore"):
        out *= -gamma
    out -= math.log(normalizer)
    return out


def _guide_table(cdf: np.ndarray, max_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Guide table ("indexed search", Chen & Asau 1974) for _ranks_from_cdf.

    Returns the first max_rank-1 cumulative sums closed by an inf sentinel,
    and, for each of K+1 buckets, the count of those sums at or below a
    lower bound on every draw u whose computed u*K truncates to the bucket.
    K is four times the number of sums. A sum moves only the draws above it
    in its own bucket, at most 1/K of them, so a draw takes at most a
    quarter of a step on average; twice that K ran no faster.
    A computed u*K >= k implies u >= (k/K)*(1-2^-53); the computed edge k/K
    is shrunk by 2^-50 to stay below that bound, so each count is at most
    the lookup's answer even where u*K rounds up into the next bucket. u*K
    can round up to K itself, hence the last bucket.
    """
    sums = np.append(cdf[: max_rank - 1], math.inf)
    k = 4 * max(sums.size - 1, 1)
    edges = np.arange(k + 1, dtype=np.float64) / k * (1.0 - 2.0**-50)
    return sums, np.searchsorted(sums, edges, side="right")


# Draws looked up per block, so the lookup's temporaries stay in cache.
_LOOKUP_BLOCK = 1 << 16


def _ranks_from_cdf(guide: tuple[np.ndarray, np.ndarray], draws, out=None, scratch=None):
    """Inverse-CDF lookup through a _guide_table(cdf, max_rank): the 1-based
    rank r with cdf[r-2] <= draw < cdf[r-1], for draws in [0, 1).

    Ranks are capped at max_rank, which absorbs draws at or above a final
    cumulative sum that rounding left below 1, and keeps draws off a
    zero-probability tail. The answer is min(searchsorted(cdf, u, "right"),
    max_rank-1) + 1: each draw starts at its bucket's count in the guide
    table and steps forward while the next sum is at or below it.

    The ranks go to out, a C-contiguous intp array of the draws' shape, and
    each block's temporaries to scratch, a float64 array of at least
    min(draws.size, _LOOKUP_BLOCK) entries; each is made when not given. A
    caller that looks up many arrays passes its own, so that their memory
    is not handed back to the system and faulted in again between calls.
    """
    sums, start = guide
    k = start.size - 1
    u = np.asarray(draws, dtype=np.float64)
    ranks = np.empty(u.shape, dtype=np.intp) if out is None else out
    if scratch is None:
        scratch = np.empty(min(u.size, _LOOKUP_BLOCK))
    flat_u, flat_r = u.reshape(-1), ranks.reshape(-1)
    for lo in range(0, flat_u.size, _LOOKUP_BLOCK):
        block = flat_u[lo : lo + _LOOKUP_BLOCK]
        j = flat_r[lo : lo + block.size]
        bucket, edge = scratch.view(np.intp)[: block.size], scratch[: block.size]
        np.multiply(block, k, out=bucket, casting="unsafe")  # truncates, as astype does
        # mode="clip", which no index needs, keeps take from buffering out.
        np.take(start, bucket, out=j, mode="clip")
        np.take(sums, j, out=edge, mode="clip")  # the buckets are spent
        moving = (edge <= block).nonzero()[0]
        while moving.size:
            stepped = j[moving] + 1
            j[moving] = stepped
            moving = moving[sums[stepped] <= block[moving]]
        j += 1
    return ranks


def sample_ranks(model: PopularityModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw size i.i.d. ranks from the model by inverse-CDF lookup."""
    return _ranks_from_cdf(model._cdf_guide, rng.random(size))


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Ranked request counts, rank 1 = most requested.

    Counts are non-negative reals ordered non-increasingly. Log ingestion
    always produces integers; real values are accepted so that an exact
    model pmf can be fed back in as a degenerate "empirical" input.
    It compares and hashes by identity.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d vector")
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if np.any(np.diff(counts) > 0):
            raise ValueError("counts must be sorted non-increasing")
        if counts.sum() <= 0:
            raise ValueError("counts must have positive total")
        object.__setattr__(self, "counts", counts)

    @property
    def n_ranks(self) -> int:
        """Number of ranks with nonzero count."""
        return int(np.count_nonzero(self.counts))


# Search configuration of fit_mzipf. Gamma stays in [_GAMMA_LO, _GAMMA_HI];
# the q scan runs from 0 up to M/10. Newton in gamma stops once its step is
# below _GAMMA_TOL, golden section in q once its bracket is below _Q_TOL. A
# finer q tolerance only adds models whose KL lies within rounding noise
# (about 1e-16) of the minimum, where the computed KL can read below 0.
_GAMMA_LO = 0.5
_GAMMA_HI = 3.0
_Q_POINTS = 26
_GAMMA_TOL = 1e-12
_Q_TOL = 1e-4


@dataclass(frozen=True)
class FitResult:
    """Fitted model, its KL distance, and one (gamma, q, kl) entry per model evaluation.

    Near the minimum the KL, like the entries of search_trace, can read as
    low as about -1e-16: the normalization rounding of the data and model
    pmfs sets this floor, and exact-pmf inputs reach it. The trace is a
    tuple, so that a result, like its model, is immutable and hashable.
    """

    model: PopularityModel
    kl_distance: float
    search_trace: tuple[tuple[float, float, float], ...]  # (gamma, q, kl)


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi] to interval width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def fit_mzipf(empirical: EmpiricalDistribution) -> FitResult:
    """Fit (gamma, q) by KL-distance minimization; M is fixed by the data.

    The library size is the number of distinct contents observed, never a
    fitted parameter. At fixed q the law is an exponential family in
    L = log(f+q), so KL(gamma, q) = const + gamma*E_data[L] + log Z is
    convex in gamma with slope E_data[L] - E_model[L] and curvature
    Var_model[L]. Safeguarded Newton finds the minimizing gamma; the
    profile over q is scanned on 0 and a log-spaced grid up to M/10, then
    refined by golden section between the neighbours of the best point.
    Deterministic.
    """
    n_obs = empirical.n_ranks
    if n_obs < 2:
        raise UnidentifiableFitError(
            "fit requires at least 2 ranks with nonzero counts; "
            "all mass on a single rank cannot identify (gamma, q)"
        )
    m_total = n_obs
    counts = empirical.counts[:m_total]
    p_data = counts / counts.sum()
    log_p_data = np.log(p_data)
    ranks = np.arange(1, m_total + 1, dtype=np.float64)
    q_hi = m_total / 10.0
    trace: list[tuple[float, float, float]] = []
    gamma = 1.0  # warm start: each profile call begins at the last one's gamma

    def profile(q: float) -> float:
        """min over gamma of KL(gamma, q); leaves the minimizer in gamma."""
        nonlocal gamma
        log_f = np.log(ranks + q)
        e_data = float(p_data @ log_f)
        lo, hi = _GAMMA_LO, _GAMMA_HI
        hi_tried = False
        while True:
            hi_tried |= gamma == _GAMMA_HI
            p_model = PopularityModel(gamma=gamma, q=q, m_total=m_total).pmf_values
            kl = float(np.sum(p_data * (log_p_data - np.log(p_model))))
            trace.append((gamma, q, kl))
            e_model = float(p_model @ log_f)
            slope = e_data - e_model
            if slope > 0:
                hi = gamma
            else:
                lo = gamma
            step = slope / float(p_model @ np.square(log_f - e_model))
            if abs(step) < _GAMMA_TOL or hi - lo < _GAMMA_TOL:
                return kl
            target = gamma - step
            if lo < target < hi:
                gamma = target
            elif target >= hi == _GAMMA_HI and not hi_tried:
                # For gamma >= 1, L is right-skewed under the model, so the
                # slope is concave and an upward Newton step undershoots: a
                # target past _GAMMA_HI puts the minimizer past it too. One
                # evaluation at the bound then closes the bracket there
                # instead of bisecting toward it.
                gamma = _GAMMA_HI
            else:
                gamma = 0.5 * (lo + hi)

    qs = np.concatenate([[0.0], np.geomspace(min(0.5, q_hi / 2), q_hi, _Q_POINTS - 1)])
    best = int(np.argmin([profile(float(q)) for q in qs]))
    q_best, kl = _golden_min(
        profile, float(qs[max(best - 1, 0)]), float(qs[min(best + 1, _Q_POINTS - 1)]), _Q_TOL
    )
    model = PopularityModel(gamma=gamma, q=q_best, m_total=m_total)
    return FitResult(model=model, kl_distance=kl, search_trace=tuple(trace))
