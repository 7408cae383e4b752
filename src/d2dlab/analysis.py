"""Closed-form hit probability and the two-regime throughput-outage tradeoff.

Both hit formulas are ratios of integrals of the MZipf law, all taken by
_integral. All expressions here are asymptotic in the library size, cluster size, and
plateau factor; evaluated at finite parameters they can exit [0, 1] by the
unquantified lower-order slack. Out-of-range values are clamped and
flagged rather than rejected so that desk-scale curves stay usable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .network import NetworkConfig
from .policy import _c1, _policy_exponent
from .popularity import PopularityModel

REGIME1 = "regime1"
REGIME2 = "regime2"

# Regime 1 admits q <= _KAPPA*S*g_c/gamma, since its outage law assumes q = O(S*g_c/gamma).
_KAPPA = 10.0


class RegimeError(ValueError):
    """Parameters fall outside the regime a formula is stated for."""


@dataclass(frozen=True)
class TradeoffPoint:
    """An achievable (throughput, outage) pair for one cluster size.

    hit_prob is the finite-size hit probability of the point's regime: the
    closed form in regime 1, the lower bound in regime 2, each clamped to
    [0, 1]. In regime 1 it is not one minus the outage, whose law is
    asymptotic and meets it only as M grows, like M^-(gamma-1). clamped
    says the outage or hit_prob was clamped. A failed point has NaN
    throughput, outage and hit_prob, an empty regime_tag, and its error.
    """

    throughput: float
    outage: float
    regime_tag: str
    g_c_used: int
    hit_prob: float = math.nan
    clamped: bool = False
    error: str | None = None


def _pow(x: float, e: float) -> float:
    """x**e via log space, for x >= 0; 0**e is 0 for e > 0, 1 for e = 0 and +inf
    for e < 0, and a power past the largest double is +inf too."""
    if x == 0.0:
        return 0.0 if e > 0.0 else 1.0 if e == 0.0 else math.inf
    try:
        return math.exp(e * math.log(x))
    except OverflowError:
        return math.inf


def _clamp_unit(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def _regime_of(popularity: PopularityModel, config: NetworkConfig) -> tuple[str, float, float]:
    """Regime tag, c1 and the closed form's index a = c1*S*g_c/gamma, both
    from policy._c1; regime 1 is a < M. _c1 refuses a one-file library,
    whose closed form divides by zero, as optimal_policy does."""
    c1, a = _c1(popularity, config.s_cache, config.cluster_size)
    return (REGIME1 if a < popularity.m_total else REGIME2), c1, a


def _integral(lo: float, width: float, gamma: float) -> float:
    """The integral of t^-gamma from lo >= 0 to lo + width > 0, signed as width: with
    e = 1-gamma and L = log1p(width/lo) (+inf at lo = 0), L at e = 0, else the larger
    end's power times -expm1(-|e*L|)/|e|, so nothing cancels and no width is lost to lo."""
    e = 1.0 - gamma
    log_ratio = math.log1p(width / lo) if lo else math.inf
    if e == 0.0:
        return log_ratio
    end = lo + width if (e > 0.0) == (width > 0.0) else lo
    return math.copysign(_pow(end, e) * -math.expm1(-abs(e * log_ratio)) / abs(e), width)


def _closed_form(popularity: PopularityModel, a: float) -> float:
    """Unclamped regime-1 closed form at index a, (I(q+1, a+q) - a*(a+q)^-gamma) / I(q+1, M+q)
    with I the law's integral between two ends, in units of q+1 so that a large gamma does
    not underflow the denominator: _integral from 1 over (a-1)/(q+1), negative at a < 1,
    and over (M-1)/(q+1)."""
    gamma, q = popularity.gamma, popularity.q
    num = _integral(1.0, (a - 1.0) / (q + 1.0), gamma) - a / (q + 1.0) * _pow((a + q) / (q + 1.0), -gamma)
    return num / _integral(1.0, (popularity.m_total - 1.0) / (q + 1.0), gamma)


def _lower_bound(popularity: PopularityModel, config: NetworkConfig) -> float:
    """Unclamped regime-2 bound, with D = q/M, n = S*(g_c-1)-1, beta = gamma/n and
    I = the integral from D to 1+D: 1 - exp(gamma - S*g_c/M) * bracket^-n / I(t^-gamma),
    where bracket = (1+D)^(beta+1) - D^(beta+1) = (beta+1)*I(t^beta).

    The paper writes its decay as exp(gamma - rho/c1) with
    rho = c1*S*g_c/M; rho/c1 = S*g_c/M, so c1 cancels. Both integrals are in
    units of 1+D, from D/(1+D) over 1/(1+D), so their log ratio log1p(1/D) stays
    where D/(1+D) rounds to 1 (D >= 2^53). The subtracted term is one exp of a sum of logs,
    so no power past the range of a double makes it NaN. At q = 0 it is its q -> 0+
    limit: 1 - (1-gamma)*exp(gamma - S*g_c/M) for gamma < 1, and 1 for gamma >= 1.
    """
    gamma = popularity.gamma
    n = _policy_exponent(popularity, config.s_cache, config.cluster_size)
    d, beta = popularity.q / popularity.m_total, gamma / n
    lo, width, log_unit = d / (1.0 + d), 1.0 / (1.0 + d), math.log1p(d)
    log_norm = (1.0 - gamma) * log_unit + math.log(_integral(lo, width, gamma))
    log_bracket = (beta + 1.0) * log_unit + math.log((beta + 1.0) * _integral(lo, width, -beta))
    log_decay = gamma - config.s_cache * config.cluster_size / popularity.m_total
    return 1.0 - _pow(math.e, log_decay - log_norm - n * log_bracket)


def _hit(popularity: PopularityModel, config: NetworkConfig, regime: str, a: float) -> float:
    """Unclamped hit probability of a point in regime: the closed form at a, or the bound."""
    return _closed_form(popularity, a) if regime == REGIME1 else _lower_bound(popularity, config)


def _hit_prob(popularity: PopularityModel, config: NetworkConfig, regime: str) -> float:
    """Clamped hit probability of a point that must lie in the given regime."""
    actual, c1, a = _regime_of(popularity, config)
    if actual != regime:
        raise RegimeError(
            f"cluster_size {config.cluster_size} is at or beyond gamma*M/(c1*S); "
            "use hit_prob_lower_bound (regime 2)"
            if regime == REGIME1
            else f"implied rho={c1 * config.s_cache * config.cluster_size / popularity.m_total:.4g}"
            f" < gamma={popularity.gamma}; "
            "cluster too small for the regime-2 bound (use the closed form)"
        )
    return _clamp_unit(_hit(popularity, config, regime, a))[0]


def hit_prob_closed_form(popularity: PopularityModel, config: NetworkConfig) -> float:
    """Regime-1 hit probability of the optimal policy, in closed form.

    Requires cluster_size < gamma*M/(c1*S); beyond that threshold the
    closed form does not apply and a RegimeError points at the regime-2
    lower bound instead. The finite-size evaluation is clamped to [0, 1].
    """
    return _hit_prob(popularity, config, REGIME1)


def hit_prob_lower_bound(popularity: PopularityModel, config: NetworkConfig) -> float:
    """Regime-2 lower bound on the hit probability of the optimal policy.

    Applies when the implied rho = c1*S*g_c/M is at least gamma. Clamped
    to [0, 1] at finite parameters.
    """
    return _hit_prob(popularity, config, REGIME2)


def tradeoff_point(popularity: PopularityModel, config: NetworkConfig) -> TradeoffPoint:
    """Throughput-outage point of one cluster size, in the regime it falls in.

    T = (C/K)/g_c in both regimes: the paper's regime-2 form
    (C/K)*S*c1/(rho*M), with rho = c1*S*g_c/M, reduces to it. Below the
    boundary gamma*M/(c1*S) the outage follows the c6 = q/g_c expression; a
    plateau q > 10*S*g_c/gamma is outside what that expression assumes and
    raises a RegimeError. At or beyond it, the outage is one minus the
    regime-2 hit probability lower bound.
    """
    gamma, q = popularity.gamma, popularity.q
    regime, c1, a = _regime_of(popularity, config)
    throughput = config.cluster_rate / config.cluster_size
    if regime == REGIME1 and q > _KAPPA * config.s_cache * config.cluster_size / gamma:
        raise RegimeError(
            f"plateau factor q={q} exceeds kappa*S*g_c/gamma="
            f"{_KAPPA * config.s_cache * config.cluster_size / gamma:.4g}; "
            "the regime-1 outage expression assumes q = O(S*g_c/gamma)"
        )
    hit = _hit(popularity, config, regime, a)
    if regime == REGIME1:
        c6 = q / config.cluster_size
        s_c1 = config.s_cache * c1
        b = s_c1 / gamma + c6
        outage_raw = _pow(c6 / b, gamma - 1.0) * (s_c1 + c6) / b
    else:
        outage_raw = 1.0 - hit
    outage, outage_clamped = _clamp_unit(outage_raw)
    hit_prob, hit_clamped = _clamp_unit(hit)
    return TradeoffPoint(
        throughput=throughput,
        outage=outage,
        regime_tag=regime,
        g_c_used=config.cluster_size,
        hit_prob=hit_prob,
        clamped=outage_clamped or hit_clamped,
    )


def tradeoff_curve(
    popularity: PopularityModel, base: NetworkConfig, g_c_list: list[int]
) -> list[TradeoffPoint]:
    """tradeoff_point at each cluster size, in input order.

    Per-point failures (e.g. clusters too small for any policy, or a
    regime-1 plateau q > 10*S*g_c/gamma) are recorded on the point, not
    raised.
    """
    points: list[TradeoffPoint] = []
    for g_c in g_c_list:
        try:
            points.append(tradeoff_point(popularity, replace(base, cluster_size=g_c)))
        except ValueError as exc:  # includes RegimeError
            points.append(
                TradeoffPoint(
                    throughput=math.nan,
                    outage=math.nan,
                    regime_tag="",
                    g_c_used=g_c,
                    error=str(exc),
                )
            )
    return points
