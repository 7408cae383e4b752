"""Closed-form hit probability and the two-regime throughput-outage tradeoff.

All expressions here are asymptotic in the library size, cluster size, and
plateau factor; evaluated at finite parameters they can exit [0, 1] by the
unquantified lower-order slack. Out-of-range values are clamped and
flagged rather than rejected so that desk-scale curves stay usable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .network import NetworkConfig, _check_integer
from .policy import _c1, _policy_exponent
from .popularity import PopularityModel

REGIME1 = "regime1"
REGIME2 = "regime2"

# Switch to the log-limit forms when the tail exponent is this close to 1,
# where the (1-gamma) powers become 0/0.
_GAMMA_ONE_EPS = 1e-6
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
    asymptotic and meets it only as M grows, like M^-(gamma-1). A failed
    point has NaN throughput, outage and hit_prob, an empty regime_tag, and
    its error.
    """

    throughput: float
    outage: float
    regime_tag: str
    g_c_used: int
    hit_prob: float = math.nan
    clamped: bool = False
    error: str | None = None


def _pow(x: float, e: float) -> float:
    """x**e via log space, for x >= 0; 0**e is 0 for e > 0, 1 for e = 0 and +inf for e < 0."""
    if x == 0.0:
        return 0.0 if e > 0.0 else 1.0 if e == 0.0 else math.inf
    return math.exp(e * math.log(x))


def _clamp_unit(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def _regime_of(
    popularity: PopularityModel, s_cache: int, cluster_size: int
) -> tuple[str, float]:
    """Regime tag and c1; regime 1 is c1*S*g_c/gamma < M."""
    c1 = _c1(popularity, s_cache, cluster_size)
    below = c1 * s_cache * cluster_size / popularity.gamma < popularity.m_total
    return (REGIME1 if below else REGIME2), c1


def _closed_form(popularity: PopularityModel, config: NetworkConfig, c1: float) -> float:
    """Unclamped regime-1 closed form."""
    gamma, q, m = popularity.gamma, popularity.q, popularity.m_total
    a = c1 * config.s_cache * config.cluster_size / gamma
    e = 1.0 - gamma
    if abs(e) < _GAMMA_ONE_EPS:
        num = math.log((a + q) / (q + 1.0)) - a / (a + q)
        den = math.log((m + q) / (q + 1.0))
    else:
        num = _pow(a + q, e) - e * _pow(a + q, -gamma) * a - _pow(q + 1.0, e)
        den = _pow(m + q, e) - _pow(q + 1.0, e)
    return num / den


def _lower_bound(popularity: PopularityModel, config: NetworkConfig) -> float:
    """Unclamped regime-2 bound, with D = q/M and beta = gamma/(S*(g_c-1)-1).

    The paper writes its decay as exp(gamma - rho/c1) with
    rho = c1*S*g_c/M; rho/c1 = S*g_c/M, so c1 cancels. At q = 0, where _pow
    takes the D-powers to their limits, the bound is its q -> 0+ limit:
    1 - (1-gamma)*exp(gamma - S*g_c/M) for gamma < 1, and 1 for gamma >= 1.
    """
    gamma = popularity.gamma
    n = _policy_exponent(config.s_cache, config.cluster_size)
    d, beta = popularity.q / popularity.m_total, gamma / n
    e = 1.0 - gamma
    decay = math.exp(gamma - config.s_cache * config.cluster_size / popularity.m_total)
    bracket = _pow(1.0 + d, beta + 1.0) - _pow(d, beta + 1.0)
    if abs(e) < _GAMMA_ONE_EPS:
        factor = decay / math.log((1.0 + d) / d) if d else 0.0
    else:
        factor = e * decay / (_pow(1.0 + d, e) - _pow(d, e))
    return 1.0 - factor * math.exp(-n * math.log(bracket))


def _hit_prob(popularity: PopularityModel, config: NetworkConfig, regime: str) -> float:
    """Clamped hit probability of a point that must lie in the given regime."""
    actual, c1 = _regime_of(popularity, config.s_cache, config.cluster_size)
    if actual != regime:
        raise RegimeError(
            f"cluster_size {config.cluster_size} is at or beyond gamma*M/(c1*S); "
            "use hit_prob_lower_bound (regime 2)"
            if regime == REGIME1
            else f"implied rho={c1 * config.s_cache * config.cluster_size / popularity.m_total:.4g}"
            f" < gamma={popularity.gamma}; "
            "cluster too small for the regime-2 bound (use the closed form)"
        )
    hit = _closed_form(popularity, config, c1) if regime == REGIME1 else _lower_bound(popularity, config)
    return _clamp_unit(hit)[0]


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
    regime, c1 = _regime_of(popularity, config.s_cache, config.cluster_size)
    throughput = config.cluster_rate / config.cluster_size
    if regime == REGIME1:
        if q > _KAPPA * config.s_cache * config.cluster_size / gamma:
            raise RegimeError(
                f"plateau factor q={q} exceeds kappa*S*g_c/gamma="
                f"{_KAPPA * config.s_cache * config.cluster_size / gamma:.4g}; "
                "the regime-1 outage expression assumes q = O(S*g_c/gamma)"
            )
        c6 = q / config.cluster_size
        s_c1 = config.s_cache * c1
        outage_raw = _pow(c6, gamma - 1.0) * (s_c1 + c6) / _pow(s_c1 / gamma + c6, gamma)
        hit = _closed_form(popularity, config, c1)
    else:
        hit = _lower_bound(popularity, config)
        outage_raw = 1.0 - hit
    outage, clamped = _clamp_unit(outage_raw)
    return TradeoffPoint(
        throughput=throughput,
        outage=outage,
        regime_tag=regime,
        g_c_used=config.cluster_size,
        hit_prob=_clamp_unit(hit)[0],
        clamped=clamped,
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
            _check_integer("cluster_size", g_c, 1)  # before max() can pass it on as n_users
            cfg = replace(base, cluster_size=g_c, n_users=max(base.n_users, g_c))
            points.append(tradeoff_point(popularity, cfg))
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
