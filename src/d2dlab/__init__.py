"""Caching-based D2D content delivery under MZipf popularity.

Fits Mandelbrot-Zipf popularity models to request logs, computes the
optimal random caching policy by water-filling, evaluates closed-form
throughput-outage tradeoffs, and validates them with Monte Carlo
simulation of a clustered grid network.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .analysis import (
    REGIME1,
    REGIME2,
    RegimeError,
    TradeoffPoint,
    hit_prob_closed_form,
    hit_prob_lower_bound,
    tradeoff_curve,
    tradeoff_point,
)
from .fixtures import REGION_PRESETS, region_model, write_region_log
from .ingest import (
    AccessRecord,
    LogFormatError,
    ParseResult,
    UniqueAccessSet,
    dedup_unique,
    parse_log,
    to_empirical,
)
from .network import NetworkConfig
from .policy import (
    CachingPolicy,
    ScalingConstants,
    optimal_policy,
    policy_from_probs,
    scaling_constants,
    solve_c1,
    theoretical_mstar,
    z_values,
)
from .popularity import (
    EmpiricalDistribution,
    FitResult,
    PopularityModel,
    UnidentifiableFitError,
    fit_mzipf,
    kl_distance,
    sample_ranks,
)
from .simulator import (
    GridNetwork,
    SimOutcome,
    SweepPoint,
    TrialOutcome,
    build_grid,
    run_monte_carlo,
    run_trial,
    simulate_tradeoff,
)

__all__ = [
    "__version__",
    "AccessRecord",
    "CachingPolicy",
    "EmpiricalDistribution",
    "FitResult",
    "GridNetwork",
    "LogFormatError",
    "NetworkConfig",
    "ParseResult",
    "PopularityModel",
    "REGIME1",
    "REGIME2",
    "REGION_PRESETS",
    "RegimeError",
    "ScalingConstants",
    "SimOutcome",
    "SweepPoint",
    "TradeoffPoint",
    "TrialOutcome",
    "UniqueAccessSet",
    "UnidentifiableFitError",
    "build_grid",
    "dedup_unique",
    "fit_mzipf",
    "hit_prob_closed_form",
    "hit_prob_lower_bound",
    "kl_distance",
    "optimal_policy",
    "parse_log",
    "policy_from_probs",
    "region_model",
    "run_monte_carlo",
    "run_trial",
    "sample_ranks",
    "scaling_constants",
    "simulate_tradeoff",
    "solve_c1",
    "theoretical_mstar",
    "to_empirical",
    "tradeoff_curve",
    "tradeoff_point",
    "write_region_log",
    "z_values",
]
