"""Caching-based D2D content delivery under MZipf popularity.

Fits Mandelbrot-Zipf popularity models to request logs, computes the
optimal random caching policy by water-filling, evaluates closed-form
throughput-outage tradeoffs, and validates them with Monte Carlo
simulation of a clustered network.

``_EXPORTS`` is the one list of public names, grouped by module. The
package namespace re-exports them through a module ``__getattr__`` (PEP
562), which loads a module when one of its names, or its own name, is
first read. So ``import d2dlab`` loads no module, and a program loads
only the modules whose names it reads.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The one list of public names: each module's, in the order the namespace
# lists the modules. A module's public names are those its own source binds
# at top level without a leading underscore; tests/test_package.py checks it.
_EXPORTS = {
    "analysis": ("RegimeError", "TradeoffPoint", "REGIME1", "REGIME2", "hit_prob_closed_form",
                 "hit_prob_lower_bound", "tradeoff_point", "tradeoff_curve"),
    "fixtures": ("REGION_PRESETS", "region_model", "write_region_log"),
    "ingest": ("AccessRecord", "IngestReport", "LogFormatError", "ParseResult", "UniqueAccessSet",
               "parse_log", "read_counts", "dedup_unique", "to_empirical"),
    "network": ("NetworkConfig",),
    "policy": ("CachingPolicy", "solve_c1", "optimal_policy", "theoretical_mstar"),
    "popularity": ("PopularityModel", "EmpiricalDistribution", "FitResult",
                   "UnidentifiableFitError", "sample_ranks", "fit_mzipf"),
    "simulator": ("GridNetwork", "TrialOutcome", "SimOutcome", "SweepPoint", "build_grid",
                  "run_trial", "run_monte_carlo", "simulate_tradeoff"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
