"""Caching-based D2D content delivery under MZipf popularity.

Fits Mandelbrot-Zipf popularity models to request logs, computes the
optimal random caching policy by water-filling, evaluates closed-form
throughput-outage tradeoffs, and validates them with Monte Carlo
simulation of a clustered grid network.

The package namespace re-exports each module's ``__all__``.
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import analysis, fixtures, ingest, network, policy, popularity, simulator
from .analysis import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .ingest import *  # noqa: F401,F403
from .network import *  # noqa: F401,F403
from .policy import *  # noqa: F401,F403
from .popularity import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (analysis, fixtures, ingest, network, policy, popularity, simulator)
    for name in module.__all__
]
