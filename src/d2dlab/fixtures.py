"""Synthetic regional access logs for tests, demos, and CLI examples.

The real measurement data behind the regional parameter presets is not
redistributable, so fixtures are generated deterministically by sampling
from the fitted regional popularity models.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .popularity import PopularityModel, sample_ranks

__all__ = ["REGION_PRESETS", "region_model", "write_region_log"]

# Fitted (gamma, q, library size) per coverage region, most to least populous.
REGION_PRESETS: dict[int, tuple[float, float, int]] = {
    1: (1.28, 34.0, 18553),
    2: (1.16, 22.0, 7345),
    3: (1.11, 18.0, 5405),
}

# Fraction of accesses that write_region_log repeats as a second, identical row.
_DUPLICATE_RATE = 0.1


def region_model(region: int) -> PopularityModel:
    """Popularity model preset for a coverage region (1, 2, or 3)."""
    try:
        gamma, q, m_total = REGION_PRESETS[region]
    except KeyError:
        raise ValueError(f"unknown region {region}; presets exist for {sorted(REGION_PRESETS)}")
    return PopularityModel(gamma=gamma, q=q, m_total=m_total)


def write_region_log(
    path: str | Path,
    region: int = 2,
    n_accesses: int = 100_000,
    seed: int = 0,
) -> PopularityModel:
    """Write a synthetic access log sampled from a regional model.

    Every access gets its own user id, so after deduplication the ranked
    counts reproduce the sampled multiset exactly. One access in ten
    (_DUPLICATE_RATE) additionally emits a repeat row for the same
    (user, content) pair, exercising the dedup path. Returns the model
    the log was sampled from.
    """
    model = region_model(region)
    rng = np.random.default_rng(seed)
    ranks = sample_ranks(model, rng, n_accesses)
    dup = rng.random(n_accesses) < _DUPLICATE_RATE
    # The ids need no CSV quoting, so each row is written as csv.writer
    # would write it, with its \r\n terminator.
    rows = []
    for i, (rank, twice) in enumerate(zip(ranks.tolist(), dup.tolist())):
        row = f"u{i:07d},c{rank:06d},{region}\r\n"
        rows.append(row + row if twice else row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user_id,content_id,region_id\r\n" + "".join(rows))
    return model
