"""Synthetic regional access logs for tests, demos, and CLI examples.

The real measurement data behind the regional parameter presets is not
redistributable, so fixtures are generated deterministically by sampling
from the fitted regional popularity models.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .network import _check_integer
from .popularity import PopularityModel, sample_ranks

# Fitted (gamma, q, library size) per coverage region, most to least populous.
REGION_PRESETS: dict[int, tuple[float, float, int]] = {
    1: (1.28, 34.0, 18553),
    2: (1.16, 22.0, 7345),
    3: (1.11, 18.0, 5405),
}

# Fraction of accesses that write_region_log repeats as a second, identical row.
_DUPLICATE_RATE = 0.1

# Accesses write_region_log draws and formats at a time.
_CHUNK = 1 << 16

# Least digits of a user id, and the digits of a rank: every preset's
# library is below 10**6 contents.
_USER_DIGITS = 7
_RANK_DIGITS = 6


def region_model(region: int) -> PopularityModel:
    """Popularity model preset for a coverage region (1, 2, or 3).

    region must be an integer: 2.0 and True would find a preset too, and
    write_region_log would write them into the log as they print."""
    try:
        gamma, q, m_total = REGION_PRESETS[_check_integer("region", region)]
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

    Seed contract: of the default_rng(seed) stream, access i takes its rank
    from double i and its repeat flag from double n_accesses + i, so the
    ranks use the first n_accesses doubles and the flags the next
    n_accesses. Rows are written as csv.writer writes them, with \\r\\n
    terminators, _CHUNK accesses at a time, so memory stays bounded at any
    n_accesses.
    """
    n_accesses = _check_integer("n_accesses", n_accesses, 0)
    model = region_model(region)
    ranks_rng = np.random.default_rng(seed)
    flags_rng = np.random.default_rng(seed)
    flags_rng.bit_generator.advance(n_accesses)  # one double takes one 64-bit output
    with open(path, "wb") as fh:
        fh.write(b"user_id,content_id,region_id\r\n")
        lo = 0
        while lo < n_accesses:
            # A chunk stops at the next power of ten, where the ids grow a digit.
            hi = min(lo + _CHUNK, n_accesses, 10 ** max(_USER_DIGITS, len(str(lo))))
            ranks = sample_ranks(model, ranks_rng, hi - lo)
            times = 1 + (flags_rng.random(hi - lo) < _DUPLICATE_RATE)
            users = np.repeat(np.arange(lo, hi), times)
            fh.write(_format_rows(users, np.repeat(ranks, times), region))
            lo = hi
    return model


def _format_rows(users: np.ndarray, ranks: np.ndarray, region: int) -> np.ndarray:
    """The rows f"u{user:07d},c{rank:06d},{region}\\r\\n" as a uint8 matrix.

    Every user id must have the same number of digits, so that every row
    has the same width; each row is then a copy of one template with the
    ASCII digits of its ids written in.
    """
    width = max(_USER_DIGITS, len(str(int(users[-1]))))
    template = f"u{0:0{width}d},c{0:0{_RANK_DIGITS}d},{region}\r\n".encode("ascii")
    rows = np.empty((users.size, len(template)), dtype=np.uint8)
    rows[:] = np.frombuffer(template, dtype=np.uint8)
    for col, values, digits in ((1, users, width), (width + 3, ranks, _RANK_DIGITS)):
        for c in range(col + digits - 1, col - 1, -1):  # least significant digit first
            tens = values // 10
            rows[:, c] = values - tens * 10 + ord("0")
            values = tens
    return rows
