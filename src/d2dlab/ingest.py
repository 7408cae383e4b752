"""Access-log ingestion: parse CSV logs, deduplicate accesses, rank contents.

Input format is UTF-8 CSV with header ``user_id,content_id,region_id[,timestamp]``.
Repeated accesses by the same user to the same content collapse into a
single unique access; contents are then ranked by distinct-user count.
"""
from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .popularity import EmpiricalDistribution

__all__ = [
    "AccessRecord",
    "LogFormatError",
    "ParseResult",
    "UniqueAccessSet",
    "parse_log",
    "dedup_unique",
    "to_empirical",
]

_REQUIRED_COLUMNS = ("user_id", "content_id", "region_id")
# An integer column: ASCII digits with an optional sign. int() alone also
# takes digit-group underscores and non-ASCII digits ("1_0", "٢").
_INTEGER = re.compile(r"[+-]?[0-9]+")


class LogFormatError(Exception):
    """The input is not in the documented CSV log format."""


class AccessRecord(NamedTuple):
    """One log row; its timestamp, if any, is checked but not kept."""

    user_id: str
    content_id: str
    region_id: int


@dataclass
class ParseResult:
    """Parsed records plus a row-accounting report."""

    records: list[AccessRecord]
    rows: int
    malformed: int


def parse_log(source) -> ParseResult:
    """Parse an access log from a path or text stream.

    Malformed rows (wrong arity, empty user/content id, a region or
    timestamp that is not ASCII digits with an optional sign) are counted in
    the result, never silently dropped. Whitespace around any field is
    allowed.
    Raises LogFormatError when the header is missing or wrong.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse_stream(fh)
    return _parse_stream(source)


def _parse_stream(stream) -> ParseResult:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise LogFormatError("empty input: missing header row") from None
    header = [h.strip() for h in header]
    has_timestamp = tuple(header) == (*_REQUIRED_COLUMNS, "timestamp")
    if not has_timestamp and tuple(header) != _REQUIRED_COLUMNS:
        raise LogFormatError(
            f"bad header {header!r}; expected user_id,content_id,region_id[,timestamp]"
        )
    width = 4 if has_timestamp else 3

    records: list[AccessRecord] = []
    # Parsed region per raw string, None for a malformed one: a log holds a
    # handful of regions, so each is parsed once.
    regions: dict[str, int | None] = {}
    rows = 0
    malformed = 0
    for row in reader:
        if not row:
            continue
        rows += 1
        if len(row) != width:
            malformed += 1
            continue
        user_id = row[0].strip()
        content_id = row[1].strip()
        if not user_id or not content_id:
            malformed += 1
            continue
        try:
            region_id = regions[row[2]]
        except KeyError:
            raw = row[2].strip()
            region_id = regions[row[2]] = int(raw) if _INTEGER.fullmatch(raw) else None
        if region_id is None:
            malformed += 1
            continue
        if has_timestamp:
            timestamp = row[3].strip()
            if timestamp and not _INTEGER.fullmatch(timestamp):
                malformed += 1
                continue
        records.append(AccessRecord(user_id, content_id, region_id))
    return ParseResult(records=records, rows=rows, malformed=malformed)


@dataclass
class UniqueAccessSet:
    """Per-content distinct-user counts (they sum to the unique pairs) and the user count."""

    per_content_counts: dict[str, int]
    n_users: int

    @property
    def n_unique(self) -> int:
        return sum(self.per_content_counts.values())

    @property
    def n_contents(self) -> int:
        return len(self.per_content_counts)


def dedup_unique(records: list[AccessRecord]) -> UniqueAccessSet:
    """Collapse repeated accesses by one user to one content into one pair.

    Within the log's window every repeat of the same (user, content) pair
    counts as the same unique access. The pairs are counted per content and
    per user, then dropped.
    """
    pairs = {(r.user_id, r.content_id) for r in records}
    counts = Counter(content for _, content in pairs)
    return UniqueAccessSet(per_content_counts=dict(counts), n_users=len({u for u, _ in pairs}))


def to_empirical(unique: UniqueAccessSet) -> EmpiricalDistribution:
    """Rank contents by descending distinct-user count.

    Ties break by content_id lexicographic order so the ranking is
    deterministic regardless of input order.
    """
    if not unique.per_content_counts:
        raise ValueError("cannot rank an empty access set")
    ranked = sorted(unique.per_content_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    counts = np.array([c for _, c in ranked], dtype=np.float64)
    return EmpiricalDistribution(counts=counts)
