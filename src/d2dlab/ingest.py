"""Access-log ingestion: parse CSV logs, deduplicate accesses, rank contents.

Input format is UTF-8 CSV with header ``user_id,content_id,region_id[,timestamp]``;
a file may start with a byte-order mark.
Repeated accesses by the same user to the same content collapse into a
single unique access; contents are then ranked by distinct-user count.
``read_counts`` does all of this in one pass over the log. ``parse_log``,
``dedup_unique`` and ``to_empirical`` take the same steps one at a time,
through the same row check and the same counting.
"""
from __future__ import annotations

import contextlib
import csv
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .popularity import EmpiricalDistribution

__all__ = [
    "AccessRecord",
    "IngestReport",
    "LogFormatError",
    "ParseResult",
    "UniqueAccessSet",
    "parse_log",
    "read_counts",
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


@dataclass(frozen=True)
class IngestReport:
    """Row accounting of one log read.

    rows counts the non-blank rows after the header and malformed those of
    them that failed the row check. kept counts the checked rows in the
    region asked for, or every checked row when none was. unique_pairs,
    distinct_users and distinct_contents describe the kept rows after
    repeats of a (user, content) pair collapse.
    """

    rows: int
    malformed: int
    kept: int
    unique_pairs: int
    distinct_users: int
    distinct_contents: int


def read_counts(source, region: int | None = None) -> tuple[EmpiricalDistribution, IngestReport]:
    """Read an access log from a path or text stream into ranked distinct-user counts.

    One pass checks each row as parse_log does, keeps the rows of `region`
    (every checked row when it is None) and interns their user and content
    ids to int codes; repeats then collapse in one in-place sort.
    Raises LogFormatError when the header is missing or wrong or a line
    cannot be read, and ValueError when no row is kept.
    """
    with _opened(source) as stream:
        rows = _CheckedRows(stream)
        pairs = _count_pairs(rows if region is None else (row for row in rows if row[2] == region))
    report = IngestReport(
        rows=rows.rows,
        malformed=rows.malformed,
        kept=pairs.kept,
        unique_pairs=pairs.unique,
        distinct_users=len(pairs.users),
        distinct_contents=len(pairs.contents),
    )
    return _ranked(pairs.counts), report


def parse_log(source) -> ParseResult:
    """Parse an access log from a path or text stream.

    Malformed rows (wrong arity, empty user/content id, a region or
    timestamp that is not ASCII digits with an optional sign) are counted in
    the result, never silently dropped. Whitespace around any field is
    allowed.
    Raises LogFormatError when the header is missing or wrong, or when a
    line cannot be read: a field over csv.field_size_limit(), or text that
    is not UTF-8.
    """
    with _opened(source) as stream:
        rows = _CheckedRows(stream)
        records = [AccessRecord(*row) for row in rows]
    return ParseResult(records=records, rows=rows.rows, malformed=rows.malformed)


def _opened(source):
    """A context manager for a text stream: a path opened as UTF-8, or the stream given.

    A path may start with a UTF-8 byte-order mark, as spreadsheet "CSV UTF-8"
    exports do; it is skipped. A stream is read as given.
    """
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    return contextlib.nullcontext(source)


class _CheckedRows:
    """The rows of a log that pass the row check, as (user_id, content_id, region_id).

    The header is checked on construction. Iterating reads the rows once;
    after that, rows holds the number of non-blank rows read and malformed
    the number of those that failed the check.
    """

    def __init__(self, stream) -> None:
        self._reader = csv.reader(stream)
        try:
            header = next(self._reader)
        except StopIteration:
            raise LogFormatError("empty input: missing header row") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise self._unreadable(exc) from None
        header = [h.strip() for h in header]
        self._has_timestamp = tuple(header) == (*_REQUIRED_COLUMNS, "timestamp")
        if not self._has_timestamp and tuple(header) != _REQUIRED_COLUMNS:
            raise LogFormatError(
                f"bad header {header!r}; expected user_id,content_id,region_id[,timestamp]"
            )
        self.rows = 0
        self.malformed = 0

    def __iter__(self):
        has_timestamp = self._has_timestamp
        width = 4 if has_timestamp else 3
        # Parsed region per raw string, None for a malformed one: a log holds
        # a handful of regions, so each is parsed once.
        regions: dict[str, int | None] = {}
        rows = 0
        malformed = 0
        try:
            for row in self._reader:
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
                yield user_id, content_id, region_id
        except (csv.Error, UnicodeDecodeError) as exc:
            raise self._unreadable(exc) from None
        self.rows = rows
        self.malformed = malformed

    def _unreadable(self, exc: csv.Error | UnicodeDecodeError) -> LogFormatError:
        """The format error for a line the csv reader could not read."""
        if isinstance(exc, UnicodeDecodeError):
            # Text is decoded ahead of the reader, so the bad byte can lie
            # past the line the reader stands at.
            return LogFormatError(
                f"not UTF-8 text at or after line {self._reader.line_num + 1}: {exc.reason}"
            )
        return LogFormatError(f"line {self._reader.line_num}: {exc}")


class _PairCounts(NamedTuple):
    users: dict[str, int]  # user id -> code, in order of first appearance
    contents: dict[str, int]  # content id -> code, in order of first appearance
    kept: int  # rows counted, repeats included
    unique: int  # distinct (user, content) pairs
    counts: np.ndarray  # distinct users per content, indexed by content code


def _count_pairs(rows) -> _PairCounts:
    """Count the distinct users of each content over (user_id, content_id, region_id) rows.

    Each id gets an int code, so a pair is the one int64 key
    user*n_contents + content: dedup sorts the keys in place and keeps the
    first of each run of equal keys, and the per-content counts are one
    np.bincount. (np.unique would do the same, but its first call imports
    numpy.ma, which costs a fit process more time than the dedup.)
    """
    users: dict[str, int] = {}
    contents: dict[str, int] = {}
    user_codes = array("q")
    content_codes = array("q")
    for user_id, content_id, _ in rows:
        user_codes.append(users.setdefault(user_id, len(users)))
        content_codes.append(contents.setdefault(content_id, len(contents)))
    n_contents = len(contents)
    keys = np.frombuffer(user_codes, np.int64) * n_contents
    keys += np.frombuffer(content_codes, np.int64)
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pairs = keys[first]
    counts = np.bincount(pairs % n_contents, minlength=n_contents)
    return _PairCounts(users, contents, len(user_codes), pairs.size, counts)


def _ranked(counts: np.ndarray) -> EmpiricalDistribution:
    """Distinct-user counts in descending order, rank 1 first.

    Only the counts are kept, so which of two equally counted contents
    takes the lower rank reaches no output.
    """
    if not counts.size:
        raise ValueError("cannot rank an empty access set")
    return EmpiricalDistribution(counts=np.sort(counts)[::-1].astype(np.float64))


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
    pairs = _count_pairs(records)
    return UniqueAccessSet(per_content_counts=dict(zip(pairs.contents, pairs.counts.tolist())),
                           n_users=len(pairs.users))


def to_empirical(unique: UniqueAccessSet) -> EmpiricalDistribution:
    """Rank contents by descending distinct-user count.

    The distribution keeps the counts only, not which content holds which
    rank.
    """
    return _ranked(np.fromiter(unique.per_content_counts.values(), np.int64, unique.n_contents))
