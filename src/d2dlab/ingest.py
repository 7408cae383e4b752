"""Access-log ingestion: parse CSV logs, deduplicate accesses, rank contents.

Input format is UTF-8 CSV with header ``user_id,content_id,region_id[,timestamp]``;
a file may start with a byte-order mark.
Repeated accesses by the same user to the same content collapse into a
single unique access; contents are then ranked by distinct-user count.
``read_counts`` does all of this in one pass over the log. ``parse_log``,
``dedup_unique`` and ``to_empirical`` take the same steps one at a time,
through the same row check and the same counting.

The log is read forward, once, from any text source: a path, a pipe or
a stream. It comes in chunks of whole lines, each turned into columns of
user ids, content ids and regions. A plain chunk is split and checked by
numpy on its bytes: printable ASCII with no double quote and no
whitespace, lines ended by ``\n`` or ``\r\n``, no field over
``csv.field_size_limit()``. Logs written by a program, such as those of
``fixtures.write_region_log``, are plain throughout. From the first chunk
that is not plain on (quoted, padded or non-ASCII fields, a lone ``\r``),
``csv.reader`` reads that chunk and the rest. Either way rows are split as
in a file opened with ``newline=""``, and on plain text the two agree
field for field, so rows, reports and counts are the same whichever
source and whichever reader a log takes.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import re
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from operator import eq, itemgetter
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

# Characters a chunk of the log holds, before it runs on to the end of a line.
_CHUNK = 1 << 15
# The bytes of plain text (see _plain_columns) but \r: printable ASCII other
# than the double quote, and \n. A \r may come right before a \n.
_PLAIN = bytes(c for c in range(0x21, 0x7F) if c != ord('"')) + b"\n"
_COMMA, _LF, _CR, _MINUS = b",\n\r-"
_SIGN = np.zeros(256, dtype=np.int64)
_SIGN[list(b"+-")] = 1
# The most digits of a region that numpy parses, so that it fits an int64.
_REGION_DIGITS = 18


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

    One forward pass checks each row as parse_log does, keeps the rows of
    `region` (every checked row when it is None) and interns their user and
    content ids to int codes a chunk of columns at a time; repeats then
    collapse in one in-place sort. Rows split as in a file opened with
    newline=""; plain chunks are checked by numpy and the rest by csv.reader
    (see the module docstring), and the counts and the report are the same
    either way.
    Raises LogFormatError when the header is missing or wrong or a line
    cannot be read, and ValueError when no row is kept.
    """
    with _opened(source) as stream:
        rows = _CheckedColumns(stream)
        pairs = _count_pairs(_in_region(rows, region))
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
    """Parse an access log from a path or text stream, read forward once.

    Malformed rows (wrong arity, empty user/content id, a region or
    timestamp that is not ASCII digits with an optional sign) are counted in
    the result, never silently dropped. Whitespace around any field is
    allowed.
    Rows split as in a file opened with newline=""; plain chunks are
    checked by numpy and the rest by csv.reader (see the module docstring),
    and the records are the same either way. They are built from the
    reader's columns with no Python-level call per row, and the cyclic
    garbage collector is paused while the list grows.
    Raises LogFormatError when the header is missing or wrong, or when a
    line cannot be read: a field over csv.field_size_limit(), or text that
    is not UTF-8.
    """
    records: list[AccessRecord] = []
    record = partial(tuple.__new__, AccessRecord)
    # The records are tracked tuples that hold no cycle, so each collection
    # while the list grows would walk them for nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with _opened(source) as stream:
            rows = _CheckedColumns(stream)
            for columns in rows:
                records.extend(map(record, zip(*columns)))
    finally:
        if collecting:
            gc.enable()
    return ParseResult(records=records, rows=rows.rows, malformed=rows.malformed)


def _opened(source):
    """A context manager for a text stream: a path opened as UTF-8, or the stream given.

    A path may start with a UTF-8 byte-order mark, as spreadsheet "CSV UTF-8"
    exports do; it is skipped. A stream is read as given.
    """
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline="")
    return contextlib.nullcontext(source)


class _CheckedColumns:
    """The rows of a log that pass the row check, as columns, a chunk of lines at a time.

    The header is checked on construction. Iterating reads the rows once and
    yields (user ids, content ids, region ids) lists; after that, rows
    holds the number of non-blank rows read and malformed the number of
    those that failed the check. The stream is read forward once, by one
    loop over _chunks: _CHUNK characters and the rest of the line they end
    in. While chunks are plain, _plain_columns splits and checks them. From
    the first chunk that is not plain on, csv.reader and the row check in
    _csv_columns read each chunk's lines as a file opened with newline=""
    splits them, line numbers offset by the lines before that chunk.
    """

    def __init__(self, stream) -> None:
        self._stream = stream
        reader = csv.reader(iter(stream.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise LogFormatError("empty input: missing header row") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _unreadable(exc, reader.line_num) from None
        header = [h.strip() for h in header]
        self._width = 4 if tuple(header) == (*_REQUIRED_COLUMNS, "timestamp") else 3
        if self._width == 3 and tuple(header) != _REQUIRED_COLUMNS:
            raise LogFormatError(
                f"bad header {header!r}; expected user_id,content_id,region_id[,timestamp]"
            )
        self._lines = reader.line_num  # lines read before the next chunk
        self.rows = 0
        self.malformed = 0

    def __iter__(self):
        limit = csv.field_size_limit()
        chunks = _chunks(self._stream)
        try:
            for text in chunks:
                plain = _plain_columns(text, self._width, limit)
                if plain is None:
                    yield from self._csv_columns(chain([text], chunks))
                    return
                lines, rows, users, contents, regions = plain
                self._lines += lines
                self.rows += rows
                self.malformed += rows - len(users)
                yield users, contents, regions
        except UnicodeDecodeError as exc:
            raise _unreadable(exc, self._lines) from None

    def _csv_columns(self, chunks):
        """The checked rows of chunks, through csv.reader over their lines."""
        has_timestamp = self._width == 4
        # Parsed region per raw string, None for a malformed one: a log holds
        # a handful of regions, so each is parsed once.
        regions: dict[str, int | None] = {}
        batch = max(1, _CHUNK // 16)  # rows yielded at a time, about a chunk's worth
        users: list[str] = []
        contents: list[str] = []
        region_ids: list[int] = []
        rows = 0
        malformed = 0
        reader = csv.reader(chain.from_iterable(io.StringIO(text, newline="") for text in chunks))
        try:
            for row in reader:
                if not row:
                    continue
                rows += 1
                if len(row) != self._width:
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
                users.append(user_id)
                contents.append(content_id)
                region_ids.append(region_id)
                if len(users) == batch:
                    yield users, contents, region_ids
                    users, contents, region_ids = [], [], []
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _unreadable(exc, self._lines + reader.line_num) from None
        self.rows += rows
        self.malformed += malformed
        if users:
            yield users, contents, region_ids


def _chunks(stream):
    """The rest of stream, as _CHUNK characters and the rest of the line they end in."""
    while text := stream.read(_CHUNK):
        if not text.endswith("\n"):
            text += stream.readline()
        yield text


def _plain_columns(text: str, width: int, limit: int):
    """Split and check a chunk of whole lines on its bytes, if it is plain.

    Plain text is printable ASCII other than the double quote, split by
    commas and by line ends \n or \r\n, with every field shorter than
    limit. csv.reader would split it at the same commas and line ends, and
    strip would change no field. Returns None for any other text, else
    (lines, rows, user ids, content ids, region ids): the number of lines
    and of non-blank lines, and the columns of the rows that pass the row
    check. A chunk with a region of more than _REGION_DIGITS digits is not
    plain either.
    """
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"  # the last line of a log that does not end in a line break
    data = text.encode("ascii")
    odd = data.translate(None, _PLAIN)  # plain text leaves only the \r of each \r\n
    a = np.frombuffer(data, np.uint8)
    sep = np.flatnonzero((a == _COMMA) | (a == _LF))  # the byte after each field
    length = np.diff(sep, prepend=-1) - 1  # a line's last field may hold its \r
    if length.max() >= limit:
        return None
    last = np.flatnonzero(a[sep] == _LF)  # each line's last field
    line_end = sep[last]
    # line_end - 1 is -1 only for a blank first line, and a[-1] is a \n.
    cr = a[line_end - 1] == _CR
    if np.count_nonzero(cr) != len(odd):
        return None  # a byte that is not plain, or a \r that does not end a line
    n_fields = np.diff(last, prepend=-1)
    rows = last.size - int(np.count_nonzero((n_fields == 1) & (length[last] == cr)))
    arity = n_fields == width
    user = last[arity] - (width - 1)  # the index of each such row's user id
    end = line_end[arity] - cr[arity]  # the end of its last field
    region_end = end if width == 3 else sep[user + 2]
    good, first, n = _integer_fields(a, sep[user + 1] + 1, region_end)
    good &= (length[user] > 0) & (length[user + 1] > 0)
    if width == 4:
        timestamp = sep[user + 2] + 1
        good &= (timestamp == end) | _integer_fields(a, timestamp, end)[0]
    most = n.max(initial=0, where=good)  # the digits of the longest region
    if most > _REGION_DIGITS:
        return None
    region = np.zeros(n.size, dtype=np.int64)
    for k in range(most):  # the regions' digits, left to right
        more = good & (n > k)
        region[more] = region[more] * 10 + (a[first[more] + k] - ord("0"))
    region[a[first - 1] == _MINUS] *= -1  # before the digits: the sign, or the comma
    region = region[good].tolist()
    fields = text.replace("\n", ",").split(",")
    if user.size == last.size and good.all():  # every line a good row: the columns are strides
        stop = user.size * width
        return last.size, rows, fields[0:stop:width], fields[1:stop:width], region
    user = user[good]
    field = fields.__getitem__
    return (last.size, rows, list(map(field, user.tolist())),
            list(map(field, (user + 1).tolist())), region)


def _integer_fields(a: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Check fields a[start:end] against _INTEGER: ASCII digits after an optional sign.

    Returns (ok, first, n): whether each field passes, and where its digits
    start in a and how many there are. a[start] is the field's first byte,
    or the separator after an empty field, so it is never out of range.
    """
    first = start + _SIGN[a[start]]
    n = end - first
    offset = np.cumsum(n) - n  # where each field's digits start among all digits
    digits = a[np.arange(n.sum()) + np.repeat(first - offset, n)]
    ok = n > 0
    bad = np.flatnonzero((digits < ord("0")) | (digits > ord("9")))
    if bad.size:
        ok[np.searchsorted(offset, bad, side="right") - 1] = False
    return ok, first, n


def _unreadable(exc: csv.Error | UnicodeDecodeError, lines_read: int) -> LogFormatError:
    """The format error for a line the reader could not read, lines_read lines in."""
    if isinstance(exc, UnicodeDecodeError):
        # Text is decoded ahead of the reader, so the bad byte can lie
        # past the line the reader stands at.
        return LogFormatError(f"not UTF-8 text at or after line {lines_read + 1}: {exc.reason}")
    return LogFormatError(f"line {lines_read}: {exc}")


def _in_region(columns, region: int | None):
    """(user ids, content ids) of each chunk's rows in region, or of all rows when it is None."""
    for users, contents, regions in columns:
        if region is not None:
            keep = list(map(eq, regions, repeat(region)))
            users = list(compress(users, keep))
            contents = list(compress(contents, keep))
        yield users, contents


class _PairCounts(NamedTuple):
    users: dict[str, int]  # user id -> code, in order of first appearance
    contents: dict[str, int]  # content id -> code, in order of first appearance
    kept: int  # rows counted, repeats included
    unique: int  # distinct (user, content) pairs
    counts: np.ndarray  # distinct users per content, indexed by content code


def _count_pairs(columns) -> _PairCounts:
    """Count the distinct users of each content over (user ids, content ids) column pairs.

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
    for user_ids, content_ids in columns:
        for user_id, content_id in zip(user_ids, content_ids):
            user_codes.append(users.setdefault(user_id, len(users)))
            content_codes.append(contents.setdefault(content_id, len(contents)))
    n_contents = len(contents)
    keys = np.frombuffer(user_codes, np.int64) * n_contents
    keys += np.frombuffer(content_codes, np.int64)
    # Each array goes once it is read, so at most two row-sized arrays live.
    del user_codes, content_codes
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pairs = keys[first]
    kept = keys.size
    del keys, first
    counts = np.bincount(np.remainder(pairs, n_contents, out=pairs), minlength=n_contents)
    return _PairCounts(users, contents, kept, pairs.size, counts)


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
    pairs = _count_pairs([(map(itemgetter(0), records), map(itemgetter(1), records))])
    return UniqueAccessSet(per_content_counts=dict(zip(pairs.contents, pairs.counts.tolist())),
                           n_users=len(pairs.users))


def to_empirical(unique: UniqueAccessSet) -> EmpiricalDistribution:
    """Rank contents by descending distinct-user count.

    The distribution keeps the counts only, not which content holds which
    rank.
    """
    return _ranked(np.fromiter(unique.per_content_counts.values(), np.int64, unique.n_contents))
