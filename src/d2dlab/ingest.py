"""Access-log ingestion: parse CSV logs, deduplicate accesses, rank contents.

Input format is UTF-8 CSV with header ``user_id,content_id,region_id[,timestamp]``;
a file may start with a byte-order mark.
Repeated accesses by the same user to the same content collapse into a
single unique access; contents are then ranked by distinct-user count.
``read_counts`` does all of this in one pass over the log. ``parse_log``,
``dedup_unique`` and ``to_empirical`` take the same steps one at a time,
through the same row check and the same counting.

The log is read forward, once, from any text source: a path, a pipe or
a stream. It comes in chunks of whole lines, each split into columns of
fields. A plain chunk is split by numpy on its bytes: printable ASCII with
no double quote and no whitespace, lines ended by ``\n`` or ``\r\n``, no
field over ``csv.field_size_limit()``. Logs written by a program, such as
those of ``fixtures.write_region_log``, are plain throughout. From the
first chunk that is not plain on (quoted, padded or non-ASCII fields, a
lone ``\r``), ``csv.reader`` reads that chunk and the rest. Either way rows
are split as in a file opened with ``newline=""``, and on plain text the
two agree field for field. One row check then serves both readers, so
rows, reports and counts are the same whichever source and whichever
reader a log takes. A region of any length leaves a chunk plain; one of
more digits than ``int()`` converts is malformed on either path.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import io
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import eq, is_not, itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .network import _INTEGER, _check_integer, _parse_integer
from .popularity import EmpiricalDistribution

_REQUIRED_COLUMNS = ("user_id", "content_id", "region_id")

# Characters a chunk of the log holds, before it runs on to the end of a line.
_CHUNK = 1 << 15
# The bytes of plain text (see _plain_columns): printable ASCII other than
# the double quote, and \n.
_PLAIN = bytes(c for c in range(0x21, 0x7F) if c != ord('"')) + b"\n"
_COMMA, _LF = b",\n"


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
    content ids to int codes a chunk of columns at a time, one dict lookup
    per id with no Python-level step per row; repeats then collapse in one
    in-place sort. Rows split as in a file opened with
    newline=""; numpy splits plain chunks and csv.reader the rest (see the
    module docstring), and one row check serves both, so the counts and the
    report are the same either way.
    Raises LogFormatError when the header is missing or wrong or a line
    cannot be read, and ValueError, naming the region and the number of
    checked rows, when no row is kept. A region other than None must be an
    integer, of either sign as in the log (True would keep region 1), or a
    ValueError is raised before the log is read.
    """
    if region is not None:
        region = _check_integer("region", region)
    with _opened(source) as stream:
        rows = _CheckedColumns(stream)
        pairs = _count_pairs(_in_region(rows, region))
    if not pairs.kept:
        checked = rows.rows - rows.malformed
        found = ("the log has no checked row" if region is None
                 else f"no row of region {region} among the log's {checked} checked rows")
        raise ValueError(f"cannot rank an empty access set: {found}")
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
    timestamp that is not ASCII digits with an optional sign, a region of
    more digits than int() converts) are counted in the result, never
    silently dropped. Whitespace around any field is allowed.
    Rows split as in a file opened with newline=""; numpy splits plain
    chunks and csv.reader the rest (see the module docstring), and one row
    check serves both, so the records are the same either way. They are
    built from the checked columns with no Python-level call per row, and
    the cyclic garbage collector is paused while the list grows. If it was
    enabled and no object is frozen (gc.get_freeze_count() is 0), every
    tracked object then moves to the oldest generation, unwalked, through
    gc.freeze() and gc.unfreeze(), so no young collection walks the records.
    Objects allocated since the last collection move too, the caller's
    among them, so cyclic garbage among those waits for the next full
    collection. With objects frozen, nothing moves.
    Raises LogFormatError when the header is missing or wrong, or when a
    line cannot be read: a field over csv.field_size_limit(), or text that
    is not UTF-8.
    """
    records: list[AccessRecord] = []
    record = partial(tuple.__new__, AccessRecord)
    # The records are tracked tuples that hold no cycle, so each collection
    # while the list grows, or after it, would walk them for nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with _opened(source) as stream:
            rows = _CheckedColumns(stream)
            for columns in rows:
                records.extend(map(record, zip(*columns)))
    finally:
        if collecting:
            if not gc.get_freeze_count():  # a caller's frozen objects stay frozen
                gc.freeze()
                gc.unfreeze()
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

    The stream is read forward once, by one loop over _chunks: _CHUNK
    characters and the rest of the line they end in. The header is checked
    on construction: csv.reader takes it from the first chunk, split as a
    file opened with newline="" splits it, and the rest of that chunk is
    read with the rows. Iterating reads the rows once and yields (user ids,
    content ids, region ids) lists; after that, rows holds the number of
    non-blank rows read and malformed the number of those that failed the
    check. While chunks are plain, _plain_columns splits them. From the
    first chunk that is not plain on, csv.reader in _csv_columns reads each
    chunk's lines as a file opened with newline="" splits them, line numbers
    offset by the lines before that chunk. Either reader's columns go
    through the one row check, _good_rows.
    """

    def __init__(self, stream) -> None:
        self._chunks = _chunks(stream)
        try:
            first = io.StringIO(next(self._chunks, ""), newline="")
        except UnicodeDecodeError as exc:
            raise _unreadable(exc, 0) from None
        reader = csv.reader(first)
        try:
            header = next(reader)
        except StopIteration:
            raise LogFormatError("empty input: missing header row") from None
        except csv.Error as exc:
            raise _unreadable(exc, reader.line_num) from None
        if rest := first.read():  # csv.reader takes a line at a time, so this is the rest
            self._chunks = chain([rest], self._chunks)
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
        for rows, columns in self._split():
            good = _good_rows(columns)
            self.rows += rows
            self.malformed += rows - len(good[0])
            yield good

    def _split(self):
        """(rows, columns) per chunk of lines, as _plain_columns and _csv_columns give them."""
        limit = csv.field_size_limit()
        chunks = self._chunks
        try:
            for text in chunks:
                plain = _plain_columns(text, self._width, limit)
                if plain is None:
                    yield from self._csv_columns(chain([text], chunks))
                    return
                lines, rows, columns = plain
                self._lines += lines
                yield rows, columns
        except UnicodeDecodeError as exc:
            raise _unreadable(exc, self._lines) from None

    def _csv_columns(self, chunks):
        """(rows, columns) per batch of rows, csv.reader reading chunks' lines.

        rows counts the batch's non-blank rows, and columns holds one list of
        stripped fields per column, of the rows of the log's width. A batch
        is _CHUNK // 64 rows: batches four times as large made read_counts of
        a log of quoted ids about 25% slower.
        """
        width = self._width
        reader = csv.reader(chain.from_iterable(io.StringIO(text, newline="") for text in chunks))
        try:
            # A batch of blank rows only is not the end of the log.
            while batch := list(islice(reader, max(1, _CHUNK // 64))):
                rows = list(filter(None, batch))
                wide = [row for row in rows if len(row) == width]
                yield len(rows), [list(map(str.strip, map(itemgetter(k), wide)))
                                  for k in range(width)]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _unreadable(exc, self._lines + reader.line_num) from None


class _RegionIds(dict):
    """The region id of each region field, None for a malformed one, parsed once per field.

    A chunk holds a handful of regions. A field is malformed unless
    _parse_integer, the rule of the integer flags too, converts it: int()
    refuses more digits than sys.get_int_max_str_digits().
    """

    def __missing__(self, field: str) -> int | None:
        try:
            region = _parse_integer(field)
        except ValueError:
            region = None
        self[field] = region
        return region


def _good_rows(columns):
    """(user ids, content ids, region ids) of the rows that pass the row check.

    columns holds one list of stripped fields per column of the log. A row
    passes with non-empty ids, a region that _RegionIds parses and, in a log
    with a timestamp column, a timestamp that is empty or matches _INTEGER
    (it is never converted). Without a timestamp column, a chunk of good rows
    is checked by list scans in C, with no Python-level step per row. The
    parsed regions are kept for one chunk only, so a log whose regions are
    all distinct costs no memory per row.
    """
    users, contents, fields, *timestamps = columns
    region_ids = list(map(_RegionIds().__getitem__, fields))
    if not timestamps and "" not in users and "" not in contents and None not in region_ids:
        return users, contents, region_ids
    checks = [users, contents, map(is_not, region_ids, repeat(None))]  # a row passes all
    for column in timestamps:
        checks.append(not t or _INTEGER.fullmatch(t) for t in column)
    keep = list(map(all, zip(*checks)))
    return [list(compress(column, keep)) for column in (users, contents, region_ids)]


def _chunks(stream):
    """The rest of stream, as _CHUNK characters and the rest of the line they end in."""
    while text := stream.read(_CHUNK):
        if not text.endswith("\n"):
            text += stream.readline()
        yield text


def _plain_columns(text: str, width: int, limit: int):
    """Split a chunk of whole lines on its bytes, if it is plain.

    Each \r\n becomes \n first, so only \n ends a line. Plain text is then
    printable ASCII other than the double quote, split by commas and \n,
    with every field shorter than limit; a \r left over is not plain.
    csv.reader would split it at the same commas and line ends, and strip
    would change no field. Returns None for any other text, else (lines,
    rows, columns): the number of lines and of non-blank lines, and one
    list of fields per column, of the rows of the log's width.
    """
    if not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"  # the last line of a log that does not end in a line break
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    data = text.encode("ascii")
    if data.translate(None, _PLAIN):
        return None  # a byte that is not plain, or a \r that does not end a line
    a = np.frombuffer(data, np.uint8)
    sep = np.flatnonzero((a == _COMMA) | (a == _LF))  # the byte after each field
    length = np.diff(sep, prepend=-1) - 1
    if length.max() >= limit:
        return None
    last = np.flatnonzero(a[sep] == _LF)  # each line's last field
    n_fields = np.diff(last, prepend=-1)
    rows = last.size - int(np.count_nonzero((n_fields == 1) & (length[last] == 0)))
    fields = text.replace("\n", ",").split(",")  # field i ends at sep[i]
    arity = n_fields == width
    if arity.all():  # every line a row of the log's width: the columns are strides
        stop = last.size * width
        return last.size, rows, [fields[k:stop:width] for k in range(width)]
    user = last[arity] - (width - 1)  # the index of each such row's user id
    return last.size, rows, [list(map(fields.__getitem__, (user + k).tolist()))
                             for k in range(width)]


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
    users: dict[str, int]  # user id -> the row it is first kept in, in that order
    contents: dict[str, int]  # content id -> the row it is first kept in, in that order
    kept: int  # rows counted, repeats included
    unique: int  # distinct (user, content) pairs
    counts: np.ndarray  # distinct users per content, in the order of contents


def _count_pairs(columns) -> _PairCounts:
    """Count the distinct users of each content over (user ids, content ids) column pairs.

    Each id is interned by dict.setdefault mapped over its column in C, with
    no Python-level step per row: an id's code is the kept row it first
    appears in. A user's code serves as it is; a content's becomes dense, the
    rank of that row among the contents' first rows, through one remap
    array. A pair is then the one int64 key user*n_contents + content, below
    kept*n_contents: dedup sorts the keys in place and keeps the first of
    each run of equal keys, and the per-content counts are one np.bincount.
    (np.unique would do the same, but its first call imports numpy.ma, which
    costs a fit process more time than the dedup.)
    """
    users: dict[str, int] = {}
    contents: dict[str, int] = {}
    user_codes = array("q")
    content_codes = array("q")
    for user_ids, content_ids in columns:
        row = len(user_codes)  # the kept rows before this chunk
        user_codes.extend(map(users.setdefault, user_ids, count(row)))
        content_codes.extend(map(contents.setdefault, content_ids, count(row)))
    n_contents = len(contents)
    # contents holds each content's first row, in increasing order, so a
    # first row's place in that order is its content's dense code.
    dense = np.empty(len(user_codes), np.int64)
    dense[np.fromiter(contents.values(), np.int64, n_contents)] = np.arange(n_contents)
    content_codes = np.frombuffer(content_codes, np.int64)
    # Every code is an index of dense; "clip" only spares the copy of out
    # that the default mode makes.
    np.take(dense, content_codes, out=content_codes, mode="clip")
    keys = np.frombuffer(user_codes, np.int64)
    keys *= n_contents
    keys += content_codes
    # At most three row-sized arrays live at once: the two codes and dense.
    del dense, content_codes
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
