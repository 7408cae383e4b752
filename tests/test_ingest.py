"""Tests for log parsing, deduplication, and ranked histograms."""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import d2dlab
from d2dlab import ingest
from d2dlab.ingest import (
    AccessRecord,
    IngestReport,
    LogFormatError,
    UniqueAccessSet,
    dedup_unique,
    parse_log,
    read_counts,
    to_empirical,
)

from oracles import reference_counts

HEADER = "user_id,content_id,region_id\n"


def log(*rows: str) -> io.StringIO:
    return io.StringIO(HEADER + "".join(r + "\n" for r in rows))


class _ForwardOnly(io.BytesIO):
    """Bytes that read forward only, as from a pipe: seek and tell raise OSError."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def forward_only(data: str | bytes) -> io.TextIOWrapper:
    """A UTF-8 text stream over data that cannot seek or tell, as a pipe opened with newline=""."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(_ForwardOnly(data), encoding="utf-8", newline="")


class TestParseLog:
    def test_header_only(self):
        result = parse_log(log())
        assert result.records == []
        assert result.rows == 0
        assert result.malformed == 0

    def test_three_rows(self):
        result = parse_log(log("u1,c1,2", "u2,c1,2", "u1,c2,2"))
        assert len(result.records) == 3
        assert result.records[0] == AccessRecord("u1", "c1", 2)

    def test_malformed_rows_counted_not_dropped_silently(self):
        rows = [f"u{i},c{i},1" for i in range(9)] + [",c9,1"]
        result = parse_log(log(*rows))
        assert len(result.records) == 9
        assert result.rows == 10
        assert result.malformed == 1

    def test_missing_header(self):
        with pytest.raises(LogFormatError, match="header"):
            parse_log(io.StringIO("u1,c1,2\n"))

    def test_empty_input(self):
        with pytest.raises(LogFormatError, match="header"):
            parse_log(io.StringIO(""))

    def test_timestamp_column(self):
        """An integer or empty timestamp parses and is not kept; any other value is malformed."""
        stream = io.StringIO(
            "user_id,content_id,region_id,timestamp\n"
            "u1,c1,2,1404165600\n"
            "u2,c1,2,\n"
            "u3,c1,2,notanumber\n"
        )
        result = parse_log(stream)
        assert result.records == [AccessRecord("u1", "c1", 2), AccessRecord("u2", "c1", 2)]
        assert result.rows == 3
        assert result.malformed == 1

    @pytest.mark.parametrize("value", ["1_0", "\u0662", "1.0", "0x1", "+", "- 3"],
                             ids=["underscore", "arabic-indic", "decimal", "hex", "sign", "gap"])
    @pytest.mark.parametrize("column", ["region", "timestamp"])
    def test_integer_columns_take_ascii_digits_only(self, column, value):
        """int() alone would read 1_0 as 10 and the Arabic-Indic digit two as 2."""
        row = f"u1,c1,{value},7" if column == "region" else f"u1,c1,2,{value}"
        result = parse_log(io.StringIO("user_id,content_id,region_id,timestamp\n" + row + "\n"))
        assert result.records == []
        assert result.malformed == 1

    def test_integer_columns_keep_sign_and_surrounding_whitespace(self):
        stream = io.StringIO(
            "user_id,content_id,region_id,timestamp\n"
            "u1,c1, +2 , -7 \n"
            "u2,c1,-3,+1404165600\n"
            "u3,c1,2, \n"
        )
        result = parse_log(stream)
        assert result.records == [AccessRecord("u1", "c1", 2), AccessRecord("u2", "c1", -3),
                                  AccessRecord("u3", "c1", 2)]
        assert result.malformed == 0

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
    def test_a_region_int_refuses_is_malformed(self, quote):
        """int() converts at most sys.get_int_max_str_digits() digits (4,300 by default).

        A region of more digits is malformed, in a plain log and in one that
        csv.reader reads. A timestamp of as many digits passes: it is never
        converted.
        """
        most = sys.get_int_max_str_digits()
        kept, refused = "1" * most, "1" * (most + 1)
        text = ("user_id,content_id,region_id,timestamp\n"
                f"{quote}u1{quote},c1,{kept},7\n"
                f"u2,c1,{refused},7\n"
                f"u3,c1,-{refused},7\n"
                f"u4,c1,{kept},{refused}\n")
        result = parse_log(io.StringIO(text))
        assert result.records == [AccessRecord("u1", "c1", int(kept)),
                                  AccessRecord("u4", "c1", int(kept))]
        assert (result.rows, result.malformed) == (4, 2)
        empirical, report = read_counts(io.StringIO(text), region=int(kept))
        assert empirical.counts.tolist() == [2.0]
        assert (report.rows, report.malformed, report.kept) == (4, 2, 2)

    def test_record_holds_three_fields(self):
        assert AccessRecord._fields == ("user_id", "content_id", "region_id")

    @pytest.mark.parametrize(
        "row", ["u1,c1", "u1,c1,2,extra", "u1,,2", ",c1,2", "u1,c1,notint"]
    )
    def test_malformed_variants(self, row):
        result = parse_log(log("ok,ok,1", row))
        assert len(result.records) == 1
        assert result.malformed == 1


class TestDedup:
    def test_repeat_accesses_collapse(self):
        """Five accesses by the same user to the same file are one unique access."""
        records = [AccessRecord("u1", "c1", 2)] * 5
        unique = dedup_unique(records)
        assert unique.n_unique == 1
        assert unique.per_content_counts == {"c1": 1}

    def test_distinct_users_counted(self):
        records = [AccessRecord("u1", "c1", 2), AccessRecord("u2", "c1", 2)]
        assert dedup_unique(records).per_content_counts == {"c1": 2}

    def test_known_pair_multiset_recovered(self):
        rng = np.random.default_rng(11)
        pairs = {(f"u{rng.integers(40)}", f"c{rng.integers(12)}") for _ in range(150)}
        records = []
        for u, c in sorted(pairs):
            records.extend([AccessRecord(u, c, 1)] * int(rng.integers(1, 4)))
        rng.shuffle(records)
        unique = dedup_unique(records)
        assert unique.n_unique == len(pairs)
        assert unique.n_users == len({u for u, _ in pairs})
        expected = Counter(c for _, c in pairs)
        assert unique.per_content_counts == dict(expected)

    def test_keeps_counts_and_user_count_only(self):
        records = [AccessRecord("u1", "c1", 1), AccessRecord("u1", "c2", 1),
                   AccessRecord("u2", "c1", 1), AccessRecord("u2", "c1", 1)]
        unique = dedup_unique(records)
        assert unique == UniqueAccessSet(per_content_counts={"c1": 2, "c2": 1}, n_users=2)
        assert (unique.n_unique, unique.n_contents) == (3, 2)

    def test_pair_count_bounded_by_records(self):
        records = [AccessRecord(f"u{i % 5}", f"c{i % 3}", 1) for i in range(50)]
        assert dedup_unique(records).n_unique <= 50

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)),
            min_size=0,
            max_size=60,
        )
    )
    def test_idempotent(self, triples):
        records = [AccessRecord(f"u{a}", f"c{b}", 1) for a, b, times in triples for _ in range(times)]
        once = dedup_unique(records)
        distinct = {(r.user_id, r.content_id) for r in records}
        twice = dedup_unique([AccessRecord(u, c, 1) for u, c in distinct])
        assert once == twice
        assert once.n_unique == len(distinct)


class TestToEmpirical:
    def test_ranked_counts(self):
        records = (
            [AccessRecord(f"u{i}", "a", 1) for i in range(3)]
            + [AccessRecord("u0", "b", 1)]
        )
        emp = to_empirical(dedup_unique(records))
        assert emp.counts.tolist() == [3.0, 1.0]

    def test_tie_broken_by_content_id(self):
        records = [
            AccessRecord("u1", "b", 1),
            AccessRecord("u2", "b", 1),
            AccessRecord("u1", "a", 1),
            AccessRecord("u2", "a", 1),
        ]
        unique = dedup_unique(records)
        emp = to_empirical(unique)
        assert emp.counts.tolist() == [2.0, 2.0]
        ranked = sorted(unique.per_content_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [name for name, _ in ranked] == ["a", "b"]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            to_empirical(dedup_unique([]))

    def test_total_equals_unique_pairs(self):
        rng = np.random.default_rng(5)
        records = [
            AccessRecord(f"u{rng.integers(30)}", f"c{rng.integers(10)}", 1)
            for _ in range(200)
        ]
        unique = dedup_unique(records)
        emp = to_empirical(unique)
        assert emp.counts.sum() == unique.n_unique

    def test_matches_independent_recount(self):
        """Ranked counts agree with a second, direct counting pass."""
        rng = np.random.default_rng(17)
        records = [
            AccessRecord(f"u{rng.integers(200)}", f"c{rng.integers(40)}", 1)
            for _ in range(2000)
        ]
        emp = to_empirical(dedup_unique(records))
        recount = Counter((r.user_id, r.content_id) for r in records)
        by_content = Counter(c for _, c in recount.keys())
        assert sorted(emp.counts.tolist(), reverse=True) == sorted(
            float(v) for v in by_content.values()
        )[::-1]


# Field values that pass or fail the row check; a padded value passes.
_USERS = ["a", "b", "c", " a", "b ", "", " "]
_CONTENTS = ["x", "y", "z", " x ", "", "\t"]
_REGIONS = ["1", "2", " 2 ", "+2", "-3", "-0", "10", "1" * 19, "1_0", "\u0662", "2.0", "", "r"]
_TIMESTAMPS = ["", " ", "7", "-7", "+1404165600", "1_0", "\u0662", "t"]
_ROW = st.tuples(
    st.sampled_from(["row", "row", "row", "blank", "short", "long"]),
    st.sampled_from(_USERS),
    st.sampled_from(_CONTENTS),
    st.sampled_from(_REGIONS),
    st.sampled_from(_TIMESTAMPS),
)


def _few_ids(users, contents):
    """Rows of mostly good lines over a few ids, for logs of many 64-character chunks."""
    return st.tuples(
        st.sampled_from(["row"] * 6 + ["blank", "short"]),
        st.sampled_from(users),
        st.sampled_from(contents),
        st.sampled_from(["1", "2", "2", " 2"]),
        st.sampled_from(["", "7"]),
    )


def _header(has_timestamp: bool) -> str:
    return "user_id,content_id,region_id" + (",timestamp" if has_timestamp else "")


def _line(has_timestamp: bool, kind, user, content, region, timestamp) -> str:
    fields = [user, content, region] + ([timestamp] if has_timestamp else [])
    if kind == "blank":
        fields = []
    elif kind == "short":
        fields = fields[:-1]
    elif kind == "long":
        fields = fields + ["extra"]
    return ",".join(fields)


def _log_text(has_timestamp: bool, rows) -> str:
    return "\n".join([_header(has_timestamp)] + [_line(has_timestamp, *row) for row in rows]) + "\n"


class TestReadCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.lists(_ROW, max_size=40),
           st.sampled_from([None, 1, 2, -3, 10, 9]))
    def test_matches_reference_and_staged_path(self, has_timestamp, rows, region):
        """read_counts and parse_log -> filter -> dedup_unique -> to_empirical agree with the oracle."""
        text = _log_text(has_timestamp, rows)
        counts, report = reference_counts(text, region)
        parsed = parse_log(io.StringIO(text))
        assert (parsed.rows, parsed.malformed) == (report["rows"], report["malformed"])
        records = [r for r in parsed.records if region is None or r.region_id == region]
        assert len(records) == report["kept"]
        unique = dedup_unique(records)
        assert (unique.n_unique, unique.n_users, unique.n_contents) == (
            report["unique_pairs"], report["distinct_users"], report["distinct_contents"])
        if not counts:
            with pytest.raises(ValueError, match="empty"):
                read_counts(io.StringIO(text), region)
            with pytest.raises(ValueError, match="empty"):
                to_empirical(unique)
            return
        empirical, ingest = read_counts(io.StringIO(text), region)
        assert empirical.counts.tolist() == counts
        assert asdict(ingest) == report
        assert to_empirical(unique).counts.tolist() == counts

    @settings(max_examples=100, deadline=None)
    @given(st.booleans(),
           st.lists(_few_ids(["u1", "u2", "u3", " u1"], ["c1", "c2", "c3"]), max_size=120),
           st.lists(_few_ids(["u1", "u3", "u4", "u5"], ["c2", "c4", "c5"]), max_size=60),
           st.sampled_from([None, 2]))
    def test_ids_recurring_across_chunks(self, has_timestamp, early, late, region):
        """Chunks of 64 characters: ids recur across chunks, and some appear
        first in a late one; the counts keep the order contents first appear in."""
        text = _log_text(has_timestamp, early + late)
        counts, report = reference_counts(text, region)
        with mock.patch.object(ingest, "_CHUNK", 64):
            parsed = parse_log(io.StringIO(text))
            records = [r for r in parsed.records if region is None or r.region_id == region]
            unique = dedup_unique(records)
            assert list(unique.per_content_counts) == list(dict.fromkeys(
                r.content_id for r in records))
            assert (parsed.rows, parsed.malformed, len(records), unique.n_unique,
                    unique.n_users, unique.n_contents) == (
                report["rows"], report["malformed"], report["kept"], report["unique_pairs"],
                report["distinct_users"], report["distinct_contents"])
            if not counts:
                with pytest.raises(ValueError, match="empty"):
                    read_counts(io.StringIO(text), region)
                return
            empirical, ingest_report = read_counts(io.StringIO(text), region)
        assert empirical.counts.tolist() == counts
        assert asdict(ingest_report) == report
        assert to_empirical(unique).counts.tolist() == counts

    def test_path_and_stream_read_alike(self, tmp_path):
        """Lines split as in a file opened with newline="", the header's too,
        whatever newline mode a stream was opened with."""
        path = tmp_path / "log.csv"
        for end in ("\n", "\r\n", "\r"):
            text = (HEADER + "u1,c1,2\nu2,c1,2\nu1,c2,3\nu1,c1,2\n,c3,2\n").replace("\n", end)
            path.write_text(text, encoding="utf-8", newline="")
            for source in (path, str(path), io.StringIO(text, newline=""), io.StringIO(text)):
                empirical, report = read_counts(source, region=2)
                assert empirical.counts.tolist() == [2.0]
                assert report == IngestReport(rows=5, malformed=1, kept=3, unique_pairs=2,
                                              distinct_users=2, distinct_contents=1)

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        """A log saved as "CSV UTF-8" starts with a byte-order mark; it reads as the plain log."""
        plain = tmp_path / "plain.csv"
        plain.write_text(HEADER + "u1,c1,2\nu2,c1,2\nu1,c2,3\nu1,c1,2\n,c3,2\n", encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for region in (None, 2):
            (empirical, report), (bom_empirical, bom_report) = (
                read_counts(path, region) for path in (plain, bom))
            assert bom_empirical.counts.tolist() == empirical.counts.tolist()
            assert bom_report == report
        assert parse_log(str(bom)) == parse_log(plain)

    def test_dedup_does_not_import_numpy_ma(self):
        """np.unique imports numpy.ma on its first call, a cost every fit process would pay.

        The first log is plain and the second takes the csv.reader path; each
        is read by read_counts and by parse_log -> dedup_unique.
        """
        plain = HEADER + "u1,c1,2\nu1,c1,2\nu2,c1,2\nu2,c2,2\n"
        quoted = plain + '"u3",c1,2\n'
        script = ("import io, sys\n"
                  "from d2dlab.ingest import dedup_unique, parse_log, read_counts\n"
                  f"for text in {[plain, quoted]!r}:\n"
                  "    read_counts(io.StringIO(text))\n"
                  "    dedup_unique(parse_log(io.StringIO(text)).records)\n"
                  "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(d2dlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\n"

    def test_importing_the_cli_does_not_import_numpy_random(self):
        """numpy.random is loaded when the simulator is loaded, not by the
        import that every fit, validate-mstar and analytic tradeoff pays."""
        script = "import sys\nimport d2dlab, d2dlab.cli\nprint('numpy.random' in sys.modules)\n"
        src = os.path.dirname(os.path.dirname(d2dlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\n"

    def test_a_region_per_row_takes_no_memory_per_row(self):
        """Regions are parsed chunk by chunk, so a log whose region column holds
        a new value on every row, such as a timestamp, reads in bounded memory:
        the traced peak of a read that keeps one row holds at four times the rows.
        """
        peaks = []
        for n in (20_000, 80_000):
            stream = io.StringIO(HEADER + "".join(f"u{i},c,{1404165600 + i}\n" for i in range(n)))
            tracemalloc.start()
            try:
                read_counts(stream, region=1404165600)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    @pytest.mark.parametrize("region", [True, 1.0, "1"])
    def test_region_must_be_an_integer(self, region):
        """True and 1.0 equal 1, so they kept region 1's rows as if it were asked for."""
        with pytest.raises(ValueError, match="region must be an integer"):
            read_counts(log("u1,c1,1", "u2,c1,1"), region=region)

    def test_any_integer_region_is_kept(self):
        """The region column takes a sign, so a negative region is a region,
        and a numpy integer reads as the int it holds."""
        rows = ("u1,c1,-3", "u2,c1,-3", "u1,c2,1")
        for region, counts in ((-3, [2.0]), (np.int64(-3), [2.0]), (np.int8(1), [1.0])):
            empirical, report = read_counts(log(*rows), region=region)
            assert empirical.counts.tolist() == counts
            assert report.kept == counts[0]

    @pytest.mark.parametrize("text", ["", "u1,c1,2\n", "who,what,where\n"],
                             ids=["empty", "no-header", "bad-header"])
    def test_header_checked(self, text):
        with pytest.raises(LogFormatError, match="header"):
            read_counts(io.StringIO(text))


def _heads() -> dict[str, str]:
    """Rows to put before a bad line: none, more than a chunk, and a switch to csv.reader."""
    plain = "u0,c0,2\n" * (2 * ingest._CHUNK // len("u0,c0,2\n") + 1)
    return {"first-chunk": "", "later": plain, "after-csv": plain + '"u0",c0,2\n' + plain}


class TestUnreadableLog:
    """A log the csv reader cannot read is a format error, whichever entry reads it."""

    READERS = [read_counts, parse_log]

    @pytest.mark.parametrize("reader", READERS, ids=["read_counts", "parse_log"])
    @pytest.mark.parametrize(
        "kind, head",
        [("stream", "first-chunk"), ("path", "first-chunk"), ("forward", "first-chunk"),
         ("stream", "later"), ("path", "later"), ("forward", "later"),
         ("stream", "after-csv"), ("path", "after-csv"), ("forward", "after-csv"),
         ("stream", "header"), ("path", "header"), ("forward", "header")],
        ids=["stream", "path", "forward-only", "later-stream", "later-path", "later-forward-only",
             "after-csv-stream", "after-csv-path", "after-csv-forward-only",
             "header-stream", "header-path", "header-forward-only"])
    def test_field_over_the_csv_limit(self, tmp_path, reader, kind, head):
        if head == "header":  # the oversized field is in the header line itself
            text, line = f"user_id,{'c' * 200_000},region_id\nu1,c1,2\n", 1
        else:
            head = _heads()[head]
            text = HEADER + head + "u1,c1,2\n" + f"u2,{'c' * 200_000},2\n" + "u3,c3,2\n"
            line = head.count("\n") + 3
        if kind == "path":
            source = tmp_path / "log.csv"
            source.write_text(text, encoding="utf-8")
        else:
            source = (io.StringIO if kind == "stream" else forward_only)(text)
        with pytest.raises(LogFormatError, match=rf"^line {line}: field larger than field limit"):
            reader(source)

    @pytest.mark.parametrize("reader", READERS, ids=["read_counts", "parse_log"])
    @pytest.mark.parametrize("head", list(_heads()))
    def test_bytes_that_are_not_utf8(self, tmp_path, reader, head):
        """The message names the bad line or one before it: text is decoded ahead of the reader.

        That line lies within two chunks of the bad line, so past the switch
        to csv.reader it counts the lines read before the switch.
        """
        data = HEADER.encode() + _heads()[head].encode() + b"u1,c\xff1,2\nu2,c2,2\n"
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        bad = data.count(b"\n") - 1
        for source in (path, forward_only(data)):
            with pytest.raises(LogFormatError, match="^not UTF-8 text at or after line ") as exc:
                reader(source)
            line = int(re.match(r"not UTF-8 text at or after line (\d+): ", str(exc.value))[1])
            assert bad - 2 * ingest._CHUNK // len("u0,c0,2\n") < line <= bad


# Field values a chunk stays plain with, valid or not, and values that send
# it to csv.reader: padding, quotes (around a comma or a line break), non-ASCII.
_PLAIN_USERS = ["a", "b", "u10", ""]
_PLAIN_CONTENTS = ["x", "y", "z"]
_PLAIN_REGIONS = ["1", "2", "+2", "-3", "-0", "007", "1" * 19, "", "r", "1_0", "2-"]
_PLAIN_TIMESTAMPS = ["", "7", "-7", "+1404165600", "t", "1_0"]
_CSV_USERS = [" a", "b ", '"a"', '"a,b"', '"a\nb"', '"a""b"', "\u00e9"]
_CSV_CONTENTS = [" x ", '"x,y"', '"x\r\ny"', "\u00fc", "\t"]
_CSV_REGIONS = [" 2 ", '"2"', "\u0662"]
_KINDS = ["row", "row", "row", "blank", "short", "long"]


def _rows(users, contents, regions, timestamps, terminators):
    return st.lists(st.tuples(st.sampled_from(_KINDS), st.sampled_from(users),
                              st.sampled_from(contents), st.sampled_from(regions),
                              st.sampled_from(timestamps), st.sampled_from(terminators)),
                    max_size=20)


_PLAIN_ROWS = _rows(_PLAIN_USERS, _PLAIN_CONTENTS, _PLAIN_REGIONS, _PLAIN_TIMESTAMPS,
                    ["\n", "\r\n"])
_MIXED_ROWS = _rows(_PLAIN_USERS * 3 + _CSV_USERS, _PLAIN_CONTENTS * 3 + _CSV_CONTENTS,
                    _PLAIN_REGIONS * 3 + _CSV_REGIONS, _PLAIN_TIMESTAMPS, ["\n", "\r\n", "\r"])


def _chunked_log(has_timestamp: bool, header_end: str, rows, final_break: bool) -> str:
    """The log text of the header and rows, each ended by its own line terminator."""
    text = _header(has_timestamp) + header_end
    text += "".join(_line(has_timestamp, *row[:-1]) + row[-1] for row in rows)
    return text if final_break or not rows else text[:-len(rows[-1][-1])]


class TestChunks:
    """Rows straddle chunks, and the switch to csv.reader comes in mid-file."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 48), st.booleans(), st.sampled_from(["\n", "\r\n", "\r"]),
           _PLAIN_ROWS, _MIXED_ROWS, st.booleans(), st.sampled_from([None, 2, -3]))
    def test_matches_reference(self, tmp_path, chunk, has_timestamp, header_end, plain, mixed,
                               final_break, region):
        text = _chunked_log(has_timestamp, header_end, plain + mixed, final_break)
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8", newline="")
        counts, report = reference_counts(text, region)
        with mock.patch.object(ingest, "_CHUNK", chunk):
            for source in (lambda: path, lambda: io.StringIO(text, newline=""),
                           lambda: io.StringIO(text), lambda: forward_only(text)):
                parsed = parse_log(source())
                records = [r for r in parsed.records if region is None or r.region_id == region]
                unique = dedup_unique(records)
                assert (parsed.rows, parsed.malformed, len(records), unique.n_unique,
                        unique.n_users, unique.n_contents) == (
                    report["rows"], report["malformed"], report["kept"],
                    report["unique_pairs"], report["distinct_users"],
                    report["distinct_contents"])
                if not counts:
                    with pytest.raises(ValueError, match="empty"):
                        read_counts(source(), region)
                    continue
                empirical, ingested = read_counts(source(), region)
                assert empirical.counts.tolist() == counts
                assert asdict(ingested) == report
                assert to_empirical(unique).counts.tolist() == counts

    def test_a_plain_log_never_reaches_csv_reader(self):
        """Plain rows stay on the numpy path, a region of more digits than an int64 holds too."""
        rows = [f"u{i},c{i % 7},{i % 3}\r\n" for i in range(300)]
        rows.insert(150, f"v,c,{'9' * 19}\r\n")
        text = HEADER + "".join(rows) + "u,c,2"
        with mock.patch.object(ingest, "_CHUNK", 64):
            expected = parse_log(io.StringIO(text))
            with mock.patch.object(ingest._CheckedColumns, "_csv_columns",
                                   lambda self, *chunks: iter(())):
                for source in (io.StringIO, forward_only):
                    assert parse_log(source(text)) == expected
        assert (expected.rows, expected.malformed, len(expected.records)) == (302, 0, 302)
        assert expected.records[150] == AccessRecord("v", "c", 10**19 - 1)

    def test_a_line_end_is_no_part_of_its_last_field(self):
        """A CRLF log whose last field is one character short of
        csv.field_size_limit() stays with the plain reader, and reads as csv.reader reads it."""
        text = ("user_id,content_id,region_id,timestamp\r\n"
                f"u1,c1,2,{'7' * (csv.field_size_limit() - 1)}\r\nu2,c1,2,7\r\nu1,c2,2,\r\n")
        counts, report = reference_counts(text, None)
        calls = []
        csv_columns = ingest._CheckedColumns._csv_columns

        def spy(self, chunks):
            calls.append(chunks)
            return csv_columns(self, chunks)

        with mock.patch.object(ingest._CheckedColumns, "_csv_columns", spy):
            empirical, ingested = read_counts(io.StringIO(text, newline=""))
        assert calls == []
        assert empirical.counts.tolist() == counts
        assert asdict(ingested) == report

    @pytest.mark.parametrize("odd", [None, "+17", "17x"], ids=["clean", "signed", "bad"])
    def test_only_a_chunk_with_an_odd_timestamp_is_checked_row_by_row(self, odd):
        """Timestamps of digits or nothing are checked by one scan per chunk,
        with no call of _INTEGER.fullmatch; a signed (valid) or bad
        (malformed) one sends its chunk of about ten rows, and only it, row by row."""
        rows = [f"u{i},c{i % 7},{i % 3},{1404165600 + i if i % 4 else ''}\n" for i in range(300)]
        if odd:
            rows[150] = f"u150,c3,2,{odd}\n"
        text = "user_id,content_id,region_id,timestamp\n" + "".join(rows)
        counts, report = reference_counts(text, 2)
        pattern = mock.Mock(wraps=ingest._INTEGER)
        with mock.patch.multiple(ingest, _CHUNK=256, _INTEGER=pattern):
            empirical, ingested = read_counts(io.StringIO(text), 2)
            read_calls = pattern.fullmatch.call_count
            parsed = parse_log(io.StringIO(text))
        assert empirical.counts.tolist() == counts
        assert asdict(ingested) == report
        assert (parsed.rows, parsed.malformed) == (report["rows"], report["malformed"])
        assert report["malformed"] == (odd == "17x")
        assert read_calls == pattern.fullmatch.call_count - read_calls <= 30
        assert (read_calls > 0) == (odd is not None)

    def test_a_stream_that_cannot_seek_reads_alike(self):
        text = HEADER + "u1,c1,2\n u2,c1,2\nu3,c2,3\n\nu1,c1\n"
        assert parse_log(forward_only(text)) == parse_log(io.StringIO(text))

    def test_a_file_read_by_next_reads_alike(self, tmp_path):
        """A text file that next() has read from is read forward from where next() left it."""
        path = tmp_path / "log.csv"
        path.write_text("# exported\n" + HEADER + "u1,c1,2\nu2,c1,2\n", encoding="utf-8")
        with open(path, encoding="utf-8", newline="") as stream:
            next(stream)
            result = parse_log(stream)
        assert result.records == [AccessRecord("u1", "c1", 2), AccessRecord("u2", "c1", 2)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("text", [HEADER + "".join(f"u{i},c{i % 7},2\n" for i in range(2000)),
                                      HEADER + f"u2,{'c' * 200_000},2\n"],
                             ids=["read", "unreadable"])
    def test_parse_log_restores_the_collector(self, enabled, text):
        """The collector is left as it was. If it was enabled, the records are
        in neither young generation (a collection after the call would have
        moved them to the middle one); if not, nothing is moved."""
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            gc.collect()
            records = []
            with contextlib.suppress(LogFormatError):
                records = parse_log(io.StringIO(text)).records
            assert gc.isenabled() == enabled
            young, middle = ({id(o) for o in gc.get_objects(generation=g)} for g in (0, 1))
            if enabled:
                assert not any(id(r) in young or id(r) in middle for r in records)
            else:
                assert all(id(r) in young for r in records)
        finally:
            (gc.enable if was else gc.disable)()

    def test_parse_log_leaves_frozen_objects_frozen(self):
        was = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen
            records = parse_log(log("u1,c1,2", "u2,c1,2")).records
            assert gc.get_freeze_count() == frozen
            assert len(records) == 2
        finally:
            gc.unfreeze()
            (gc.enable if was else gc.disable)()
