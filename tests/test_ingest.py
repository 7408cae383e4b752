"""Tests for log parsing, deduplication, and ranked histograms."""
from __future__ import annotations

import io
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d2dlab
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
        assert emp.total == unique.n_unique

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
_REGIONS = ["1", "2", " 2 ", "+2", "-3", "10", "1_0", "\u0662", "2.0", "", "r"]
_TIMESTAMPS = ["", " ", "7", "-7", "+1404165600", "1_0", "\u0662", "t"]
_ROW = st.tuples(
    st.sampled_from(["row", "row", "row", "blank", "short", "long"]),
    st.sampled_from(_USERS),
    st.sampled_from(_CONTENTS),
    st.sampled_from(_REGIONS),
    st.sampled_from(_TIMESTAMPS),
)


def _log_text(has_timestamp: bool, rows) -> str:
    lines = ["user_id,content_id,region_id" + (",timestamp" if has_timestamp else "")]
    for kind, user, content, region, timestamp in rows:
        fields = [user, content, region] + ([timestamp] if has_timestamp else [])
        if kind == "blank":
            fields = []
        elif kind == "short":
            fields = fields[:-1]
        elif kind == "long":
            fields = fields + ["extra"]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


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

    def test_path_and_stream_read_alike(self, tmp_path):
        text = HEADER + "u1,c1,2\nu2,c1,2\nu1,c2,3\nu1,c1,2\n,c3,2\n"
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        for source in (path, str(path), io.StringIO(text)):
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
        """np.unique imports numpy.ma on its first call, a cost every fit process would pay."""
        text = HEADER + "u1,c1,2\nu1,c1,2\nu2,c1,2\nu2,c2,2\n"
        script = ("import io, sys\n"
                  "from d2dlab.ingest import read_counts\n"
                  f"read_counts(io.StringIO({text!r}))\n"
                  "print('numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(d2dlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\n"

    @pytest.mark.parametrize("text", ["", "u1,c1,2\n", "who,what,where\n"],
                             ids=["empty", "no-header", "bad-header"])
    def test_header_checked(self, text):
        with pytest.raises(LogFormatError, match="header"):
            read_counts(io.StringIO(text))


class TestUnreadableLog:
    """A log the csv reader cannot read is a format error, whichever entry reads it."""

    READERS = [read_counts, parse_log]

    @pytest.mark.parametrize("reader", READERS, ids=["read_counts", "parse_log"])
    @pytest.mark.parametrize("as_path", [False, True], ids=["stream", "path"])
    def test_field_over_the_csv_limit(self, tmp_path, reader, as_path):
        text = HEADER + "u1,c1,2\n" + f"u2,{'c' * 200_000},2\n" + "u3,c3,2\n"
        source = io.StringIO(text)
        if as_path:
            source = tmp_path / "log.csv"
            source.write_text(text, encoding="utf-8")
        with pytest.raises(LogFormatError, match=r"^line 3: field larger than field limit"):
            reader(source)

    @pytest.mark.parametrize("reader", READERS, ids=["read_counts", "parse_log"])
    @pytest.mark.parametrize("head", [b"", b"u0,c0,2\n" * 5000], ids=["first-chunk", "later"])
    def test_bytes_that_are_not_utf8(self, tmp_path, reader, head):
        path = tmp_path / "log.csv"
        path.write_bytes(HEADER.encode() + head + b"u1,c\xff1,2\nu2,c2,2\n")
        with pytest.raises(LogFormatError, match="not UTF-8"):
            reader(path)
