import gzip
import os
import re
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch import ingest
from starsketch.histogram import from_stream
from starsketch.ingest import (
    LogRecord,
    TraceStats,
    frequency_ranks,
    iter_records,
    parse_clf_line,
    target_to_item,
    trace_stats,
)

SAMPLE_LINES = [
    'burger.letters.com - - [01/Jul/1995:00:00:11 -0400] "GET /shuttle/countdown/liftoff.html HTTP/1.0" 304 0',
    'unicomp6.unicomp.net - - [01/Jul/1995:00:00:06 -0400] "GET /shuttle/countdown/ HTTP/1.0" 200 3985',
    'burger.letters.com - - [01/Jul/1995:00:00:12 -0400] "GET /images/NASA-logosmall.gif HTTP/1.0" 304 0',
    'unicomp6.unicomp.net - - [01/Jul/1995:00:00:14 -0400] "GET /shuttle/countdown/ HTTP/1.0" 200 3985',
]


def request_of(line):
    """The first quoted field of a line with its quotes, or "" without one."""
    m = re.search(r'"[^"]*"', line)
    return m.group(0) if m else ""


class TestParseClfLine:
    def test_published_format(self):
        rec = parse_clf_line(
            'host - - [01/Jul/1995:00:00:01 -0400] "GET /history/apollo/ HTTP/1.0" 200 6245')
        assert rec.valid
        assert rec.request_target == "/history/apollo/"

    def test_empty_line(self):
        assert not parse_clf_line("").valid
        assert not parse_clf_line("\n").valid

    def test_request_without_protocol(self):
        rec = parse_clf_line('h - - [01/Jul/1995:00:00:01 -0400] "GET /x" 200 1')
        assert rec.valid
        assert rec.request_target == "/x"

    def test_single_token_request_invalid(self):
        assert not parse_clf_line('h - - [date] "GET" 400 0').valid
        assert not parse_clf_line('h - - [date] "" 400 0').valid

    def test_no_quoted_field_invalid(self):
        assert not parse_clf_line("garbage without quotes").valid

    def test_never_raises(self):
        for line in ("\x00\x01", '"""', "a" * 10_000, '\\" - ['):
            rec = parse_clf_line(line)
            assert isinstance(rec, LogRecord)

    def test_record_is_immutable(self):
        rec = parse_clf_line('"GET /x HTTP/1.0"')
        with pytest.raises(AttributeError):
            rec.valid = False
        assert rec == LogRecord("/x", True)


class TestTargetToItem:
    def test_stable(self):
        assert target_to_item("/a/b?q=1") == target_to_item("/a/b?q=1")

    def test_case_sensitive(self):
        assert target_to_item("/a") != target_to_item("/A")

    def test_query_string_matters(self):
        assert target_to_item("/a") != target_to_item("/a?x=1")

    def test_64_bit_range(self):
        v = target_to_item("/index.html")
        assert 0 <= v < 2 ** 64

    def test_no_collisions_at_corpus_scale(self):
        ids = {target_to_item(f"/path/{i}/file{i}.html") for i in range(100_000)}
        assert len(ids) == 100_000


class TestTraceStats:
    def test_hand_built(self):
        requests = [request_of(line) for line in SAMPLE_LINES]
        stats, _ = trace_stats(requests)
        assert stats == TraceStats(items=4, distinct=3, max_frequency=2, malformed=0)

    def test_empty(self):
        stats, ids = trace_stats([])
        assert stats == TraceStats(0, 0, 0, 0)
        assert ids.dtype == np.uint64 and ids.size == 0

    def test_malformed_counted_separately(self):
        requests = [request_of(line) for line in SAMPLE_LINES + ["broken", ""]]
        stats, ids = trace_stats(requests)
        assert stats.items == 4 == ids.size
        assert stats.malformed == 2

    def test_roundtrip_through_item_stream(self):
        requests = [request_of(line) for line in SAMPLE_LINES * 7 + ["broken"]]
        records = [parse_clf_line(request) for request in requests]
        stats, ids = trace_stats(requests)
        assert ids.dtype == np.uint64
        assert ids.tolist() == [target_to_item(r.request_target) for r in records if r.valid]
        hist = from_stream(ids)
        assert hist.total == stats.items
        assert hist.distinct == stats.distinct
        assert hist.counts.max() == stats.max_frequency

    def test_each_distinct_request_parsed_once(self, monkeypatch):
        parsed = []

        def counting(request):
            parsed.append(request)
            return parse_clf_line(request)

        monkeypatch.setattr(ingest, "parse_clf_line", counting)
        requests = [request_of(line) for line in SAMPLE_LINES * 5 + ["broken", "x"]]
        stats, _ = trace_stats(requests)
        assert sorted(parsed) == sorted(set(requests))
        assert stats.malformed == 2
        # Nothing is remembered between calls.
        trace_stats(requests)
        assert len(parsed) == 2 * len(set(requests))

    def test_invariants(self):
        with pytest.raises(ValueError):
            TraceStats(items=1, distinct=2, max_frequency=1)


class TestIterRecords:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "access_log"
        path.write_text("\n".join(SAMPLE_LINES) + "\n", encoding="latin-1")
        records = [parse_clf_line(request) for request in iter_records(str(path))]
        assert len(records) == 4
        assert all(r.valid for r in records)

    def test_yields_first_quoted_field(self, tmp_path):
        path = tmp_path / "access_log"
        path.write_bytes(b'h "GET /a HTTP/1.0" 200 "-" "agent"\n'
                         b'no quotes\n'
                         b'h "GET /unterminated\n'
                         b'h "" 400\r\n'
                         b'"GET /b" 200')
        assert list(iter_records(str(path))) == ['"GET /a HTTP/1.0"', "", "", '""', '"GET /b"']

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "access_log.gz"
        with gzip.open(path, "wt", encoding="latin-1") as fh:
            fh.write("\n".join(SAMPLE_LINES) + "\nbroken line\n")
        stats, _ = trace_stats(iter_records(str(path)))
        assert stats.items == 4
        assert stats.malformed == 1

    def test_gzip_detected_by_content_not_suffix(self, tmp_path):
        text = ("\n".join(SAMPLE_LINES) + "\nbroken line\n").encode("latin-1")
        plain, gzipped, misnamed = (tmp_path / n for n in ("plain", "access_log", "plain.gz"))
        plain.write_bytes(text)
        gzipped.write_bytes(gzip.compress(text))
        misnamed.write_bytes(text)
        want = trace_stats(iter_records(str(plain)))
        for path in (gzipped, misnamed):
            stats, ids = trace_stats(iter_records(str(path)))
            assert stats == want[0] == TraceStats(items=4, distinct=3, max_frequency=2,
                                                  malformed=1)
            assert ids.tolist() == want[1].tolist()

    @pytest.mark.parametrize("compress", [False, True])
    def test_escaped_quotes_keep_requests_apart(self, tmp_path, compress):
        # Apache writes a quote inside the request as \"; it does not end the
        # field, so the two targets differ and keep their escapes verbatim.
        data = b'h - - [d] "GET /a\\"b HTTP/1.0" 200 1\nh - - [d] "GET /a\\"c HTTP/1.0" 200 1\n'
        path = tmp_path / "access_log"
        path.write_bytes(gzip.compress(data) if compress else data)
        requests = list(iter_records(str(path)))
        assert requests == ['"GET /a\\"b HTTP/1.0"', '"GET /a\\"c HTTP/1.0"']
        stats, ids = trace_stats(requests)
        assert stats == TraceStats(items=2, distinct=2, max_frequency=1)
        assert ids.tolist() == [target_to_item('/a\\"b'), target_to_item('/a\\"c')]
        for line in data.decode("latin-1").splitlines():
            assert parse_clf_line(line).request_target == line.split()[5]

    def test_backslash_runs_before_a_quote(self):
        # An even run escapes itself and the quote ends the field; an odd run
        # escapes the quote, and an escaped quote with no closing one is no field.
        assert parse_clf_line('h "GET /a\\\\" 200 "x y"') == LogRecord("/a\\\\", True)
        assert parse_clf_line('h "GET /a\\\\\\" z" 200') == LogRecord('/a\\\\\\"', True)
        assert parse_clf_line('h "GET /a\\" 200') == LogRecord("", False)
        assert parse_clf_line('h "GET /a\\b" 200') == LogRecord("/a\\b", True)

    def test_non_utf8_bytes_survive(self, tmp_path):
        path = tmp_path / "access_log"
        raw = b'h - - [d] "GET /caf\xe9 HTTP/1.0" 200 1\n'
        path.write_bytes(raw)
        (request,) = list(iter_records(str(path)))
        rec = parse_clf_line(request)
        assert rec.valid
        assert rec.request_target == "/caf\xe9"


# Pieces of random logs: quotes, a backslash and an escaped quote, each separator
# str.split knows, line ends, latin-1 bytes and whole requests (drawn often, so
# requests repeat).
LOG_PIECES = st.sampled_from([
    '"', '"', " ", "\t", "\xa0", "\x1c", "\x1f", "\x85", "\x0b", "\x0c", "\r", "\n",
    "\r\n", "GET", "/a", "/b?q=1", "/caf\xe9", "\xff", "HTTP/1.0", "-", "[d]", "200",
    'h - - [d] "GET /a HTTP/1.0" 200 1\n', 'h - - [d] "GET /b HTTP/1.0" 200 1\n',
    'h - - [d] "GET /a\xa0b HTTP/1.0" 200 1\r', 'h - - [d] "" 400 0\n', "\\", '\\"',
])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(LOG_PIECES, max_size=60), compress=st.booleans())
def test_trace_stats_equals_per_line_parse(pieces, compress):
    data = "".join(pieces).encode("latin-1")
    with tempfile.TemporaryDirectory() as tmp:
        plain, path = os.path.join(tmp, "plain"), os.path.join(tmp, "access_log")
        with open(plain, "wb") as fh:
            fh.write(data)
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data) if compress else data)
        stats, ids = trace_stats(iter_records(path))
        with open(plain, encoding="latin-1") as fh:
            records = [parse_clf_line(line) for line in fh]
    want = [target_to_item(r.request_target) for r in records if r.valid]
    freq = Counter(want)
    assert stats == TraceStats(items=len(want), distinct=len(freq),
                               max_frequency=max(freq.values(), default=0),
                               malformed=len(records) - len(want))
    assert ids.tolist() == want


def test_frequency_ranks():
    ranks = frequency_ranks([5, 1, 17, 3])
    assert ranks == [(1, 17), (2, 5), (3, 3), (4, 1)]
    assert frequency_ranks(from_stream([9, 4, 9]).counts) == [(1, 2), (2, 1)]
