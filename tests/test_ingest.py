import gzip

import numpy as np
import pytest

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
        records = [parse_clf_line(line) for line in SAMPLE_LINES]
        stats, _ = trace_stats(records)
        assert stats == TraceStats(items=4, distinct=3, max_frequency=2, malformed=0)

    def test_empty(self):
        stats, ids = trace_stats([])
        assert stats == TraceStats(0, 0, 0, 0)
        assert ids.dtype == np.uint64 and ids.size == 0

    def test_malformed_counted_separately(self):
        records = [parse_clf_line(line) for line in SAMPLE_LINES + ["broken", ""]]
        stats, ids = trace_stats(records)
        assert stats.items == 4 == ids.size
        assert stats.malformed == 2

    def test_roundtrip_through_item_stream(self):
        records = [parse_clf_line(line) for line in SAMPLE_LINES * 7 + ["broken"]]
        stats, ids = trace_stats(records)
        assert ids.dtype == np.uint64
        assert ids.tolist() == [target_to_item(r.request_target) for r in records if r.valid]
        hist = from_stream(ids)
        assert hist.total == stats.items
        assert hist.distinct == stats.distinct
        assert hist.counts.max() == stats.max_frequency

    def test_invariants(self):
        with pytest.raises(ValueError):
            TraceStats(items=1, distinct=2, max_frequency=1)


class TestIterRecords:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "access_log"
        path.write_text("\n".join(SAMPLE_LINES) + "\n", encoding="latin-1")
        records = list(iter_records(str(path)))
        assert len(records) == 4
        assert all(r.valid for r in records)

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "access_log.gz"
        with gzip.open(path, "wt", encoding="latin-1") as fh:
            fh.write("\n".join(SAMPLE_LINES) + "\nbroken line\n")
        stats, _ = trace_stats(iter_records(str(path)))
        assert stats.items == 4
        assert stats.malformed == 1

    def test_non_utf8_bytes_survive(self, tmp_path):
        path = tmp_path / "access_log"
        raw = b'h - - [d] "GET /caf\xe9 HTTP/1.0" 200 1\n'
        path.write_bytes(raw)
        (rec,) = list(iter_records(str(path)))
        assert rec.valid
        assert rec.request_target == "/caf\xe9"


def test_frequency_ranks():
    ranks = frequency_ranks([5, 1, 17, 3])
    assert ranks == [(1, 17), (2, 5), (3, 3), (4, 1)]
    assert frequency_ranks(from_stream([9, 4, 9]).counts) == [(1, 2), (2, 1)]
