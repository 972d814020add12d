"""Turn NCSA Common Log Format web-server logs into item-id streams.

One item = one HTTP request target (the URL field of the quoted request),
taken verbatim: query string included, case sensitive.  Targets are mapped to
stable 64-bit ids by a fixed fingerprint so that runs and machines
agree.  Malformed lines never abort a parse; they are counted and reported.

Gzip-compressed logs are read transparently.  The classic trace archives
contain bytes that are not valid UTF-8, so files are decoded as latin-1.
"""
from __future__ import annotations

import gzip
import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .histogram import from_stream

_REQUEST_RE = re.compile(r'"([^"]*)"')


@dataclass(frozen=True)
class LogRecord:
    request_target: str
    valid: bool


@dataclass(frozen=True)
class TraceStats:
    items: int
    distinct: int
    max_frequency: int
    malformed: int = 0

    def __post_init__(self) -> None:
        if self.distinct > self.items or self.max_frequency > self.items:
            raise ValueError("inconsistent trace statistics")


def parse_clf_line(line: str) -> LogRecord:
    """Extract the request target from one CLF line; total, never raises.

    The target is the second token of the first quoted field, so both
    ``"GET /x HTTP/1.0"`` and the protocol-less ``"GET /x"`` resolve to
    ``/x``.  Anything else comes back with valid=False.
    """
    m = _REQUEST_RE.search(line)
    if m is None:
        return LogRecord("", False)
    tokens = m.group(1).split()
    if len(tokens) < 2:
        return LogRecord("", False)
    return LogRecord(tokens[1], True)


def target_to_item(target: str) -> int:
    """Stable 64-bit fingerprint of the exact target string."""
    digest = hashlib.blake2b(target.encode("utf-8", "surrogateescape"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def iter_records(path: str) -> Iterator[LogRecord]:
    """Parse a (possibly gzipped) log file line by line, constant memory."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="latin-1") as fh:
        for line in fh:
            yield parse_clf_line(line)


def trace_stats(records: Iterable[LogRecord]) -> tuple[TraceStats, np.ndarray]:
    """Stream size, distinct ids, and peak frequency over valid records.

    Returns the stats together with the stream itself: the uint64 item id of
    each valid record in stream order, so one pass over a log yields both.
    The stats are those of that id array, so ``distinct`` counts 64-bit
    fingerprints.
    """
    ids: list[int] = []
    malformed = 0
    for rec in records:
        if rec.valid:
            ids.append(target_to_item(rec.request_target))
        else:
            malformed += 1
    stream = np.array(ids, dtype=np.uint64)
    hist = from_stream(stream)
    stats = TraceStats(
        items=hist.total,
        distinct=hist.distinct,
        max_frequency=int(hist.counts.max()) if hist.distinct else 0,
        malformed=malformed,
    )
    return stats, stream


def frequency_ranks(counts: np.ndarray | Sequence[int]) -> list[tuple[int, int]]:
    """(rank, frequency) pairs, most frequent first; feeds log-scale plots."""
    ordered = np.sort(np.asarray(counts, dtype=np.int64))[::-1].tolist()
    return list(enumerate(ordered, start=1))
