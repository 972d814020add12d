"""Turn NCSA Common Log Format web-server logs into item-id streams.

One item = one HTTP request target (the URL field of the quoted request),
taken verbatim: query string included, case sensitive.  Targets are mapped to
stable 64-bit ids by a fixed fingerprint so that runs and machines
agree.  Malformed lines never abort a parse; they are counted and reported.

A log is read line by line and each line is cut down to its quoted request;
a pass parses and fingerprints each distinct request once, so its memory is
O(distinct requests) plus the id stream.  Gzip-compressed logs are recognised
by their magic bytes and read transparently.  The classic trace archives
contain bytes that are not valid UTF-8, so files are decoded as latin-1.
"""
from __future__ import annotations

import gzip
import hashlib
import io
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .histogram import from_stream

_UNSEEN = object()


class LogRecord(NamedTuple):
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


def _request(line: str) -> str:
    """The first quoted field of ``line``, quotes included, or ``""`` when it has none.

    A quote behind an odd run of backslashes is escaped (``\\"``) and does
    not end the field; the field keeps its escapes verbatim.
    """
    i = line.find('"')
    j = line.find('"', i + 1)
    while j >= 0 and line[j - 1] == "\\":
        field = line[i + 1:j]
        if (len(field) - len(field.rstrip("\\"))) % 2 == 0:
            break  # an even run of backslashes escapes itself, not the quote
        j = line.find('"', j + 1)
    return line[i:j + 1] if j >= 0 else ""


def parse_clf_line(line: str) -> LogRecord:
    """Extract the request target from one CLF line; total, never raises.

    The target is the second token of the first quoted field, so both
    ``"GET /x HTTP/1.0"`` and the protocol-less ``"GET /x"`` resolve to
    ``/x``.  Anything else comes back with valid=False.
    """
    tokens = _request(line)[1:-1].split()
    if len(tokens) < 2:
        return LogRecord("", False)
    return LogRecord(tokens[1], True)


def target_to_item(target: str) -> int:
    """Stable 64-bit fingerprint of the exact target string."""
    digest = hashlib.blake2b(target.encode("utf-8", "surrogateescape"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def iter_records(path: str) -> Iterator[str]:
    """The quoted request of each line of a (possibly gzipped) log.

    Each line yields its first quoted field, quotes included, or ``""`` when
    it has none: exactly the field ``parse_clf_line`` reads, so parsing the
    yielded string gives the record of the whole line.
    """
    with open(path, "rb") as raw:
        binary = gzip.GzipFile(fileobj=raw) if raw.peek(2)[:2] == b"\x1f\x8b" else raw
        with io.TextIOWrapper(binary, encoding="latin-1") as fh:
            yield from map(_request, fh)


def trace_stats(requests: Iterable[str]) -> tuple[TraceStats, np.ndarray]:
    """Stream size, distinct ids, and peak frequency over valid requests.

    Returns the stats together with the stream itself: the uint64 item id of
    each valid request in stream order, so one pass over a log yields both.
    The stats are those of that id array, so ``distinct`` counts 64-bit
    fingerprints.  Each distinct request is parsed and fingerprinted once;
    the answers live only for this call.
    """
    resolved: dict[str, int | None] = {}
    lookup = resolved.get
    ids: list[int] = []
    malformed = 0
    for request in requests:
        item = lookup(request, _UNSEEN)
        if item is _UNSEEN:
            rec = parse_clf_line(request)
            item = resolved[request] = target_to_item(rec.request_target) if rec.valid else None
        if item is None:
            malformed += 1
        else:
            ids.append(item)
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
