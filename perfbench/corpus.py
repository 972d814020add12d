"""Seeded synthetic NCSA Common Log Format corpus for the trace-fleet workload.

Stdlib + numpy only, so the corpus does not depend on the program under test.
Every log draws its request targets from one zipf popularity curve over a
fixed page set, but each log re-shuffles a share of the rank positions, so
the ranking drifts from log to log and pairs of logs differ.  Tail pages are
absent from most logs, which makes kl between full streams legitimately
infinite.  On top of that:

* about 10% of valid requests carry a cache-buster query string that is
  unique in the whole corpus (distinct/items lands near 0.3);
* about 2% of lines are malformed in one of several ways the CLF parser
  must reject;
* about 1% of pages have latin-1 (non-UTF-8) bytes in their path;
* every third log is gzip-compressed.

The generator returns, per log, the target counts an exact ingest must
reproduce, so ``ingest --stats`` and ``stats --ranks`` can be checked
exactly and full-stream reference divergences computed without the program.
"""
from __future__ import annotations

import gzip
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

PAGES = 50_000
ZIPF_ALPHA = 1.1
DRIFT_SHARE = 0.3
BUSTER_SHARE = 0.10
MALFORMED_SHARE = 0.02
LATIN1_PAGE_SHARE = 0.01
GZIP_EVERY = 3

_SECTIONS = (b"shuttle", b"history", b"images", b"software", b"facts", b"elv", b"icons")
_MALFORMED = (
    b'%s - - [%s] "-" 400 0',
    b'%s - - [%s] "GET" 400 0',
    b'%s - - [%s] "" 400 0',
    b"%s - - [%s] GET /no-quotes HTTP/1.0 200 12",
    b'%s - - [%s] "GET /truncated HT',
)


@dataclass(frozen=True)
class LogExpectation:
    """What an exact ingest of one log must report."""

    name: str
    lines: int
    malformed: int
    counts: dict[bytes, int]  # request target (raw bytes) -> occurrences

    @property
    def items(self) -> int:
        return self.lines - self.malformed

    @property
    def distinct(self) -> int:
        return len(self.counts)

    @property
    def ranks(self) -> list[int]:
        """Target frequencies, most frequent first."""
        return sorted(self.counts.values(), reverse=True)


def _page_names(rng: np.random.Generator) -> list[bytes]:
    sections = rng.integers(0, len(_SECTIONS), PAGES)
    latin1 = rng.random(PAGES) < LATIN1_PAGE_SHARE
    accents = rng.integers(0xC0, 0x100, PAGES)  # letters only: no whitespace, no quote
    names = []
    for i in range(PAGES):
        stem = b"p%d" % i
        if latin1[i]:
            stem += bytes([int(accents[i])]) + b"t\xe9"
        names.append(b"/%s/%s.html" % (_SECTIONS[sections[i]], stem))
    return names


def _clf_date(second: int) -> bytes:
    day, rest = divmod(second, 86_400)
    hh, rest = divmod(rest, 3_600)
    mm, ss = divmod(rest, 60)
    return b"%02d/Jul/1995:%02d:%02d:%02d -0400" % (1 + day % 28, hh, mm, ss)


def _garbage_line(rng: np.random.Generator) -> bytes:
    raw = rng.integers(0x20, 0x100, int(rng.integers(8, 60))).astype(np.uint8).tobytes()
    return raw.replace(b'"', b"x")


def write_corpus(out_dir: str, seed: int, logs: int = 24,
                 lines_per_log: int = 30_000) -> list[LogExpectation]:
    """Write ``logs`` CLF logs into ``out_dir``; deterministic per seed."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng([0x7F1EE7, seed])
    names = _page_names(rng)
    cdf = np.cumsum(np.arange(1, PAGES + 1, dtype=np.float64) ** -ZIPF_ALPHA)
    cdf /= cdf[-1]
    base = rng.permutation(PAGES)
    hosts = [b"host%d.example.%s" % (i, (b"com", b"edu", b"net")[i % 3]) for i in range(997)]
    buster_id = 0
    expected = []
    for log in range(logs):
        ranking = base.copy()
        moved = np.flatnonzero(rng.random(PAGES) < DRIFT_SHARE)
        ranking[moved] = ranking[rng.permutation(moved)]
        pages = ranking[np.searchsorted(cdf, rng.random(lines_per_log), side="right")]
        kind = rng.random(lines_per_log)
        host = rng.integers(0, len(hosts), lines_per_log)
        status = rng.choice([200, 200, 200, 304, 404], lines_per_log)
        size = rng.integers(0, 100_000, lines_per_log)
        second0 = int(rng.integers(0, 86_400 * 20))
        counts: Counter[bytes] = Counter()
        out = []
        malformed = 0
        for i in range(lines_per_log):
            h, date = hosts[host[i]], _clf_date(second0 + i)
            u = kind[i]
            if u < MALFORMED_SHARE:
                malformed += 1
                variant = int(u / MALFORMED_SHARE * (len(_MALFORMED) + 1))
                if variant < len(_MALFORMED):
                    out.append(_MALFORMED[variant] % (h, date))
                else:
                    out.append(_garbage_line(rng))
                continue
            target = names[pages[i]]
            if u < MALFORMED_SHARE + BUSTER_SHARE:
                target += b"?cb=%x" % buster_id
                buster_id += 1
            counts[target] += 1
            if u > 0.97:
                request = b"GET " + target  # protocol-less, still valid
            elif u > 0.95:
                request = b"HEAD " + target + b" HTTP/1.0"
            else:
                request = b"GET " + target + b" HTTP/1.0"
            out.append(b'%s - - [%s] "%s" %d %d' % (h, date, request, status[i], size[i]))
        data = b"\n".join(out) + b"\n"
        name = f"log{log:02d}.log" + (".gz" if log % GZIP_EVERY == GZIP_EVERY - 1 else "")
        path = os.path.join(out_dir, name)
        if name.endswith(".gz"):
            with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb",
                                                        compresslevel=1, mtime=0) as fh:
                fh.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)
        expected.append(LogExpectation(name, lines_per_log, malformed, dict(counts)))
    return expected
