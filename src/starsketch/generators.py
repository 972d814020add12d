"""Seeded synthetic stream generation for five distribution shapes.

All families live on the item universe 1..n.  Unbounded supports (pascal,
poisson) are truncated to that window and renormalized, preserving the shape
inside the universe.  Sampling is inverse-CDF over the truncated pmf, so draws
are exact with respect to it and deterministic per seed.

Parameter conventions: zipf(alpha) puts rank 1 on item 1.  pascal(r) counts
the trailing events before the r-th stopping event with per-trial event
weight p, defaulting to p = n / (2r + n); that coupling keeps the mean at
exactly n/2 for every r, which also centers binomial(p=0.5) and the default
poisson (rate n/2) on the same point.
"""
from __future__ import annotations

import inspect
import math
import re
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hashing import is_integer, item_ids
from .histogram import EmpiricalDistribution

STREAM_MAGIC = b"SSTR"

FAMILY_KINDS = ("uniform", "zipf", "pascal", "binomial", "poisson")


@dataclass(frozen=True)
class DistributionFamily:
    kind: str
    n: int
    alpha: float | None = None
    r: int | None = None
    p: float | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not is_integer(self.n):
            raise ValueError(f"universe size n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("universe size n must be >= 1")
        # Chained comparisons are false for NaN, so each check also rejects it.
        if self.kind == "zipf" and (self.alpha is None or not 0 < self.alpha < math.inf):
            raise ValueError("zipf requires a finite alpha > 0")
        if self.kind == "pascal":
            if not is_integer(self.r) or self.r < 1:
                raise ValueError(f"pascal requires an integer r >= 1, got {self.r!r}")
            # pmf subtracts lgamma(r) from lgamma(x + r), which cancels as r
            # grows: at the default p and n = 50 its L1 distance from scipy's
            # nbinom pmf is 7e-10 at r = 2^20, 8e-9 at 2^24 and 1.2e-3 at 10^12.
            if self.r > 1 << 20:
                raise ValueError(f"pascal requires r <= 2^20 = 1048576, got {self.r!r}: "
                                 "above it the pmf's log-gamma terms cancel beyond float64")
            if self.p is None:
                object.__setattr__(self, "p", self.n / (2 * self.r + self.n))
            if not 0 < self.p < 1:
                raise ValueError("pascal requires 0 < p < 1")
        if self.kind == "binomial" and (self.p is None or not 0 <= self.p <= 1):
            raise ValueError("binomial requires 0 <= p <= 1")
        if self.kind == "poisson" and (self.lam is None or not 0 < self.lam < math.inf):
            raise ValueError("poisson requires a finite lam > 0")

    @classmethod
    def uniform(cls, n: int) -> "DistributionFamily":
        return cls("uniform", n)

    @classmethod
    def zipf(cls, n: int, alpha: float) -> "DistributionFamily":
        return cls("zipf", n, alpha=alpha)

    @classmethod
    def pascal(cls, n: int, r: int, p: float | None = None) -> "DistributionFamily":
        return cls("pascal", n, r=r, p=p)

    @classmethod
    def binomial(cls, n: int, p: float = 0.5) -> "DistributionFamily":
        return cls("binomial", n, p=p)

    @classmethod
    def poisson(cls, n: int, lam: float | None = None) -> "DistributionFamily":
        if lam is None:
            lam = n / 2
        return cls("poisson", n, lam=lam)

    def label(self) -> str:
        """The plan descriptor of this family: ``parse_family(label, n)`` rebuilds it."""
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "zipf":
            return f"zipf(alpha={_number(self.alpha)})"
        if self.kind == "pascal":
            if self == DistributionFamily.pascal(self.n, self.r):
                return f"pascal(r={self.r})"
            return f"pascal(r={self.r},p={_number(self.p)})"
        if self.kind == "binomial":
            return f"binomial(p={_number(self.p)})"
        return f"poisson(lam={_number(self.lam)})"


def _number(x: float) -> str:
    """Shortest text that parses back to the float ``x``, without a trailing ``.0``."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _lgamma(x: np.ndarray) -> np.ndarray:
    """``math.lgamma`` of each entry of a 1-D float64 array, with its exact bits."""
    return np.fromiter(map(math.lgamma, x.tolist()), np.float64, x.size)


def _xlogy(x: np.ndarray, y: float) -> np.ndarray:
    """x * log(y), with 0 * log(0) = 0 so degenerate parameters stay exact."""
    if y > 0:
        return x * math.log(y)
    return np.where(x > 0, -np.inf, 0.0)


def pmf(d: DistributionFamily) -> np.ndarray:
    """Probability vector over items 1..n; always sums to 1.

    The pascal, binomial and poisson weights are computed in log space from
    log-gamma coefficients, since the coefficients themselves overflow
    float64 at the shipped universe size n = 4000.
    """
    n = d.n
    if d.kind == "uniform":
        w = np.full(n, 1.0 / n)
    elif d.kind == "zipf":
        w = np.arange(1, n + 1, dtype=np.float64) ** (-d.alpha)
    elif d.kind == "pascal":
        # Failure-counting negative binomial, success weight 1 - p.
        x = np.arange(1, n + 1, dtype=np.float64)
        success = 1.0 - d.p
        # Where 1 - p rounds to 1, log1p(-success) would be log 0; log p is exact.
        log_p = math.log1p(-success) if success < 1.0 else math.log(d.p)
        w = np.exp(_lgamma(x + d.r) - _lgamma(x + 1.0) - math.lgamma(d.r)
                   + d.r * math.log(success) + x * log_p)
    elif d.kind == "binomial":
        # n - 1 trials shifted by one so the support is exactly 1..n.
        x = np.arange(0, n, dtype=np.float64)
        log_fact = _lgamma(x + 1.0)  # log x!, so log_fact[::-1] is log (n - 1 - x)!
        w = np.exp(log_fact[-1] - log_fact - log_fact[::-1]
                   + _xlogy(x, d.p) + _xlogy(x[::-1], 1.0 - d.p))
    else:
        x = np.arange(1, n + 1, dtype=np.float64)
        w = np.exp(x * math.log(d.lam) - _lgamma(x + 1.0) - d.lam)
    total = w.sum()
    if total <= 0:
        raise ValueError(f"{d.label()}: no probability mass inside 1..{n}")
    return w / total


def _cdf(d: DistributionFamily) -> np.ndarray:
    """The cumulative pmf both samplers invert; the part of a draw no seed changes."""
    return np.cumsum(pmf(d))


def _buffer(m: int) -> np.ndarray:
    """An unfilled float64 buffer for the m uniforms of one stream."""
    if not is_integer(m) or m < 0:
        raise ValueError(f"stream length must be an integer >= 0, got {m!r}")
    return np.empty(m)


def _uniforms(u: np.ndarray, seed: int) -> np.ndarray:
    """``u`` filled with the seeded uniforms that both samplers map to items.

    Each seed owns its generator, so draws made in any order, or at once in
    several threads, give the same values.
    """
    return np.random.default_rng(seed).random(out=u)


def sample_stream(d: DistributionFamily, m: int, seed: int) -> np.ndarray:
    """m i.i.d. items 1..n drawn by inverse CDF; deterministic per seed.

    Rank 1 maps to item 1 (and so on); hashing makes the placement
    irrelevant to the sketch.
    """
    u = _uniforms(_buffer(m), seed)
    idx = np.minimum(np.searchsorted(_cdf(d), u, side="right"), d.n - 1)
    return (idx + 1).astype(np.uint64)


def sample_histogram(d: DistributionFamily, m: int, seed: int) -> EmpiricalDistribution:
    """The histogram of ``sample_stream(d, m, seed)``, drawn without ordering the items."""
    return _draw_histogram(_cdf(d), _buffer(m), seed)


def _draw_histogram(cdf: np.ndarray, u: np.ndarray, seed: int) -> EmpiricalDistribution:
    """``sample_histogram(d, m, seed)`` given ``cdf = _cdf(d)`` and a float64
    buffer ``u`` of length m, which the draw fills with its uniforms and sorts.

    Item i + 1 (i < n - 1) is drawn for a uniform u with cdf[i-1] <= u <
    cdf[i], so #{u < cdf[i]} items lie at or below it; the sorted uniforms
    give those cumulative counts with one ``searchsorted``, and item n takes
    the remainder, as ``sample_stream`` clamps to it.  A caller drawing one
    family many times computes its cdf once and passes it here, and may
    reuse one buffer for every draw of length m: the histogram returned
    shares no memory with it.  Its fill, sort and ``searchsorted`` release
    the GIL, and it calls nothing perfbench's single-threaded tracer wraps,
    so ``run_plan`` calls it for side 1 in the one worker thread it keeps for
    the run while the calling thread draws side 0, each into its own buffer.
    """
    _uniforms(u, seed).sort()
    below = np.append(np.searchsorted(u, cdf[:-1], side="left"), u.size)
    counts = np.diff(below, prepend=0)
    seen = np.flatnonzero(counts)
    return EmpiricalDistribution((seen + 1).astype(np.uint64), counts[seen])


_SOURCE_RE = re.compile(r"^(?P<kind>[a-z]+)(?:\((?P<args>[^)]*)\))?$")


def parse_family(text: str, n: int) -> DistributionFamily:
    """Parse a family descriptor like ``zipf(alpha=1)`` or ``pascal(r=3)``.

    The arguments are the keyword parameters of the kind's constructor
    (``DistributionFamily.zipf`` and so on).  A missing, unknown or repeated
    argument, a non-number and a non-integer ``r`` raise ``ValueError``.
    """
    m = _SOURCE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse family descriptor {text!r}")
    kind = m.group("kind")
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    kwargs: dict[str, float] = {}
    if m.group("args"):
        for part in m.group("args").split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if not value or key in kwargs:
                raise ValueError(f"bad family argument {part!r} in {text!r}")
            kwargs[key] = float(value)
    make = getattr(DistributionFamily, kind)
    try:
        inspect.signature(make).bind(n, **kwargs)
    except TypeError as exc:
        raise ValueError(f"family descriptor {text!r}: {exc}") from None
    if "r" in kwargs:
        if not kwargs["r"].is_integer():
            raise ValueError(f"family descriptor {text!r}: r must be an integer")
        kwargs["r"] = int(kwargs["r"])
    return make(n, **kwargs)


# The file container shared by stream and sketch files: a prefix (magic,
# version, text length), the text, a fixed dimensions record, then the
# little-endian u64 values the dimensions announce.
_PREFIX = struct.Struct("<4sBI")
_FILE_VERSION = 1
_STREAM_DIMS = struct.Struct("<QQ")  # universe size n, item count m


def _pack_file(magic: bytes, text: str, dims: bytes,
               values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The container as (header bytes, u64 payload array), for one write each."""
    raw = text.encode()
    return (_PREFIX.pack(magic, _FILE_VERSION, len(raw)) + raw + dims,
            np.ascontiguousarray(values, dtype="<u8"))


def _unpack_file(data: bytes, magic: bytes, kind: str, dims: struct.Struct,
                 count: Callable[..., int]) -> tuple[str, tuple, np.ndarray]:
    """(text, dimensions, uint64 values) of a container holding exactly the
    ``count(*dimensions)`` values its header announces, else ``ValueError``."""
    if data[:4] != magic:
        raise ValueError(f"not a {kind} file")
    if len(data) < _PREFIX.size:
        raise ValueError(f"truncated {kind} file: {len(data)} bytes")
    _, version, text_len = _PREFIX.unpack_from(data)
    if version != _FILE_VERSION:
        raise ValueError(f"unsupported {kind} file version {version}")
    dims_at = _PREFIX.size + text_len
    values_at = dims_at + dims.size
    if len(data) < values_at:
        raise ValueError(f"truncated {kind} file: {len(data)} bytes, header ends past the data")
    dimensions = dims.unpack_from(data, dims_at)
    size = count(*dimensions)
    expected = values_at + 8 * size
    if len(data) < expected:
        raise ValueError(f"truncated {kind} file: {len(data)} bytes, its header needs "
                         f"{expected} for {size} values")
    if len(data) > expected:
        raise ValueError(f"{kind} file has {len(data) - expected} trailing bytes "
                         f"after its {size} values")
    values = np.frombuffer(data, dtype="<u8", count=size, offset=values_at).astype(np.uint64)
    return data[_PREFIX.size:dims_at].decode(), dimensions, values


def write_stream(path: str, items, n: int, descriptor: str) -> None:
    """Stream file: magic, version, descriptor, universe size, fixed-width ids.

    ``n`` is the universe size for synthetic streams and 0 for streams over
    the full 64-bit id space (ingested traces).
    """
    if not (is_integer(n) and 0 <= n < 2 ** 64):
        raise ValueError(f"universe size must be an integer in [0, 2^64), got {n!r}")
    ids = item_ids(items)
    with open(path, "wb") as fh:
        fh.writelines(_pack_file(STREAM_MAGIC, descriptor, _STREAM_DIMS.pack(n, ids.size), ids))


def read_stream(path: str) -> tuple[np.ndarray, int, str]:
    """Returns (items, universe size, descriptor).

    The file length must be exactly what its header implies; truncation and
    trailing bytes raise ``ValueError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        descriptor, (n, _), items = _unpack_file(data, STREAM_MAGIC, "stream", _STREAM_DIMS,
                                                 lambda n, m: m)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return items, n, descriptor
