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

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

STREAM_MAGIC = b"SSTR"
STREAM_VERSION = 1

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
        if self.n < 1:
            raise ValueError("universe size n must be >= 1")
        if self.kind == "zipf" and (self.alpha is None or self.alpha <= 0):
            raise ValueError("zipf requires alpha > 0")
        if self.kind == "pascal":
            if self.r is None or self.r < 1:
                raise ValueError("pascal requires r >= 1")
            if self.p is None or not 0 < self.p < 1:
                raise ValueError("pascal requires 0 < p < 1")
        if self.kind == "binomial" and (self.p is None or not 0 <= self.p <= 1):
            raise ValueError("binomial requires 0 <= p <= 1")
        if self.kind == "poisson" and (self.lam is None or self.lam <= 0):
            raise ValueError("poisson requires lam > 0")

    @classmethod
    def uniform(cls, n: int) -> "DistributionFamily":
        return cls("uniform", n)

    @classmethod
    def zipf(cls, n: int, alpha: float) -> "DistributionFamily":
        return cls("zipf", n, alpha=alpha)

    @classmethod
    def pascal(cls, n: int, r: int, p: float | None = None) -> "DistributionFamily":
        if p is None:
            p = n / (2 * r + n)
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
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "zipf":
            return f"zipf(alpha={self.alpha:g})"
        if self.kind == "pascal":
            default_p = self.n / (2 * self.r + self.n)
            if self.p == default_p:
                return f"pascal(r={self.r})"
            return f"pascal(r={self.r},p={self.p:g})"
        if self.kind == "binomial":
            return f"binomial(p={self.p:g})"
        return f"poisson(lam={self.lam:g})"


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


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
        w = np.exp(_lgamma(x + d.r) - _lgamma(x + 1.0) - math.lgamma(d.r)
                   + d.r * math.log(success) + x * math.log1p(-success))
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


def sample_stream(
    d: DistributionFamily,
    m: int,
    seed: int,
    rank_shuffle_seed: int | None = None,
) -> np.ndarray:
    """m i.i.d. items 1..n drawn by inverse CDF; deterministic per seed.

    By default rank 1 maps to item 1 (and so on).  ``rank_shuffle_seed``
    applies a seeded permutation of the item labels instead; hashing makes
    the placement irrelevant to the sketch, so this is off by default.
    """
    if m < 0:
        raise ValueError("stream length must be >= 0")
    if m == 0:
        return np.empty(0, dtype=np.uint64)
    cdf = np.cumsum(pmf(d))
    rng = np.random.default_rng(seed)
    u = rng.random(m)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), d.n - 1)
    if rank_shuffle_seed is not None:
        relabel = np.random.default_rng(rank_shuffle_seed).permutation(d.n)
        idx = relabel[idx]
    return (idx + 1).astype(np.uint64)


_SOURCE_RE = re.compile(r"^(?P<kind>[a-z]+)(?:\((?P<args>[^)]*)\))?$")


def parse_family(text: str, n: int) -> DistributionFamily:
    """Parse a family descriptor like ``zipf(alpha=1)`` or ``pascal(r=3)``."""
    m = _SOURCE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse family descriptor {text!r}")
    kind = m.group("kind")
    kwargs: dict[str, float] = {}
    if m.group("args"):
        for part in m.group("args").split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"bad family argument {part!r} in {text!r}")
            kwargs[key.strip()] = float(value)
    if kind == "uniform":
        return DistributionFamily.uniform(n)
    if kind == "zipf":
        return DistributionFamily.zipf(n, kwargs.pop("alpha"))
    if kind == "pascal":
        r = int(kwargs.pop("r"))
        return DistributionFamily.pascal(n, r, kwargs.pop("p", None))
    if kind == "binomial":
        return DistributionFamily.binomial(n, kwargs.pop("p", 0.5))
    if kind == "poisson":
        return DistributionFamily.poisson(n, kwargs.pop("lam", None))
    raise ValueError(f"unknown family kind {kind!r}")


# Stream file layout: prefix, descriptor text, dimensions, m little-endian u64 ids.
_STREAM_PREFIX = struct.Struct("<4sBI")  # magic, version, descriptor length
_STREAM_DIMS = struct.Struct("<QQ")  # universe size n, item count m


def write_stream(path: str, items: np.ndarray, n: int, descriptor: str) -> None:
    """Stream file: magic, version, descriptor, universe size, fixed-width ids.

    ``n`` is the universe size for synthetic streams and 0 for streams over
    the full 64-bit id space (ingested traces).
    """
    items = np.asarray(items, dtype=np.uint64)
    desc = descriptor.encode()
    with open(path, "wb") as fh:
        fh.write(_STREAM_PREFIX.pack(STREAM_MAGIC, STREAM_VERSION, len(desc)))
        fh.write(desc)
        fh.write(_STREAM_DIMS.pack(n, items.size))
        fh.write(items.astype("<u8").tobytes())


def read_stream(path: str) -> tuple[np.ndarray, int, str]:
    """Returns (items, universe size, descriptor).

    The file length must be exactly what its header implies; truncation and
    trailing bytes raise ``ValueError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != STREAM_MAGIC:
        raise ValueError(f"{path}: not a stream file")
    if len(data) < _STREAM_PREFIX.size:
        raise ValueError(f"{path}: truncated stream file: {len(data)} bytes")
    _, version, desc_len = _STREAM_PREFIX.unpack_from(data)
    if version != STREAM_VERSION:
        raise ValueError(f"{path}: unsupported stream file version {version}")
    dims_at = _STREAM_PREFIX.size + desc_len
    if len(data) < dims_at + _STREAM_DIMS.size:
        raise ValueError(f"{path}: truncated stream file: {len(data)} bytes, "
                         f"header ends past the data")
    n, m = _STREAM_DIMS.unpack_from(data, dims_at)
    items_at = dims_at + _STREAM_DIMS.size
    expected = items_at + 8 * m
    if len(data) < expected:
        raise ValueError(f"{path}: truncated stream file: {len(data)} bytes, "
                         f"{m} items need {expected}")
    if len(data) > expected:
        raise ValueError(f"{path}: stream file has {len(data) - expected} trailing bytes "
                         f"after its {m} items")
    descriptor = data[_STREAM_PREFIX.size:dims_at].decode()
    items = np.frombuffer(data, dtype="<u8", count=m, offset=items_at).astype(np.uint64)
    return items, n, descriptor
