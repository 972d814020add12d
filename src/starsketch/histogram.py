"""Exact stream histograms and probability vectors.

A stream is summarized exactly by an :class:`EmpiricalDistribution`: its
distinct item ids, sorted ascending as uint64, and the positive int64 count of
each, both from one ``np.unique`` over the id array.  A stream's total is
summed exactly by :func:`_exact_sum`, here and for sketch rows, so no count
vector wraps in fixed-width arithmetic.  Probability vectors are
plain float64 numpy arrays over an explicitly ordered universe.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hashing import item_ids

# A probability vector must sum to 1 within this absolute tolerance.
NORMALIZATION_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``: no copy, and ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def _exact_sum(rows: np.ndarray) -> list[int]:
    """Exact sum of each row of a uint64 matrix with fewer than 2^32 columns.

    A uint64 sum can wrap; the sums of the values' low and high 32-bit halves
    cannot, and give the exact sum hi * 2^32 + lo.
    """
    lo = (rows & np.uint64(0xFFFFFFFF)).sum(axis=1)
    hi = (rows >> np.uint64(32)).sum(axis=1)
    return [(h << 32) + l for h, l in zip(hi.tolist(), lo.tolist())]


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Distinct item ids and their counts for one stream.

    ``ids`` is sorted, unique and uint64; ``counts`` holds the strictly
    positive int64 multiplicity of each id, in the same order.  Both are
    read-only views.  Items never seen are implicit zeros.  ``total`` is the
    stream length m.
    """

    ids: np.ndarray
    counts: np.ndarray
    total: int = field(init=False)

    def __post_init__(self) -> None:
        ids = item_ids(self.ids)
        counts = np.asarray(self.counts)
        if ids.ndim != 1 or counts.shape != ids.shape:
            raise ValueError("ids and counts must be 1-D arrays of one length")
        if counts.size and counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        if counts.dtype == np.uint64 and np.any(counts > np.iinfo(np.int64).max):
            raise ValueError("counts must be below 2^63, the int64 limit")
        counts = counts.astype(np.int64, copy=False)
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("ids must be sorted and unique")
        if np.any(counts <= 0):
            raise ValueError("counts must be strictly positive")
        object.__setattr__(self, "ids", _read_only(ids))
        object.__setattr__(self, "counts", _read_only(counts))
        object.__setattr__(self, "total", _exact_sum(counts.view(np.uint64)[np.newaxis])[0])

    @property
    def distinct(self) -> int:
        return int(self.ids.size)


def from_stream(items: np.ndarray | Sequence[int]) -> EmpiricalDistribution:
    """Count item multiplicities with one ``np.unique``. Empty streams are allowed."""
    ids, counts = np.unique(item_ids(items), return_counts=True)
    return EmpiricalDistribution(ids, counts)


def normalize(dist: EmpiricalDistribution, universe: np.ndarray | Sequence[int]) -> np.ndarray:
    """Probability vector x_i / m over ``universe`` in the given order.

    Items absent from the distribution get probability zero, and items
    outside the universe are left out.  Raises on an empty stream, for which
    no probability model exists.  When the universe is exactly 1..n, as a
    synthetic experiment's is, the counts of the ids in 1..n are scattered
    to their positions ``id - 1`` with no search over the universe; any other
    universe searches each of its ids in the histogram.  Both give the same
    bits.
    """
    if dist.total == 0:
        raise ValueError("cannot normalize an empty stream")
    u = item_ids(universe)
    n = u.size
    if u.ndim == 1 and n and u[-1] == n and (u == np.arange(1, n + 1, dtype=np.uint64)).all():
        lo, hi = np.searchsorted(dist.ids, np.array((1, n + 1), dtype=np.uint64))
        v = np.zeros(n, dtype=np.float64)
        v[dist.ids[lo:hi] - np.uint64(1)] = dist.counts[lo:hi] / float(dist.total)
        return v
    at = np.minimum(np.searchsorted(dist.ids, u), dist.ids.size - 1)
    seen = dist.ids[at] == u
    v = np.zeros(u.shape, dtype=np.float64)
    v[seen] = dist.counts[at[seen]] / float(dist.total)
    return v


def as_distribution(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return ``weights`` as a probability vector.

    Entries must be finite, nonnegative (``-0.0`` is a zero), and sum to 1
    within ``NORMALIZATION_TOL``.
    """
    v = np.asarray(weights, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("probability vector must be a nonempty 1-D sequence")
    # min() and max() carry a NaN through, and the comparison is then false.
    if not v.min() >= 0.0 or not math.isfinite(v.max()):
        raise ValueError("probability vector entries must be finite and nonnegative")
    if abs(float(v.sum()) - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"probability vector sums to {v.sum()!r}, not 1")
    return v


def dump_histogram(dist: EmpiricalDistribution, path: str) -> None:
    """Write ``item,count`` CSV with a ``# total=m`` header line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# total={dist.total}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item", "count"])
        writer.writerows(zip(dist.ids.tolist(), dist.counts.tolist()))

