"""Exact stream histograms, set partitions, and partition-space enumeration.

A stream is summarized exactly by an :class:`EmpiricalDistribution`: its
distinct item ids, sorted ascending as uint64, and the positive int64 count of
each, both from one ``np.unique`` over the id array.  Probability vectors are
plain float64 numpy arrays over an explicitly ordered universe.  A partition
of that universe into k cells is a label array: entry i is the cell (0..k-1)
of item i, and :func:`aggregate` collapses a vector along one label array or
a block of them.  The enumeration side (:func:`assignment_blocks`,
:func:`stirling`) is the brute-force oracle used to maximize a divergence
over every k-cell partition of a small universe.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .hashing import item_ids

# Exact Stirling numbers are only served up to this n.  S(26,13) still fits a
# signed 64-bit counter; one row further does not, and the enumeration budget
# is unreachable beyond it anyway.
MAX_STIRLING_N = 26

_BLOCK_ROWS = 4096

# A probability vector must sum to 1 within this absolute tolerance.
NORMALIZATION_TOL = 1e-9


class PartitionBudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the partition budget."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``: no copy, and ``a`` itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


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
        counts = counts.astype(np.int64, copy=False)
        if np.any(ids[1:] <= ids[:-1]):
            raise ValueError("ids must be sorted and unique")
        if np.any(counts <= 0):
            raise ValueError("counts must be strictly positive")
        object.__setattr__(self, "ids", _read_only(ids))
        object.__setattr__(self, "counts", _read_only(counts))
        object.__setattr__(self, "total", int(counts.sum()))

    @property
    def distinct(self) -> int:
        return int(self.ids.size)


def from_stream(items: np.ndarray | Sequence[int]) -> EmpiricalDistribution:
    """Count item multiplicities with one ``np.unique``. Empty streams are allowed."""
    ids, counts = np.unique(item_ids(items), return_counts=True)
    return EmpiricalDistribution(ids, counts)


def normalize(dist: EmpiricalDistribution, universe: np.ndarray | Sequence[int]) -> np.ndarray:
    """Probability vector x_i / m over ``universe`` in the given order.

    Items absent from the distribution get probability zero.  Raises on an
    empty stream, for which no probability model exists.
    """
    if dist.total == 0:
        raise ValueError("cannot normalize an empty stream")
    u = item_ids(universe)
    at = np.minimum(np.searchsorted(dist.ids, u), dist.ids.size - 1)
    seen = dist.ids[at] == u
    v = np.zeros(u.shape, dtype=np.float64)
    v[seen] = dist.counts[at[seen]] / float(dist.total)
    return v


def as_distribution(weights: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return ``weights`` as a probability vector.

    Entries must be finite, nonnegative, and sum to 1 within
    ``NORMALIZATION_TOL``.
    """
    v = np.asarray(weights, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("probability vector must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ValueError("probability vector entries must be finite and nonnegative")
    if abs(float(v.sum()) - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"probability vector sums to {v.sum()!r}, not 1")
    return v


def aggregate(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum vector entries cell by cell; item i of ``p`` lands in cell ``labels[i]``.

    ``labels`` is one label array of length ``len(p)`` or a (rows, len(p))
    block of them, giving a (k,) or (rows, k) result with k the largest
    label plus one.  Each cell adds its items in index order, so a row of a
    block aggregates to the same bits as that row given alone.
    """
    p = np.asarray(p, dtype=np.float64)
    labels = np.asarray(labels)
    if p.ndim != 1 or p.size == 0 or labels.ndim not in (1, 2) or labels.shape[-1] != p.size:
        raise ValueError(f"labels of shape {labels.shape} do not match a vector of shape {p.shape}")
    if labels.dtype.kind not in "iu" or labels.min() < 0:
        raise ValueError("cell labels must be nonnegative integers")
    k = int(labels.max()) + 1
    rows = labels.reshape(-1, p.size)
    cells = rows + (np.arange(rows.shape[0]) * k)[:, None]
    out = np.bincount(cells.ravel(), weights=np.broadcast_to(p, rows.shape).ravel(),
                      minlength=rows.shape[0] * k)
    return out.reshape(labels.shape[:-1] + (k,))


@lru_cache(maxsize=None)
def stirling(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact.

    Computed by the additive recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1),
    which avoids the cancellation of the alternating-sum formula.  Limited to
    n <= MAX_STIRLING_N so every value fits a 64-bit counter.
    """
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got n={n} k={k}")
    if n > MAX_STIRLING_N:
        raise ValueError(f"n={n} exceeds the exact bound {MAX_STIRLING_N}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if k == n or k == 1:
        return 1
    return k * stirling(n - 1, k) + stirling(n - 1, k - 1)


def assignment_blocks(
    n: int,
    k: int,
) -> Iterator[np.ndarray]:
    """Every k-cell partition of n items as (rows, n) label blocks.

    Rows are the length-n restricted growth strings with exactly k labels, in
    lexicographic order: labels appear in first-use order, so each row is the
    one canonical label array of its partition.  Blocks hold at most 4096
    rows, of dtype int8 for k <= 127 and int64 above.  Rows
    are grown depth-first from a stack of prefix blocks; a prefix using
    ``used`` labels takes any next label <= ``used`` while the remaining
    positions can still introduce the missing labels.
    """
    if not 1 <= k <= n:
        raise ValueError(f"require 1 <= k <= n, got n={n} k={k}")
    # The dtype must hold the label count k itself, which ``used`` reaches.
    dtype = np.int8 if k <= np.iinfo(np.int8).max else np.int64
    if k == 1 or k == n:
        # The one partition: every item in cell 0, or every item alone.
        yield np.arange(n, dtype=dtype)[None, :] if k == n else np.zeros((1, n), dtype)
        return
    labels = np.arange(k, dtype=dtype)
    stack = [(np.zeros((1, 1), dtype=dtype), np.ones(1, dtype=dtype))]
    while stack:
        prefix, used = stack.pop()
        d = prefix.shape[1]
        if d == n:
            yield prefix
            continue
        u = used[:, None]
        fresh = labels == u
        src, label = np.nonzero((labels <= u) & (k - u - fresh <= n - d - 1))
        child = np.empty((src.size, d + 1), dtype=dtype)
        child[:, :d] = prefix[src]
        child[:, d] = label
        child_used = used[src] + fresh[src, label]
        for start in reversed(range(0, src.size, _BLOCK_ROWS)):
            stack.append((child[start:start + _BLOCK_ROWS], child_used[start:start + _BLOCK_ROWS]))


def dump_histogram(dist: EmpiricalDistribution, path: str) -> None:
    """Write ``item,count`` CSV with a ``# total=m`` header line."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# total={dist.total}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item", "count"])
        writer.writerows(zip(dist.ids.tolist(), dist.counts.tolist()))

