"""Online t x k counter matrices: one pass, constant work per item, mergeable.

Every item increments exactly one counter per row (row i uses the family's
pair (a_i, b_i), hashed by ``evaluate_batch(family, ids, i)``), so each row
always sums to the number of items absorbed.  A matrix is built in one call
by :func:`sketch_stream` and never changes afterwards.  Two matrices are
comparable only when built with the same hash family, which the matrix and
its file form carry.  The matrix is linear in the stream: row i is
the stream's count vector summed by h_i, whatever the item order.  So a build
hashes each distinct id once per row and adds its count, and more items, or
shards of one stream, are absorbed by merging their sketches.  A build's
total and each matrix's row sums are summed exactly, by the same
``_exact_sum`` that totals a histogram, so neither can wrap in uint64; the
constructor, which every build and merge goes through, rejects a total above
the counter capacity and a matrix whose rows do not each sum to its total.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .generators import _pack_file, _unpack_file
from .hashing import HashFamily, evaluate_batch, item_ids
from .histogram import _exact_sum, _read_only, from_stream

MAX_TOTAL = 2 ** 64 - 1

# A sketch file is the stream files' container around the family header and t*k counters.
_MAGIC = b"SKMX"
_DIMS = struct.Struct("<IIQ")  # t, k, total


class FamilyMismatchError(ValueError):
    """The two matrices were hashed with different families."""


@dataclass(frozen=True, eq=False)
class SketchMatrix:
    family: HashFamily
    counts: np.ndarray  # (t, k) uint64, row-major; stored as a read-only view
    total: int

    def __post_init__(self) -> None:
        shape = (self.family.t, self.family.k)
        if not (isinstance(self.counts, np.ndarray) and self.counts.dtype == np.uint64
                and self.counts.shape == shape):
            raise ValueError(f"counts must be a {shape} uint64 array")
        if self.total > MAX_TOTAL:
            raise OverflowError(f"total of {self.total} items exceeds the counter capacity")
        for i, row_sum in enumerate(_exact_sum(self.counts)):
            if row_sum != self.total:
                raise ValueError(f"row sums disagree with total at row {i}")
        object.__setattr__(self, "counts", _read_only(self.counts))

    @property
    def t(self) -> int:
        return self.family.t

    @property
    def k(self) -> int:
        return self.family.k

    def merge(self, other: "SketchMatrix") -> "SketchMatrix":
        """Cellwise sum; exactly the sketch of the concatenated streams."""
        if self.family != other.family:
            raise FamilyMismatchError("cannot merge sketches built with different hash families")
        return SketchMatrix(self.family, self.counts + other.counts, self.total + other.total)

    def row_distribution(self, i: int) -> np.ndarray:
        """Row i counters divided by the stream length; sums to 1."""
        if self.total == 0:
            raise ValueError("sketch is empty")
        if not 0 <= i < self.t:
            raise IndexError(f"row {i} out of range [0, {self.t})")
        return self.counts[i].astype(np.float64) / float(self.total)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    def to_bytes(self) -> bytes:
        return b"".join(_pack_file(_MAGIC, self.family.header(),
                                   _DIMS.pack(self.t, self.k, self.total), self.counts))


def load_sketch(path: str) -> SketchMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return sketch_from_bytes(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def sketch_from_bytes(data: bytes) -> SketchMatrix:
    """Parse the file form; the length must be exactly what the header implies."""
    header, (t, k, total), counts = _unpack_file(data, _MAGIC, "sketch", _DIMS,
                                                 lambda t, k, total: t * k)
    family = HashFamily.from_header(header)
    if (t, k) != (family.t, family.k):
        raise ValueError("sketch file dimensions disagree with the family header")
    try:
        return SketchMatrix(family, counts.reshape(t, k), total)
    except ValueError as exc:
        raise ValueError(f"corrupt sketch file: {exc}") from None


def sketch_stream(family: HashFamily, items, counts=None) -> SketchMatrix:
    """The sketch of a whole stream: row i counts the items per cell of h_i.

    ``counts``, when given, holds the multiplicity of each id in ``items``
    (the stream's histogram; ids may repeat and counts may be zero); without
    it ``items`` is the stream itself, reduced with ``from_stream``.  The
    matrix is linear in the stream, so either form hashes each id of the
    histogram once per row and adds its count to that cell in exact uint64
    arithmetic.
    """
    if counts is None:
        hist = from_stream(items)
        ids, counts = hist.ids, hist.counts
    else:
        ids = item_ids(items)
    counts = item_ids(counts, "item counts")
    if ids.ndim != 1 or counts.shape != ids.shape:
        raise ValueError("ids and counts must be 1-D arrays of one length")
    total = _exact_sum(counts[np.newaxis, :])[0]
    # No cell can exceed the total, so the uint64 sums below wrap only for a
    # total the constructor rejects as above the counter capacity.
    cells = np.zeros((family.t, family.k), dtype=np.uint64)
    for i in range(family.t):
        np.add.at(cells[i], evaluate_batch(family, ids, i), counts)
    return SketchMatrix(family, cells, total)
