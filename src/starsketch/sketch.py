"""Online t x k counter matrices: one pass, constant work per item, mergeable.

Every arriving item increments exactly one counter per row (row i uses hash
function i), so each row always sums to the number of items absorbed.  Two
matrices are comparable only when built with the same hash family; the family
fingerprint is carried in the matrix and in its file form to make that a
checked precondition.  Parallel ingestion happens by sharding the stream into
per-worker matrices and merging; counters themselves are never shared.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .generators import _pack_file, _unpack_file
from .hashing import HashFamily, evaluate_batch, item_ids

MAX_TOTAL = 2 ** 64 - 1

# A sketch file is the stream files' container around the family header and t*k counters.
_MAGIC = b"SKMX"
_DIMS = struct.Struct("<IIQ")  # t, k, total


class FamilyMismatchError(ValueError):
    """The two matrices were hashed with different families."""


@dataclass
class SketchMatrix:
    family: HashFamily
    counts: np.ndarray  # (t, k) uint64, row-major
    total: int

    @property
    def t(self) -> int:
        return self.family.t

    @property
    def k(self) -> int:
        return self.family.k

    @property
    def family_fingerprint(self) -> str:
        return self.family.fingerprint()

    def update_many(self, items) -> None:
        """Absorb a batch of items: one increment per row for each item."""
        items = item_ids(items)
        if self.total + items.size > MAX_TOTAL:
            raise OverflowError("counter capacity exhausted")
        for i, h in enumerate(self.family.functions):
            cells = evaluate_batch(h, items)
            self.counts[i] += np.bincount(cells, minlength=self.k).astype(np.uint64)
        self.total += int(items.size)

    def merge(self, other: "SketchMatrix") -> "SketchMatrix":
        """Cellwise sum; exactly the sketch of the concatenated streams."""
        if self.family_fingerprint != other.family_fingerprint:
            raise FamilyMismatchError("cannot merge sketches built with different hash families")
        if self.total + other.total > MAX_TOTAL:
            raise OverflowError("counter capacity exhausted")
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


def new_sketch(family: HashFamily) -> SketchMatrix:
    """All-zero t x k matrix bound to the family's fingerprint."""
    return SketchMatrix(family, np.zeros((family.t, family.k), dtype=np.uint64), 0)


def load_sketch(path: str) -> SketchMatrix:
    with open(path, "rb") as fh:
        return sketch_from_bytes(fh.read())


def sketch_from_bytes(data: bytes) -> SketchMatrix:
    """Parse the file form; the length must be exactly what the header implies."""
    header, (t, k, total), counts = _unpack_file(data, _MAGIC, "sketch", _DIMS,
                                                 lambda t, k, total: t * k)
    family = HashFamily.from_header(header)
    if (t, k) != (family.t, family.k):
        raise ValueError("sketch file dimensions disagree with the family header")
    sk = SketchMatrix(family, counts.reshape(t, k), total)
    row_sums = sk.counts.sum(axis=1, dtype=np.uint64)
    if np.any(row_sums != np.uint64(total)):
        raise ValueError("corrupt sketch file: row sums disagree with total")
    return sk


def sketch_stream(family: HashFamily, items) -> SketchMatrix:
    """Build the sketch of a whole stream in one call."""
    sk = new_sketch(family)
    sk.update_many(items)
    return sk
