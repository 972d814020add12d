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

from .hashing import HashFamily, evaluate_batch, item_ids

MAX_TOTAL = 2 ** 64 - 1

_MAGIC = b"SKMX"
_VERSION = 1
# File layout: prefix, family header text, dimensions, t*k little-endian u64.
_PREFIX = struct.Struct("<4sBI")  # magic, version, header length
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

    def update(self, v: int) -> None:
        """Absorb one item: one increment per row."""
        if not isinstance(v, (int, np.integer)) or not 0 <= v < 2 ** 64:
            raise ValueError(f"item id must be an integer in [0, 2^64), got {v!r}")
        if self.total + 1 > MAX_TOTAL:
            raise OverflowError("counter capacity exhausted")
        for i, h in enumerate(self.family.functions):
            self.counts[i, h.evaluate(int(v))] += np.uint64(1)
        self.total += 1

    def update_many(self, items) -> None:
        """Absorb a batch of items (vectorized hot path)."""
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
        header = self.family.header().encode()
        return b"".join((_PREFIX.pack(_MAGIC, _VERSION, len(header)), header,
                         _DIMS.pack(self.t, self.k, self.total),
                         self.counts.astype("<u8").tobytes()))


def new_sketch(family: HashFamily) -> SketchMatrix:
    """All-zero t x k matrix bound to the family's fingerprint."""
    return SketchMatrix(family, np.zeros((family.t, family.k), dtype=np.uint64), 0)


def load_sketch(path: str) -> SketchMatrix:
    with open(path, "rb") as fh:
        return sketch_from_bytes(fh.read())


def sketch_from_bytes(data: bytes) -> SketchMatrix:
    """Parse the file form; the length must be exactly what the header implies."""
    if data[:4] != _MAGIC:
        raise ValueError("not a sketch file")
    if len(data) < _PREFIX.size:
        raise ValueError(f"truncated sketch file: {len(data)} bytes")
    _, version, header_len = _PREFIX.unpack_from(data)
    if version != _VERSION:
        raise ValueError(f"unsupported sketch file version {version}")
    dims_at = _PREFIX.size + header_len
    if len(data) < dims_at + _DIMS.size:
        raise ValueError(f"truncated sketch file: {len(data)} bytes, header ends past the data")
    t, k, total = _DIMS.unpack_from(data, dims_at)
    counts_at = dims_at + _DIMS.size
    expected = counts_at + 8 * t * k
    if len(data) < expected:
        raise ValueError(f"truncated sketch file: {len(data)} bytes, a {t} x {k} sketch "
                         f"needs {expected}")
    if len(data) > expected:
        raise ValueError(f"sketch file has {len(data) - expected} trailing bytes "
                         f"after its {t} x {k} counters")
    family = HashFamily.from_header(data[_PREFIX.size:dims_at].decode())
    if (t, k) != (family.t, family.k):
        raise ValueError("sketch file dimensions disagree with the family header")
    counts = np.frombuffer(data, dtype="<u8", count=t * k, offset=counts_at).reshape(t, k)
    sk = SketchMatrix(family, counts.astype(np.uint64), total)
    row_sums = sk.counts.sum(axis=1, dtype=np.uint64)
    if np.any(row_sums != np.uint64(total)):
        raise ValueError("corrupt sketch file: row sums disagree with total")
    return sk


def sketch_stream(family: HashFamily, items) -> SketchMatrix:
    """Build the sketch of a whole stream in one call."""
    sk = new_sketch(family)
    sk.update_many(items)
    return sk
