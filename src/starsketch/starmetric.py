"""Partition-maximized divergences: the exact oracle and the sketch estimate.

The exact form maximizes a base divergence over every partition of the
universe into exactly k nonempty cells, applied to the two aggregated
distributions.  It is exponential in the universe size and exists as the
ground-truth oracle for small instances.  The sketch form evaluates the same
divergence on the t matching counter rows of two sketches (each row is one
hash-induced partition) and takes the row maximum, which lower-bounds the
exact value for aggregation-monotone divergences.

A partition of the universe into k cells is a label array: entry i is the
cell (0..k-1) of item i.  :func:`assignment_blocks` enumerates every k-cell
partition of n items as blocks of label arrays, :func:`stirling` counts
them, and :func:`aggregate` collapses a vector, or a stack of them, along
one label array or a block of them.  The oracle evaluates the partitions
in blocks of ``_BLOCK_ROWS`` rows, so memory stays bounded, and a parallel
reduction with the same first-maximizer tie-break would reproduce the
serial result exactly.

An (n, k) whose label table fits ``_TABLE_BYTES`` is enumerated once and
kept for the life of the process.  80 (n, k) with 1 < k < n fit, all with
n <= 26, and kept together they take 7.0 MiB, which bounds the cache.  A
table of one block is kept as it is, and the oracle aggregates both
distributions over it, as over each block of an enumeration too large to
keep, with one :func:`aggregate` call on their stack.  A longer table is
kept as a prefix trie over its tail columns: in lexicographic order the
rows that share a prefix are adjacent, so each prefix of the shallow depths
(at most ``_BLOCK_ROWS`` prefixes each) is stored once, as the int32 index
of its parent and its int8 last label, and its cells are summed once for all
of its completions; deeper, a prefix is almost one row, so each row keeps
its deepest shallow prefix's int32 index and the table's remaining columns.
That takes 62-82% of the table's bytes at the benchmark's sizes, and 13%
more than the table only at (15, 13), where k is close to n.

The cell sums of the last pair summed over a kept enumeration are kept in
one slot, keyed by the enumeration object, ``_BLOCK_ROWS`` and the pair's
bytes, so that one pair compared under several divergences is summed once
and each divergence runs only its row kernel on the same blocks.  The blocks
are read-only, so a divergence cannot change what the next one reads, and
the slot is emptied before another pair's sums are built.  It holds S(n, k)
rows of k float64 sums per vector, at most 14,812,000 bytes (14.1 MiB), at
(25, 23).  An enumeration too large to keep keeps no sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .divergence import DivergenceSpec, _pair
from .hashing import is_integer, item_ids
from .histogram import EmpiricalDistribution, _read_only, normalize
from .sketch import FamilyMismatchError, SketchMatrix

PARTITION_BUDGET = 10_000_000

# stirling() and exact enumeration refuse any n above this, even where S(n, k)
# is within the partition budget (S(27, 26) = 351); assignment_blocks has no cap.
MAX_STIRLING_N = 26

_BLOCK_ROWS = 4096

# Enumerations whose label table takes at most this many bytes (S(n, k) rows
# of n int8 labels) are kept for reuse; larger ones stream from
# assignment_blocks.
_TABLE_BYTES = 1 << 20

# Cell sums of fewer cells than this are laid out cell-major (see aggregate).
_CELL_MAJOR_BELOW = 8


class PartitionBudgetError(RuntimeError):
    """Exhaustive enumeration would exceed the partition budget."""


def aggregate(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Sum vector entries cell by cell; item i of ``p`` lands in cell ``labels[i]``.

    ``p`` is one vector of length n or an (m, n) stack of them, and
    ``labels`` is one label array of length n or a (rows, n) block of them.
    The result has shape ``p.shape[:-1] + labels.shape[:-1] + (k,)``, with k
    the largest label plus one: (k,), (rows, k), (m, k) or (m, rows, k).
    The cell index is built once and each vector takes one ``bincount`` over
    it, so each cell adds its items in index order and every (vector, row)
    pair aggregates to the same bits as that vector and row given alone.

    Below 8 cells the (…, rows, k) result is a view of a cell-major buffer,
    bin ``label * rows + row``, so each cell's values are contiguous and a
    kernel's ``sum(axis=1)`` runs about 10x faster.  numpy adds fewer than 8
    values left to right in either layout, so every row sum keeps its bits.
    From 8 cells up it adds a contiguous row pairwise, so the result stays
    row-major there, and row sums, and the oracle's values and argmaxes,
    keep their bits too.
    """
    p = np.asarray(p, dtype=np.float64)
    labels = np.asarray(labels)
    if (p.ndim not in (1, 2) or p.size == 0 or labels.ndim not in (1, 2)
            or labels.shape[-1] != p.shape[-1]):
        raise ValueError(f"labels of shape {labels.shape} do not match a vector of shape {p.shape}")
    if labels.dtype.kind not in "iu" or labels.min() < 0:
        raise ValueError("cell labels must be nonnegative integers")
    k = int(labels.max()) + 1
    rows = labels.reshape(-1, p.shape[-1])
    r = rows.shape[0]
    cell_major = k < _CELL_MAJOR_BELOW
    # The index runs item by item over every row: each cell still meets its
    # items in index order, and the weights are each value repeated r times.
    cells = rows.T.astype(np.intp, order="C")
    if cell_major:
        cells *= r
    cells += np.arange(r) * (1 if cell_major else k)
    sums = np.array([np.bincount(cells.ravel(), weights=np.repeat(v, r), minlength=r * k)
                     for v in p.reshape(-1, rows.shape[1])])
    if cell_major:
        sums = sums.reshape(-1, k, r).swapaxes(1, 2)
    return sums.reshape(p.shape[:-1] + labels.shape[:-1] + (k,))


@lru_cache(maxsize=None)
def stirling(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact.

    Computed by the additive recurrence S(n,k) = k S(n-1,k) + S(n-1,k-1),
    which avoids the cancellation of the alternating-sum formula.  Limited to
    n <= MAX_STIRLING_N, which also bounds the memoized recursion.
    """
    if not 0 <= k <= n:
        raise ValueError(f"require 0 <= k <= n, got n={n} k={k}")
    if n > MAX_STIRLING_N:
        raise ValueError(f"n={n} exceeds the exact bound {MAX_STIRLING_N}")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    if k == n:
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
        # exact_star_metric asks for it at any n (k = 1, or k >= n), and the
        # general path below grows it one position per step: at n = 4000
        # that takes 0.1-0.2 s, against a few microseconds here.
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


@dataclass
class StarMetricResult:
    """Value, maximizing partition (or row), and search-size accounting.

    An exact result's ``argmax`` is the maximizing partition's label array
    (entry i is the cell of item i + 1); a sketch result's is the row index.
    ``evaluated_partitions`` counts the partitions (or rows) searched.
    """

    value: float
    argmax: np.ndarray | int
    evaluated_partitions: int

    def argmax_label(self) -> str:
        """``{1,2}|{3}`` for a partition: cells in label order, 1-based items
        ascending in each; ``row<i>`` for a sketch row."""
        if isinstance(self.argmax, np.ndarray):
            cells: list[list[str]] = [[] for _ in range(int(self.argmax.max()) + 1)]
            for item, label in enumerate(self.argmax.tolist(), start=1):
                cells[label].append(str(item))
            return "|".join("{" + ",".join(c) + "}" for c in cells)
        return f"row{self.argmax}"


class _PrefixTrie:
    """A lexicographic label table stored as its shallow row prefixes over
    its tail columns.

    The shallow depths d = 1, 2, ... are the first with at most
    ``_BLOCK_ROWS`` distinct length-(d + 1) prefixes, in table order, and
    never reach the last column: ``parents[d - 1]`` is the int32 index of a
    prefix's length-d prefix and ``labels[d - 1]`` its last label; depth 0 is
    the one prefix, label 0.  ``ancestor`` is each row's int32 index at the
    deepest one, and ``tail`` the columns after it, column-major.  The arrays
    are read-only.
    """

    def __init__(self, table: np.ndarray, k: int) -> None:
        self.k = k
        parents, labels = [], []
        # Row i starts a new length-(d + 1) prefix when it differs from row
        # i - 1 somewhere in columns 0..d; ``node`` is each row's prefix index
        # at the depth before.
        changed = np.zeros(len(table) - 1, dtype=bool)
        node = np.zeros(len(table), dtype=np.int32)
        for d in range(1, table.shape[1] - 1):
            changed |= table[1:, d] != table[:-1, d]
            first = np.concatenate(([True], changed))
            if np.count_nonzero(first) > _BLOCK_ROWS:
                break
            parents.append(_read_only(node[first]))
            labels.append(_read_only(table[first, d]))
            node = np.cumsum(first, dtype=np.int32) - 1
        self.parents, self.labels = tuple(parents), tuple(labels)
        self.ancestor = _read_only(node)
        self.tail = _read_only(np.asfortranarray(table[:, len(labels) + 1:]))

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.parents + self.labels + (self.ancestor, self.tail))

    def row(self, i: int) -> np.ndarray:
        """The label array of table row i: its tail, then up the parents."""
        depth = len(self.labels)
        row = np.zeros(depth + 1 + self.tail.shape[1], dtype=self.tail.dtype)
        row[depth + 1:] = self.tail[i]
        i = self.ancestor[i]
        for d in range(depth, 0, -1):
            row[d] = self.labels[d - 1][i]
            i = self.parents[d - 1][i]
        return row

    def block_sums(self, pq: np.ndarray) -> Iterator[tuple[np.ndarray, Callable[[int], np.ndarray]]]:
        """The (vectors, rows, k) cell sums of the stacked vectors ``pq``
        along each block of ``_BLOCK_ROWS`` table rows, with a function from
        a row of the block to its label array.

        Each shallow prefix takes its parent's sums once per call, and each
        block its rows' ancestors' sums; both add their items column by
        column, so every cell adds its items in item order from 0.0, as
        :func:`aggregate` does, and has the same bits and aggregate's layout.
        """
        cell_major = self.k < _CELL_MAJOR_BELOW
        shallow = len(self.labels) + 1
        # (vectors, k, prefixes) cell-major, else (vectors, prefixes, k).
        sums = np.zeros((len(pq),) + ((self.k, 1) if cell_major else (1, self.k)))
        sums[:, 0, 0] += pq[:, 0]
        for d in range(1, shallow):
            sums = _extend(sums, self.parents[d - 1], self.labels[d - 1][:, None],
                           pq[:, d:d + 1], cell_major)
        for start in range(0, self.ancestor.size, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = _extend(sums, self.ancestor[start:stop], self.tail[start:stop],
                            pq[:, shallow:], cell_major)
            yield (block.swapaxes(1, 2) if cell_major else block,
                   lambda i, start=start: self.row(start + i))


def _extend(sums: np.ndarray, parents: np.ndarray, labels: np.ndarray, v: np.ndarray,
            cell_major: bool) -> np.ndarray:
    """Row i's parent's cell sums, plus entry j of vector s's ``v`` in its
    cell ``labels[i, j]``, column by column."""
    r = parents.size
    if cell_major:
        out = sums.take(parents, axis=2)
        step, base = r, np.arange(r)
    else:
        out = sums.take(parents, axis=1)
        step, base = 1, np.arange(0, r * sums.shape[2], sums.shape[2])
    for column, x in zip(labels.T, v.T):
        at = column * np.intp(step) + base
        for cells, value in zip(out, x):
            np.add.at(cells.reshape(-1), at, value)
    return out


def _table_sums(pq: np.ndarray, blocks: Iterable[np.ndarray]) -> Iterator[
        tuple[np.ndarray, Callable[[int], np.ndarray]]]:
    """:meth:`_PrefixTrie.block_sums` for blocks of label rows, by :func:`aggregate`."""
    for block in blocks:
        yield aggregate(pq, block), lambda i, block=block: block[i].copy()


@lru_cache(maxsize=None)
def _kept_enumeration(n: int, k: int) -> np.ndarray | _PrefixTrie:
    """Every k-cell partition of n items, enumerated once and kept for the process.

    A table of at most one ``_BLOCK_ROWS`` block is kept as one read-only
    (S(n, k), n) label block, and a longer one as a :class:`_PrefixTrie`
    built from it.  The oracle asks only for tables of at most
    ``_TABLE_BYTES``: 80 (n, k) with 1 < k < n, which all kept take 7.0 MiB.
    Two threads may build one (n, k) at once; both copies are read-only and
    equal.
    """
    kept = _read_only(np.concatenate(list(assignment_blocks(n, k))))
    return _PrefixTrie(kept, k) if len(kept) > _BLOCK_ROWS else kept


# The last pair's cell sums over a kept enumeration, as (the enumeration,
# (the block size, the pair's bytes), the blocks of :func:`_kept_sums`).
_last_sums: tuple | None = None


def _kept_sums(kept: np.ndarray | _PrefixTrie, pq: np.ndarray) -> list[
        tuple[np.ndarray, Callable[[int], np.ndarray]]]:
    """The read-only cell-sum blocks of the stacked pair ``pq`` over a kept
    enumeration, with each block's row function; a repeat call on the same
    enumeration object, block size and pair bytes reads them from the slot."""
    global _last_sums
    key = (_BLOCK_ROWS, pq.tobytes())
    last = _last_sums
    if last is not None and last[0] is kept and last[1] == key:
        return last[2]
    # Two pairs' sums never coexist: drop the last before building the next.
    _last_sums = last = None
    blocks = kept.block_sums(pq) if isinstance(kept, _PrefixTrie) else _table_sums(pq, (kept,))
    sums = [(_read_only(s), row) for s, row in blocks]
    _last_sums = (kept, key, sums)
    return sums


def exact_star_metric(
    phi: DivergenceSpec,
    p,
    q,
    k: int,
) -> StarMetricResult:
    """Maximize phi over all k-cell partitions of the common universe.

    For k above the universe size n no k-cell partition exists, and the
    n-cell identity partition is taken: its value is the plain phi(p || q).
    Ties break to the first maximizer in lexicographic
    restricted-growth-string order, and the maximizing label array is the
    result's ``argmax``.  ``evaluated_partitions`` is the number of label
    rows the enumeration yielded, counted as they are evaluated.
    Enumerations of more than ``PARTITION_BUDGET`` partitions raise
    :class:`PartitionBudgetError`.

    Every partition is evaluated.  An (n, k) kept as a prefix trie extends
    its shallow prefixes' cell sums once per pair, and each block of
    ``_BLOCK_ROWS`` rows adds its tail items to its rows' ancestors' sums;
    any other enumeration is aggregated block by block.  Both add each
    cell's items in item order from 0.0 and lay the sums out alike, so the
    value, argmax and count have the same bits either way.  The sums over a
    kept enumeration are kept, read-only, for the next call on the same
    enumeration, block size and pair bytes, which evaluates only phi's row
    kernel on them (see the module docstring); a streamed one keeps none.
    """
    if not is_integer(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    p, q = _pair(p, q)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = p.size
    k = min(k, n)
    kept = None
    if 1 < k < n:
        if n > MAX_STIRLING_N:
            raise PartitionBudgetError(
                f"exact enumeration is not available for n={n} > {MAX_STIRLING_N}"
            )
        if (total := stirling(n, k)) > PARTITION_BUDGET:
            raise PartitionBudgetError(
                f"S({n},{k}) = {total} exceeds the budget of {PARTITION_BUDGET}"
            )
        if total * n <= _TABLE_BYTES:
            kept = _kept_enumeration(n, k)

    pq = np.array((p, q))
    blocks = _table_sums(pq, assignment_blocks(n, k)) if kept is None else _kept_sums(kept, pq)
    best = -math.inf
    best_assignment: np.ndarray | None = None
    evaluated = 0
    for (P, Q), row in blocks:
        vals = phi.eval_rows(P, Q)
        evaluated += P.shape[0]
        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best = float(vals[i])
            best_assignment = row(i)
    if best_assignment is None:
        raise ValueError(f"{phi.name}: no partition has a value above -inf (n={n}, k={k})")
    return StarMetricResult(best, best_assignment, evaluated)


def sketch_star_metric(phi: DivergenceSpec, a: SketchMatrix, b: SketchMatrix) -> StarMetricResult:
    """Row-maximum of phi over the t matching rows of two compatible sketches.

    Each row pair is normalized by its own stream length.  The argmax is the
    lowest maximizing row index; +inf dominates the max.
    """
    if a.family != b.family:
        raise FamilyMismatchError("sketches were built with different hash families")
    if a.total == 0 or b.total == 0:
        raise ValueError("cannot compare empty sketches")
    vals = phi.eval_rows(a.counts / a.total, b.counts / b.total)
    best_row = int(np.argmax(vals))
    return StarMetricResult(float(vals[best_row]), best_row, a.t)


def reference_distance(
    phis: Iterable[DivergenceSpec],
    s1: EmpiricalDistribution,
    s2: EmpiricalDistribution,
    universe: np.ndarray | Sequence[int] | None = None,
) -> list[float]:
    """Each phi on the full normalized histograms, in order; the ground truth for a pair.

    Both histograms are normalized and validated once for all specs, and
    each spec's row kernel takes the pair as one row, as its scalar form
    would, so each value has the bits of a call with that spec alone.  The
    vectors are read-only, so a spec cannot change what the next one sees.
    The universe defaults to the union of both supports; synthetic
    experiments pass the fixed universe 1..n instead.  An empty stream
    raises, as :func:`normalize` does, and so does a universe that misses
    part of a support, whose vector then sums below 1.
    """
    u = np.union1d(s1.ids, s2.ids) if universe is None else item_ids(universe)
    p, q = _pair(_read_only(normalize(s1, u)), _read_only(normalize(s2, u)))
    return [float(phi.eval_rows(p[None], q[None])[0]) for phi in phis]


# --- preservation checks ------------------------------------------------------


@dataclass
class PropertyCheck:
    """One property's tally: trials run, violations, and the first violation's witness."""

    trials: int = 0
    violations: int = 0
    witness: str | None = None

    def record(self, ok: bool, witness: Callable[[], str]) -> None:
        self.trials += 1
        if not ok:
            self.violations += 1
            if self.witness is None:
                self.witness = witness()


def _positive_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.random(n) + 0.05
    return v / v.sum()


def _random_coarsening(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    # Surjective random labeling: first c items pin one cell each, the rest
    # land uniformly, then positions are shuffled.
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    rng.shuffle(labels)
    return labels


_TOL_AXIOM = 1e-9
_TOL_MONOTONE = 1e-12
_SEPARATION = 0.05


def preservation_suite(
    phi: DivergenceSpec,
    n: int,
    k: int,
    trials: int = 200,
    seed: int = 0,
) -> dict[str, PropertyCheck]:
    """Check the required axioms and every property phi claims, exactly.

    Every check evaluates phi's exact k-cell maximum on freshly drawn
    positive distributions.  The result maps each check that ran to its
    tally: non-negativity, identity-zero and identity-distinct always run;
    then symmetry when ``phi.symmetric``, triangle when ``phi.triangle``, and
    monotonicity (both coarsening regimes: more cells than k and fewer) and
    convexity when ``phi.f_div``.  A check phi does not claim is absent.
    """
    rng = np.random.default_rng(seed)
    star = lambda a, b: exact_star_metric(phi, a, b, k).value
    checks = {name: PropertyCheck() for name, claimed in (
        ("non-negativity", True), ("identity-zero", True), ("identity-distinct", True),
        ("symmetry", phi.symmetric), ("triangle", phi.triangle),
        ("monotonicity", phi.f_div), ("convexity", phi.f_div),
    ) if claimed}

    for _ in range(trials):
        p = _positive_distribution(rng, n)
        q = _positive_distribution(rng, n)
        pq = star(p, q)

        checks["non-negativity"].record(pq >= -_TOL_AXIOM, lambda: f"value={pq!r} p={p} q={q}")
        v = star(p, p)
        checks["identity-zero"].record(abs(v) <= _TOL_AXIOM, lambda: f"value={v!r} p={p}")
        if float(np.abs(p - q).sum()) >= _SEPARATION:
            checks["identity-distinct"].record(pq > _TOL_AXIOM, lambda: f"value={pq!r} p={p} q={q}")
        if "symmetry" in checks:
            qp = star(q, p)
            ok = (pq == qp) or abs(pq - qp) <= _TOL_AXIOM
            checks["symmetry"].record(ok, lambda: f"forward={pq!r} backward={qp!r}")
        if "triangle" in checks:
            r = _positive_distribution(rng, n)
            pr, rq = star(p, r), star(r, q)
            checks["triangle"].record(pq <= pr + rq + _TOL_AXIOM,
                                      lambda: f"d(p,q)={pq!r} d(p,r)={pr!r} d(r,q)={rq!r}")
        if "monotonicity" in checks:
            for c in (rng.integers(k, n + 1) if k < n else n,
                      rng.integers(1, k) if k > 1 else 1):
                mu = _random_coarsening(rng, n, int(c))
                pm, qm = aggregate(np.array((p, q)), mu)
                v = exact_star_metric(phi, pm, qm, k).value
                checks["monotonicity"].record(v <= pq + _TOL_MONOTONE,
                                              lambda: f"c={c} coarse={v!r} base={pq!r}")
        if "convexity" in checks:
            p2 = _positive_distribution(rng, n)
            q2 = _positive_distribution(rng, n)
            lam = float(rng.uniform())
            lhs = star(lam * p + (1 - lam) * p2, lam * q + (1 - lam) * q2)
            rhs = lam * pq + (1 - lam) * star(p2, q2)
            checks["convexity"].record(lhs <= rhs + _TOL_AXIOM,
                                       lambda: f"lam={lam} lhs={lhs!r} rhs={rhs!r}")

    return checks
