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
kept, and the (n, k) used most recently are kept while their tables total
at most 2 x ``_TABLE_BYTES``, so calls that cycle through a few small
(n, k) enumerate each once.  A table of one block is kept as it is, and the
oracle aggregates both distributions over it, as over each block of an
enumeration too large to keep, with one :func:`aggregate` call on their
stack.  A longer table is kept as a prefix trie: in lexicographic order
the rows that share a prefix are adjacent, so each distinct prefix is
stored once, as the int32 index of its parent prefix and its int8 last
label, and the oracle sums each prefix's cells once for all of its
completions.  A trie takes 69-82% of its table's bytes at the benchmark's
sizes, and up to 13% more than its table where k is close to n, as at
(15, 13); the budget counts tables.
"""
from __future__ import annotations

import math
import threading
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
# of n int8 labels) are kept for reuse, up to tables of twice this in all;
# larger enumerations stream from assignment_blocks.
_TABLE_BYTES = 1 << 20

# Cell sums of fewer cells than this are laid out cell-major (see aggregate).
_CELL_MAJOR_BELOW = 8

# A kept trie's depths of at most this many prefixes are summed whole once
# per call; the deeper ones are summed per block of rows, over the prefixes
# the block descends from, so no temporary outgrows a block's.
_WHOLE_DEPTH_PREFIXES = 4096


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
    """A lexicographic label table stored as the tree of its row prefixes.

    Depth d (1 to n - 1) holds every distinct length-(d + 1) prefix of the
    table's rows, in table order: ``parents[d - 1]`` is the int32 index of
    its length-d prefix at depth d - 1, and ``labels[d - 1]`` its last label.
    Depth 0 is the one length-1 prefix, label 0, and the last depth's
    prefixes are the table's rows.  The arrays are read-only.
    """

    def __init__(self, table: np.ndarray, k: int) -> None:
        self.k = k
        parents, labels = [], []
        # Row i starts a new length-(d + 1) prefix when it differs from row
        # i - 1 somewhere in columns 0..d; ``node`` is each row's prefix index
        # at the depth before.
        changed = np.zeros(len(table) - 1, dtype=bool)
        node = np.zeros(len(table), dtype=np.int32)
        for d in range(1, table.shape[1]):
            changed |= table[1:, d] != table[:-1, d]
            first = np.concatenate(([True], changed))
            parents.append(_read_only(node[first]))
            labels.append(_read_only(table[first, d]))
            node = np.cumsum(first, dtype=np.int32) - 1
        self.parents, self.labels = tuple(parents), tuple(labels)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.parents + self.labels)

    def row(self, i: int) -> np.ndarray:
        """The label array of table row i, read up the parents."""
        row = np.zeros(len(self.labels) + 1, dtype=self.labels[0].dtype)
        for d in range(len(self.labels), 0, -1):
            row[d] = self.labels[d - 1][i]
            i = self.parents[d - 1][i]
        return row

    def block_sums(self, pq: np.ndarray) -> Iterator[tuple[np.ndarray, Callable[[int], np.ndarray]]]:
        """The (vectors, rows, k) cell sums of the stacked vectors ``pq``
        along each block of ``_BLOCK_ROWS`` table rows, with a function from
        a row of the block to its label array.

        Each prefix takes its parent's sums and adds its item to the cell
        of its label, so every cell adds its items in item order from 0.0,
        as :func:`aggregate` does, and has the same bits; the layout is
        aggregate's too.
        """
        cell_major = self.k < _CELL_MAJOR_BELOW
        n = len(self.labels) + 1
        rows = self.parents[-1].size
        # (vectors, k, prefixes) cell-major, else (vectors, prefixes, k).
        whole = np.zeros((len(pq),) + ((self.k, 1) if cell_major else (1, self.k)))
        whole[:, 0, 0] += pq[:, 0]
        top = 1
        while top < n - 1 and self.parents[top - 1].size <= _WHOLE_DEPTH_PREFIXES:
            whole = _extend(whole, self.parents[top - 1], self.labels[top - 1], pq[:, top],
                            cell_major)
            top += 1
        for start in range(0, rows, _BLOCK_ROWS):
            # The block's rows descend from one range of prefixes at each
            # depth from top on; parents are nondecreasing.
            spans = [(start, min(start + _BLOCK_ROWS, rows))]
            for d in range(n - 1, top, -1):
                lo, hi = spans[-1]
                spans.append((int(self.parents[d - 1][lo]), int(self.parents[d - 1][hi - 1]) + 1))
            block, base = whole, 0
            for d, (lo, hi) in zip(range(top, n), reversed(spans)):
                block = _extend(block, self.parents[d - 1][lo:hi] - base,
                                self.labels[d - 1][lo:hi], pq[:, d], cell_major)
                base = lo
            yield (block.swapaxes(1, 2) if cell_major else block,
                   lambda i, start=start: self.row(start + i))


def _extend(sums: np.ndarray, parents: np.ndarray, labels: np.ndarray, v: np.ndarray,
            cell_major: bool) -> np.ndarray:
    """The cell sums of the next depth's prefixes: each one's parent's sums,
    plus entry s of ``v`` in vector s's cell of its label."""
    r = parents.size
    if cell_major:
        out = sums.take(parents, axis=2)
        at = labels * np.intp(r) + np.arange(r)
    else:
        k = sums.shape[2]
        out = sums.take(parents, axis=1)
        at = np.arange(0, r * k, k) + labels
    for cells, x in zip(out, v):
        np.add.at(cells.reshape(-1), at, x)
    return out


def _table_sums(pq: np.ndarray, blocks: Iterable[np.ndarray]) -> Iterator[
        tuple[np.ndarray, Callable[[int], np.ndarray]]]:
    """:meth:`_PrefixTrie.block_sums` for blocks of label rows, by :func:`aggregate`."""
    for block in blocks:
        yield aggregate(pq, block), lambda i, block=block: block[i].copy()


# The kept enumerations, least recently used first, and the lock that makes
# each lookup and each insertion with its evictions one step across threads.
_tables: dict[tuple[int, int], np.ndarray | _PrefixTrie] = {}
_tables_lock = threading.Lock()


def _kept_enumeration(n: int, k: int) -> np.ndarray | _PrefixTrie:
    """Every k-cell partition of n items, enumerated once and kept.

    A table of at most one ``_BLOCK_ROWS`` block is kept as one read-only
    (S(n, k), n) label block, and a longer one as a :class:`_PrefixTrie`
    built from it.  The table, at most ``_TABLE_BYTES`` itself, is counted
    at its S(n, k) * n bytes, and the least recently used (n, k) are dropped
    until the kept ones count at most 2 x ``_TABLE_BYTES``.
    """
    with _tables_lock:
        kept = _tables.pop((n, k), None)
    if kept is None:
        kept = _read_only(np.concatenate(list(assignment_blocks(n, k))))
        if len(kept) > _BLOCK_ROWS:
            kept = _PrefixTrie(kept, k)
    with _tables_lock:
        _tables[n, k] = kept
        while sum(stirling(*key) * key[0] for key in _tables) > 2 * _TABLE_BYTES:
            del _tables[next(iter(_tables))]
    return kept


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
    each prefix's cell sums from its parent's, one depth at a time, and the
    rows' sums reach the kernel in blocks of ``_BLOCK_ROWS``; any other
    enumeration is aggregated block by block.  Both add each cell's items in
    item order from 0.0 and lay the sums out alike, so the value, argmax and
    count have the same bits either way.
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
    if isinstance(kept, _PrefixTrie):
        blocks = kept.block_sums(pq)
    elif kept is None:
        blocks = _table_sums(pq, assignment_blocks(n, k))
    else:
        blocks = _table_sums(pq, (kept[start:start + _BLOCK_ROWS]
                                  for start in range(0, len(kept), _BLOCK_ROWS)))
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
