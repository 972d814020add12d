"""Partition-maximized divergences: the exact oracle and the sketch estimate.

The exact form maximizes a base divergence over every partition of the
universe into exactly k nonempty cells, applied to the two aggregated
distributions.  It is exponential in the universe size and exists as the
ground-truth oracle for small instances.  The sketch form evaluates the same
divergence on the t matching counter rows of two sketches (each row is one
hash-induced partition) and takes the row maximum, which lower-bounds the
exact value for aggregation-monotone divergences.

The oracle reads partitions as blocks of label arrays from
:func:`assignment_blocks` and aggregates each block with one
:func:`aggregate` call per distribution.  Enumeration is chunked so memory
stays bounded, and a parallel reduction with the same first-maximizer
tie-break would reproduce the serial result exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import DivergenceSpec, _pair
from .hashing import item_ids
from .histogram import (
    MAX_STIRLING_N,
    EmpiricalDistribution,
    PartitionBudgetError,
    aggregate,
    assignment_blocks,
    normalize,
    stirling,
)
from .sketch import FamilyMismatchError, SketchMatrix

PARTITION_BUDGET = 10_000_000


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
    result's ``argmax``.  Enumerations of more than ``PARTITION_BUDGET``
    partitions raise :class:`PartitionBudgetError`.
    """
    p, q = _pair(p, q)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = p.size
    k = min(k, n)
    if k == 1 or k == n:
        total = 1
    elif n > MAX_STIRLING_N:
        raise PartitionBudgetError(
            f"exact enumeration is not available for n={n} > {MAX_STIRLING_N}"
        )
    else:
        total = stirling(n, k)
        if total > PARTITION_BUDGET:
            raise PartitionBudgetError(
                f"S({n},{k}) = {total} exceeds the budget of {PARTITION_BUDGET}"
            )

    best = -math.inf
    best_assignment: np.ndarray | None = None
    for block in assignment_blocks(n, k):
        vals = phi.eval_rows(aggregate(p, block), aggregate(q, block))
        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best = float(vals[i])
            best_assignment = block[i].copy()
    if best_assignment is None:
        raise ValueError(f"{phi.name}: no partition has a value above -inf (n={n}, k={k})")
    return StarMetricResult(best, best_assignment, total)


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
    phi: DivergenceSpec,
    s1: EmpiricalDistribution,
    s2: EmpiricalDistribution,
    universe: np.ndarray | Sequence[int] | None = None,
) -> float:
    """phi on the full normalized histograms; the ground truth for a pair.

    The universe defaults to the union of both supports; synthetic
    experiments pass the fixed universe 1..n instead.
    """
    if s1.total == 0 or s2.total == 0:
        raise ValueError("cannot compare empty streams")
    u = np.union1d(s1.ids, s2.ids) if universe is None else item_ids(universe)
    return phi(normalize(s1, u), normalize(s2, u))


# --- preservation checks ------------------------------------------------------


@dataclass
class PropertyCheck:
    name: str
    applicable: bool
    trials: int = 0
    violations: int = 0
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.violations == 0

    def record(self, ok: bool, witness: str) -> None:
        self.trials += 1
        if not ok:
            self.violations += 1
            if self.witness is None:
                self.witness = witness


@dataclass
class PreservationReport:
    phi: str
    n: int
    k: int
    seed: int
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = [f"phi={self.phi} n={self.n} k={self.k} seed={self.seed}"]
        for c in self.checks:
            if not c.applicable:
                lines.append(f"  {c.name}: skipped (not claimed)")
            else:
                status = "PASS" if c.passed else f"FAIL ({c.violations}/{c.trials})"
                lines.append(f"  {c.name}: {status}")
                if c.witness:
                    lines.append(f"    witness: {c.witness}")
        return "\n".join(lines)


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
) -> PreservationReport:
    """Check the required axioms and every property phi claims, exactly.

    Every check evaluates phi's exact k-cell maximum on freshly drawn
    positive distributions.  Non-negativity and identity both ways always
    run; symmetry runs when ``phi.symmetric``, the triangle inequality when
    ``phi.triangle``, and monotonicity (both coarsening regimes: more cells
    than k and fewer) and joint convexity when ``phi.f_div``.  A check phi
    does not claim is recorded as not applicable.
    """
    rng = np.random.default_rng(seed)
    report = PreservationReport(phi.name, n, k, seed)
    star = lambda a, b: exact_star_metric(phi, a, b, k).value

    nonnegative = PropertyCheck("non-negativity", True)
    ident_zero = PropertyCheck("identity-zero", True)
    ident_distinct = PropertyCheck("identity-distinct", True)
    symmetry = PropertyCheck("symmetry", phi.symmetric)
    triangle = PropertyCheck("triangle", phi.triangle)
    monotone = PropertyCheck("monotonicity", phi.f_div)
    convex = PropertyCheck("convexity", phi.f_div)
    report.checks = [nonnegative, ident_zero, ident_distinct, symmetry, triangle,
                     monotone, convex]

    for _ in range(trials):
        p = _positive_distribution(rng, n)
        q = _positive_distribution(rng, n)
        pq = star(p, q)

        nonnegative.record(pq >= -_TOL_AXIOM, f"value={pq!r} p={p} q={q}")
        v = star(p, p)
        ident_zero.record(abs(v) <= _TOL_AXIOM, f"value={v!r} p={p}")
        if float(np.abs(p - q).sum()) >= _SEPARATION:
            ident_distinct.record(pq > _TOL_AXIOM, f"value={pq!r} p={p} q={q}")
        if symmetry.applicable:
            qp = star(q, p)
            ok = (pq == qp) or abs(pq - qp) <= _TOL_AXIOM
            symmetry.record(ok, f"forward={pq!r} backward={qp!r}")
        if triangle.applicable:
            r = _positive_distribution(rng, n)
            pr, rq = star(p, r), star(r, q)
            triangle.record(pq <= pr + rq + _TOL_AXIOM,
                            f"d(p,q)={pq!r} d(p,r)={pr!r} d(r,q)={rq!r}")
        if monotone.applicable:
            for c in (rng.integers(k, n + 1) if k < n else n,
                      rng.integers(1, k) if k > 1 else 1):
                mu = _random_coarsening(rng, n, int(c))
                pm, qm = aggregate(p, mu), aggregate(q, mu)
                v = exact_star_metric(phi, pm, qm, k).value
                monotone.record(v <= pq + _TOL_MONOTONE,
                                f"c={c} coarse={v!r} base={pq!r}")
        if convex.applicable:
            p2 = _positive_distribution(rng, n)
            q2 = _positive_distribution(rng, n)
            lam = float(rng.uniform())
            lhs = star(lam * p + (1 - lam) * p2, lam * q + (1 - lam) * q2)
            rhs = lam * pq + (1 - lam) * star(p2, q2)
            convex.record(lhs <= rhs + _TOL_AXIOM, f"lam={lam} lhs={lhs!r} rhs={rhs!r}")

    return report
