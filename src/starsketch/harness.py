"""Experiment driver: reference-vs-sketch comparisons over parameter sweeps.

A plan names stream pairs, divergences, and (k, t) sweep values; running it
produces one row per (pair, divergence, k, t, trial).  Every trial draws a
fresh hash family and, for synthetic sources, fresh streams, with all seeds
split deterministically from the master seed, so a plan plus its seed fully
determines the result bytes.  Each stream is reduced to its histogram
(distinct ids and counts) once per trial, and the references and every (k, t)
sketch are computed from it: a synthetic stream is drawn as a histogram, and
a build hashes distinct ids, not items.  Wall-clock timings go to a separate
file to keep the result and summary files byte-reproducible.

Trials are independent: a scheduler may run them in parallel as long as the
final rows are ordered by (pair, divergence, k, t, trial), which is the order
this serial implementation emits.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .divergence import get_divergence, smoothed
from .generators import (
    DistributionFamily,
    parse_family,
    read_stream,
    sample_histogram,
    sample_stream,  # unused here; bound for perfbench/tracer.py, which wraps it by this name
)
from .hashing import new_family
from .histogram import EmpiricalDistribution, from_stream
from .sketch import sketch_stream
from .starmetric import reference_distance, sketch_star_metric


class SandwichViolationError(RuntimeError):
    """A sketch estimate exceeded its reference value at alpha = 0."""


def derive_seed(master: int, *parts) -> int:
    """Deterministic 63-bit sub-seed from the master seed and a label path."""
    text = repr((master,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


@dataclass(frozen=True)
class StreamSource:
    """Either a synthetic family (resampled per trial) or a stream file."""

    family: DistributionFamily | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if (self.family is None) == (self.path is None):
            raise ValueError("a source is exactly one of family or file")

    @property
    def synthetic(self) -> bool:
        return self.family is not None

    def label(self) -> str:
        if self.family is not None:
            return self.family.label()
        return f"file:{os.path.basename(self.path)}"

    def materialize(self, m: int, seed: int) -> EmpiricalDistribution:
        """The stream's histogram: m fresh draws, or the file's items."""
        if self.family is not None:
            return sample_histogram(self.family, m, seed)
        items, _, _ = read_stream(self.path)
        return from_stream(items)


def parse_source(text: str, n: int, base_dir: str = ".") -> StreamSource:
    text = text.strip()
    if text.startswith("file:"):
        path = text[len("file:"):]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise FileNotFoundError(f"stream source {path!r} does not exist")
        if not os.path.isfile(path):
            raise ValueError(f"stream source {path!r} is not a regular file")
        return StreamSource(path=path)
    return StreamSource(family=parse_family(text, n))


@dataclass
class ExperimentPlan:
    pairs: list[tuple[StreamSource, StreamSource]]
    divergences: list[str]
    k_values: list[int]
    t_values: list[int]
    trials: int = 1
    m: int = 200_000
    n: int = 4_000
    master_seed: int = 0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("plan needs at least one pair")
        if not self.divergences:
            raise ValueError("plan needs at least one divergence")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if any(v < 1 for v in self.k_values) or any(v < 1 for v in self.t_values):
            raise ValueError("sweep values must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha!r}")
        for name in self.divergences:
            get_divergence(name)


def parse_plan(text: str, base_dir: str = ".") -> ExperimentPlan:
    """Flat key=value plan grammar.

    Keys: ``pair`` (repeatable, two sources separated by ``|``),
    ``divergences`` (comma list), ``k``, ``t`` (comma lists), ``trials``,
    ``m``, ``n``, ``seed``, ``alpha``.  ``#`` starts a comment.  Sources:
    ``uniform``, ``zipf(alpha=1)``, ``pascal(r=3)``, ``binomial(p=0.5)``,
    ``poisson``, or ``file:relative/path``.
    """
    values: dict[str, str] = {}
    pair_lines: list[str] = []
    keys = ("divergences", "k", "t", "trials", "m", "n", "seed", "alpha")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"plan line {lineno}: expected key = value, got {raw!r}")
        key = key.strip()
        if key == "pair":
            pair_lines.append(value.strip())
        elif key not in keys:
            raise ValueError(f"plan line {lineno}: unknown key {key!r}")
        elif key in values:
            raise ValueError(f"plan line {lineno}: {key!r} is already set")
        else:
            values[key] = value.strip()

    n = int(values.get("n", 4_000))
    if not 1 <= n < 2 ** 64:  # the sources take n, and stream files store it as a u64
        raise ValueError(f"n must lie in [1, 2^64), got {n}")
    pairs = []
    for line in pair_lines:
        left, sep, right = line.partition("|")
        if not sep:
            raise ValueError(f"pair needs two sources separated by '|': {line!r}")
        pairs.append((parse_source(left, n, base_dir), parse_source(right, n, base_dir)))

    def int_list(key: str, default: str) -> list[int]:
        return [int(v) for v in values.get(key, default).split(",")]

    return ExperimentPlan(
        pairs=pairs,
        divergences=[v.strip() for v in values.get("divergences", "js").split(",")],
        k_values=int_list("k", "200"),
        t_values=int_list("t", "4"),
        trials=int(values.get("trials", "1")),
        m=int(values.get("m", "200000")),
        n=n,
        master_seed=int(values.get("seed", "0")),
        alpha=float(values.get("alpha", "0")),
    )


def load_plan(path: str) -> ExperimentPlan:
    with open(path) as fh:
        return parse_plan(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


@dataclass
class ResultRow:
    pair: str
    phi: str
    k: int
    t: int
    trial: int
    family_seed: int
    ref: float
    sketch: float
    build_seconds: float
    query_seconds: float
    build_items: int = 0  # items absorbed by the build, both streams together

    @property
    def infinite(self) -> bool:
        return math.isinf(self.ref) or math.isinf(self.sketch)

    @property
    def abs_error(self) -> float | None:
        if self.infinite:
            return None
        return abs(self.ref - self.sketch)


def _check_sandwich(row: ResultRow) -> None:
    if math.isinf(row.ref):
        return
    if math.isinf(row.sketch) or row.sketch > row.ref + 1e-12:
        raise SandwichViolationError(
            f"sketch {row.sketch!r} exceeds reference {row.ref!r} for "
            f"{row.phi} on {row.pair} (k={row.k}, t={row.t}, trial={row.trial})"
        )


def run_plan(plan: ExperimentPlan) -> list[ResultRow]:
    """Execute every (pair, divergence, k, t, trial) cell of the plan."""
    specs = {name: smoothed(get_divergence(name), plan.alpha) for name in plan.divergences}
    rows: list[ResultRow] = []

    for pair_index, (src1, src2) in enumerate(plan.pairs):
        pair_label = f"{src1.label()}|{src2.label()}"
        synthetic = src1.synthetic and src2.synthetic
        for trial in range(plan.trials):
            hist1 = src1.materialize(plan.m, derive_seed(plan.master_seed, "stream", pair_index, 0, trial))
            hist2 = src2.materialize(plan.m, derive_seed(plan.master_seed, "stream", pair_index, 1, trial))
            universe = np.arange(1, plan.n + 1, dtype=np.uint64) if synthetic else None
            refs = {
                name: reference_distance(spec, hist1, hist2, universe)
                for name, spec in specs.items()
            }
            if synthetic:
                bound = plan.n + 1
            else:
                bound = 2 ** 64
            for k in plan.k_values:
                for t in plan.t_values:
                    family_seed = derive_seed(plan.master_seed, "family", pair_index, k, t, trial)
                    family = new_family(t, k, bound, family_seed)
                    t0 = time.perf_counter()
                    sk1 = sketch_stream(family, hist1.ids, hist1.counts)
                    sk2 = sketch_stream(family, hist2.ids, hist2.counts)
                    build_s = time.perf_counter() - t0
                    for name in plan.divergences:
                        t1 = time.perf_counter()
                        est = sketch_star_metric(specs[name], sk1, sk2)
                        query_s = time.perf_counter() - t1
                        row = ResultRow(
                            pair=pair_label, phi=name, k=k, t=t, trial=trial,
                            family_seed=family_seed, ref=refs[name], sketch=est.value,
                            build_seconds=build_s, query_seconds=query_s,
                            build_items=hist1.total + hist2.total,
                        )
                        if plan.alpha == 0.0 and specs[name].f_div:
                            _check_sandwich(row)
                        rows.append(row)

    rows.sort(key=lambda r: (r.pair, r.phi, r.k, r.t, r.trial))
    return rows


RESULT_COLUMNS = ("pair", "phi", "k", "t", "trial", "family_seed",
                  "ref", "sketch", "abs_error", "infinite")


def write_results(rows: list[ResultRow], path: str) -> None:
    """Deterministic result rows; identical plan and seed give identical bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            err = "" if r.abs_error is None else repr(r.abs_error)
            writer.writerow([r.pair, r.phi, r.k, r.t, r.trial, r.family_seed,
                             repr(r.ref), repr(r.sketch), err, int(r.infinite)])


def read_results(path: str) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ResultRow(
                pair=rec["pair"], phi=rec["phi"], k=int(rec["k"]), t=int(rec["t"]),
                trial=int(rec["trial"]), family_seed=int(rec["family_seed"]),
                ref=float(rec["ref"]), sketch=float(rec["sketch"]),
                build_seconds=0.0, query_seconds=0.0,
            ))
    return rows


def write_timings(rows: list[ResultRow], path: str) -> None:
    """Per-row wall-clock accounting (not byte-reproducible across runs).

    ``updates_per_second`` counts the items the two sketches absorbed, which
    for ``file:`` sources is the files' lengths, not the plan's ``m``.  The
    build is timed from the two histograms: it covers hashing their distinct
    ids and adding the counts, not drawing or reading the streams.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pair", "phi", "k", "t", "trial",
                         "build_seconds", "query_seconds", "updates_per_second"])
        for r in rows:
            rate = r.build_items / r.build_seconds if r.build_seconds > 0 else math.inf
            writer.writerow([r.pair, r.phi, r.k, r.t, r.trial,
                             f"{r.build_seconds:.6f}", f"{r.query_seconds:.6f}", f"{rate:.0f}"])


@dataclass
class SummaryRow:
    pair: str
    phi: str
    k: int
    t: int
    trials: int
    infinite_rows: int
    mean_ref: float | None
    mean_sketch: float | None
    mean_abs_error: float | None
    stdev_abs_error: float | None


def sweep_summary(rows: list[ResultRow]) -> list[SummaryRow]:
    """Per-(pair, phi, k, t) means over trials; infinite rows counted apart."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        groups.setdefault((r.pair, r.phi, r.k, r.t), []).append(r)
    out = []
    for (pair, phi, k, t), members in sorted(groups.items()):
        finite = [r for r in members if not r.infinite]
        errors = [r.abs_error for r in finite]
        out.append(SummaryRow(
            pair=pair, phi=phi, k=k, t=t,
            trials=len(members),
            infinite_rows=len(members) - len(finite),
            mean_ref=statistics.fmean(r.ref for r in finite) if finite else None,
            mean_sketch=statistics.fmean(r.sketch for r in finite) if finite else None,
            mean_abs_error=statistics.fmean(errors) if errors else None,
            stdev_abs_error=statistics.pstdev(errors) if errors else None,
        ))
    return out


SUMMARY_COLUMNS = ("pair", "phi", "k", "t", "trials", "infinite_rows",
                   "mean_ref", "mean_sketch", "mean_abs_error", "stdev_abs_error")


def write_summary(summaries: list[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for s in summaries:
            fmt = lambda v: "" if v is None else repr(v)
            writer.writerow([s.pair, s.phi, s.k, s.t, s.trials, s.infinite_rows,
                             fmt(s.mean_ref), fmt(s.mean_sketch),
                             fmt(s.mean_abs_error), fmt(s.stdev_abs_error)])


def run_plan_to_dir(plan: ExperimentPlan, out_dir: str, plan_text: str = "") -> list[ResultRow]:
    """Run and write results.csv, summary.csv, timings.csv, manifest.txt."""
    os.makedirs(out_dir, exist_ok=True)
    rows = run_plan(plan)
    write_results(rows, os.path.join(out_dir, "results.csv"))
    write_summary(sweep_summary(rows), os.path.join(out_dir, "summary.csv"))
    write_timings(rows, os.path.join(out_dir, "timings.csv"))
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"starsketch_version = {__version__}\n")
        fh.write(f"master_seed = {plan.master_seed}\n")
        fh.write(f"alpha_smoothing = {plan.alpha!r}\n")
        fh.write(f"rows = {len(rows)}\n")
        if plan_text:
            fh.write("\n# plan\n")
            fh.write(plan_text if plan_text.endswith("\n") else plan_text + "\n")
    return rows
