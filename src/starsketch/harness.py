"""Experiment driver: reference-vs-sketch comparisons over parameter sweeps.

A plan names stream pairs, divergences, and (k, t) sweep values; running it
produces one row per (pair, divergence, k, t, trial).  A source is what the
plan names: a ``DistributionFamily`` over the plan's universe 1..n, or the
path of a stream file as a ``str``.  Every trial draws a fresh hash family
and, for synthetic sources, fresh streams, with all seeds split
deterministically from the master seed, so a plan plus its seed fully
determines the result bytes.  Each distinct source's fixed part, the part
no trial changes, is computed once per ``run_plan`` call, before the first
trial, and kept only for that call: a family's cdf or a file's histogram.
Each stream is reduced to its histogram (distinct ids and counts) once per
trial, and the references and every (k, t) sketch are computed from it: a
synthetic stream is drawn as a histogram from the kept cdf, a build hashes
distinct ids, not items, and one ``reference_distance`` call normalizes the
trial's two histograms once for every divergence's reference.  Each trial
draws side 1 in one worker thread kept for the run while the calling thread
draws side 0, into two m-length buffers reused by every trial.  Wall-clock
timings go to a separate file to keep the result and summary files
byte-reproducible.

Trials are independent: a scheduler may run them in parallel as long as the
final rows are ordered by (pair, divergence, k, t, trial), which is the order
this implementation emits.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import math
import numbers
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import __version__
from .divergence import get_divergence, smoothed
from .generators import (
    DistributionFamily,
    _cdf,
    _draw_histogram,
    parse_family,
    read_stream,
    sample_stream,  # unused here; bound for perfbench/tracer.py, which wraps it by this name
)
from .hashing import is_integer, new_family
from .histogram import from_stream
from .sketch import sketch_stream
from .starmetric import reference_distance, sketch_star_metric


class SandwichViolationError(RuntimeError):
    """A sketch estimate exceeded its reference value for an ``f_div`` spec."""


def derive_seed(master: int, *parts) -> int:
    """Deterministic 63-bit sub-seed from the master seed and a label path."""
    text = repr((master,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


def parse_source(text: str, n: int, base_dir: str = ".") -> DistributionFamily | str:
    """A plan source: the family a descriptor names over 1..n, or the path of a ``file:`` stream."""
    text = text.strip()
    if text.startswith("file:"):
        path = text[len("file:"):]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise FileNotFoundError(f"stream source {path!r} does not exist")
        if not os.path.isfile(path):
            raise ValueError(f"stream source {path!r} is not a regular file")
        return path
    return parse_family(text, n)


def _pair_label(a: DistributionFamily | str, b: DistributionFamily | str) -> str:
    """A pair's key in result rows; two pairs with one label would collide."""
    return "|".join(f"file:{os.path.basename(src)}" if isinstance(src, str) else src.label()
                    for src in (a, b))


@dataclass
class ExperimentPlan:
    pairs: list[tuple[DistributionFamily | str, DistributionFamily | str]]
    divergences: list[str] = field(default_factory=lambda: ["js"])
    k_values: list[int] = field(default_factory=lambda: [200])
    t_values: list[int] = field(default_factory=lambda: [4])
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
        for name in ("trials", "m", "n", "master_seed", "k_values", "t_values"):
            value = getattr(self, name)
            for v in value if name.endswith("_values") else [value]:
                if not is_integer(v):
                    raise ValueError(f"{name}: {v!r} is not an integer")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha: {self.alpha!r} is not a number")
        # Stored as plain numbers: derive_seed hashes their repr, and numpy 2
        # writes np.int64(4) where int writes 4.
        self.trials, self.m, self.n, self.master_seed = map(
            int, (self.trials, self.m, self.n, self.master_seed))
        self.k_values = [int(v) for v in self.k_values]
        self.t_values = [int(v) for v in self.t_values]
        self.alpha = float(self.alpha)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if any(v < 1 for v in self.k_values) or any(v < 1 for v in self.t_values):
            raise ValueError("sweep values must be >= 1")
        for name in self.divergences:
            smoothed(get_divergence(name), self.alpha)
        for src in (src for pair in self.pairs for src in pair):
            if not (isinstance(src, str) or isinstance(src, DistributionFamily) and src.n == self.n):
                raise ValueError(f"a source is a stream file path or a family over "
                                 f"n = {self.n}, got {src!r}")
        for what, values in (("pair", [_pair_label(*pair) for pair in self.pairs]),
                             ("divergence", self.divergences),
                             ("k value", self.k_values), ("t value", self.t_values)):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"plan lists {what} {v!r} twice")


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


# Each plan key, the ExperimentPlan field it sets, and the parser of its value.
# A key the text leaves out keeps the field's default.
_PLAN_KEYS = {
    "divergences": ("divergences", lambda text: [v.strip() for v in text.split(",")]),
    "k": ("k_values", _int_list),
    "t": ("t_values", _int_list),
    "trials": ("trials", int),
    "m": ("m", int),
    "n": ("n", int),
    "seed": ("master_seed", int),
    "alpha": ("alpha", float),
}


@contextmanager
def _naming(lineno: int, key: str, value: str):
    """Prefix an error raised while parsing one plan value with its line and key."""
    try:
        yield
    except (ValueError, FileNotFoundError) as exc:
        raise type(exc)(f"plan line {lineno}: {key} = {value!r}: {exc}") from exc


def parse_plan(text: str, base_dir: str = ".") -> ExperimentPlan:
    """Flat key=value plan grammar.

    Keys: ``pair`` (repeatable, two sources separated by ``|``),
    ``divergences`` (comma list), ``k``, ``t`` (comma lists), ``trials``,
    ``m``, ``n``, ``seed``, ``alpha``.  ``#`` starts a comment.  Sources:
    ``uniform``, ``zipf(alpha=1)``, ``pascal(r=3)``, ``binomial(p=0.5)``,
    ``poisson``, or ``file:relative/path``.
    """
    settings: dict[str, object] = {}
    pair_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"plan line {lineno}: expected key = value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key == "pair":
            pair_lines.append((lineno, value))
        elif key not in _PLAN_KEYS:
            raise ValueError(f"plan line {lineno}: unknown key {key!r}")
        elif _PLAN_KEYS[key][0] in settings:
            raise ValueError(f"plan line {lineno}: {key!r} is already set")
        else:
            name, parse = _PLAN_KEYS[key]
            with _naming(lineno, key, value):
                settings[name] = parse(value)

    n = settings.get("n", ExperimentPlan.n)
    if not 1 <= n < 2 ** 64:  # the sources take n, and stream files store it as a u64
        raise ValueError(f"n must lie in [1, 2^64), got {n}")
    pairs = []
    for lineno, value in pair_lines:
        with _naming(lineno, "pair", value):
            left, sep, right = value.partition("|")
            if not sep:
                raise ValueError("pair needs two sources separated by '|'")
            pairs.append((parse_source(left, n, base_dir), parse_source(right, n, base_dir)))
    return ExperimentPlan(pairs=pairs, **settings)


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
    build_seconds: float = 0.0
    query_seconds: float = 0.0
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
    """Execute every (pair, divergence, k, t, trial) cell of the plan.

    Each trial hands side 1 to one worker thread, kept for the call, draws
    side 0 in this thread and then collects side 1, whose exception is
    raised here; a ``file:`` side is its fixed histogram.  The draws fill two
    ``plan.m``-length float64 buffers, 16 * m bytes, allocated once per call.
    """
    # Imported here, its one use: concurrent.futures imports logging, which
    # every other starsketch process would then pay for at start-up.
    from concurrent.futures import ThreadPoolExecutor

    specs = {name: smoothed(get_divergence(name), plan.alpha) for name in plan.divergences}
    # Each distinct source's fixed part, computed once per call before any trial:
    # a family's cdf to draw from, or a file's histogram as it is.
    fixed = {src: from_stream(read_stream(src)[0]) if isinstance(src, str) else _cdf(src)
             for src in dict.fromkeys(src for pair in plan.pairs for src in pair)}
    # The uniforms of a trial's two draws, allocated once per call and in this
    # thread: a worker's own allocations would come from its own malloc arena
    # and raise the peak resident size.
    buffers = np.empty((2, plan.m))
    rows: list[ResultRow] = []

    def draw(src, side: int, seed: int):
        """A trial's histogram of one side: a file's as it is, or a fresh draw into its buffer."""
        if isinstance(src, str):
            return fixed[src]
        return _draw_histogram(fixed[src], buffers[side], seed)

    # The worker runs only ``draw``, so it calls nothing perfbench's tracer
    # wraps; leaving the block joins it, also when a draw here raises.
    with ThreadPoolExecutor(max_workers=1) as worker:
        for pair_index, (src1, src2) in enumerate(plan.pairs):
            pair_label = _pair_label(src1, src2)
            # Two drawn streams share the universe 1..n; a file's ids may span 64 bits.
            synthetic = not isinstance(src1, str) and not isinstance(src2, str)
            universe = np.arange(1, plan.n + 1, dtype=np.uint64) if synthetic else None
            bound = plan.n + 1 if synthetic else 2 ** 64
            for trial in range(plan.trials):
                seeds = [derive_seed(plan.master_seed, "stream", pair_index, side, trial)
                         for side in (0, 1)]
                drawing = worker.submit(draw, src2, 1, seeds[1])
                hist1 = draw(src1, 0, seeds[0])
                hist2 = drawing.result()
                refs = dict(zip(specs, reference_distance(specs.values(), hist1, hist2, universe)))
                for k, t in itertools.product(plan.k_values, plan.t_values):
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
                        if specs[name].f_div:
                            _check_sandwich(row)
                        rows.append(row)

    rows.sort(key=lambda r: (r.pair, r.phi, r.k, r.t, r.trial))
    return rows


RESULT_COLUMNS = ("pair", "phi", "k", "t", "trial", "family_seed",
                  "ref", "sketch", "abs_error", "infinite")


def write_csv(path: str, header, rows) -> None:
    """The one CSV form of every table written: a header row, then ``rows``.

    ``csv`` writes None as an empty field and a float as its repr, which
    ``float`` reads back exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results(rows: list[ResultRow], path: str) -> None:
    """Deterministic result rows; identical plan and seed give identical bytes."""
    write_csv(path, RESULT_COLUMNS, (
        [r.pair, r.phi, r.k, r.t, r.trial, r.family_seed,
         r.ref, r.sketch, r.abs_error, int(r.infinite)] for r in rows))


def read_results(path: str) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(ResultRow(
                pair=rec["pair"], phi=rec["phi"], k=int(rec["k"]), t=int(rec["t"]),
                trial=int(rec["trial"]), family_seed=int(rec["family_seed"]),
                ref=float(rec["ref"]), sketch=float(rec["sketch"]),
            ))
    return rows


def write_timings(rows: list[ResultRow], path: str) -> None:
    """Per-row wall-clock accounting (not byte-reproducible across runs).

    ``updates_per_second`` counts the items the two sketches absorbed, which
    for ``file:`` sources is the files' lengths, not the plan's ``m``.  The
    build is timed from the two histograms: it covers hashing their distinct
    ids and adding the counts, not drawing or reading the streams.
    """
    def timing(r: ResultRow) -> list:
        rate = r.build_items / r.build_seconds if r.build_seconds > 0 else math.inf
        return [r.pair, r.phi, r.k, r.t, r.trial,
                f"{r.build_seconds:.6f}", f"{r.query_seconds:.6f}", f"{rate:.0f}"]

    write_csv(path, ["pair", "phi", "k", "t", "trial",
                     "build_seconds", "query_seconds", "updates_per_second"], map(timing, rows))


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


SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def write_summary(summaries: list[SummaryRow], path: str) -> None:
    write_csv(path, SUMMARY_COLUMNS, map(astuple, summaries))


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
