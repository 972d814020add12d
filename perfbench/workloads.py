"""The three benchmark workloads and the checks on their outputs.

Each workload prepares its inputs from the seed (untimed), then runs whole
iterations of its job.  One iteration goes from inputs to a complete,
checked result; every program call and every check is one operation in the
:class:`Ledger`, so ``failed / attempted`` is the workload's
``ops_failed_ratio``.  The program is driven only through its public
functions (``cli.main`` for verbs), in this one process, one call at a time.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os
import re
import shutil
from collections import defaultdict
from time import perf_counter

import numpy as np
from starsketch import cli
from starsketch.divergence import get_divergence
from starsketch.hashing import new_family
from starsketch.sketch import load_sketch, sketch_stream
from starsketch.starmetric import exact_star_metric

from corpus import write_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
PHIS = ("bhattacharyya", "hellinger", "js", "kl", "tv")
TOL = 1e-9

# sha256 of every output at DEFAULT_SEED, per (workload, scale): a byte
# change in any output is reported as a failed check, never silently.
PINNED = {
    ("plan-allpairs", "full"): "4830019243fcf459a9c32eb03b58ecb99c813ef502d3270226416f2f61c91ec1",
    ("plan-allpairs", "tiny"): "56fb9cbafbff51ecdc8de1c11a281b00405c066ffaf28b2d1ccea690c44feaa7",
    ("trace-fleet", "full"): "6ce31ec6d43cd344cc88027271c851db8f13892168626c8e946e8d33ea8a38b7",
    ("trace-fleet", "tiny"): "4b4519efd4fc38557cf90ba81a98bccc896107c232d59d692efcce301ce33ab0",
    ("oracle-gate", "full"): "9af7e06a77b6671bf16f6d88c9586d12b619177fb9525675a27d95d97dd1ee7a",
    ("oracle-gate", "tiny"): "5d635ae321245c71e2b278979f0969b4b378a3d9dbf4521fc198670851538251",
}
# results.csv of plans/allpairs.plan at its own seed (1), as shipped.
ALLPAIRS_RESULTS_SHA256 = "5a9560656242c21a"


class Ledger:
    """Operations attempted and failed, timing samples and totals of one run."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.totals: defaultdict[str, float] = defaultdict(float)

    def span(self, name: str, new_op: bool = False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, new_op)

    def count(self, key: str, n: int) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] += n

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def checking(self, what: str):
        """A missing or malformed output makes the enclosed checks one failure."""
        try:
            yield
        except (OSError, ValueError, IndexError, KeyError) as exc:
            self.check(False, f"{what}: {exc!r}")

    def call(self, what: str, fn, *args):
        """Run one program call; an exception is a failed operation."""
        try:
            result = fn(*args)
        except Exception as exc:  # any program error is a failed operation, reported
            self.check(False, f"{what}: {exc!r}")
            return None
        self.check(True, what)
        return result

    def verb(self, argv: list[str]) -> tuple[str | None, float]:
        """One CLI verb call; returns (stdout or None on failure, seconds)."""
        out = io.StringIO()
        start = perf_counter()
        try:
            with self.span("cli.verb", new_op=True), contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # argparse exits; both are failures
            rc = exc
        seconds = perf_counter() - start
        ok = self.check(rc == 0, f"starsketch {' '.join(argv)} -> {rc!r}")
        return (out.getvalue() if ok else None), seconds


def _sha256(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(f"{os.path.basename(path)}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def _not_above(low: float, high: float) -> bool:
    """low <= high up to rounding, with +inf as a first-class value."""
    if math.isnan(low) or math.isnan(high):
        return False
    if math.isinf(high):
        return True
    return low <= high + TOL * max(1.0, abs(high))


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, corrupt: bool = False) -> None:
        self.seed = seed
        self.scale = scale
        self.corrupt = corrupt
        self.digests: list[str] = []

    def warm_up(self, ledger: Ledger) -> None:
        self.iteration(ledger, 0)

    def check_digest(self, ledger: Ledger, digest: str) -> None:
        if self.digests:
            ledger.check(digest == self.digests[0], f"{self.name}: outputs differ between iterations")
        self.digests.append(digest)
        pinned = PINNED[self.name, self.scale]
        if self.seed == DEFAULT_SEED:
            ledger.check(digest == pinned, f"{self.name}: output digest {digest[:16]} != pinned "
                                           f"{pinned[:16]} at seed {DEFAULT_SEED}")


class PlanAllpairs(Workload):
    """`experiment run` on the shipped all-pairs plan, reseeded."""

    name = "plan-allpairs"
    setup_code = "starsketch.cli.load_plan('allpairs.plan')"

    def prepare(self, work: str) -> None:
        with open(os.path.join(HERE, "allpairs.plan")) as fh:
            text = fh.read()
        text = re.sub(r"(?m)^seed = .*$", f"seed = {self.seed}", text)
        # One trial per iteration keeps an iteration short, so a run holds
        # many of them and its median shrugs off a slow spell of the host.
        text = re.sub(r"(?m)^trials = .*$", "trials = 1", text)
        if self.scale == "tiny":
            text = re.sub(r"(?m)^m = .*$", "m = 2000", text)
        pairs = len(re.findall(r"(?m)^pair = ", text))
        phis = re.search(r"(?m)^divergences = (.*)$", text).group(1).split(",")
        trials = int(re.search(r"(?m)^trials = (.*)$", text).group(1))
        self.expected_rows = pairs * len(phis) * trials
        with open(os.path.join(work, "allpairs.plan"), "w") as fh:
            fh.write(text)

    def warm_up(self, ledger: Ledger) -> None:
        """At the plan's own seed, also run the shipped five-trial plan once."""
        super().warm_up(ledger)
        if self.seed != DEFAULT_SEED or self.scale != "full":
            return
        result, _ = ledger.verb(["experiment", "run", "--plan", os.path.join(HERE, "allpairs.plan"),
                                 "--out-dir", "shipped"])
        with ledger.checking("shipped plan outputs"):
            if result is not None:
                with open(os.path.join("shipped", "results.csv"), "rb") as fh:
                    sha = hashlib.sha256(fh.read()).hexdigest()
                ledger.check(sha.startswith(ALLPAIRS_RESULTS_SHA256),
                             f"results.csv sha256 {sha[:16]} != {ALLPAIRS_RESULTS_SHA256}")
        shutil.rmtree("shipped", ignore_errors=True)

    def iteration(self, ledger: Ledger, index: int) -> None:
        out = f"experiment{index}"
        result, _ = ledger.verb(["experiment", "run", "--plan", "allpairs.plan", "--out-dir", out])
        with ledger.span("bench.check"), ledger.checking(f"{out} outputs"):
            if result is not None:
                if self.corrupt:
                    _corrupt_results(os.path.join(out, "results.csv"))
                self._check(ledger, out)
        shutil.rmtree(out, ignore_errors=True)

    def _check(self, ledger: Ledger, out: str) -> None:
        results = os.path.join(out, "results.csv")
        with open(results, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ledger.check(len(rows) == self.expected_rows,
                     f"results.csv has {len(rows)} rows, expected {self.expected_rows}")
        for r in rows:
            ref, est = float(r["ref"]), float(r["sketch"])
            ledger.check(math.isinf(ref) or (math.isfinite(est) and est <= ref + 1e-12),
                         f"sketch {est!r} > ref {ref!r}: {r['pair']} {r['phi']} trial {r['trial']}")
        self.check_digest(ledger, _sha256([os.path.join(out, f) for f in
                                           ("results.csv", "summary.csv", "manifest.txt")]))


def _corrupt_results(path: str) -> None:
    """Raise one finite sketch value above its reference (self-test only)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if math.isfinite(float(row[6])):
            row[7] = repr(float(row[6]) + 1.0)
            break
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


class TraceFleet(Workload):
    """Operator pipeline over a fleet of synthetic CLF logs."""

    name = "trace-fleet"
    setup_code = "starsketch.cli.build_parser()"
    T, K = 64, 256
    IDENTITY_LOGS = 4
    SANDWICH_PAIRS = 8

    def prepare(self, work: str) -> None:
        logs, lines = (8, 20_000) if self.scale == "full" else (4, 1_500)
        self.logs = write_corpus(work, self.seed, logs, lines)
        self.family_seed = str(1_000_003 * self.seed + 17)

    def iteration(self, ledger: Ledger, index: int) -> None:
        for e in self.logs:
            ledger.count("ingest.lines", e.lines)
            out, s = ledger.verb(["ingest", "--in", e.name, "--out", e.name + ".stream",
                                  "--stats", e.name + ".stats"])
            ledger.totals["ingest_lines"] += e.lines
            ledger.totals["ingest_s"] += s
            ledger.verb(["stats", "--in", e.name + ".stream", "--ranks", e.name + ".ranks"])
            out, s = ledger.verb(["sketch", "build", "--in", e.name + ".stream", "--t", str(self.T),
                                  "--k", str(self.K), "--seed", self.family_seed,
                                  "--out", e.name + ".sketch"])
            ledger.totals["build_items"] += e.items
            ledger.totals["build_s"] += s
        if self.corrupt:
            _corrupt_sketch(self.logs[0].name + ".sketch")
        with ledger.span("bench.check"):
            for e in self.logs:
                with ledger.checking(f"{e.name} outputs"):
                    self._check_log(ledger, e)

        estimates = {}
        outputs = []
        for a, b in itertools.combinations(range(len(self.logs)), 2):
            for phi in PHIS:
                value, s = self._distance(ledger, phi, a, b)
                ledger.samples["query_ms"].append(1000.0 * s)
                estimates[a, b, phi] = value
                outputs.append(f"{a},{b},{phi},{value!r}")
        with ledger.span("bench.check"):
            for i in range(min(self.IDENTITY_LOGS, len(self.logs))):
                for phi in PHIS:
                    value, _ = self._distance(ledger, phi, i, i)
                    # The program's identity axiom holds to 1e-9: bhattacharyya
                    # rounds sum(sqrt(p * p)) to just under 1.
                    ledger.check(abs(value) <= TOL, f"distance({phi}, log{i}, log{i}) = {value!r}")
            for a in range(min(self.SANDWICH_PAIRS, len(self.logs) - 1)):
                self._check_sandwich(ledger, a, a + 1, estimates)
            files = [e.name + ext for e in self.logs
                     for ext in (".stats", ".ranks", ".stream", ".sketch")]
            with ledger.checking("output digest"):
                digest = hashlib.sha256(_sha256(files).encode() + "\n".join(outputs).encode())
                self.check_digest(ledger, digest.hexdigest())

    def _distance(self, ledger: Ledger, phi: str, a: int, b: int) -> tuple[float, float]:
        out, s = ledger.verb(["distance", "--phi", phi, "--a", self.logs[a].name + ".sketch",
                              "--b", self.logs[b].name + ".sketch"])
        if out is not None:
            with ledger.checking(f"distance output {out!r}"):
                rows = list(csv.reader(io.StringIO(out)))
                return float(rows[1][rows[0].index("value")]), s
        return math.nan, s

    def _check_log(self, ledger: Ledger, e) -> None:
        with open(e.name + ".stats", newline="") as fh:
            stats = {k: int(v) for k, v in list(csv.reader(fh))[1:]}
        want = {"items": e.items, "distinct": e.distinct, "malformed": e.malformed,
                "max_frequency": max(e.counts.values())}
        ledger.check(stats == want, f"{e.name}: ingest stats {stats} != generator {want}")
        with open(e.name + ".ranks", newline="") as fh:
            ranks = [int(r[1]) for r in list(csv.reader(fh))[1:]]
        ledger.check(ranks == e.ranks, f"{e.name}: stats --ranks differs from the generator")
        sk = ledger.call(f"load {e.name}.sketch", load_sketch, e.name + ".sketch")
        if sk is not None:
            sums = sk.counts.sum(axis=1, dtype=np.uint64)
            ledger.check(sk.total == e.items and bool(np.all(sums == np.uint64(e.items))),
                         f"{e.name}: sketch total {sk.total} or row sums != {e.items} items")

    def _check_sandwich(self, ledger: Ledger, a: int, b: int, estimates: dict) -> None:
        ca, cb = self.logs[a].counts, self.logs[b].counts
        keys = sorted(set(ca) | set(cb))
        p = np.array([ca.get(k, 0) for k in keys], dtype=np.float64) / sum(ca.values())
        q = np.array([cb.get(k, 0) for k in keys], dtype=np.float64) / sum(cb.values())
        for phi in PHIS:
            ref = get_divergence(phi)(p, q)
            est = estimates[a, b, phi]
            ledger.check(_not_above(est, ref), f"{phi}(log{a}, log{b}): sketch {est!r} > ref {ref!r}")


def _corrupt_sketch(path: str) -> None:
    """Add one to the last counter of a sketch file (self-test only)."""
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        value = int.from_bytes(fh.read(8), "little") + 1
        fh.seek(-8, os.SEEK_END)
        fh.write(value.to_bytes(8, "little"))


def stirling2(n: int, k: int) -> int:
    """S(n, k) by the triangle recurrence; independent of the program's."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


class OracleGate(Workload):
    """The exact k-cell oracle and the row-by-row sandwich."""

    name = "oracle-gate"
    setup_code = ""  # the oracle needs no preparation beyond the import

    def prepare(self, work: str) -> None:
        full = self.scale == "full"
        rng = np.random.default_rng([0x0AC1E, self.seed])
        configs = ((10, 4), (11, 3), (10, 5)) if full else ((7, 3), (8, 2), (6, 4))
        self.cases = []
        for i, (n, k) in enumerate(configs):
            p = rng.random(n) + 0.05
            q = rng.random(n) + 0.05
            if i == len(configs) - 1:
                q[rng.integers(n)] = 0.0  # kl is +inf at the exact level
            self.cases.append((n, k, p / p.sum(), q / q.sum()))
        self.sandwich = []
        for n, k in (((8, 3), (9, 4)) if full else ((6, 3),)):
            w = rng.random(n) + 0.05
            v = rng.random(n) + 0.05
            v[-1] = 0.0  # item n never occurs in the second stream
            a = rng.choice(np.arange(1, n + 1), 4000, p=w / w.sum()).astype(np.uint64)
            b = rng.choice(np.arange(1, n + 1), 4000, p=v / v.sum()).astype(np.uint64)
            self.sandwich.append((n, k, a, b, int(rng.integers(1 << 62))))

    def _spec(self, ledger: Ledger, phi: str):
        spec = get_divergence(phi)
        return spec if ledger.tracer is None else ledger.tracer.timed_spec(spec)

    def _exact(self, ledger: Ledger, spec, p, q, k: int):
        with ledger.span("starmetric.exact", new_op=True):
            r = ledger.call(f"exact_star_metric({spec.name}, n={p.size}, k={k})",
                            exact_star_metric, spec, p, q, k)
        if r is not None and self.corrupt:
            r.value = 2.0 * r.value + 1.0
        return r

    def iteration(self, ledger: Ledger, index: int) -> None:
        outputs = []
        for n, k, p, q in self.cases:
            for phi in PHIS:
                spec = self._spec(ledger, phi)
                r = self._exact(ledger, spec, p, q, k)
                if r is None:
                    continue
                with ledger.span("bench.check"):
                    ledger.check(r.evaluated_partitions == stirling2(n, k),
                                 f"{phi} n={n} k={k}: {r.evaluated_partitions} partitions")
                    ref = spec(p, q)
                    ledger.check(r.value >= -TOL and _not_above(r.value, ref),
                                 f"{phi} n={n} k={k}: exact {r.value!r} vs reference {ref!r}")
                    if phi == "kl" and q.min() == 0.0:
                        ledger.check(r.value == math.inf, f"kl with a zero in q: {r.value!r}")
                outputs.append(f"{phi},{n},{k},{r.value!r},{r.argmax_label()}")
        outputs.extend(self._sandwich(ledger))
        with ledger.span("bench.check"):
            self.check_digest(ledger, hashlib.sha256("\n".join(outputs).encode()).hexdigest())

    def _sandwich(self, ledger: Ledger) -> list[str]:
        """Every sketch row <= exact k-cell maximum <= full-stream divergence."""
        outputs = []
        for n, k, a, b, family_seed in self.sandwich:
            family = new_family(8, k, n + 1, family_seed)
            with ledger.span("sketch.build"):
                sa = ledger.call("sketch_stream", sketch_stream, family, a)
                sb = ledger.call("sketch_stream", sketch_stream, family, b)
            if sa is None or sb is None:
                continue
            p = np.bincount(a.astype(np.int64), minlength=n + 1)[1:] / a.size
            q = np.bincount(b.astype(np.int64), minlength=n + 1)[1:] / b.size
            for phi in PHIS:
                spec = self._spec(ledger, phi)
                r = self._exact(ledger, spec, p, q, k)
                if r is None:
                    continue
                with ledger.span("bench.check"):
                    ref = spec(p, q)
                    ledger.check(_not_above(r.value, ref),
                                 f"sandwich {phi} n={n}: exact {r.value!r} > reference {ref!r}")
                    for i in range(family.t):
                        row = spec(sa.row_distribution(i), sb.row_distribution(i))
                        ledger.check(_not_above(row, r.value),
                                     f"sandwich {phi} n={n}: row {i} {row!r} > exact {r.value!r}")
                        outputs.append(f"{phi},{n},row{i},{row!r}")
                outputs.append(f"{phi},{n},{k},{r.value!r},{ref!r}")
        return outputs


WORKLOADS = {w.name: w for w in (PlanAllpairs, TraceFleet, OracleGate)}
