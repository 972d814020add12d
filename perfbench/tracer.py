"""In-memory span tracer that measures the program's layers from outside.

Tracing replaces public functions at the module attribute their caller looks
them up by (``harness.sample_stream``, ``sketch.evaluate_batch``,
``cli.load_sketch`` ...) with wrappers that record a span, and hands out
timed copies of each ``DivergenceSpec``.  Nothing under ``src/`` changes;
:func:`patched` restores every attribute on exit.

A span is (id, name, start, end, parent id, op id); spans of one benchmark
operation (one verb call, one oracle call) share the op id.  Calls made once
per log line are "hot": they are folded into their parent span as a count
and a total instead of being stored one by one, which keeps memory bounded
on large logs.  A layer's self time is its span time minus the time of the
spans nested in it.  Counting work done for the trace (distinct ids, file
sizes) is charged to ``trace.bookkeeping``, not to the layer it observes.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Span names; each becomes the per-layer metric "<name>_s" (self time).
SPAN_NAMES = (
    "cli.verb", "harness.run_plan", "harness.write",
    "generators.sample", "generators.stream_write", "generators.stream_read",
    "histogram.from_stream", "histogram.rgs",
    "hashing.eval", "sketch.build", "sketch.save", "sketch.load",
    "starmetric.reference", "starmetric.query", "starmetric.exact", "divergence.batch",
    "ingest.read", "ingest.parse", "ingest.fingerprint", "ingest.stats",
    "bench.check", "trace.bookkeeping",
)


class Tracer:
    """Records spans and counts; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.top_level_s = 0.0
        self._stack: list[list] = []  # open frames: [child seconds, span id or None]
        self._next_id = 0
        self._op = 0
        self._specs: dict[int, tuple] = {}
        self._last_hashed: np.ndarray | None = None
        self._last_distinct = 0

    def _enter(self, hot: bool) -> list:
        frame = [0.0, None]
        if not hot:
            frame[1] = self._next_id
            self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[0]
        self.counts[name + ".calls"] += 1
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.top_level_s += duration
        if frame[1] is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append((frame[1], name, start, end, parent, self._op))

    def call(self, name: str, fn, args=(), kwargs=None, hot: bool = False):
        entered = perf_counter()
        frame = self._enter(hot)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._exit(name, frame, start, end)
            # The tracer's own share of this call goes to trace.bookkeeping,
            # not to the self time of the caller's span.
            own = perf_counter() - entered - (end - start)
            self.self_s["trace.bookkeeping"] += own
            if self._stack:
                self._stack[-1][0] += own
            else:
                self.top_level_s += own

    @contextlib.contextmanager
    def span(self, name: str, new_op: bool = False):
        """A span around a block of the benchmark's own code."""
        if new_op:
            self._op += 1
        frame = self._enter(False)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, start, perf_counter())

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, hot)
            if after is not None:
                self.call("trace.bookkeeping", after, (args, result), hot=True)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn, hot: bool = False, after=None):
        """Wrap a generator function; each ``next`` is one span."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, (it,), None, hot)
                except StopIteration:
                    return
                if after is not None:
                    self.call("trace.bookkeeping", after, (args, item), hot=True)
                yield item
        traced.__wrapped__ = fn
        return traced

    def timed_spec(self, spec):
        """A copy of a DivergenceSpec whose kernels record divergence.batch spans."""
        if id(spec) not in self._specs:
            def one(p, q, _eval=spec.eval):
                self.counts["divergence.rows"] += 1
                return self.call("divergence.batch", _eval, (p, q))
            rows = None
            if spec.eval_rows is not None:
                def rows(P, Q, _rows=spec.eval_rows):
                    self.counts["divergence.rows"] += P.shape[0]
                    return self.call("divergence.batch", _rows, (P, Q))
            # Keep the original alive so its id is never reused.
            self._specs[id(spec)] = (spec, dataclasses.replace(spec, eval=one, eval_rows=rows))
        return self._specs[id(spec)][1]

    # -- counting hooks, run as trace.bookkeeping --------------------------------

    def count_hashed(self, args, _result) -> None:
        xs = args[1]
        self.counts["hashing.evals"] += len(xs)
        if xs is not self._last_hashed:  # update_many hashes one array once per row
            self._last_hashed = xs
            self._last_distinct = int(np.unique(xs).size)
        self.counts["hashing.distinct"] += self._last_distinct

    def count_file(self, key: str, path_arg: int):
        def hook(args, _result):
            self.counts[key] += os.path.getsize(args[path_arg])
        return hook

    def count_items(self, key: str, arg: int | None = None):
        def hook(args, result):
            self.counts[key] += len(result if arg is None else args[arg])
        return hook

    def count_parse(self, _args, record) -> None:
        self.counts["ingest.valid"] += record.valid

    def count_block(self, _args, block) -> None:
        self.counts["histogram.partitions"] += block.shape[0]

    def count_call(self, key: str):
        def hook(_args, _result):
            self.counts[key] += 1
        return hook

    def write(self, path: str) -> None:
        """Write every stored span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers on the program's modules, restore on exit."""
    from starsketch import cli, harness, ingest, sketch, starmetric

    t = tracer
    plan = [
        (cli, "run_plan_to_dir", t.wrap("harness.write", cli.run_plan_to_dir)),
        (cli, "iter_records", t.wrap_iter("ingest.read", cli.iter_records, hot=True)),
        (cli, "trace_stats", t.wrap("ingest.stats", cli.trace_stats)),
        (cli, "write_stream", t.wrap("generators.stream_write", cli.write_stream,
                                     after=t.count_file("generators.stream_bytes", 0))),
        (cli, "read_stream", t.wrap("generators.stream_read", cli.read_stream,
                                    after=t.count_file("generators.stream_bytes", 0))),
        (cli, "from_stream", t.wrap("histogram.from_stream", cli.from_stream)),
        (cli, "sketch_stream", t.wrap("sketch.build", cli.sketch_stream,
                                      after=t.count_items("sketch.updates", 1))),
        (cli, "load_sketch", t.wrap("sketch.load", cli.load_sketch,
                                    after=t.count_file("sketch.bytes", 0))),
        (cli, "sketch_star_metric", t.wrap("starmetric.query", cli.sketch_star_metric,
                                           after=t.count_call("starmetric.queries"))),
        (cli, "get_divergence", lambda name, _g=cli.get_divergence: t.timed_spec(_g(name))),
        (harness, "run_plan", t.wrap("harness.run_plan", harness.run_plan)),
        (harness, "sample_stream", t.wrap("generators.sample", harness.sample_stream,
                                          after=t.count_items("generators.items"))),
        (harness, "read_stream", t.wrap("generators.stream_read", harness.read_stream,
                                        after=t.count_file("generators.stream_bytes", 0))),
        (harness, "from_stream", t.wrap("histogram.from_stream", harness.from_stream)),
        (harness, "reference_distance", t.wrap("starmetric.reference",
                                               harness.reference_distance)),
        (harness, "sketch_stream", t.wrap("sketch.build", harness.sketch_stream,
                                          after=t.count_items("sketch.updates", 1))),
        (harness, "sketch_star_metric", t.wrap("starmetric.query", harness.sketch_star_metric,
                                               after=t.count_call("starmetric.queries"))),
        (harness, "get_divergence",
         lambda name, _g=harness.get_divergence: t.timed_spec(_g(name))),
        (harness, "write_results", t.wrap("harness.write", harness.write_results)),
        (harness, "write_summary", t.wrap("harness.write", harness.write_summary)),
        (harness, "write_timings", t.wrap("harness.write", harness.write_timings)),
        (sketch, "evaluate_batch", t.wrap("hashing.eval", sketch.evaluate_batch,
                                          after=t.count_hashed)),
        (sketch.SketchMatrix, "save", t.wrap("sketch.save", sketch.SketchMatrix.save)),
        (starmetric, "assignment_blocks", t.wrap_iter("histogram.rgs",
                                                      starmetric.assignment_blocks,
                                                      after=t.count_block)),
        (ingest, "parse_clf_line", t.wrap("ingest.parse", ingest.parse_clf_line, hot=True,
                                          after=t.count_parse)),
        (ingest, "target_to_item", t.wrap("ingest.fingerprint", ingest.target_to_item,
                                          hot=True)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
    try:
        for owner, attr, replacement in plan:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer self times, counts and ratios of one traced iteration."""
    c = tracer.counts
    out = {f"{name}_s": (tracer.self_s.get(name, 0.0), "s") for name in SPAN_NAMES}
    ratio = lambda num, den: num / den if den else 0.0
    out.update({
        "generators.items": (c["generators.items"], "count"),
        "generators.stream_bytes": (c["generators.stream_bytes"], "bytes"),
        "hashing.evals": (c["hashing.evals"], "count"),
        "hashing.distinct_ratio": (ratio(c["hashing.distinct"], c["hashing.evals"]), "ratio"),
        "sketch.updates": (c["sketch.updates"], "count"),
        "sketch.bytes": (c["sketch.bytes"], "bytes"),
        "starmetric.queries": (c["starmetric.queries"], "count"),
        "divergence.rows": (c["divergence.rows"], "count"),
        "histogram.partitions": (c["histogram.partitions"], "count"),
        "ingest.lines": (c["ingest.lines"], "count"),
        "ingest.valid_ratio": (ratio(c["ingest.valid"], c["ingest.parse.calls"]), "ratio"),
        "ingest.parses_per_line": (ratio(c["ingest.parse.calls"], c["ingest.lines"]), "ratio"),
        "unattributed_s": (traced_wall_s - tracer.top_level_s, "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    })
    return out
