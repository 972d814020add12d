import ast
import importlib.util
import inspect
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import types

import starsketch
import numpy as np

from starsketch import cli, sketch, starmetric
from starsketch.divergence import get_divergence
from starsketch.generators import DistributionFamily, sample_stream, write_stream
from starsketch.hashing import new_family
from starsketch.starmetric import exact_star_metric, sketch_star_metric, stirling

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(starsketch).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(starsketch.__all__) - {"__version__"}
    assert len(starsketch.__all__) == len(set(starsketch.__all__))
    for name in starsketch.__all__:
        assert hasattr(starsketch, name), name


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path, capsys):
    # The benchmark's tracer replaces program functions by module attribute
    # and raises KeyError on entry when one of them no longer exists.
    tracer = _load_tracer()
    original = sketch.evaluate_batch
    log = tmp_path / "access_log"
    log.write_text('h "GET /a HTTP/1.0" 200\nh "GET /b HTTP/1.0" 200\nh "GET /a HTTP/1.0" 200\n'
                   'h "GET /a HTTP/1.0" 200\nbroken\nh "GET" 400\nh "GET" 400\n')
    # It wraps cli.iter_records as a generator: one span per yielded line.
    assert inspect.isgeneratorfunction(cli.iter_records)
    traced = tracer.Tracer()
    with tracer.patched(traced):
        assert sketch.evaluate_batch is not original
        # The tracer counts the ids it finds at evaluate_batch's args[1].
        sketch.sketch_stream(new_family(4, 8, 100, 1), range(1, 50))
        assert cli.main(["ingest", "--in", str(log), "--out", str(tmp_path / "s.stream")]) == 0
        # The oracle builds its label table through starmetric.assignment_blocks,
        # so a cache miss shows as histogram.rgs and a hit enumerates nothing.
        starmetric._tables.clear()
        js = traced.timed_spec(get_divergence("js"))
        for _ in range(2):
            exact_star_metric(js, [0.1, 0.2, 0.3, 0.15, 0.25, 0.0], [1 / 6] * 6, 3)
    assert traced.counts["histogram.partitions"] == stirling(6, 3)
    assert traced.counts["divergence.rows"] == 2 * stirling(6, 3)
    assert traced.counts["hashing.evals"] == 4 * 49
    assert sketch.evaluate_batch is original
    # Ingest parses and fingerprints each distinct request once: '"GET /a
    # HTTP/1.0"', '"GET /b HTTP/1.0"', '""' and '"GET"', of which two are valid.
    assert traced.counts["ingest.read.calls"] == 7 + 1  # the last call ends the log
    assert traced.counts["ingest.parse.calls"] == 4
    assert traced.counts["ingest.valid"] == 2
    assert traced.counts["ingest.fingerprint.calls"] == 2
    assert "ingested 4 items (2 distinct, 3 malformed lines)" in capsys.readouterr().out
    t = tracer.Tracer()
    kl = get_divergence("kl")
    p, q = [0.5, 0.5], [0.25, 0.75]
    timed = t.timed_spec(kl)
    assert timed(p, q) == kl(p, q)
    assert t.counts["divergence.rows"] == 1
    # The oracle and the sketch query reach the kernel through eval_rows,
    # the field the tracer swaps in: one row per partition or sketch row.
    rng = np.random.default_rng(0)
    p5, q5 = (v / v.sum() for v in rng.random((2, 5)) + 0.05)
    assert exact_star_metric(timed, p5, q5, 3).value == exact_star_metric(kl, p5, q5, 3).value
    assert t.counts["divergence.rows"] == 1 + 25
    family = new_family(4, 8, 100, 1)
    a = sketch.sketch_stream(family, range(1, 50))
    b = sketch.sketch_stream(family, range(20, 90))
    assert sketch_star_metric(timed, a, b).value == sketch_star_metric(kl, a, b).value
    assert t.counts["divergence.rows"] == 1 + 25 + 4


def test_benchmark_setup_code_runs(tmp_path):
    # Each benchmark workload times a fresh interpreter that imports
    # starsketch.cli and runs the workload's setup_code beside a copy of the
    # benchmark plan; a name that code reads must stay bound in the program.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    setups = [node.value.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "setup_code" for t in node.targets)]
    assert any("load_plan" in code for code in setups)
    assert any("build_parser" in code for code in setups)
    shutil.copy(ROOT / "perfbench" / "allpairs.plan", tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    for code in setups:
        proc = subprocess.run([sys.executable, "-c", f"import starsketch.cli\n{code}\n"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (code, proc.stderr)


def test_traced_calls_stay_in_the_calling_thread(tmp_path, capsys):
    # The benchmark's tracer keeps one stack of open spans and is not
    # thread-safe, so run_plan's draw worker must call nothing it wraps.
    tracer = _load_tracer()

    class ThreadRecorder(tracer.Tracer):
        def __init__(self) -> None:
            super().__init__()
            self.threads: list[tuple[str, int]] = []

        def call(self, name, fn, args=(), kwargs=None, hot=False):
            self.threads.append((name, threading.get_ident()))
            return super().call(name, fn, args, kwargs, hot)

    write_stream(str(tmp_path / "one.stream"),
                 sample_stream(DistributionFamily.uniform(50), 400, 1), 50, "u")
    plan = tmp_path / "tiny.plan"
    plan.write_text("pair = uniform | zipf(alpha=1)\npair = file:one.stream | uniform\n"
                    "pair = uniform | file:one.stream\ndivergences = js, kl\nk = 4, 8\nt = 2\n"
                    "trials = 2\nm = 500\nn = 50\nseed = 3\n")
    traced = ThreadRecorder()
    with tracer.patched(traced):
        assert cli.main(["experiment", "run", "--plan", str(plan),
                         "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    names = {name for name, _ in traced.threads}
    assert {"harness.run_plan", "starmetric.reference", "sketch.build",
            "starmetric.query", "divergence.batch"} <= names
    assert {ident for _, ident in traced.threads} == {threading.main_thread().ident}
