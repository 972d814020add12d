#!/usr/bin/env python3
"""starsketch benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload plan-allpairs --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run prepares the workload's inputs from the seed (untimed) and runs one checked
but untimed warm-up iteration.  For ``--seconds`` it then runs whole
iterations of the job one after the other, each checked (always at least
one), and between them measures set-up in fresh interpreters spread evenly
over the window.  Each timed sample is rescaled to the reference host speed
(see calibrate()); ``wall_s`` and ``setup_s`` are medians of the rescaled
samples.  With ``--trace 1`` it runs one untraced and one traced iteration
instead and reports per-layer numbers.  A readable report goes to stdout, a
full JSON report (environment included) to ``.perfbench/``, and the last
stdout line is the result object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = {"full": 5, "tiny": 1}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# Seconds the calibration job takes on the 2-vCPU Xeon VM the benchmark was
# defined on, in its usual state; see calibrate().
CAL_REF_S = 0.035


@functools.lru_cache(maxsize=None)
def _calibration_inputs():
    import numpy as np

    lines = [f'host{i % 97} - - [01/Jul/1995:00:00:{i % 60:02d} -0400] '
             f'"GET /p/{i * 7919 % 5003}.html HTTP/1.0" 200 {i}'.encode() for i in range(8000)]
    return np.random.default_rng(0x5EED).random(400_000), lines


def _growth_strings(n: int, k: int):
    """Restricted growth strings with k labels, as tuples (the benchmark's own copy)."""
    a = [0] * n

    def rec(i: int, used: int):
        if k - used > n - i:
            return
        if i == n:
            yield tuple(a)
            return
        for label in range(min(used + 1, k)):
            a[i] = label
            yield from rec(i + 1, max(used, label + 1))

    return rec(0, 0)


def calibrate() -> float:
    """Seconds for a fixed job that runs no program code.

    The host's speed drifts by up to 1.5x over seconds to minutes.  Every timed
    sample is rescaled by CAL_REF_S over the mean of the calibration times just
    before and just after it, so timings read as seconds at the reference speed
    and runs landing in slow and fast spells of the host stay comparable.  The
    job mixes the kinds of work the program does (recursive generators of small
    tuples, bytes splitting into a dict, numpy kernels on a few MB), since the
    host's slow spells slow these kinds by different amounts.
    """
    import numpy as np

    values, lines = _calibration_inputs()
    start = perf_counter()
    last = sum(s[-1] for s in _growth_strings(9, 3))
    targets: dict[bytes, int] = {}
    for line in lines:
        target = line.split(b'"')[1].split(b" ")[1]
        targets[target] = targets.get(target, 0) + 1
    for _ in range(3):
        (np.log(values + 1.0) * np.sqrt(values)).sum()
        np.sort(values[:100_000])
    seconds = perf_counter() - start
    if last <= 0 or len(targets) != 5003:
        raise RuntimeError("calibration job computed a wrong result")
    return seconds


def import_program() -> None:
    """Import starsketch from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, SRC)
    import starsketch.cli  # noqa: F401

    found = os.path.abspath(sys.modules["starsketch"].__file__)
    if not found.startswith(SRC + os.sep):
        raise ImportError(f"starsketch was imported from {found}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": "not a git checkout",
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "--git-dir", os.path.join(ROOT, ".git"), "--work-tree", ROOT]
        try:
            env["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                               text=True, timeout=30).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30).stdout
            env["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError) as exc:
            env["git_commit"] = f"unavailable: {exc}"
    return env


def measure_setup(workload, ledger) -> tuple[float, float]:
    """One fresh interpreter: import starsketch.cli, then the workload's own preparation.

    Returns the whole set-up seconds as seen from outside and the import
    seconds inside (NaN if the interpreter failed, which is a failed operation).
    """
    code = ("import time\n_t0 = time.perf_counter()\nimport starsketch.cli\n"
            "_import_s = time.perf_counter() - _t0\n"
            f"{workload.setup_code}\nprint(_import_s)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    seconds = perf_counter() - start
    ok = ledger.check(proc.returncode == 0, f"set-up interpreter failed: {proc.stderr[-500:]}")
    return seconds, (float(proc.stdout.split()[-1]) if ok else math.nan)


def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = statistics.median(samples)
    ordered = sorted(samples)
    for p in PERCENTILES:
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = ordered[math.ceil(p / 100.0 * len(ordered)) - 1]
            break
    return out


def execute(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            corrupt: bool = False) -> dict:
    """Run one workload; returns the full report (result object under "result")."""
    from tracer import Tracer, layer_metrics, patched
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[name](seed, scale, corrupt)
    ledger = Ledger()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    cwd = os.getcwd()
    raw = {"wall_s": [], "setup_s": []}  # seconds as measured
    ref = {"wall_s": [], "setup_s": []}  # the same, at the reference host speed
    walls, setup = raw["wall_s"], raw["setup_s"]
    imports: list[float] = []
    cal: list[float] = []
    repeats = SETUP_REPEATS[scale]

    def record(key: str, seconds: float) -> None:
        cal.append(calibrate())
        raw[key].append(seconds)
        ref[key].append(seconds * CAL_REF_S / (0.5 * (cal[-2] + cal[-1])))

    def one_setup() -> None:
        seconds, import_s = measure_setup(workload, ledger)
        imports.append(import_s)
        record("setup_s", seconds)

    try:
        os.chdir(work)  # relative paths keep every output byte independent of the checkout
        workload.prepare(work)
        workload.warm_up(ledger)  # checked but untimed: first-call costs stay out of wall_s
        ledger.samples.clear()
        ledger.totals.clear()
        # The set-up samples are spread evenly over the measured window, between
        # whole iterations, so both medians see the same spells of the host.
        cal.append(calibrate())
        start = perf_counter()
        while not walls or not trace and perf_counter() - start + 0.5 * walls[-1] < seconds:
            if len(setup) < repeats and perf_counter() - start >= len(setup) * seconds / repeats:
                one_setup()
                continue
            t0 = perf_counter()
            workload.iteration(ledger, len(walls) + 1)
            record("wall_s", perf_counter() - t0)
        while len(setup) < repeats:
            one_setup()
        samples = {k: list(v) for k, v in ledger.samples.items()}
        totals = dict(ledger.totals)
        if trace:
            tracer = Tracer()
            ledger.tracer = tracer
            with patched(tracer):
                t0 = perf_counter()
                workload.iteration(ledger, len(walls) + 1)
                traced_wall = perf_counter() - t0
            ledger.tracer = None
            tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "environment": environment(),
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
        "ops_failed_ratio": ledger.failed / max(1, ledger.attempted),
        "wall_s": summary(ref["wall_s"]), "wall_raw_s": summary(walls),
        "setup_s": summary(ref["setup_s"]), "setup_raw_s": summary(setup),
        "cli.import_s": summary(imports),
        "host_speed": CAL_REF_S / statistics.median(cal),
        "samples": {"wall_raw_s": walls, "setup_raw_s": setup, "calibration_s": cal},
        "peak_rss_mb": peak_rss_mb, "digests": workload.digests[:1],
    }
    if "query_ms" in samples:  # from untraced iterations only
        report["ingest_lines_per_s"] = totals["ingest_lines"] / totals["ingest_s"]
        report["build_items_per_s"] = totals["build_items"] / totals["build_s"]
        report["query_ms"] = summary(samples["query_ms"])
    if trace:
        metrics = layer_metrics(tracer, traced_wall, walls[0])
        metrics["cli.import_s"] = (report["cli.import_s"].get("p50", math.nan), "s")
    else:
        metrics = {"setup_s": (report["setup_s"]["p50"], "s"),
                   "wall_s": (report["wall_s"]["p50"], "s"),
                   "peak_rss_mb": (peak_rss_mb, "MiB")}
    report["result"] = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report


def print_report(report: dict) -> None:
    r = report
    print(f"perfbench {r['workload']} seed={r['seed']} trace={r['trace']} scale={r['scale']}: "
          f"closed loop, 1 client, {r['wall_s']['n']} untraced iteration(s)")
    print(f"  ops_failed_ratio     {r['ops_failed_ratio']:.6g} ratio "
          f"({r['failed']} failed of {r['attempted']} attempted)")
    for failure in r["failures"]:
        print(f"    FAILED: {failure}")
    for key in ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s", "cli.import_s"):
        s = r[key]
        extra = " ".join(f"{p}={v:.6g}" for p, v in s.items() if p not in ("n", "p50"))
        print(f"  {key:<20} {s.get('p50', math.nan):.6g} s (median of {s['n']}) {extra}")
    print(f"  {'host_speed':<20} {r['host_speed']:.6g} (calibration job at {CAL_REF_S} s = 1)")
    print(f"  {'peak_rss_mb':<20} {r['peak_rss_mb']:.6g} MiB")
    if "query_ms" in r:
        q = r["query_ms"]
        print(f"  {'ingest_lines_per_s':<20} {r['ingest_lines_per_s']:.6g} lines/s")
        print(f"  {'build_items_per_s':<20} {r['build_items_per_s']:.6g} items/s")
        for p, v in q.items():
            if p != "n":
                print(f"  {'query_' + p.replace('.', '_') + '_ms':<20} {v:.6g} ms (of {q['n']} calls)")
    if r["trace"]:
        for k, m in r["result"]["metrics"].items():
            print(f"  {k:<28} {m['value']:.6g} {m['unit']}")
    print(f"  environment {json.dumps(r['environment'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("plan-allpairs", "trace-fleet", "oracle-gate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="tamper with one output before it is checked, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    report = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                     args.corrupt)
    path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
