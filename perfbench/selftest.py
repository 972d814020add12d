#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

For every workload, at tiny scale and seed 1, it checks that:

* an untraced run is correct and prints every end-to-end metric of
  BENCHMARK.json with its unit, and a traced run every per-layer metric;
* a run whose output was deliberately corrupted (a sketch value above its
  reference, a tampered sketch file, an oracle value above its reference)
  reports failed operations and ``correct: false``;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.

Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--scale", "tiny"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(bench(*base, "--trace", str(trace)))
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, {res['attempted']} ops, none failed")
            missing = [m["name"] for m in spec[key]
                       if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                       or not math.isfinite(res["metrics"][m["name"]]["value"])]
            expect(not missing, f"{workload} trace={trace}: every {key} metric with its unit "
                                f"(missing or wrong: {missing})")
        res = result_of(bench(*base, "--trace", "0", "--corrupt"))
        expect(not res["correct"] and res["failed"] > 0,
               f"{workload}: a corrupted output gives ops_failed_ratio "
               f"{res['failed']}/{res['attempted']} > 0")

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", spec["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without the program: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
