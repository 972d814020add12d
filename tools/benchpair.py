#!/usr/bin/env python3
"""Run perfbench on a parent commit, a change and a twin of the parent, and
write a BENCH_<PR>.json.

    python3 tools/benchpair.py --parent HEAD~1 --change HEAD --seed 31,37 \\
        --rounds 10 --seconds oracle-gate=30,plan-allpairs=15,trace-fleet=15 \\
        --workdir /tmp/benchpair --out BENCH_27.json \\
        --claim oracle-gate:wall_s --note "what the change does"

Run from the repository root.  Each revision is exported with
``git archive`` into its own directory under ``--workdir``; the three
directory names (``parent``, ``change``, ``twin-p``) have one length, since a
checkout's path length has moved ``peak_rss_mb`` before.  The twin is a
second export of the parent: the gap between the parent's and the twin's
medians is the noise floor of one commit against itself.

For each workload and each seed of ``--seed`` (one seed, or several
comma-separated, none repeated) the tool runs ``perfbench/run.py`` once per
side per round for that workload's run length, rotating which side runs
first (parent, change, twin; then change, twin, parent; ...), one process at
a time, and then ``--traced`` rounds with ``--trace 1``.  ``--seconds`` is
one number for every workload, or ``workload=seconds`` entries with an
optional bare number for the rest.  Every result line is kept under
``runs``, with the raw (unscaled) ``wall_s`` and ``setup_s`` medians and the
host speed from perfbench's full report: perfbench scales both to a
reference host speed, which drifts from round to round.

The summary, per workload and seed, pairs each side's run with the parent's
run of the same round.  Per end-to-end metric it gives each side's median
and inclusive quartiles, the change's wins over the parent (ties count for
neither), the parent-twin gap, the quartiles of the change's and the twin's
raw median over the parent's (``raw_ratio``), and, for ``--claim``, whether
the change won at least nine rounds in ten by more than both the parent's
IQR and the twin gap.

The size of the environment moves a process's stack, and with it timings
(Mytkowicz et al., "Producing wrong data without doing anything obviously
wrong!", ASPLOS 2009).  So every perfbench child of round i gets its
``BENCHPAIR_ENV_PAD`` variable set to (i mod 4) x 1,024 bytes, the same for
all sides within the round, and each result line records it as ``env_pad``.
The summary gives, per metric and pad (``by_env_pad``), the median of the
change's and the twin's value minus the parent's: a difference that holds
at one pad only is the layout, not the change.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile

SIDES = ("parent", "change", "twin-p")
END_TO_END = (("wall_s", "lower"), ("setup_s", "lower"), ("peak_rss_mb", "lower"))
ENV_PAD = "BENCHPAIR_ENV_PAD"


def export(rev: str, dest: str) -> str:
    """Extract ``git archive rev`` into dest (which must not exist); returns the commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], check=True,
                            capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], check=True,
                         capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def rotation(round_index: int) -> tuple[str, ...]:
    """The order the sides run in one round: each round starts one side later."""
    shift = round_index % len(SIDES)
    return SIDES[shift:] + SIDES[:shift]


def env_pad(round_index: int) -> int:
    """Bytes of ``ENV_PAD`` for every child of one round: the pad cycles through 0..3 KiB."""
    return (round_index % 4) * 1024


def run_lengths(spec: str, workloads: list[str]) -> dict[str, float]:
    """Seconds per workload from ``--seconds``, e.g. ``8`` or
    ``oracle-gate=30,15``: named entries override the bare number."""
    default, named = None, {}
    for entry in spec.split(","):
        name, sep, value = entry.rpartition("=")
        if not sep:
            default = float(value)
        elif name in workloads:
            named[name] = float(value)
        else:
            raise ValueError(f"--seconds names {name!r}, which is not among {workloads}")
    missing = [w for w in workloads if w not in named and default is None]
    if missing:
        raise ValueError(f"--seconds gives no run length for {missing}")
    return {w: named.get(w, default) for w in workloads}


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int,
             pad: int) -> dict:
    """One perfbench run in the export at ``root``, with ``pad`` bytes of
    ``ENV_PAD`` in its environment; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=dict(os.environ, **{ENV_PAD: "x" * pad}),
                          capture_output=True, text=True, timeout=seconds * 20 + 600)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": proc.stderr[-2000:]}
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            **raw_medians(root, workload, seed, trace)}


def raw_medians(root: str, workload: str, seed: int, trace: int) -> dict:
    """The unscaled ``wall_s`` and ``setup_s`` medians and the host speed of
    the last run in the export at ``root``, from perfbench's full report."""
    path = os.path.join(root, ".perfbench", f"report-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        report = json.load(fh)
    return {"raw": {m: report[m.removesuffix("_s") + "_raw_s"]["p50"] for m in ("wall_s", "setup_s")},
            "host_speed": report["host_speed"]}


def quartiles(values: list[float]) -> dict:
    """Median, inclusive quartiles and count, rounded to 4 decimal places."""
    out = {"median": round(statistics.median(values), 4), "n": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=round(q1, 4), q3=round(q3, 4))
    return out


def columns(table: dict[int, dict[str, dict]], get) -> dict[str, dict[int, float]]:
    """{side: {round: get(row)}} over the rows of ``table`` where get(row) is not None."""
    return {s: {i: v for i, row in table.items() if s in row and (v := get(row[s])) is not None}
            for s in SIDES}


def paired(cols: dict[str, dict[int, float]], op) -> dict[str, dict[int, float]]:
    """{round: op(side's value, the parent's)} for the change and the twin, where both have one."""
    return {s: {i: op(v, cols["parent"][i]) for i, v in cols[s].items() if i in cols["parent"]}
            for s in ("change", "twin-p")}


def summarize(rows: list[dict], claim: tuple[str, str] | None = None) -> dict:
    """Summary per "workload seed S" of the untraced result rows: each has
    ``round``, ``side``, ``workload``, ``seed``, ``correct``, ``attempted``,
    ``failed`` and ``metrics`` ({name: {"value", "unit"}}), and may have
    ``env_pad`` and ``raw`` ({name: unscaled median}).  Each key's rows form
    one table, {round: {side: row}}, that feeds every paired number.
    ``claim`` is (workload, metric): that entry also gets ``claim_met``."""
    tables: dict[tuple, dict[int, dict[str, dict]]] = {}
    for r in rows:
        tables.setdefault((r["workload"], r["seed"]), {}).setdefault(r["round"], {})[r["side"]] = r
    out: dict[str, dict] = {}
    for key, table in sorted(tables.items()):
        entry: dict = {}
        for metric, better in END_TO_END:
            value = columns(table, lambda r: r["metrics"].get(metric, {}).get("value"))
            if not (value["parent"] and value["change"]):
                continue
            m = {s: quartiles(list(v.values())) for s, v in value.items() if v}
            median = {s: statistics.median(v.values()) for s, v in value.items() if v}
            sign = 1.0 if better == "lower" else -1.0
            diff = paired(value, lambda v, p: v - p)
            wins = sum(sign * d < 0 for d in diff["change"].values())
            m["change_wins"] = f"{wins}/{len(diff['change'])}"
            if "twin-p" in median:
                m["twin_gap"] = round(abs(median["twin-p"] - median["parent"]), 4)
            if claim == (key[0], metric):
                gain = sign * (median["parent"] - median["change"])
                iqr = m["parent"].get("q3", 0.0) - m["parent"].get("q1", 0.0)
                m["claim_met"] = (10 * wins >= 9 * len(diff["change"]) and gain > iqr
                                  and gain > m.get("twin_gap", 0.0))
            raw = columns(table, lambda r: r.get("raw", {}).get(metric))
            if ratios := {s: quartiles(list(v.values()))
                          for s, v in paired(raw, lambda v, p: v / p).items() if v}:
                m["raw_ratio"] = ratios
            by_pad: dict[int, dict[str, list[float]]] = {}
            for side, d in diff.items():
                for i, v in d.items():
                    if (pad := table[i]["parent"].get("env_pad")) is not None:
                        by_pad.setdefault(pad, {}).setdefault(side, []).append(v)
            if by_pad:
                m["by_env_pad"] = {p: {s: round(statistics.median(v), 4) for s, v in sides.items()}
                                   for p, sides in sorted(by_pad.items())}
            entry[metric] = m
        side_rows = {s: [row[s] for row in table.values() if s in row] for s in SIDES}
        entry["ops_failed"] = {s: f"{sum(r['failed'] for r in v)}/{sum(r['attempted'] for r in v)}"
                               for s, v in side_rows.items() if v}
        entry["correct"] = all(r["correct"] for v in side_rows.values() for r in v)
        out[f"{key[0]} seed {key[1]}"] = entry
    return out


def traced_medians(rows: list[dict]) -> dict:
    """Median of every metric of the traced rows, per "workload seed S" and side."""
    out: dict[str, dict] = {}
    for r in rows:
        key = f"{r['workload']} seed {r['seed']}"
        side = out.setdefault(key, {}).setdefault(r["side"], {})
        for name, m in r["metrics"].items():
            side.setdefault(name, []).append(m["value"])
    return {w: {s: {name: round(statistics.median(v), 6) for name, v in metrics.items()}
                for s, metrics in sides.items()} for w, sides in out.items()}


def seed_list(spec: str) -> list[int]:
    """The seeds of ``--seed``: one integer, or several comma-separated."""
    return [int(seed) for seed in spec.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="change revision")
    ap.add_argument("--workloads", default="plan-allpairs,trace-fleet,oracle-gate")
    ap.add_argument("--seed", type=seed_list, required=True,
                    help="perfbench seed, or comma-separated seeds, each run for all rounds")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", default="30",
                    help="run length: seconds, or workload=seconds entries (comma-separated)")
    ap.add_argument("--traced", type=int, default=0, help="traced rounds per workload")
    ap.add_argument("--workdir", required=True, help="a new directory for the exports")
    ap.add_argument("--out", required=True, help="the BENCH json to write")
    ap.add_argument("--claim", help="workload:metric the change claims to improve")
    ap.add_argument("--note", default="", help="what the change does")
    args = ap.parse_args(argv)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    workloads = args.workloads.split(",")
    try:
        seconds = run_lengths(args.seconds, workloads)
    except ValueError as e:
        ap.error(str(e))
    if claim and (len(claim) != 2 or claim[0] not in workloads or claim[1] not in dict(END_TO_END)):
        ap.error(f"--claim wants workload:metric of --workloads and {list(dict(END_TO_END))}")
    if len(set(args.seed)) != len(args.seed):
        ap.error(f"--seed repeats a seed: {args.seed}")

    roots = {side: os.path.join(os.path.abspath(args.workdir), side) for side in SIDES}
    commits = {side: export(args.change if side == "change" else args.parent, root)
               for side, root in roots.items()}
    runs: list[dict] = []
    for workload in workloads:
        for seed in args.seed:
            for trace, count in ((0, args.rounds), (1, args.traced)):
                for i in range(count):
                    for side in rotation(i):
                        result = run_once(roots[side], workload, seed, seconds[workload], trace,
                                          env_pad(i))
                        runs.append({"round": i, "side": side, "workload": workload,
                                     "seed": seed, "trace": trace, "env_pad": env_pad(i),
                                     **result})
                        print(json.dumps(runs[-1]), flush=True)
    import numpy

    report = {
        "change": args.note,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "command": " ".join([os.path.basename(sys.executable), "tools/benchpair.py"]
                            + (argv if argv is not None else sys.argv[1:])),
        "protocol": [
            f"parent = {commits['parent']}, change = {commits['change']}; "
            "twin-p is a second export of the parent",
            f"{args.rounds} rounds per workload at each seed of "
            + ", ".join(map(str, args.seed)) + ", --seconds "
            + ", ".join(f"{w} {s:g}" for w, s in seconds.items()) + ", "
            "trace 0, sides rotating (round i starts with side i mod 3 of parent, change, "
            f"twin-p); then {args.traced} traced rounds the same way; one process at a time",
            f"each child of round i has {ENV_PAD} set to (i mod 4) x 1024 bytes (env_pad)",
        ],
        "claimed": {"workload": claim[0], "metric": claim[1]} if claim else None,
        "summary": summarize([r for r in runs if r["trace"] == 0], claim),
        "traced": traced_medians([r for r in runs if r["trace"] == 1]),
        "notes": [],
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
