"""Command-line interface.

Verbs: generate, ingest, sketch build, distance, stats, experiment run,
experiment summarize.  See the README for worked examples.
"""
from __future__ import annotations

import argparse
import csv
import sys

from . import __version__
from .divergence import available, get_divergence, smoothed
from .generators import parse_family, read_stream, sample_stream, write_stream
from .harness import load_plan, read_results, run_plan_to_dir, sweep_summary, write_csv, write_summary
from .hashing import new_family
from .histogram import dump_histogram, from_stream
from .ingest import frequency_ranks, iter_records, trace_stats
from .sketch import load_sketch, sketch_stream
from .starmetric import sketch_star_metric


def _cmd_generate(args) -> int:
    fam = parse_family(args.family, args.n)
    items = sample_stream(fam, args.m, args.seed)
    descriptor = f"{fam.label()} n={args.n} m={args.m} seed={args.seed}"
    write_stream(args.out, items, args.n, descriptor)
    print(f"wrote {args.m} items from {fam.label()} to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    stats, ids = trace_stats(iter_records(args.infile))
    write_stream(args.out, ids, 0, f"clf:{args.infile}")
    if args.stats:
        write_csv(args.stats, ["metric", "value"], [
            ["items", stats.items], ["distinct", stats.distinct],
            ["max_frequency", stats.max_frequency], ["malformed", stats.malformed]])
    print(f"ingested {stats.items} items ({stats.distinct} distinct, "
          f"{stats.malformed} malformed lines) into {args.out}")
    return 0


def _cmd_sketch_build(args) -> int:
    items, n, descriptor = read_stream(args.infile)
    bound = (n + 1) if n > 0 else 2 ** 64
    if args.universe_bound is not None:
        bound = args.universe_bound
    family = new_family(args.t, args.k, bound, args.seed)
    sk = sketch_stream(family, items)
    sk.save(args.out)
    print(f"sketched {sk.total} items ({descriptor}) into {args.out} "
          f"[t={args.t} k={args.k} seed={args.seed}]")
    return 0


def _cmd_distance(args) -> int:
    a = load_sketch(args.a)
    b = load_sketch(args.b)
    spec = smoothed(get_divergence(args.phi), args.alpha)
    result = sketch_star_metric(spec, a, b)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["phi", "mode", "k", "t", "value", "argmax", "seed", "alpha_smoothing"])
    writer.writerow([args.phi, "approximate", a.k, a.t, repr(result.value),
                     result.argmax_label(), a.family.seed, repr(args.alpha)])
    return 0


def _cmd_stats(args) -> int:
    items, _, descriptor = read_stream(args.infile)
    dist = from_stream(items)
    print(f"{descriptor}: {dist.total} items, {dist.distinct} distinct")
    if args.histogram:
        dump_histogram(dist, args.histogram)
    if args.ranks:
        write_csv(args.ranks, ["rank", "frequency"], frequency_ranks(dist.counts))
    return 0


def _cmd_experiment_run(args) -> int:
    plan = load_plan(args.plan)
    with open(args.plan) as fh:
        plan_text = fh.read()
    rows = run_plan_to_dir(plan, args.out_dir, plan_text)
    print(f"wrote {len(rows)} rows to {args.out_dir}/results.csv")
    return 0


def _cmd_experiment_summarize(args) -> int:
    rows = read_results(args.rows)
    write_summary(sweep_summary(rows), args.out)
    print(f"summarized {len(rows)} rows into {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsketch",
        description="Summarize data streams into counter-matrix sketches and "
                    "compute divergences between streams from the sketches alone.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic stream to a file")
    g.add_argument("--family", required=True,
                   help="plan-style descriptor: uniform, zipf(alpha=1), pascal(r=3), "
                        "binomial(p=0.5) or poisson(lam=7)")
    g.add_argument("--n", type=int, required=True, help="universe size")
    g.add_argument("--m", type=int, required=True, help="stream length")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    i = sub.add_parser("ingest", help="convert a Common Log Format log into a stream file")
    i.add_argument("--in", dest="infile", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--stats", default=None, help="write metric,value CSV here")
    i.set_defaults(func=_cmd_ingest)

    sk = sub.add_parser("sketch", help="sketch operations")
    sk_sub = sk.add_subparsers(dest="sketch_command", required=True)
    sb = sk_sub.add_parser("build", help="build a sketch file from a stream file")
    sb.add_argument("--in", dest="infile", required=True)
    sb.add_argument("--k", type=int, required=True, help="cells per row")
    sb.add_argument("--t", type=int, required=True, help="rows (hash functions)")
    sb.add_argument("--seed", type=int, required=True,
                    help="family seed; both sketches of a comparison must share it")
    sb.add_argument("--universe-bound", type=int, default=None)
    sb.add_argument("--out", required=True)
    sb.set_defaults(func=_cmd_sketch_build)

    d = sub.add_parser("distance", help="divergence between two sketch files")
    d.add_argument("--phi", required=True, help=f"one of {', '.join(available())}")
    d.add_argument("--a", required=True)
    d.add_argument("--b", required=True)
    d.add_argument("--alpha", type=float, default=0.0, help="additive smoothing")
    d.set_defaults(func=_cmd_distance)

    st = sub.add_parser("stats", help="histogram and rank statistics of a stream file")
    st.add_argument("--in", dest="infile", required=True)
    st.add_argument("--histogram", default=None, help="item,count CSV output")
    st.add_argument("--ranks", default=None, help="rank,frequency CSV output")
    st.set_defaults(func=_cmd_stats)

    e = sub.add_parser("experiment", help="experiment plans")
    e_sub = e.add_subparsers(dest="experiment_command", required=True)
    er = e_sub.add_parser("run", help="run a plan file")
    er.add_argument("--plan", required=True)
    er.add_argument("--out-dir", required=True)
    er.set_defaults(func=_cmd_experiment_run)
    es = e_sub.add_parser("summarize", help="regroup a results.csv into a summary")
    es.add_argument("--rows", required=True)
    es.add_argument("--out", required=True)
    es.set_defaults(func=_cmd_experiment_summarize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
