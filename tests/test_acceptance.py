"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 8 needs locally supplied web-server traces and skips when
they are absent (set STARSKETCH_TRACE_DIR to point at them).
"""
import math
import os
import time

import numpy as np
import pytest

from starsketch.divergence import from_bregman_generator, get_divergence
from starsketch.generators import DistributionFamily, sample_histogram, sample_stream
from starsketch.hashing import evaluate_batch, new_family
from starsketch.histogram import from_stream, normalize
from starsketch.ingest import iter_records, trace_stats
from starsketch.harness import parse_plan, run_plan, sweep_summary
from starsketch.sketch import sketch_stream
from starsketch.starmetric import (
    aggregate,
    assignment_blocks,
    exact_star_metric,
    preservation_suite,
    reference_distance,
    sketch_star_metric,
    stirling,
)

from bregman_helpers import KL_BREGMAN, SQEUCLID_BREGMAN, combine_bregman


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: PASS{suffix}")


def positive_pair(rng, n):
    p = rng.random(n) + 0.05
    q = rng.random(n) + 0.05
    return p / p.sum(), q / q.sum()


def stirling_by_formula(n, k):
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** n
               for j in range(k + 1)) // math.factorial(k)


def test_criterion_1_partition_count_identity():
    checked = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            count = sum(block.shape[0] for block in assignment_blocks(n, k))
            assert count == stirling(n, k) == stirling_by_formula(n, k), (n, k)
            checked += 1
    report(1, "partition-count identity", f"{checked} (n,k) settings, n <= 10")


def test_criterion_2_axiom_preservation():
    axioms = ("non-negativity", "identity-zero", "identity-distinct",
              "symmetry", "triangle")
    settings = [(n, k) for n in (4, 6, 8) for k in (2, 3)]
    failures = []
    for name in ("kl", "js", "bhattacharyya", "hellinger", "tv"):
        spec = get_divergence(name)
        for n, k in settings:
            rep = preservation_suite(spec, n, k, trials=200, seed=1000 + n * 10 + k)
            for check_name, check in rep.items():
                if check.violations:
                    failures.append(f"{name} n={n} k={k} {check_name}: {check.witness}")
            assert ("triangle" in rep) == (name in ("hellinger", "tv"))
            assert ("symmetry" in rep) == (name != "kl")
    assert not failures, "\n".join(failures)
    report(2, "axiom preservation",
           f"{len(settings)} settings x 5 divergences x 200 trials, axioms {axioms}")


def test_criterion_3_monotonicity_exhaustive():
    n = 8
    k_values = (2, 3)
    rng = np.random.default_rng(33)
    pairs = [positive_pair(rng, n) for _ in range(3)]
    # All five are nondecreasing functions of an f-divergence, so all five
    # are monotone under aggregation.
    specs = [get_divergence(name) for name in ("kl", "js", "tv", "hellinger", "bhattacharyya")]
    coarsenings = 0
    branch_low = branch_high = 0
    for spec in specs:
        for p, q in pairs:
            plain = spec(p, q)
            base = {k: exact_star_metric(spec, p, q, k).value for k in k_values}
            for c in range(1, n + 1):
                for block in assignment_blocks(n, c):
                    pa, qa = aggregate(p, block), aggregate(q, block)
                    # data-processing at the plain level, every coarsening
                    vals = spec.eval_rows(pa, qa)
                    assert (vals <= plain + 1e-12).all(), (spec.name, c)
                    # and at the partition-max level, both branches of c vs k
                    for i in range(block.shape[0]):
                        coarsenings += 1
                        for k in k_values:
                            if c < k:
                                branch_low += 1
                            else:
                                branch_high += 1
                            v = exact_star_metric(spec, pa[i], qa[i], k).value
                            assert v <= base[k] + 1e-12, (spec.name, c, k)
    assert branch_low > 0 and branch_high > 0
    report(3, "monotonicity / data-processing",
           f"{coarsenings} coarsenings x 2 k-values, exhaustive at n={n}; "
           f"{branch_low} low-branch and {branch_high} high-branch checks")


def test_criterion_4_convexity_and_linearity():
    lam_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    rng = np.random.default_rng(44)
    n, k = 6, 3
    quads = 0
    for name in ("kl", "js", "tv"):
        spec = get_divergence(name)
        for _ in range(334):
            p1, q1 = positive_pair(rng, n)
            p2, q2 = positive_pair(rng, n)
            d1 = exact_star_metric(spec, p1, q1, k).value
            d2 = exact_star_metric(spec, p2, q2, k).value
            for lam in lam_grid:
                mixed = exact_star_metric(
                    spec, lam * p1 + (1 - lam) * p2, lam * q1 + (1 - lam) * q2, k).value
                assert mixed <= lam * d1 + (1 - lam) * d2 + 1e-9
            quads += 1

    worst = 0.0
    b1 = from_bregman_generator("b1", KL_BREGMAN)
    b2 = from_bregman_generator("b2", SQEUCLID_BREGMAN)
    for lam in lam_grid:
        combined = from_bregman_generator(
            "b12", combine_bregman(KL_BREGMAN, SQEUCLID_BREGMAN, lam))
        for _ in range(200):
            p, q = positive_pair(rng, 8)
            lhs = combined(p, q)
            rhs = b1(p, q) + lam * b2(p, q)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-9

    # The same upper bound at the partition-max level: maximizing each side
    # separately can only grow the split sum.
    settings = [(n, k) for n in (4, 6, 8) for k in (2, 3)]
    star_trials = 0
    for n, k in settings:
        rng = np.random.default_rng(4000 + n * 10 + k)
        for _ in range(200):
            p, q = positive_pair(rng, n)
            lam = float(rng.uniform())
            combined = from_bregman_generator(
                "b12", combine_bregman(KL_BREGMAN, SQEUCLID_BREGMAN, lam))
            lhs = exact_star_metric(combined, p, q, k).value
            rhs = (exact_star_metric(b1, p, q, k).value
                   + lam * exact_star_metric(b2, p, q, k).value)
            assert lhs <= rhs + 1e-9, (n, k, lam, lhs, rhs)
            star_trials += 1
    report(4, "convexity + Bregman linearity",
           f"{quads} quadruples x {len(lam_grid)} lambdas; linearity worst gap {worst:.2e}; "
           f"star-level upper bound on {star_trials} trials over {len(settings)} (n,k)")


def test_criterion_5_sandwich_and_row_consistency():
    rng = np.random.default_rng(55)
    m = 10_000
    families = [
        DistributionFamily.uniform,
        lambda n: DistributionFamily.zipf(n, float(rng.choice([0.5, 1.0, 2.0]))),
        lambda n: DistributionFamily.pascal(n, int(rng.choice([1, 2, 3]))),
        DistributionFamily.binomial,
        DistributionFamily.poisson,
    ]
    specs = [get_divergence(name) for name in ("kl", "js", "hellinger", "bhattacharyya", "tv")]
    for trial in range(1000):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, min(4, n) + 1))
        t = int(rng.integers(1, 5))
        fam = new_family(t, k, n + 1, seed=int(rng.integers(0, 2 ** 31)))
        d1 = families[int(rng.integers(0, len(families)))](n)
        d2 = families[int(rng.integers(0, len(families)))](n)
        i1 = sample_stream(d1, m, int(rng.integers(0, 2 ** 31)))
        i2 = sample_stream(d2, m, int(rng.integers(0, 2 ** 31)))
        s1, s2 = sketch_stream(fam, i1), sketch_stream(fam, i2)
        h1, h2 = from_stream(i1), from_stream(i2)

        # integer row consistency against a direct per-cell recount
        for hist, sk in ((h1, s1), (h2, s2)):
            for i in range(fam.t):
                expected = np.zeros(k, dtype=np.uint64)
                np.add.at(expected, evaluate_batch(fam, hist.ids, i), hist.counts.astype(np.uint64))
                assert np.array_equal(sk.counts[i], expected), (trial, i)

        universe = range(1, n + 1)
        p = normalize(h1, universe)
        q = normalize(h2, universe)
        for spec in specs:
            est = sketch_star_metric(spec, s1, s2).value
            exact = exact_star_metric(spec, p, q, k).value
            ref = reference_distance(spec, h1, h2, universe)
            assert est <= exact + 1e-12, (trial, spec.name)
            assert exact <= ref + 1e-12, (trial, spec.name)
    report(5, "sandwich + row consistency",
           "1000 stream pairs, n<=10, m=10^4, k<=4, t<=4, kl/js/hellinger/bhattacharyya/tv")


def test_criterion_6_same_distribution_near_zero():
    n, m, k, t = 4000, 200_000, 200, 4
    spec = get_divergence("js")
    families = [
        DistributionFamily.uniform(n),
        DistributionFamily.zipf(n, 1.0),
        DistributionFamily.zipf(n, 2.0),
        DistributionFamily.zipf(n, 4.0),
        DistributionFamily.pascal(n, 3),
        DistributionFamily.binomial(n),
        DistributionFamily.poisson(n),
    ]
    bands = {}
    for fam_index, fam in enumerate(families):
        # calibrate the same-distribution sampling noise with the reference oracle
        calib = []
        for i in range(10):
            a = sample_histogram(fam, m, 90_000 + fam_index * 100 + 2 * i)
            b = sample_histogram(fam, m, 90_001 + fam_index * 100 + 2 * i)
            calib.append(reference_distance(spec, a, b, range(1, n + 1)))
        band = 3.0 * float(np.mean(calib))
        bands[fam.label()] = band
        assert band < 0.05, (fam.label(), band)

        for trial in range(20):
            sa = 10_000 + fam_index * 1000 + 2 * trial
            ha = sample_histogram(fam, m, sa)
            hb = sample_histogram(fam, m, sa + 1)
            ref = reference_distance(spec, ha, hb, range(1, n + 1))
            family = new_family(t, k, n + 1, seed=sa)
            est = sketch_star_metric(spec, sketch_stream(family, ha.ids, ha.counts),
                                     sketch_stream(family, hb.ids, hb.counts))
            assert ref <= band, (fam.label(), trial, ref, band)
            assert est.value <= band, (fam.label(), trial, est.value, band)
            assert est.value <= ref + 1e-12
    detail = ", ".join(f"{label}<{band:.1e}" for label, band in bands.items())
    report(6, "same-distribution near-zero", detail)


def test_criterion_7_k_and_t_sweeps():
    base = (
        "pair = uniform | pascal(r=3)\n"
        "divergences = js, bhattacharyya\n"
        "m = 200000\n"
        "n = 4000\n"
        "trials = 12\n"
        "seed = 77\n"
    )
    k_rows = run_plan(parse_plan(base + "k = 5, 25, 100, 400, 1600\nt = 4\n"))
    t_rows = run_plan(parse_plan(base + "k = 200\nt = 2, 4, 8, 16\n"))
    k_summary = sweep_summary(k_rows)
    t_summary = sweep_summary(t_rows)

    details = []
    for phi in ("js", "bhattacharyya"):
        by_k = sorted((s for s in k_summary if s.phi == phi), key=lambda s: s.k)
        assert all(s.infinite_rows == 0 for s in by_k)
        # mean |sketch - ref| non-increasing in k, one-stdev slack
        for lo, hi in zip(by_k, by_k[1:]):
            assert hi.mean_abs_error <= lo.mean_abs_error + lo.stdev_abs_error, (
                phi, lo.k, hi.k, lo.mean_abs_error, hi.mean_abs_error)
        k_effect = max(s.mean_sketch for s in by_k) - min(s.mean_sketch for s in by_k)
        by_t = sorted((s for s in t_summary if s.phi == phi), key=lambda s: s.t)
        t_effect = max(s.mean_sketch for s in by_t) - min(s.mean_sketch for s in by_t)
        assert t_effect < k_effect, (phi, t_effect, k_effect)
        details.append(f"{phi}: k-effect {k_effect:.4f} vs t-effect {t_effect:.4f}")
    report(7, "k-sweep and t-sweep behavior", "; ".join(details))


TABLE_I = {
    # trace key: (candidate file names, items, distinct, max frequency)
    "nasa-jul": (("NASA_access_log_Jul95.gz", "NASA_access_log_Jul95", "access_log_Jul95.gz"),
                 1_891_715, 81_983, 17_572),
    "nasa-aug": (("NASA_access_log_Aug95.gz", "NASA_access_log_Aug95", "access_log_Aug95.gz"),
                 1_569_898, 75_058, 6_530),
    "clarknet-aug": (("clarknet_access_log_Aug28.gz", "clarknet_access_log_Aug28"),
                     1_654_929, 90_516, 6_075),
    "clarknet-sep": (("clarknet_access_log_Sep4.gz", "clarknet_access_log_Sep4"),
                     1_673_794, 94_787, 7_239),
    "saskatchewan": (("usask_access_log.gz", "usask_access_log", "UofS_access_log.gz",
                      "UofS_access_log"),
                     2_408_625, 162_523, 52_695),
}


def _trace_dir():
    return os.environ.get(
        "STARSKETCH_TRACE_DIR",
        os.path.join(os.path.dirname(__file__), "data", "traces"),
    )


def test_criterion_8_real_trace_statistics():
    found = []
    for key, (names, items, distinct, max_freq) in TABLE_I.items():
        path = next((os.path.join(_trace_dir(), n) for n in names
                     if os.path.exists(os.path.join(_trace_dir(), n))), None)
        if path is None:
            continue
        stats, _ = trace_stats(iter_records(path))
        assert stats.items == items, (key, stats.items, items)
        for ours, published, label in ((stats.distinct, distinct, "distinct"),
                                       (stats.max_frequency, max_freq, "max_freq")):
            delta = abs(ours - published) / published
            assert delta <= 0.05, (key, label, ours, published)
            if ours != published:
                print(f"  note: {key} {label} {ours} vs published {published} "
                      f"({delta:.2%} under our item-identity rule)")
        found.append(key)
    if not found:
        pytest.skip(f"no trace files under {_trace_dir()}; "
                    "set STARSKETCH_TRACE_DIR to run this criterion")
    report(8, "real-trace statistics", f"verified {', '.join(found)}")


def test_criterion_9_throughput():
    n, m, t, k = 4000, 2_000_000, 4, 200
    items = sample_stream(DistributionFamily.uniform(n), m, 5)
    family = new_family(t, k, n + 1, seed=5)
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        sk = sketch_stream(family, items)
        elapsed = time.perf_counter() - t0
        assert sk.total == m
        best = max(best, m / elapsed)
    assert best >= 1e6, f"throughput {best:.0f} updates/s below 10^6"
    report(9, "throughput sanity", f"{best / 1e6:.1f}M updates/s at t={t}, k={k}")
