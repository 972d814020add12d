import math

import numpy as np
import pytest

from starsketch.divergence import (
    DivergenceSpec,
    SQEUCLID_BREGMAN,
    from_bregman_generator,
    get_divergence,
)
from starsketch.generators import DistributionFamily, sample_stream
from starsketch.hashing import evaluate_batch, new_family
from starsketch.histogram import (
    PartitionBudgetError,
    aggregate,
    from_stream,
    normalize,
)
from starsketch.sketch import FamilyMismatchError, sketch_stream
from starsketch.starmetric import (
    exact_star_metric,
    preservation_suite,
    reference_distance,
    sketch_star_metric,
)


def random_pair(rng, n, floor=0.02):
    p = rng.random(n) + floor
    q = rng.random(n) + floor
    return p / p.sum(), q / q.sum()


class TestExactStarMetric:
    def test_pinned_kl_three_items(self):
        # Brute force over the three 2-cell partitions of a 3-item universe;
        # the maximum separates item 1 from {2, 3}.
        r = exact_star_metric(get_divergence("kl"), [0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 2)
        assert r.value == pytest.approx(0.3219280948873623, abs=1e-12)
        assert r.argmax_label() == "{1}|{2,3}"
        assert r.argmax.tolist() == [0, 1, 1]
        assert r.evaluated_partitions == 3

    @pytest.mark.parametrize("name", ["kl", "js", "bhattacharyya", "hellinger", "tv"])
    def test_identity(self, name):
        spec = get_divergence(name)
        rng = np.random.default_rng(1)
        p, _ = random_pair(rng, 6)
        assert exact_star_metric(spec, p, p, 3).value == 0.0

    @pytest.mark.parametrize("name", ["kl", "js", "hellinger"])
    def test_k_equals_n_recovers_plain_divergence(self, name):
        spec = get_divergence(name)
        rng = np.random.default_rng(2)
        for _ in range(20):
            p, q = random_pair(rng, 5)
            r = exact_star_metric(spec, p, q, 5)
            assert r.value == pytest.approx(spec(p, q), abs=1e-12)
            assert r.evaluated_partitions == 1
            assert np.array_equal(r.argmax, np.arange(5))
            assert r.argmax_label() == "{1}|{2}|{3}|{4}|{5}"

    def test_k_above_n_shortcut(self):
        spec = get_divergence("js")
        rng = np.random.default_rng(3)
        p, q = random_pair(rng, 4)
        r = exact_star_metric(spec, p, q, 9)
        assert r.value == spec(p, q)
        assert np.array_equal(r.argmax, np.arange(4))
        assert r.argmax_label() == "{1}|{2}|{3}|{4}"
        assert r.evaluated_partitions == 1

    @pytest.mark.parametrize("name", ["kl", "js", "bhattacharyya", "hellinger", "tv"])
    def test_identity_partition_beyond_int8_labels(self, name):
        # k >= 128 labels do not fit int8; the n-cell identity partition is
        # still the one partition searched, with the plain value.
        spec = get_divergence(name)
        rng = np.random.default_rng(8)
        p, q = random_pair(rng, 200)
        for k in (200, 205):
            r = exact_star_metric(spec, p, q, k)
            assert r.value == spec(p, q)
            assert np.array_equal(r.argmax, np.arange(200))
            assert r.evaluated_partitions == 1

    @pytest.mark.parametrize("name", ["kl", "js", "bhattacharyya", "hellinger", "tv"])
    def test_single_cell_partition(self, name):
        # k = 1 has one partition, every item in cell 0, whatever n is.
        spec = get_divergence(name)
        rng = np.random.default_rng(9)
        p, q = random_pair(rng, 200)
        r = exact_star_metric(spec, p, q, 1)
        assert np.array_equal(r.argmax, np.zeros(200))
        assert r.evaluated_partitions == 1
        assert abs(r.value) <= 1e-9

    def test_monotone_in_k(self):
        spec = get_divergence("js")
        rng = np.random.default_rng(4)
        for _ in range(20):
            p, q = random_pair(rng, 8)
            values = [exact_star_metric(spec, p, q, k).value for k in (2, 3, 4)]
            assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12
            assert values[2] <= spec(p, q) + 1e-12

    def test_first_maximizer_tie_break(self):
        flat = DivergenceSpec("flat", eval_rows=lambda P, Q: np.zeros(P.shape[0]))
        r = exact_star_metric(flat, [0.2, 0.3, 0.5], [0.5, 0.3, 0.2], 2)
        assert r.argmax_label() == "{1,2}|{3}"  # first partition in RGS order

    def test_budget_exceeded(self):
        # S(14, 4) = 10,391,745 partitions, above the fixed budget of 10^7.
        rng = np.random.default_rng(5)
        p, q = random_pair(rng, 14)
        with pytest.raises(PartitionBudgetError, match="S\\(14,4\\) = 10391745"):
            exact_star_metric(get_divergence("js"), p, q, 4)

    def test_large_universe_rejected(self):
        rng = np.random.default_rng(6)
        p, q = random_pair(rng, 30)
        with pytest.raises(PartitionBudgetError):
            exact_star_metric(get_divergence("js"), p, q, 3)

    def test_infinite_values_dominate(self):
        # q vanishes on item 1, so any partition isolating it pushes kl to +inf.
        p = np.array([0.4, 0.3, 0.3])
        q = np.array([0.0, 0.5, 0.5])
        r = exact_star_metric(get_divergence("kl"), p, q, 2)
        assert r.value == math.inf

    def test_all_nan_rows_raise(self):
        nan = DivergenceSpec("nan", eval_rows=lambda P, Q: np.full(P.shape[0], np.nan))
        p = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match=r"nan.*n=3, k=2"):
            exact_star_metric(nan, p, p, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            exact_star_metric(get_divergence("js"), [1.0], [0.5, 0.5], 1)


class TestSketchStarMetric:
    def _paired_sketches(self, seed=0, t=4, k=16, n=200, m=4000):
        fam = new_family(t, k, n + 1, seed=seed)
        s1 = sketch_stream(fam, sample_stream(DistributionFamily.uniform(n), m, 10))
        s2 = sketch_stream(fam, sample_stream(DistributionFamily.zipf(n, 1.0), m, 11))
        return fam, s1, s2

    def test_identical_streams_give_zero(self):
        fam = new_family(3, 8, 100, seed=1)
        items = sample_stream(DistributionFamily.uniform(99), 1000, 5)
        a, b = sketch_stream(fam, items), sketch_stream(fam, items)
        for name in ("kl", "js", "bhattacharyya", "hellinger", "tv"):
            assert sketch_star_metric(get_divergence(name), a, b).value == 0.0

    def test_single_cell_collapse(self):
        fam = new_family(1, 1, 100, seed=2)
        a = sketch_stream(fam, [1, 2, 3])
        b = sketch_stream(fam, [4, 5, 6, 7])
        for name in ("kl", "js", "hellinger"):
            assert sketch_star_metric(get_divergence(name), a, b).value == 0.0

    @pytest.mark.parametrize("name", ["kl", "js", "bhattacharyya", "hellinger", "tv"])
    def test_result_shape(self, name):
        fam, s1, s2 = self._paired_sketches()
        spec = get_divergence(name)
        r = sketch_star_metric(spec, s1, s2)
        assert r.evaluated_partitions == 4
        assert isinstance(r.argmax, int) and 0 <= r.argmax < 4
        # the batched query equals the per-row scalar values, argmax included
        rows = [spec(s1.row_distribution(i), s2.row_distribution(i)) for i in range(4)]
        assert r.value == max(rows)
        assert r.argmax == rows.index(max(rows))

    def test_family_mismatch_rejected(self):
        fam_a = new_family(2, 8, 100, seed=3)
        fam_b = new_family(2, 8, 100, seed=4)
        a = sketch_stream(fam_a, [1, 2, 3])
        b = sketch_stream(fam_b, [1, 2, 3])
        with pytest.raises(FamilyMismatchError):
            sketch_star_metric(get_divergence("js"), a, b)

    def test_empty_sketch_rejected(self):
        fam = new_family(2, 8, 100, seed=5)
        a = sketch_stream(fam, [])
        b = sketch_stream(fam, [1])
        with pytest.raises(ValueError):
            sketch_star_metric(get_divergence("js"), a, b)

    def test_all_infinite_rows_argmax_zero(self):
        fam = new_family(3, 4, 100, seed=6)
        a = sketch_stream(fam, [1, 1, 1])
        b = sketch_stream(fam, [2, 2])
        always_inf = DivergenceSpec("inf", eval_rows=lambda P, Q: np.full(P.shape[0], math.inf))
        r = sketch_star_metric(always_inf, a, b)
        assert r.value == math.inf
        assert r.argmax == 0

    def test_row_consistency_with_histogram(self):
        fam, s1, _ = self._paired_sketches(seed=7)
        items = sample_stream(DistributionFamily.uniform(200), 4000, 10)
        hist = from_stream(items)
        for i, h in enumerate(fam.functions):
            # integer oracle: recount per cell straight from the histogram
            cells = evaluate_batch(h, hist.ids)
            expected = np.zeros(fam.k, dtype=np.uint64)
            for cell, count in zip(cells.tolist(), hist.counts.tolist()):
                expected[cell] += count
            assert np.array_equal(s1.counts[i], expected)
            # float cross-check: aggregate the histogram along the hash's cells
            agg = aggregate(normalize(hist, hist.ids), cells)
            row = s1.row_distribution(i)
            assert np.allclose(row[:agg.size], agg, atol=1e-12)
            assert not row[agg.size:].any()

    def test_sandwich(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, min(4, n) + 1))
            t = int(rng.integers(1, 5))
            fam = new_family(t, k, n + 1, seed=trial)
            i1 = sample_stream(DistributionFamily.uniform(n), 2000, 100 + trial)
            i2 = sample_stream(DistributionFamily.zipf(n, 1.5), 2000, 200 + trial)
            s1, s2 = sketch_stream(fam, i1), sketch_stream(fam, i2)
            h1, h2 = from_stream(i1), from_stream(i2)
            for name in ("kl", "js", "hellinger"):
                spec = get_divergence(name)
                est = sketch_star_metric(spec, s1, s2).value
                exact = exact_star_metric(
                    spec, normalize(h1, range(1, n + 1)), normalize(h2, range(1, n + 1)), k
                ).value
                ref = reference_distance(spec, h1, h2, range(1, n + 1))
                assert est <= exact + 1e-12
                assert exact <= ref + 1e-12


class TestReferenceDistance:
    def test_same_stream_zero(self):
        h = from_stream([1, 2, 2, 3])
        for name in ("kl", "js", "hellinger"):
            assert reference_distance(get_divergence(name), h, h) == 0.0

    def test_disjoint_js_saturates(self):
        a = from_stream([1, 1, 2])
        b = from_stream([3, 4])
        assert reference_distance(get_divergence("js"), a, b) == 1.0

    def test_pinned_uniform_vs_zipf(self):
        # Regression pin: js between seeded uniform and zipf(1) streams at the
        # synthetic experiment scale.
        u = sample_stream(DistributionFamily.uniform(4000), 200_000, 101)
        z = sample_stream(DistributionFamily.zipf(4000, 1.0), 200_000, 202)
        ref = reference_distance(
            get_divergence("js"), from_stream(u), from_stream(z),
            range(1, 4001))
        assert ref == pytest.approx(0.42709140003237717, abs=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            reference_distance(get_divergence("js"), from_stream([]), from_stream([1]))


class TestPreservationSuite:
    def test_hellinger_triangle_clean(self):
        report = preservation_suite(get_divergence("hellinger"), n=6, k=3, trials=500, seed=0)
        assert report.passed, report.summary()
        assert report.check("triangle").applicable
        assert report.check("triangle").trials == 500
        assert report.check("triangle").violations == 0
        assert not report.check("monotonicity").applicable

    def test_kl_skips_symmetry(self):
        report = preservation_suite(get_divergence("kl"), n=6, k=3, trials=60, seed=1)
        assert report.passed, report.summary()
        assert not report.check("symmetry").applicable
        assert report.check("monotonicity").applicable
        assert [c.name for c in report.checks] == [
            "non-negativity", "identity-zero", "identity-distinct", "symmetry",
            "triangle", "monotonicity", "convexity"]
        # asymmetry witness at the partition-max level
        rng = np.random.default_rng(2)
        p, q = random_pair(rng, 6)
        spec = get_divergence("kl")
        assert exact_star_metric(spec, p, q, 3).value != exact_star_metric(spec, q, p, 3).value

    def test_js_full_pass(self):
        report = preservation_suite(get_divergence("js"), n=5, k=2, trials=60, seed=3)
        assert report.passed, report.summary()
        assert report.check("symmetry").violations == 0
        assert report.check("convexity").applicable

    def test_summary_text(self):
        report = preservation_suite(get_divergence("tv"), n=4, k=2, trials=10, seed=4)
        text = report.summary()
        assert "phi=tv" in text
        assert "PASS" in text


def test_bregman_transitivity_on_orthogonal_triples():
    # Pythagorean equality B(p,r) = B(p,q) + B(q,r) for the squared-Euclidean
    # generator on triples whose increments are orthogonal; with k = n the
    # maximizing partition is shared (only the singleton partition exists), so
    # the equality survives at the partition-max level.
    spec_sq = from_bregman_generator("sq", SQEUCLID_BREGMAN)
    eps = 0.03
    r = np.array([0.25, 0.25, 0.25, 0.25])
    u = eps * np.array([1.0, -1.0, 1.0, -1.0])
    v = eps * np.array([1.0, 1.0, -1.0, -1.0])
    q = r + u
    p = q + v
    assert abs(float(u @ v)) < 1e-15
    b_pq = exact_star_metric(spec_sq, p, q, 4).value
    b_qr = exact_star_metric(spec_sq, q, r, 4).value
    b_pr = exact_star_metric(spec_sq, p, r, 4).value
    assert b_pr == pytest.approx(b_pq + b_qr, abs=1e-12)
