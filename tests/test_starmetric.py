import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch import divergence, starmetric
from starsketch.divergence import (
    DivergenceSpec,
    available,
    from_bregman_generator,
    get_divergence,
    smoothed,
)
from starsketch.generators import DistributionFamily, sample_histogram, sample_stream
from starsketch.harness import load_plan
from starsketch.hashing import evaluate_batch, new_family
from starsketch.histogram import from_stream, normalize
from starsketch.sketch import FamilyMismatchError, sketch_stream
from starsketch.starmetric import (
    PartitionBudgetError,
    PropertyCheck,
    StarMetricResult,
    aggregate,
    assignment_blocks,
    exact_star_metric,
    preservation_suite,
    reference_distance,
    sketch_star_metric,
    stirling,
)

from bregman_helpers import SQEUCLID_BREGMAN


def random_pair(rng, n, floor=0.02):
    p = rng.random(n) + floor
    q = rng.random(n) + floor
    return p / p.sum(), q / q.sum()


@pytest.fixture
def fresh_tables():
    """An empty label-table cache, emptied again when the test ends."""
    starmetric._tables.clear()
    yield
    starmetric._tables.clear()


def streamed_star_metric(phi, p, q, k):
    """The oracle as a plain loop: every block straight from the enumerator
    and one aggregate per vector, each evaluated as a row-major copy.
    Returns (value, argmax label array)."""
    best, best_row = -math.inf, None
    for block in assignment_blocks(p.size, k):
        vals = phi.eval_rows(np.ascontiguousarray(aggregate(p, block)),
                             np.ascontiguousarray(aggregate(q, block)))
        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best, best_row = float(vals[i]), block[i].copy()
    return best, best_row


def tied_pair(n):
    """Dyadic p and q over n >= 9 items, zero on items 9..n-1, whose tv is
    exact on every partition: it is 0.5 wherever no cell mixes items with
    p > q and p < q, and items 1 and 2 differ in sign, so the first such
    partition follows the S(n - 1, k) that put them in one cell."""
    p, q = np.zeros(n), np.zeros(n)
    p[:8], q[:8] = [5, 1] * 4, [1, 5] * 4
    p[-1] = q[-1] = 8
    return p / 32, q / 32


def counted_enumerations(monkeypatch):
    """The (n, k) of every enumeration the oracle runs, in order."""
    enumerated = []

    def counted(n, k):
        enumerated.append((n, k))  # runs when the first block is taken
        yield from assignment_blocks(n, k)

    monkeypatch.setattr(starmetric, "assignment_blocks", counted)
    return enumerated


def oracle_inputs(rng, n):
    """A positive pair, a pair with zeros on both sides, and a pair with ties."""
    p, q = random_pair(rng, n)
    zp, zq = random_pair(rng, n)
    zp[0] = zq[n - 1] = 0.0
    tied = np.full(n, 1.0 / n)
    ramp = np.arange(1, n + 1, dtype=np.float64)
    return [(p, q), (zp / zp.sum(), zq / zq.sum()), (tied, ramp / ramp.sum())]


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

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, True, False])
    def test_non_integral_k_rejected(self, k):
        # Rejected before any n is derived, with k named: a float k used to
        # fail inside stirling or pass as the integer it equals.
        p = [0.25, 0.25, 0.25, 0.25]
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
            exact_star_metric(get_divergence("js"), p, p, k)

    def test_k_below_one_rejected(self):
        p = [0.25, 0.25, 0.25, 0.25]
        with pytest.raises(ValueError, match="k must be >= 1"):
            exact_star_metric(get_divergence("js"), p, p, 0)

    def test_numpy_integer_k_accepted(self):
        spec = get_divergence("kl")
        p, q = [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]
        r = exact_star_metric(spec, p, q, np.int64(2))
        plain = exact_star_metric(spec, p, q, 2)
        assert r.value == plain.value
        assert r.argmax.tolist() == plain.argmax.tolist() == [0, 1, 1]
        assert r.evaluated_partitions == plain.evaluated_partitions == 3

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

    def test_budget_is_inclusive(self, monkeypatch):
        # Exactly PARTITION_BUDGET partitions are enumerated; one more is not.
        rng = np.random.default_rng(7)
        p, q = random_pair(rng, 6)
        monkeypatch.setattr(starmetric, "PARTITION_BUDGET", stirling(6, 3))
        assert exact_star_metric(get_divergence("js"), p, q, 3).evaluated_partitions == 90
        monkeypatch.setattr(starmetric, "PARTITION_BUDGET", stirling(6, 3) - 1)
        with pytest.raises(PartitionBudgetError, match="S\\(6,3\\) = 90"):
            exact_star_metric(get_divergence("js"), p, q, 3)

    def test_partition_count_is_measured(self, monkeypatch, fresh_tables):
        # An enumerator that drops its last block must show in the count.
        yielded = []

        def all_but_last(n, k):
            blocks = list(assignment_blocks(n, k))[:-1]
            yielded.extend(b.shape[0] for b in blocks)
            yield from blocks

        monkeypatch.setattr(starmetric, "assignment_blocks", all_but_last)
        rng = np.random.default_rng(9)
        p, q = random_pair(rng, 10)
        r = exact_star_metric(get_divergence("js"), p, q, 4)
        assert len(yielded) > 1
        assert r.evaluated_partitions == sum(yielded) < stirling(10, 4)

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(3, 10) for k in range(2, n)]
                             + [(11, 3), (12, 3), (10, 8), (10, 9), (11, 8), (12, 10)])
    def test_bit_identical_to_streamed_oracle(self, n, k, fresh_tables):
        rng = np.random.default_rng(100 * n + k)
        for p, q in oracle_inputs(rng, n):
            for name in ("kl", "js", "bhattacharyya", "hellinger", "tv"):
                spec = get_divergence(name)
                value, row = streamed_star_metric(spec, p, q, k)
                # The first call builds the table, the second reuses it.
                starmetric._tables.clear()
                for _ in range(2):
                    r = exact_star_metric(spec, p, q, k)
                    assert r.value == value, (name, p, q)
                    assert r.argmax_label() == StarMetricResult(value, row, 0).argmax_label()
                    assert r.evaluated_partitions == stirling(n, k)
                    # The argmax is the caller's own array, not a view of the table.
                    assert r.argmax.flags.writeable
                    r.argmax[:] = 0

    @pytest.mark.parametrize("n, k", [(9, 4), (10, 5), (11, 8)])
    def test_bit_identical_in_blocks_of_any_size(self, n, k, monkeypatch, fresh_tables):
        # A trie kept at the default block size is evaluated in blocks of the
        # size set at call time: one row, seven, and all rows but one.
        rng = np.random.default_rng(10 * n + k)
        zp, zq = random_pair(rng, n)
        zp[0] = zq[n - 1] = 0.0  # kl is +inf where item n has a cell alone
        cases = [("kl", zp / zp.sum(), zq / zq.sum()), ("tv", *tied_pair(n))]
        expected = []
        for name, p, q in cases:
            value, row = streamed_star_metric(get_divergence(name), p, q, k)
            expected.append((value, StarMetricResult(value, row, 0).argmax_label()))
        assert expected[0][0] == math.inf and expected[1][0] == 0.5
        # The tie's first maximizer (the last row above) puts items 1 and 2
        # apart, so it follows the S(n - 1, k) > 7 rows that put them
        # together: past the first block of 1 and of 7.
        assert row[1] != row[0] and stirling(n - 1, k) > 7
        exact_star_metric(get_divergence("js"), *cases[0][1:], k)
        assert isinstance(starmetric._tables[n, k], starmetric._PrefixTrie)
        total = stirling(n, k)
        for rows in (1, 7, total - 1):
            monkeypatch.setattr(starmetric, "_BLOCK_ROWS", rows)
            for (name, p, q), (value, label) in zip(cases, expected):
                sizes = []
                spec = get_divergence(name)
                counted = dataclasses.replace(spec, eval=None, eval_rows=lambda P, Q, f=spec.eval_rows:
                                              sizes.append(P.shape[0]) or f(P, Q))
                r = exact_star_metric(counted, p, q, k)
                assert r.value == value and r.argmax_label() == label, (name, rows)
                assert r.evaluated_partitions == total
                assert sizes == [rows] * (total // rows) + [total % rows] * (total % rows > 0)

    def test_tables_above_the_bound_stream(self, monkeypatch, fresh_tables):
        # With the bound at 0 every enumeration streams and no table is kept.
        monkeypatch.setattr(starmetric, "_TABLE_BYTES", 0)
        rng = np.random.default_rng(12)
        p, q = random_pair(rng, 9)
        for name in ("kl", "js", "bhattacharyya", "hellinger", "tv"):
            spec = get_divergence(name)
            value, row = streamed_star_metric(spec, p, q, 4)
            r = exact_star_metric(spec, p, q, 4)
            assert r.value == value and np.array_equal(r.argmax, row)
            assert r.evaluated_partitions == stirling(9, 4)
        assert len(starmetric._tables) == 0

    def test_recent_tables_kept_within_twice_the_bound(self, monkeypatch, fresh_tables):
        enumerated = counted_enumerations(monkeypatch)
        js = get_divergence("js")
        rng = np.random.default_rng(13)
        pairs = {n: random_pair(rng, n) for n in range(8, 13)}
        # The benchmark's five (n, k) have tables of 1,157,469 bytes: all stay
        # kept.
        five = [(10, 4), (11, 3), (10, 5), (8, 3), (9, 4)]
        for _ in range(2):
            for n, k in five:
                exact_star_metric(js, *pairs[n], k)
        assert enumerated == five
        assert list(starmetric._tables) == five
        # (12, 3) has a table of 1,038,312 bytes, so the least recently used (10, 4)
        # goes; then (11, 3) is used again and (10, 4) comes back in place of
        # (10, 5), now the least recently used.
        for n, k in [(12, 3), (11, 3), (10, 4)]:
            exact_star_metric(js, *pairs[n], k)
        assert enumerated == five + [(12, 3), (10, 4)]
        assert list(starmetric._tables) == [(8, 3), (9, 4), (12, 3), (11, 3), (10, 4)]
        # Their tables take 1,770,531 bytes; kept as the (8, 3) table and
        # four tries, they take 1,178,538.
        kept = sum(t.nbytes for t in starmetric._tables.values())
        assert kept == 1_178_538 < 1_770_531 <= 2 * starmetric._TABLE_BYTES

    def test_kept_tries_are_smaller_than_their_tables(self, fresh_tables):
        # (8, 3) is one block and keeps its table; the other four keep tries.
        js = get_divergence("js")
        rng = np.random.default_rng(15)
        for n, k in [(10, 4), (11, 3), (10, 5), (8, 3), (9, 4)]:
            exact_star_metric(js, *random_pair(rng, n), k)
            kept = starmetric._tables[n, k]
            if (n, k) == (8, 3):
                assert isinstance(kept, np.ndarray) and kept.nbytes == stirling(n, k) * n
            else:
                assert isinstance(kept, starmetric._PrefixTrie)
                assert kept.nbytes < stirling(n, k) * n, (n, k, kept.nbytes)

    def test_table_above_the_bound_is_never_kept(self, monkeypatch, fresh_tables):
        enumerated = counted_enumerations(monkeypatch)
        js = get_divergence("js")
        p, q = random_pair(np.random.default_rng(14), 12)
        table_bytes = stirling(12, 3) * 12
        monkeypatch.setattr(starmetric, "_TABLE_BYTES", table_bytes - 1)
        for _ in range(2):
            exact_star_metric(js, p, q, 3)
        assert enumerated == [(12, 3)] * 2 and not starmetric._tables
        monkeypatch.setattr(starmetric, "_TABLE_BYTES", table_bytes)
        for _ in range(2):
            exact_star_metric(js, p, q, 3)
        assert enumerated == [(12, 3)] * 3 and list(starmetric._tables) == [(12, 3)]

    def test_largest_universe_enumerated(self, fresh_tables):
        # n = MAX_STIRLING_N is the largest universe the oracle enumerates:
        # S(26, 25) = C(26, 2) = 325 partitions; one more item is rejected.
        rng = np.random.default_rng(26)
        p, q = random_pair(rng, 26)
        js = get_divergence("js")
        r = exact_star_metric(js, p, q, 25)
        assert r.evaluated_partitions == 325
        value, argmax = streamed_star_metric(js, p, q, 25)
        assert r.value == value and np.array_equal(r.argmax, argmax)
        p, q = random_pair(rng, 27)
        with pytest.raises(PartitionBudgetError, match="n=27 > 26"):
            exact_star_metric(js, p, q, 26)

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
        with pytest.raises(ValueError, match="empty"):
            sketch_star_metric(get_divergence("js"), b, a)

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
        for i in range(fam.t):
            # integer oracle: recount per cell straight from the histogram
            cells = evaluate_batch(fam, hist.ids, i)
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
                (ref,) = reference_distance([spec], h1, h2, range(1, n + 1))
                assert est <= exact + 1e-12
                assert exact <= ref + 1e-12


# The specs registered on import, before any test registers its own, and the
# stream pairs of the shipped plans, all over n = 4000.
REGISTERED_SPECS = [get_divergence(name) for name in available()]
SHIPPED_PAIRS = sorted(
    {pair for path in sorted((pathlib.Path(__file__).parents[1] / "plans").glob("*.plan"))
     for pair in load_plan(str(path)).pairs},
    key=lambda pair: (pair[0].label(), pair[1].label()))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sketch_estimate_keeps_its_spec_claims_at_shipped_sizes(data):
    # For one hash family the estimate is max_i phi(a_i/|A|, b_i/|B|), so
    # non-negativity, d(A, A) = 0 and each property the spec claims hold row
    # by row: symmetry, the triangle inequality (max of sums <= sum of maxes),
    # and joint convexity through merge, whose rows are lam*a/|A| +
    # (1 - lam)*a'/|A'| with lam = |A|/(|A| + |A'|) when |B| = |A|, |B'| = |A'|.
    (a_src, b_src), (a2_src, b2_src) = (data.draw(st.sampled_from(SHIPPED_PAIRS)) for _ in range(2))
    c_src = data.draw(st.sampled_from([src for pair in SHIPPED_PAIRS for src in pair]))
    k, t = data.draw(st.integers(1, 256)), data.draw(st.integers(1, 8))
    m_a, m_b, m_c, m_2 = (data.draw(st.integers(1_000, 50_000)) for _ in range(4))
    seed = data.draw(st.integers(0, 2 ** 32))
    family = new_family(t, k, a_src.n + 1, seed)
    streams = [(a_src, m_a), (b_src, m_b), (c_src, m_c), (b_src, m_a), (a2_src, m_2), (b2_src, m_2)]
    A, B, C, B_a, A2, B2 = (
        sketch_stream(family, h.ids, h.counts)
        for h in (sample_histogram(src, m, seed + i) for i, (src, m) in enumerate(streams)))
    lam = m_a / (m_a + m_2)
    for spec in REGISTERED_SPECS:
        d = lambda x, y: sketch_star_metric(spec, x, y).value
        where = f"{spec.name} k={k} t={t} seed={seed}"
        ab = d(A, B)
        assert ab >= -1e-12, where
        assert abs(d(A, A)) <= 1e-9, where
        if spec.symmetric:
            ba = d(B, A)
            assert ab == ba or abs(ab - ba) <= 1e-12, (where, ab, ba)
        if spec.triangle:
            assert ab <= d(A, C) + d(C, B) + 1e-12, where
        if spec.f_div:
            merged = d(A.merge(A2), B_a.merge(B2))
            assert merged <= lam * d(A, B_a) + (1 - lam) * d(A2, B2) + 1e-12, (where, merged)


class TestReferenceDistance:
    def test_same_stream_zero(self):
        h = from_stream([1, 2, 2, 3])
        for name in ("kl", "js", "hellinger"):
            assert reference_distance([get_divergence(name)], h, h) == [0.0]

    def test_disjoint_js_saturates(self):
        a = from_stream([1, 1, 2])
        b = from_stream([3, 4])
        assert reference_distance([get_divergence("js")], a, b) == [1.0]

    def test_pinned_uniform_vs_zipf(self):
        # Regression pin: js between seeded uniform and zipf(1) streams at the
        # synthetic experiment scale.
        u = sample_stream(DistributionFamily.uniform(4000), 200_000, 101)
        z = sample_stream(DistributionFamily.zipf(4000, 1.0), 200_000, 202)
        (ref,) = reference_distance(
            [get_divergence("js")], from_stream(u), from_stream(z),
            range(1, 4001))
        assert ref == pytest.approx(0.42709140003237717, abs=1e-12)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            reference_distance([get_divergence("js")], from_stream([]), from_stream([1]))

    @pytest.mark.parametrize("universe", [None, range(1, 6)])
    def test_many_specs_equal_each_alone(self, universe):
        # q misses item 1, so kl is +inf; the values keep the specs' order.
        specs = [get_divergence(name) for name in ("kl", "js", "tv", "hellinger", "bhattacharyya")]
        a, b = from_stream([1, 2, 2, 3, 5, 5, 5]), from_stream([2, 3, 3, 4, 5])
        values = reference_distance(specs, a, b, universe)
        assert values == [reference_distance([spec], a, b, universe)[0] for spec in specs]
        assert values[0] == math.inf
        assert all(math.isfinite(v) and v > 0 for v in values[1:])
        assert reference_distance([], a, b, universe) == []

    @pytest.mark.parametrize("count", [1, 5])
    def test_validates_each_vector_once(self, monkeypatch, count):
        checked = []
        check = divergence.as_distribution
        monkeypatch.setattr(divergence, "as_distribution", lambda v: checked.append(v) or check(v))
        specs = [get_divergence(name) for name in ("kl", "js", "tv", "hellinger", "bhattacharyya")]
        a, b = from_stream([1, 2, 2, 3]), from_stream([2, 3, 3])
        assert len(reference_distance(specs[:count], a, b, range(1, 4))) == count
        assert len(checked) == 2

    def test_universe_missing_support_rejected(self):
        # Item 3 is outside the universe, so p sums to 0.75: the error of the
        # scalar form on the same vectors.
        a, b, u = from_stream([1, 2, 2, 3]), from_stream([1, 2]), range(1, 3)
        js = get_divergence("js")
        with pytest.raises(ValueError, match=r"sums to .*, not 1") as scalar:
            js(normalize(a, u), normalize(b, u))
        with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
            reference_distance([js, get_divergence("kl")], a, b, u)

    def test_specs_see_read_only_vectors(self):
        def rewrite(P, Q):
            P[:, 0] = 1.0
            return np.zeros(P.shape[0])

        spec = DivergenceSpec("rewrite", rewrite)
        with pytest.raises(ValueError, match="read-only"):
            reference_distance([spec, get_divergence("js")], from_stream([1, 2]), from_stream([2]))


def violations(report):
    return {name: (c.violations, c.witness) for name, c in report.items() if c.violations}


class TestPreservationSuite:
    def test_hellinger_triangle_clean(self):
        report = preservation_suite(get_divergence("hellinger"), n=6, k=3, trials=500, seed=0)
        assert violations(report) == {}
        assert "triangle" in report
        assert report["triangle"].trials == 500
        assert report["triangle"].violations == 0
        assert "monotonicity" not in report

    def test_kl_skips_symmetry(self):
        report = preservation_suite(get_divergence("kl"), n=6, k=3, trials=60, seed=1)
        assert violations(report) == {}
        assert "symmetry" not in report
        assert "monotonicity" in report
        assert list(report) == [
            "non-negativity", "identity-zero", "identity-distinct",
            "monotonicity", "convexity"]
        # asymmetry witness at the partition-max level
        rng = np.random.default_rng(2)
        p, q = random_pair(rng, 6)
        spec = get_divergence("kl")
        assert exact_star_metric(spec, p, q, 3).value != exact_star_metric(spec, q, p, 3).value

    def test_js_full_pass(self):
        report = preservation_suite(get_divergence("js"), n=5, k=2, trials=60, seed=3)
        assert violations(report) == {}
        assert report["symmetry"].violations == 0
        assert "convexity" in report

    def test_smoothed_tv_drops_monotonicity(self):
        # tv at alpha = 0.5 breaks monotonicity on these draws (7 of 120), so
        # the smoothed spec must not claim it; the triangle check still runs.
        report = preservation_suite(smoothed(get_divergence("tv"), 0.5), n=6, k=3, trials=60, seed=3)
        assert violations(report) == {}
        assert "monotonicity" not in report
        assert "triangle" in report

    def test_witness_is_formatted_only_for_a_violation(self):
        check = PropertyCheck()
        check.record(True, lambda: 1 / 0)
        check.record(False, lambda: "w")
        check.record(False, lambda: 1 / 0)
        assert (check.trials, check.violations, check.witness) == (3, 2, "w")

    def test_false_claims_are_caught(self):
        # kl claiming symmetry and the triangle inequality it lacks: the suite
        # runs every check and catches both lies on its seeded draws.
        kl = get_divergence("kl")
        liar = DivergenceSpec("kl-liar", kl.eval_rows, symmetric=True, triangle=True, f_div=True)
        report = preservation_suite(liar, n=5, k=2, trials=40, seed=7)
        assert list(report) == [
            "non-negativity", "identity-zero", "identity-distinct", "symmetry",
            "triangle", "monotonicity", "convexity"]
        assert {name: c.trials for name, c in report.items()} == {
            "non-negativity": 40, "identity-zero": 40, "identity-distinct": 40,
            "symmetry": 40, "triangle": 40, "monotonicity": 80, "convexity": 40}
        assert violations(report) == {
            "symmetry": (40, "forward=0.9329913504048779 backward=0.426269901639151"),
            "triangle": (8, "d(p,q)=0.9329913504048779 d(p,r)=0.2984689283486463 "
                            "d(r,q)=0.32920740947125565"),
        }


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
