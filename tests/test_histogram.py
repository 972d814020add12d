import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch import starmetric
from starsketch.divergence import get_divergence
from starsketch.generators import DistributionFamily, sample_stream
from starsketch.histogram import (
    EmpiricalDistribution,
    as_distribution,
    dump_histogram,
    from_stream,
    normalize,
)
from starsketch.starmetric import (
    PartitionBudgetError,
    aggregate,
    assignment_blocks,
    exact_star_metric,
    reference_distance,
    stirling,
)


def stirling_by_formula(n, k):
    # Independent oracle: the alternating-sum formula, exact integers.
    return sum((-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)) // math.factorial(k)


def reference_rgs(n, k):
    # Independent oracle: every labeling of n items with labels 0..k-1, kept
    # when it uses exactly k labels and each label first appears after the
    # previous one (a restricted growth string).  product() runs in
    # lexicographic order, so the kept strings are in that order too.
    for labels in itertools.product(range(k), repeat=n):
        firsts = [labels.index(j) for j in range(k) if j in labels]
        if len(firsts) == k and firsts == sorted(firsts):
            yield labels


def all_rows(n, k):
    return np.concatenate(list(assignment_blocks(n, k)))


class TestEmpiricalDistribution:
    def test_empty_stream(self):
        d = from_stream([])
        assert d.total == 0
        assert d.ids.dtype == np.uint64 and d.ids.size == 0
        assert d.counts.dtype == np.int64 and d.counts.size == 0

    def test_counts(self):
        d = from_stream([7, 5, 5])
        assert d.ids.dtype == np.uint64 and d.ids.tolist() == [5, 7]
        assert d.counts.dtype == np.int64 and d.counts.tolist() == [2, 1]
        assert d.total == 3
        assert d.distinct == 2

    def test_ids_above_2_53_stay_apart(self):
        ids = np.array([2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64 - 1], dtype=np.uint64)
        d = from_stream(ids)
        assert d.ids.tolist() == [2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1]
        assert normalize(d, [2 ** 64 - 1, 2 ** 63 + 1, 2 ** 63]).tolist() == [0.5, 0.25, 0.25]

    @pytest.mark.parametrize("bad", [[-1], [2.5], ["x"], [-1, 2.5, "x"],
                                     np.array([-1, 3]), np.array([2.5])])
    def test_rejects_invalid_ids(self, bad):
        with pytest.raises(ValueError):
            from_stream(bad)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):  # unsorted
            EmpiricalDistribution([3, 1], [1, 1])
        with pytest.raises(ValueError):  # duplicate
            EmpiricalDistribution([1, 1], [1, 1])
        with pytest.raises(ValueError, match="counts must be integers, got dtype float64"):
            EmpiricalDistribution([1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):  # nonpositive count
            EmpiricalDistribution([1], [0])
        with pytest.raises(ValueError):  # negative count
            EmpiricalDistribution([3, 4], [-1, 3])
        with pytest.raises(ValueError):  # negative id
            EmpiricalDistribution([-4], [2])
        with pytest.raises(ValueError):  # misaligned
            EmpiricalDistribution([1, 2], [1])

    def test_arrays_are_read_only_views(self):
        ids = np.array([2, 5], dtype=np.uint64)
        counts = np.array([3, 1], dtype=np.int64)
        d = EmpiricalDistribution(ids, counts)
        for stored, given_array in ((d.ids, ids), (d.counts, counts)):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] += 1
            # a view of the caller's array, which keeps its own flags
            assert stored.base is given_array and given_array.flags.writeable
        assert d.total == 4 and normalize(d, [2, 5]).tolist() == [0.75, 0.25]

    def test_total_is_exact_beyond_int64(self):
        d = EmpiricalDistribution([1, 2], [2 ** 62, 2 ** 62])
        assert d.total == 2 ** 63
        assert normalize(d, [1, 2]).tolist() == [0.5, 0.5]
        (ref,) = reference_distance([get_divergence("kl")], d, from_stream([1, 2, 2]))
        assert math.isfinite(ref)

    def test_rejects_count_beyond_int64(self):
        with pytest.raises(ValueError, match="int64"):
            EmpiricalDistribution([1, 2], np.array([1, 2 ** 63], dtype=np.uint64))


class TestNormalize:
    def test_single_item(self):
        assert normalize(from_stream([1]), [1]).tolist() == [1.0]

    def test_direct_division(self):
        v = normalize(from_stream([5, 5, 7]), [5, 7])
        assert v.tolist() == [2 / 3, 1 / 3]

    def test_absent_item_gets_zero(self):
        v = normalize(from_stream([1, 2, 3, 3]), [1, 2, 3, 4])
        assert v.tolist() == [0.25, 0.25, 0.5, 0.0]

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            normalize(from_stream([]), [1])

    def test_rejects_invalid_universe(self):
        with pytest.raises(ValueError):
            normalize(from_stream([1]), [-1, 1])

    @pytest.mark.parametrize("stream", [
        [1, 2, 2, 5, 5, 5],
        [0, 2, 3, 3, 6, 7, 2 ** 63, 2 ** 64 - 1],  # ids outside 1..5 are dropped
        [2, 4, 4],  # the first item is missing
        [9, 9],  # no id inside 1..5
    ])
    @pytest.mark.parametrize("as_given", [
        lambda n: np.arange(1, n + 1, dtype=np.uint64), lambda n: list(range(1, n + 1)),
        lambda n: range(1, n + 1), lambda n: np.arange(1, n + 1)])
    def test_dense_universe_matches_the_search(self, stream, as_given):
        # The universe 1..n is scattered into; the same universe with one
        # more id in front, then cut off, takes the search; both have equal bits.
        d = from_stream(np.array(stream, dtype=np.uint64))
        for n in (1, 5):
            searched = normalize(d, [n + 1] + list(range(1, n + 1)))[1:]
            assert normalize(d, as_given(n)).tobytes() == searched.tobytes()

    def test_dense_universe_at_experiment_scale(self):
        d = from_stream(sample_stream(DistributionFamily.zipf(4000, 1.0), 200_000, 7))
        u = np.arange(1, 4001, dtype=np.uint64)
        searched = normalize(d, np.concatenate([[4001], u]).astype(np.uint64))[1:]
        assert normalize(d, u).tobytes() == searched.tobytes()
        assert normalize(d, u[::-1]).tobytes() == searched[::-1].tobytes()

    @pytest.mark.parametrize("universe, expected", [
        ([3, 2, 1], [0.5, 0.25, 0.25]),  # 1..n reversed
        ([1, 2, 4], [0.25, 0.25, 0.0]),  # 1..n with a gap
        ([1, 3, 3], [0.25, 0.5, 0.5]),  # ends at n but repeats an id
        ([2, 2, 3], [0.25, 0.25, 0.5]),
    ])
    def test_other_universes_take_the_search(self, universe, expected):
        assert normalize(from_stream([1, 2, 3, 3]), universe).tolist() == expected

    def test_dense_universe_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize an empty stream"):
            normalize(from_stream([]), range(1, 4))


class TestAsDistribution:
    def test_accepts_normalized(self):
        assert as_distribution([0.5, 0.5]).dtype == np.float64

    def test_accepts_negative_zero(self):
        v = as_distribution([1.0, -0.0])
        assert math.copysign(1.0, v[1]) == -1.0

    REJECTED = [
        ([0.5, 0.4], r"sums to np.float64\(0.9\), not 1"),
        ([0.5, -0.5, 1.0], "finite and nonnegative"),
        ([], "nonempty 1-D"),
        ([np.nan, 1.0], "finite and nonnegative"),
        ([-1e-300, 1.0], "finite and nonnegative"),
        ([[0.5, 0.5]], "nonempty 1-D"),
        (0.5, "nonempty 1-D"),
        ([1.0, np.nan], "finite and nonnegative"),
        ([np.inf, 1.0], "finite and nonnegative"),
        ([1.0, -np.inf], "finite and nonnegative"),
    ]

    @pytest.mark.parametrize("bad, message", REJECTED, ids=[f"bad{i}" for i in range(len(REJECTED))])
    def test_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            as_distribution(bad)


class TestAggregate:
    def test_two_cell_sums(self):
        p = aggregate([0.1, 0.2, 0.3, 0.4], np.array([0, 1, 0, 1]))
        assert np.allclose(p, [0.4, 0.6], atol=1e-15)

    def test_singletons_is_permutation(self):
        v = np.array([0.2, 0.5, 0.3])
        assert aggregate(v, np.array([1, 0, 2])).tolist() == [0.5, 0.2, 0.3]
        assert aggregate(v, np.arange(3)).tolist() == v.tolist()

    def test_pair_cell(self):
        out = aggregate([0.5, 0.3, 0.2], np.array([0, 1, 1]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_block_rows_match_single_rows(self):
        rng = np.random.default_rng(0)
        v = rng.random(7)
        block = all_rows(7, 3)
        out = aggregate(v, block)
        assert out.shape == (block.shape[0], 3)
        for i in (0, 1, 100, block.shape[0] - 1):
            assert out[i].tobytes() == aggregate(v, block[i]).tobytes()

    @pytest.mark.parametrize("labels", [np.array([2, 0, 1, 0, 2, 1, 0]), all_rows(7, 3)],
                             ids=["labels", "block"])
    def test_stack_rows_match_single_vectors(self, labels):
        rng = np.random.default_rng(1)
        vs = rng.random((3, 7))
        vs[0, 2] = vs[1, :3] = 0.0
        out = aggregate(vs, labels)
        assert out.shape == (3,) + labels.shape[:-1] + (3,)
        for row, v in zip(out, vs):
            assert row.tobytes() == aggregate(v, labels).tobytes()

    def test_sums_in_index_order(self):
        # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit.
        out = aggregate([0.1, 0.2, 0.3], np.zeros(3, dtype=np.int8))
        assert out.tolist() == [0.1 + 0.2 + 0.3]
        stacked = aggregate([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]], np.zeros(3, dtype=np.int8))
        assert stacked.tolist() == [[0.1 + 0.2 + 0.3], [0.3 + 0.2 + 0.1]]

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate([0.5, 0.5], np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            aggregate([0.5, 0.5], np.array([0, -1]))
        with pytest.raises(ValueError):
            aggregate([0.5, 0.5], np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            aggregate([], np.array([], dtype=np.int8))
        with pytest.raises(ValueError):
            aggregate([[0.5, 0.5]] * 2, np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            aggregate(np.zeros((2, 2, 2)), np.array([0, 1]))

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=50, deadline=None)
    def test_mass_preserved(self, n, data):
        k = data.draw(st.integers(1, n))
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
        v = rng.random(n)
        v /= v.sum()
        out = aggregate(v, np.array(labels))
        assert out.size == max(labels) + 1
        assert abs(out.sum() - v.sum()) <= 1e-12
        stacked = aggregate(np.stack((v, v[::-1])), np.array(labels))
        assert stacked[0].tobytes() == out.tobytes()
        assert abs(stacked[1].sum() - v.sum()) <= 1e-12


class TestStirling:
    def test_boundaries(self):
        for n in range(1, 12):
            assert stirling(n, 1) == 1
            assert stirling(n, n) == 1
        assert stirling(0, 0) == 1

    def test_known_values(self):
        assert stirling(4, 2) == 7
        assert stirling(10, 3) == 9330
        assert stirling(12, 4) == 611501

    def test_matches_formula(self):
        for n in range(0, 15):
            for k in range(0, n + 1):
                assert stirling(n, k) == stirling_by_formula(n, k)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            stirling(3, 4)
        with pytest.raises(ValueError):
            stirling(27, 5)
        with pytest.raises(ValueError):
            stirling(4, -1)


class TestEnumeration:
    def test_three_into_two(self):
        assert all_rows(3, 2).tolist() == [[0, 0, 1], [0, 1, 0], [0, 1, 1]]

    def test_singleton_case(self):
        assert np.array_equal(all_rows(4, 4), [np.arange(4)])

    def test_four_into_two_has_seven(self):
        assert all_rows(4, 2).shape == (7, 4)

    def test_counts_match_stirling(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                rows = all_rows(n, k)
                assert rows.shape == (stirling(n, k), n)
                assert rows.shape[0] == stirling_by_formula(n, k)

    def test_every_partition_is_valid(self):
        # Each row uses exactly the labels 0..k-1, each introduced in turn.
        for n in range(1, 8):
            for k in range(1, n + 1):
                rows = all_rows(n, k)
                assert rows.dtype == np.int8
                assert (rows.max(axis=1) == k - 1).all()
                assert (rows[:, 0] == 0).all()
                assert (np.diff(np.maximum.accumulate(rows, axis=1), axis=1) <= 1).all()

    def test_no_duplicates(self):
        rows = all_rows(7, 3)
        assert len({r.tobytes() for r in rows}) == rows.shape[0] == stirling(7, 3)

    def test_budget_exceeded(self):
        # S(14, 4) = 10,391,745 > 10^7; S(14, 3) = 788,970 is within budget.
        p = np.full(14, 1 / 14)
        with pytest.raises(PartitionBudgetError):
            exact_star_metric(get_divergence("tv"), p, p, 4)
        assert exact_star_metric(get_divergence("tv"), p, p, 3).evaluated_partitions == 788_970

    def test_rgs_lexicographic(self):
        rows = all_rows(5, 3).tolist()
        assert rows == sorted(rows)
        assert rows[0] == [0, 0, 0, 1, 2]

    def test_blocks_agree_with_generator(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert all_rows(n, k).tolist() == [list(r) for r in reference_rgs(n, k)]

    @pytest.mark.parametrize("block_size", [1, 2, 7, 64, 4096])
    def test_block_size_keeps_rows(self, block_size, monkeypatch):
        # The block size is a module constant; any value must leave the
        # concatenated rows unchanged.
        monkeypatch.setattr(starmetric, "_BLOCK_ROWS", block_size)
        blocks = list(assignment_blocks(8, 3))
        assert all(0 < b.shape[0] <= block_size for b in blocks)
        assert np.concatenate(blocks).tolist() == [list(r) for r in reference_rgs(8, 3)]

    def test_default_blocks_keep_rows(self):
        # S(10, 4) = 34,105 rows span several blocks of at most 4096 rows.
        blocks = list(assignment_blocks(10, 4))
        assert len(blocks) > 1
        assert all(0 < b.shape[0] <= 4096 for b in blocks)
        rows = np.concatenate(blocks)
        assert rows.shape == (stirling(10, 4), 10)
        assert len({r.tobytes() for r in rows}) == rows.shape[0]

    @pytest.mark.parametrize("n,k", [(128, 128), (140, 128)])
    def test_labels_beyond_int8(self, n, k):
        # k - 1 >= 127 labels: the first rows are the lexicographically
        # smallest restricted growth strings, all labels in first-use order.
        rows = next(assignment_blocks(n, k))
        assert (rows.max(axis=1) == k - 1).all()
        assert (np.diff(np.maximum.accumulate(rows, axis=1), axis=1) <= 1).all()
        assert rows[0].tolist() == [0] * (n - k + 1) + list(range(1, k))

    @pytest.mark.parametrize("n,k,dtype", [(1, 1, np.int8), (5, 1, np.int8), (5, 5, np.int8),
                                           (300, 1, np.int8), (127, 127, np.int8),
                                           (300, 300, np.int64)])
    def test_one_partition_is_one_row(self, n, k, dtype):
        # k = 1 and k = n each have exactly one partition: all items in cell
        # 0, or each item alone.
        blocks = list(assignment_blocks(n, k))
        assert len(blocks) == 1 and blocks[0].dtype == dtype
        expected = np.zeros(n) if k == 1 else np.arange(n)
        assert np.array_equal(blocks[0], expected[None, :])

    @pytest.mark.parametrize("n,k", [(3, 0), (3, 4), (0, 0)])
    def test_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            next(assignment_blocks(n, k))


def test_histogram_csv_roundtrip(tmp_path):
    d = from_stream([3, 3, 3, 9, 12, 12])
    path = tmp_path / "hist.csv"
    dump_histogram(d, str(path))
    assert path.read_text() == "# total=6\nitem,count\n3,3\n9,1\n12,2\n"

