import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch.divergence import get_divergence
from starsketch.generators import DistributionFamily, _write_file, sample_stream
from starsketch.hashing import item_ids, new_family
from starsketch.sketch import (
    MAX_TOTAL,
    FamilyMismatchError,
    SketchMatrix,
    load_sketch,
    sketch_stream,
)
from starsketch.starmetric import sketch_star_metric


@pytest.fixture
def family():
    return new_family(4, 16, 1000, seed=1)


def saved_bytes(sk: SketchMatrix) -> bytes:
    """The bytes ``sk.save`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.sketch")
        sk.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(blob: bytes) -> SketchMatrix:
    """``load_sketch`` of a file holding ``blob``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.sketch")
        with open(path, "wb") as fh:
            fh.write(blob)
        return load_sketch(path)


def scalar_reference(family, items):
    """Counters built one item at a time with the exact scalar hash."""
    counts = np.zeros((family.t, family.k), dtype=np.uint64)
    for v in items:
        for i in range(family.t):
            counts[i, family.evaluate(i, int(v))] += np.uint64(1)
    return counts


class TestUpdate:
    def test_single_update_row_sums(self, family):
        s = sketch_stream(family, [7])
        assert s.total == 1
        assert (s.counts.sum(axis=1) == 1).all()

    def test_repeated_item_concentrates(self, family):
        s = sketch_stream(family, [3] * 25)
        for i in range(family.t):
            row = s.counts[i]
            assert row[family.evaluate(i, 3)] == 25
            assert row.sum() == 25

    def test_matches_scalar_reference(self, family):
        items = sample_stream(DistributionFamily.uniform(999), 500, 3)
        a = sketch_stream(family, items)
        assert np.array_equal(a.counts, scalar_reference(family, items.tolist()))
        assert a.total == 500

    @pytest.mark.parametrize("bad", [np.array([-1, 3]), [2.7, 3.2], np.array([1.0, 2.0]),
                                     [1, 2 ** 64], ["a"], [True, False], np.array([True]),
                                     [np.int64(-5), 2 ** 63]])
    def test_bad_ids_rejected(self, family, bad):
        # A bool is not an id, in a list or an array; a negative numpy
        # integer beside an id above 2^63 is not wrapped into uint64.
        with pytest.raises(ValueError, match="item ids"):
            sketch_stream(family, bad)

    @pytest.mark.parametrize("bad", [-1, 2.0, 2 ** 64, np.int64(-3), "7"])
    def test_bad_single_id_rejected(self, family, bad):
        with pytest.raises(ValueError, match="item id"):
            sketch_stream(family, [bad])

    def test_empty_batch_accepted(self, family):
        for empty in ([], np.array([], dtype=np.int64), np.empty(0, dtype=np.uint64)):
            s = sketch_stream(family, empty)
            assert s.total == 0 and s.counts.shape == (4, 16) and not s.counts.any()

    def test_integer_ids_accepted_exactly(self, family):
        ids = [0, 5, 2 ** 63 + 5, 2 ** 64 - 1]
        expected = scalar_reference(family, ids)
        # numpy reads a list mixing numpy integers and ints above 2^63 as float64.
        mixed = [np.int64(0), np.uint8(5), 2 ** 63 + 5, np.uint64(2 ** 64 - 1)]
        assert item_ids(mixed).tolist() == ids
        for batch in (ids, np.array(ids, dtype=np.uint64), mixed):
            assert np.array_equal(sketch_stream(family, batch).counts, expected)
        small = sketch_stream(family, np.array([0, 5], dtype=np.int8))
        assert np.array_equal(small.counts, sketch_stream(family, ids[:2]).counts)

    def test_uint64_ids_not_copied(self):
        # The hot path takes a uint64 array as it is, with no pass over it.
        ids = np.arange(10, dtype=np.uint64)
        assert item_ids(ids) is ids

    def test_overflow_aborts(self, family):
        # A saturated sketch: its total is the largest a file can record.
        counts = np.zeros((4, 16), dtype=np.uint64)
        counts[:, 0] = MAX_TOTAL
        full = SketchMatrix(family, counts, MAX_TOTAL)
        assert full.merge(sketch_stream(family, [])).total == MAX_TOTAL
        for items in ([1], [1, 2]):
            with pytest.raises(OverflowError):
                full.merge(sketch_stream(family, items))
            with pytest.raises(OverflowError):
                sketch_stream(family, items).merge(full)


class TestCounts:
    """The histogram form ``sketch_stream(family, ids, counts)``."""

    @settings(max_examples=60, deadline=None)
    @given(hist=st.dictionaries(st.integers(0, 2 ** 64 - 1), st.integers(0, 40), max_size=30),
           wide=st.booleans(), seed=st.integers(0, 2 ** 32))
    def test_equals_the_repeated_stream(self, hist, wide, seed):
        # wide: a universe above every table prime selects the 2^61-1 path.
        fam = new_family(3, 7, 2 ** 64 if wide else 1000, seed)
        assert (fam.p == 2 ** 61 - 1) == wide
        ids = np.array(list(hist), dtype=np.uint64)
        counts = np.array(list(hist.values()), dtype=np.int64)
        a = sketch_stream(fam, ids, counts)
        b = sketch_stream(fam, np.repeat(ids, counts))
        assert np.array_equal(a.counts, b.counts) and a.total == b.total == counts.sum()

    def test_count_above_float_precision_is_exact(self, family):
        big = 2 ** 53 + 1  # float64(big) == 2^53: float weights would lose the 1
        s = sketch_stream(family, [5, 9], np.array([big, 1], dtype=np.uint64))
        assert s.total == big + 1
        for i in range(family.t):
            expected = np.zeros(family.k, dtype=np.uint64)
            expected[family.evaluate(i, 5)] += np.uint64(big)
            expected[family.evaluate(i, 9)] += np.uint64(1)
            assert np.array_equal(s.counts[i], expected)
            assert int(s.counts[i].max()) >= big

    def test_total_above_capacity_raises(self, family):
        assert sketch_stream(family, [1, 2], [MAX_TOTAL - 1, 1]).total == MAX_TOTAL
        with pytest.raises(OverflowError):
            sketch_stream(family, [1, 2], [MAX_TOTAL, 1])
        with pytest.raises(OverflowError):  # the uint64 sum of these wraps to 0
            sketch_stream(family, [1, 2, 3], [2 ** 63, 2 ** 62, 2 ** 62])

    @pytest.mark.parametrize("bad", [np.array([-1, 3]), [2.0, 1.0], np.array([1.5, 2.5]),
                                     ["a", "b"], [1, 2 ** 64]])
    def test_bad_counts_rejected(self, family, bad):
        with pytest.raises(ValueError, match="item counts"):
            sketch_stream(family, [1, 2], bad)

    @pytest.mark.parametrize("ids, counts", [([1, 2], [3]), ([1], [1, 1]), ([1, 2], [[1, 2]]),
                                             ([[1, 2]], [[1, 2]])])
    def test_misaligned_counts_rejected(self, family, ids, counts):
        with pytest.raises(ValueError, match="one length"):
            sketch_stream(family, ids, counts)

    def test_bad_ids_rejected_with_counts(self, family):
        with pytest.raises(ValueError, match="item ids"):
            sketch_stream(family, [-1, 2], [1, 1])

    def test_zero_counts_and_repeated_ids(self, family):
        a = sketch_stream(family, [4, 7, 8, 4], [1, 0, 1, 1])
        b = sketch_stream(family, [4, 4, 8])
        assert np.array_equal(a.counts, b.counts) and a.total == b.total == 3


class TestReadOnly:
    def test_counts_cannot_be_written_in_place(self, family):
        sk = sketch_stream(family, [1, 2, 3])
        before = sk.counts.copy()
        with pytest.raises(ValueError, match="read-only"):
            sk.counts[0, 0] += 1
        assert np.array_equal(sk.counts, before)
        # merging, querying and the file round trip still work
        merged = sk.merge(sk)
        assert np.array_equal(merged.counts, 2 * before) and merged.total == 6
        assert sketch_star_metric(get_divergence("js"), sk, merged).value == 0.0
        loaded = load_bytes(saved_bytes(sk))
        assert np.array_equal(loaded.counts, before) and saved_bytes(loaded) == saved_bytes(sk)

    def test_view_neither_copies_nor_freezes_the_given_array(self, family):
        counts = np.zeros((family.t, family.k), dtype=np.uint64)
        counts[:, 0] = 2
        sk = SketchMatrix(family, counts, 2)
        assert sk.counts.base is counts and counts.flags.writeable
        assert not sk.counts.flags.writeable

    def test_constructor_checks_rows_against_total(self, family):
        # A wrong total would skew every row distribution and so the estimate.
        a = sketch_stream(family, [1, 2, 3, 4, 5, 6])
        with pytest.raises(ValueError, match="row sums disagree with total at row 0"):
            SketchMatrix(family, a.counts, 3)

    def test_constructor_checks_total_against_capacity(self):
        # Rows summing exactly to 2^64 would write a total no file can record.
        with pytest.raises(OverflowError, match="exceeds the counter capacity"):
            SketchMatrix(new_family(1, 2, 10, 1), np.array([[2 ** 63] * 2], np.uint64), 2 ** 64)

    @pytest.mark.parametrize("counts", [np.zeros((1, 3), np.uint64), np.zeros((4, 16), np.int64),
                                        np.zeros(64, np.uint64), [[0] * 16] * 4])
    def test_constructor_checks_shape_and_dtype(self, family, counts):
        # A (1, 3) matrix under a 4 x 16 family would write a file read back as truncated.
        with pytest.raises(ValueError, match=r"counts must be a \(4, 16\) uint64 array"):
            SketchMatrix(family, counts, 0)


class TestMerge:
    def test_merge_with_empty_is_identity(self, family):
        s = sketch_stream(family, [1, 2, 3, 3])
        merged = s.merge(sketch_stream(family, []))
        assert np.array_equal(merged.counts, s.counts)
        assert merged.total == s.total

    def test_chunked_equals_whole(self, family):
        items = sample_stream(DistributionFamily.zipf(999, 1.0), 10_000, 7)
        whole = sketch_stream(family, items)
        parts = [sketch_stream(family, chunk) for chunk in np.array_split(items, 7)]
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.merge(p)
        assert np.array_equal(merged.counts, whole.counts)
        assert merged.total == whole.total

    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=60), st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_split_merges_to_whole(self, items, data):
        # Linearity: the sketch of a stream is the merge of the sketches of
        # any split of it into consecutive chunks, empty and one-item chunks
        # included.
        family = new_family(3, 8, 2 ** 64, seed=2)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=8)))
        bounds = [0, *cuts, len(items)]
        merged = sketch_stream(family, [])
        for lo, hi in zip(bounds, bounds[1:]):
            merged = merged.merge(sketch_stream(family, items[lo:hi]))
            assert (merged.counts.sum(axis=1) == merged.total).all()
        whole = sketch_stream(family, items)
        assert np.array_equal(merged.counts, whole.counts)
        assert merged.total == whole.total == len(items)
        singles = sketch_stream(family, [])
        for v in items:
            singles = singles.merge(sketch_stream(family, [v]))
        assert np.array_equal(singles.counts, whole.counts)

    def test_commutative(self, family):
        a = sketch_stream(family, [1, 2, 3])
        b = sketch_stream(family, [4, 5])
        ab, ba = a.merge(b), b.merge(a)
        assert np.array_equal(ab.counts, ba.counts)

    def test_mismatched_families_rejected(self):
        a = sketch_stream(new_family(2, 8, 100, seed=1), [1])
        b = sketch_stream(new_family(2, 8, 100, seed=2), [1])
        with pytest.raises(FamilyMismatchError):
            a.merge(b)


class TestRowDistribution:
    def test_one_hot_for_single_item(self, family):
        s = sketch_stream(family, [42])
        for i in range(4):
            row = s.row_distribution(i)
            assert row.sum() == 1.0
            assert (row > 0).sum() == 1

    def test_single_cell(self):
        fam = new_family(2, 1, 100, seed=5)
        s = sketch_stream(fam, [1, 5, 9])
        assert s.row_distribution(0).tolist() == [1.0]

    def test_rows_sum_to_one(self, family):
        s = sketch_stream(family, sample_stream(DistributionFamily.uniform(999), 1000, 9))
        for i in range(4):
            assert s.row_distribution(i).sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self, family):
        with pytest.raises(ValueError):
            sketch_stream(family, []).row_distribution(0)
        s = sketch_stream(family, [1])
        with pytest.raises(IndexError):
            s.row_distribution(4)


class TestSerialization:
    def test_roundtrip(self, tmp_path, family):
        s = sketch_stream(family, sample_stream(DistributionFamily.uniform(999), 2000, 11))
        path = tmp_path / "s.sketch"
        s.save(str(path))
        loaded = load_sketch(str(path))
        assert loaded.total == s.total
        assert np.array_equal(loaded.counts, s.counts)
        assert loaded.family == s.family
        assert saved_bytes(loaded) == path.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        with pytest.raises(ValueError, match="not a sketch"):
            load_bytes(b"nonsense here")

    def test_rejects_tampered_counters(self, family):
        s = sketch_stream(family, [1, 2, 3])
        blob = bytearray(saved_bytes(s))
        blob[-1] ^= 0xFF
        with pytest.raises(ValueError, match="row sums"):
            load_bytes(bytes(blob))

    def test_load_error_names_the_file(self, tmp_path, family):
        # Two files reach the distance verb; the error must say which is bad.
        path = tmp_path / "z.sketch"
        blob = bytearray(saved_bytes(sketch_stream(family, [1, 2, 3])))
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: corrupt sketch file"):
            load_sketch(str(path))

    @pytest.mark.parametrize("first", ["4 16 1009", "4 16 1009 1 7"])
    def test_family_header_needs_four_integers(self, tmp_path, family, first):
        s = sketch_stream(family, [1, 2, 3])
        header = "\n".join([first] + s.family.header().splitlines()[1:]) + "\n"
        path = tmp_path / "h.sketch"
        _write_file(str(path), b"SKMX", header, struct.pack("<IIQ", s.t, s.k, s.total), s.counts)
        message = "family header's first line must hold four integers: t k P seed"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_sketch(str(path))

    def test_rejects_row_sum_that_wraps(self, family):
        # Row 0 = [2^64-1, 6, 0, ...] sums to 5 only modulo 2^64.
        s = sketch_stream(family, [1, 2, 3, 4, 5])
        blob = bytearray(saved_bytes(s))
        row0 = len(blob) - 8 * s.t * s.k
        blob[row0:row0 + 8 * s.k] = np.array([2 ** 64 - 1, 6] + [0] * (s.k - 2), "<u8").tobytes()
        with pytest.raises(ValueError, match="row sums disagree with total at row 0"):
            load_bytes(bytes(blob))

    def test_rejects_truncation(self, family):
        blob = saved_bytes(sketch_stream(family, [1, 2, 3]))
        for cut in range(4, len(blob)):
            with pytest.raises(ValueError, match="truncated"):
                load_bytes(blob[:cut])

    def test_rejects_trailing_bytes(self, family):
        blob = saved_bytes(sketch_stream(family, [1, 2, 3]))
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_bytes(blob + b"\0")

    def test_length_checked_against_header_dimensions(self, family):
        # Dimensions announcing far more counters than the data holds are
        # rejected from the header alone, before any counter is read.
        s = sketch_stream(family, [1, 2, 3])
        blob = bytearray(saved_bytes(s))
        dims_at = len(blob) - 8 * s.t * s.k - 16
        blob[dims_at:dims_at + 8] = struct.pack("<II", 1 << 20, 1 << 20)
        with pytest.raises(ValueError, match="truncated sketch file: .* needs"):
            load_bytes(bytes(blob))

    def test_rejects_dimensions_disagreeing_with_header(self, family):
        # 2 x 32 counters fill the length of 4 x 16, but the family hashes into 4 x 16.
        s = sketch_stream(family, [1, 2, 3])
        blob = bytearray(saved_bytes(s))
        dims_at = len(blob) - 8 * s.t * s.k - 16
        blob[dims_at:dims_at + 8] = struct.pack("<II", 2, 32)
        with pytest.raises(ValueError, match="dimensions disagree with the family header"):
            load_bytes(bytes(blob))

    def test_rejects_non_table_prime(self):
        # A well-formed file whose family header names a prime outside the
        # table, for which batch hashing would overflow.
        p = 2 ** 40 + 15
        header = f"1 2 {p} 0\n{p - 2} 5\n".encode()
        blob = (struct.pack("<4sBI", b"SKMX", 1, len(header)) + header
                + struct.pack("<IIQ", 1, 2, 3) + np.array([1, 2], dtype="<u8").tobytes())
        with pytest.raises(ValueError, match="PRIME_TABLE"):
            load_bytes(blob)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_escape_value_error(self, data):
        blob = saved_bytes(sketch_stream(new_family(2, 3, 100, seed=1), [1, 2, 3]))
        raw = data.draw(st.one_of(
            st.binary(max_size=120),
            st.tuples(st.integers(0, len(blob)), st.binary(max_size=12)).map(
                lambda cut: blob[:cut[0]] + cut[1]),
            st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(
                lambda flip: blob[:flip[0]] + bytes([blob[flip[0]] ^ flip[1]])
                + blob[flip[0] + 1:]),
        ))
        try:
            sk = load_bytes(raw)
        except ValueError:
            return
        assert sk.counts.shape == (sk.t, sk.k)
        assert (sk.counts.sum(axis=1) == sk.total).all()

    def test_size_bound(self, tmp_path):
        # Concrete form of the t*(k log m + log n) space promise.
        for t, k in ((4, 200), (2, 50), (8, 1000)):
            fam = new_family(t, k, 10 ** 6, seed=3)
            path = tmp_path / f"{t}x{k}.sketch"
            sketch_stream(fam, [1, 2, 3]).save(str(path))
            size = os.path.getsize(path)
            assert size <= 3 * t * (8 * k + 16) + 64


def test_order_invariance(family):
    items = sample_stream(DistributionFamily.zipf(999, 2.0), 5000, 13)
    shuffled = items.copy()
    np.random.default_rng(0).shuffle(shuffled)
    a = sketch_stream(family, items)
    b = sketch_stream(family, shuffled)
    assert np.array_equal(a.counts, b.counts)


def test_table_scale_row_sums(family):
    # 1.9M-item ingest keeps every row sum pinned to the stream length.
    items = sample_stream(DistributionFamily.uniform(999), 1_891_715, 17)
    s = sketch_stream(family, items)
    assert s.total == 1_891_715
    assert (s.counts.sum(axis=1) == 1_891_715).all()
