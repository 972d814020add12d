import hashlib
import math
import os
import re
import struct
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch.generators import (
    DistributionFamily,
    _lgamma,
    parse_family,
    pmf,
    read_stream,
    sample_histogram,
    sample_stream,
    write_stream,
)
from starsketch.histogram import from_stream

ALL_FAMILIES = [
    DistributionFamily.uniform(100),
    DistributionFamily.zipf(100, 1.0),
    DistributionFamily.zipf(100, 4.0),
    DistributionFamily.pascal(100, 3),
    DistributionFamily.binomial(100),
    DistributionFamily.poisson(100),
]


class TestPmf:
    def test_uniform(self):
        assert pmf(DistributionFamily.uniform(4)).tolist() == [0.25] * 4

    def test_zipf_harmonic(self):
        v = pmf(DistributionFamily.zipf(3, 1.0))
        assert np.allclose(v, [6 / 11, 3 / 11, 2 / 11], atol=1e-15)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
    def test_sums_to_one(self, fam):
        v = pmf(fam)
        assert v.shape == (100,)
        assert (v >= 0).all()
        assert abs(v.sum() - 1.0) <= 1e-12

    def test_pascal_default_coupling(self):
        # p = n / (2r + n) keeps the untruncated mean at exactly n/2 for any r,
        # the invariant behind the r sweeps.
        n = 4000
        for r in (1, 3, 5, 10, 20):
            fam = DistributionFamily.pascal(n, r)
            assert fam.p == pytest.approx(n / (2 * r + n))
            # failure-counting negative binomial: mean r * p / (1 - p)
            assert r * fam.p / (1.0 - fam.p) == pytest.approx(n / 2, rel=1e-12)

    def test_pascal_r_bounded(self):
        assert DistributionFamily.pascal(50, 2 ** 20).r == 2 ** 20
        with pytest.raises(ValueError, match=r"pascal requires r <= 2\^20 = 1048576, got 1048577"):
            DistributionFamily.pascal(50, 2 ** 20 + 1)

    def test_pascal_p_below_float_resolution(self):
        # 1 - p rounds to 1, so the trailing-event weight is taken as log p:
        # one event is ~3e-300 likely and two underflow to zero.
        assert pmf(DistributionFamily.pascal(5, 3, 1e-300)).tolist() == [1, 0, 0, 0, 0]

    def test_poisson_default_rate(self):
        fam = DistributionFamily.poisson(4000)
        assert fam.lam == 2000
        v = pmf(fam)
        mean = float((np.arange(1, 4001) * v).sum())
        assert mean == pytest.approx(2000.0, abs=0.01)

    def test_binomial_support_is_whole_universe(self):
        v = pmf(DistributionFamily.binomial(10, 0.5))
        assert (v > 0).all()
        mean = float((np.arange(1, 11) * v).sum())
        assert mean == pytest.approx((10 - 1) * 0.5 + 1, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="universe size n must be >= 1"):
            DistributionFamily.uniform(0)
        with pytest.raises(ValueError):
            DistributionFamily.zipf(10, 0.0)
        with pytest.raises(ValueError):
            DistributionFamily.pascal(10, 0)
        with pytest.raises(ValueError):
            DistributionFamily("pascal", 10, r=3, p=1.5)
        with pytest.raises(ValueError):
            DistributionFamily.binomial(10, 1.5)
        with pytest.raises(ValueError):
            DistributionFamily.poisson(10, -1.0)
        with pytest.raises(ValueError):
            DistributionFamily("weibull", 10)

    @pytest.mark.parametrize("kind,params", [
        ("zipf", {"alpha": math.nan}), ("zipf", {"alpha": math.inf}),
        ("pascal", {"r": math.nan, "p": 0.5}), ("pascal", {"r": math.inf, "p": 0.5}),
        ("binomial", {"p": math.nan}),
        ("poisson", {"lam": math.nan}), ("poisson", {"lam": math.inf}),
        # A label such as pascal(r=2.5) would not parse back.
        ("pascal", {"r": 2.5, "p": 0.5}), ("pascal", {"r": True, "p": 0.5}),
        # The default p is derived from r, so r is checked first.
        ("pascal", {"r": None}), ("pascal", {"r": "x"}),
    ])
    def test_non_finite_parameters_rejected(self, kind, params):
        # A NaN pmf would make sample_stream return a stream of item 1 only.
        with pytest.raises(ValueError, match=f"{kind} requires"):
            DistributionFamily(kind, 10, **params)
        with pytest.raises(ValueError, match=f"{kind} requires"):
            getattr(DistributionFamily, kind)(10, **params)

    @pytest.mark.parametrize("kind,params", [
        ("uniform", {}), ("zipf", {"alpha": 1.0}), ("binomial", {"p": 0.5}),
    ])
    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4)])
    def test_non_integral_universe_rejected(self, kind, params, n):
        # A float or bool n constructed; pmf then raised a TypeError (uniform)
        # or silently built a pmf over ceil(n) items (zipf at n = 2.5 over 3).
        with pytest.raises(ValueError, match=f"^universe size n must be an integer, "
                                             f"got {re.escape(repr(n))}$"):
            DistributionFamily(kind, n, **params)

    def test_numpy_integer_universe_accepted(self):
        assert DistributionFamily.zipf(np.int64(50), 1.0) == DistributionFamily.zipf(50, 1.0)

    def test_no_mass_inside_universe_rejected(self):
        # A rate far above n puts every weight inside 1..n below the float range.
        with pytest.raises(ValueError, match=r"poisson\(lam=1000\): no probability mass inside"):
            pmf(DistributionFamily.poisson(10, 1000))


LOG_SPACE_FAMILIES = [
    DistributionFamily.pascal(4000, 1),
    DistributionFamily.pascal(4000, 3),
    DistributionFamily.pascal(4000, 10),
    DistributionFamily.pascal(100, 3, 0.3),
    DistributionFamily.binomial(4000),
    DistributionFamily.binomial(4000, 0.3),
    DistributionFamily.binomial(100, 1e-3),
    DistributionFamily.poisson(4000),
    DistributionFamily.poisson(100, 3.0),
]


class TestLogSpacePmf:
    @pytest.mark.parametrize("fam", LOG_SPACE_FAMILIES, ids=lambda f: f"{f.label()}-n{f.n}")
    def test_matches_scipy(self, fam):
        stats = pytest.importorskip("scipy.stats")
        n = fam.n
        if fam.kind == "pascal":
            w = stats.nbinom.pmf(np.arange(1, n + 1), fam.r, 1.0 - fam.p)
        elif fam.kind == "binomial":
            w = stats.binom.pmf(np.arange(0, n), n - 1, fam.p)
        else:
            w = stats.poisson.pmf(np.arange(1, n + 1), fam.lam)
        expected = w / w.sum()
        got = pmf(fam)
        big = expected > 1e-300
        assert np.all(np.abs(got[big] - expected[big]) <= 1e-10 * expected[big])
        assert np.all(got[~big] <= 1e-299)

    def test_lgamma_is_math_lgamma(self):
        # The log-gamma arguments of the pascal (x + r, x + 1), binomial and
        # poisson (x + 1) pmfs at n = 4000 keep math.lgamma's exact bits.
        n = 4000
        x = np.arange(1, n + 1, dtype=np.float64)
        args = (x + DistributionFamily.pascal(n, 3).r, x + 1.0, np.arange(0, n, dtype=np.float64) + 1.0)
        for a in args:
            got = _lgamma(a)
            assert got.dtype == np.float64
            assert got.tolist() == [math.lgamma(v) for v in a.tolist()]

    def test_binomial_edges_exact(self):
        # 0 * log 0 = 0: a certain outcome keeps all of the mass, exactly.
        assert pmf(DistributionFamily.binomial(5, 0.0)).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert pmf(DistributionFamily.binomial(5, 1.0)).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert pmf(DistributionFamily.binomial(1, 0.5)).tolist() == [1.0]
        assert set(sample_stream(DistributionFamily.binomial(5, 0.0), 1000, 1).tolist()) == {1}
        assert set(sample_stream(DistributionFamily.binomial(5, 1.0), 1000, 1).tolist()) == {5}

    # Draws pinned while the pmfs still came from scipy.stats: identical bytes
    # show that the log-space pmfs move no inverse-CDF sample at the shipped
    # plans' scale.
    @pytest.mark.parametrize("fam,digest", [
        (DistributionFamily.pascal(4000, 3),
         "569cd95d6bf2a95df4f029e327fc6b9bc4aeaad66571d2f47a05caa732b572f0"),
        (DistributionFamily.binomial(4000),
         "a589aa9ed9f4e63bbefe2c003628b4fcb4f9f3cacb45f61fdc4c8510707c4899"),
        (DistributionFamily.poisson(4000),
         "0d549fb151070b76a69b6eb2072d95d5b752382854f04012d10625b0a6909991"),
    ], ids=["pascal", "binomial", "poisson"])
    def test_pinned_streams(self, fam, digest):
        items = sample_stream(fam, 200_000, seed=1)
        assert hashlib.sha256(items.tobytes()).hexdigest() == digest


class TestSampling:
    def test_empty(self):
        assert sample_stream(DistributionFamily.uniform(10), 0, 1).size == 0

    def test_deterministic(self):
        fam = DistributionFamily.zipf(500, 1.0)
        a = sample_stream(fam, 10_000, 42)
        b = sample_stream(fam, 10_000, 42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_stream(fam, 10_000, 43))

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
    def test_support_in_universe(self, fam):
        items = sample_stream(fam, 20_000, 3)
        assert items.min() >= 1
        assert items.max() <= 100

    def test_uniform_concentration(self):
        # each item frequency within 5 sigma of m/n
        n, m = 100, 1_000_000
        items = sample_stream(DistributionFamily.uniform(n), m, 7)
        counts = np.bincount(items.astype(int), minlength=n + 1)[1:]
        expected = m / n
        sigma = np.sqrt(m * (1 / n) * (1 - 1 / n))
        assert np.abs(counts - expected).max() <= 5 * sigma

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f.label())
    def test_goodness_of_fit(self, fam):
        m = 1_000_000
        items = sample_stream(fam, m, 11)
        counts = np.bincount(items.astype(int), minlength=101)[1:]
        probs = pmf(fam)
        # pool cells with tiny expectation so the chi-squared approximation holds
        keep = probs * m >= 5
        chi2 = float((((counts[keep] - m * probs[keep]) ** 2) / (m * probs[keep])).sum())
        tail = counts[~keep].sum()
        tail_exp = m * probs[~keep].sum()
        if tail_exp >= 5:
            chi2 += (tail - tail_exp) ** 2 / tail_exp
        dof = int(keep.sum()) - 1 + (1 if tail_exp >= 5 else 0)
        stats = pytest.importorskip("scipy.stats")
        assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_default_experiment_scale(self):
        items = sample_stream(DistributionFamily.pascal(4000, 3), 200_000, 1)
        assert items.size == 200_000
        assert 1 <= items.min() and items.max() <= 4000


class TestSampleHistogram:
    """``sample_histogram`` is the histogram of ``sample_stream`` at the same draws."""

    FAMILIES = [
        DistributionFamily.uniform(4000),
        DistributionFamily.zipf(4000, 1.0),
        DistributionFamily.zipf(4000, 4.0),
        DistributionFamily.pascal(4000, 3),
        DistributionFamily.binomial(4000, 0.0),
        DistributionFamily.binomial(4000, 1.0),
        DistributionFamily.poisson(4000),
    ]

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label())
    @pytest.mark.parametrize("m", [0, 1, 50_000])
    def test_equals_histogram_of_sampled_stream(self, fam, m):
        for seed in range(5):
            got = sample_histogram(fam, m, seed)
            want = from_stream(sample_stream(fam, m, seed))
            assert got.ids.dtype == want.ids.dtype and got.counts.dtype == want.counts.dtype
            assert np.array_equal(got.ids, want.ids), (seed, m)
            assert np.array_equal(got.counts, want.counts), (seed, m)
            assert got.total == m

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="stream length"):
            sample_histogram(DistributionFamily.uniform(10), -1, 1)

    @pytest.mark.parametrize("m", [True, 2.0, 2.5])
    def test_non_integral_length_rejected(self, m):
        # A bool or a float failed inside numpy with a TypeError.
        for sample in (sample_histogram, sample_stream):
            with pytest.raises(ValueError, match=f"^stream length must be an integer >= 0, "
                                                 f"got {re.escape(repr(m))}$"):
                sample(DistributionFamily.uniform(10), m, 1)


class TestParseFamily:
    @pytest.mark.parametrize("text,expected", [
        ("uniform", DistributionFamily.uniform(50)),
        ("zipf(alpha=1)", DistributionFamily.zipf(50, 1.0)),
        ("zipf(alpha=2.5)", DistributionFamily.zipf(50, 2.5)),
        ("pascal(r=3)", DistributionFamily.pascal(50, 3)),
        ("pascal(r=2,p=0.4)", DistributionFamily.pascal(50, 2, 0.4)),
        ("binomial", DistributionFamily.binomial(50)),
        ("binomial(p=0.3)", DistributionFamily.binomial(50, 0.3)),
        ("poisson", DistributionFamily.poisson(50)),
        ("poisson(lam=7)", DistributionFamily.poisson(50, 7.0)),
    ])
    def test_grammar(self, text, expected):
        assert parse_family(text, 50) == expected

    def test_label_roundtrip(self):
        for fam in ALL_FAMILIES:
            assert parse_family(fam.label(), 100) == fam

    @pytest.mark.parametrize("fam,label", [
        (DistributionFamily.zipf(100, 1.0), "zipf(alpha=1)"),
        (DistributionFamily.pascal(100, 3), "pascal(r=3)"),
        (DistributionFamily.binomial(100, 0.5), "binomial(p=0.5)"),
        (DistributionFamily.poisson(4000), "poisson(lam=2000)"),
        (DistributionFamily.zipf(100, 1.0000001), "zipf(alpha=1.0000001)"),
        (DistributionFamily.poisson(100, 1234567.0), "poisson(lam=1234567)"),
    ])
    def test_label_text(self, fam, label):
        assert fam.label() == label

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_label_roundtrip_any_parameters(self, data):
        n = data.draw(st.integers(1, 10 ** 6))
        positive = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
        unit = st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True)
        fam = data.draw(st.one_of(
            st.just(DistributionFamily.uniform(n)),
            positive.map(lambda a: DistributionFamily.zipf(n, a)),
            st.tuples(st.integers(1, 10 ** 6), st.none() | unit).map(
                lambda rp: DistributionFamily.pascal(n, *rp)),
            st.floats(0, 1).map(lambda p: DistributionFamily.binomial(n, p)),
            positive.map(lambda lam: DistributionFamily.poisson(n, lam)),
        ))
        assert parse_family(fam.label(), n) == fam

    @pytest.mark.parametrize("bad", ["", "zipf(", "zipf(alpha)", "gauss", "zipf(mu=1)",
                                     "zipf", "zipf(beta=1)", "uniform(x=1)",
                                     "binomial(p=0.5,q=3)", "pascal(r=2.5)", "pascal(r=inf)",
                                     "zipf(alpha=1,alpha=2)", "zipf(alpha=nan)",
                                     "poisson(lam=inf)", "pascal(r=3,n=5)",
                                     # Above 2^20 the pascal pmf's log-gamma terms cancel.
                                     "pascal(r=1048577)", "pascal(r=1e18)",
                                     "pascal(r=1e18,p=0.5)"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_family(bad, 10)


def test_stream_file_roundtrip(tmp_path):
    fam = DistributionFamily.zipf(300, 1.0)
    items = sample_stream(fam, 5000, 9)
    path = tmp_path / "s.stream"
    write_stream(str(path), items, 300, "zipf(alpha=1) n=300 m=5000 seed=9")
    loaded, n, desc = read_stream(str(path))
    assert np.array_equal(loaded, items)
    assert n == 300
    assert desc == "zipf(alpha=1) n=300 m=5000 seed=9"


@pytest.mark.parametrize("bad", [np.array([-1, 3]), np.array([2.7, 3.2])])
def test_stream_file_rejects_bad_ids(tmp_path, bad):
    # Written unchecked, -1 would be stored as 2^64 - 1 and 2.7 as 2.
    with pytest.raises(ValueError, match="item ids"):
        write_stream(str(tmp_path / "s.stream"), bad, 9, "x")


@pytest.mark.parametrize("n", [2 ** 64, -1, 2.5, True])
def test_stream_file_rejects_out_of_range_universe(tmp_path, n):
    path = tmp_path / "s.stream"
    with pytest.raises(ValueError, match="universe size"):
        write_stream(str(path), [1], n, "x")
    assert not path.exists()


def test_stream_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.stream"
    path.write_bytes(b"not a stream")
    with pytest.raises(ValueError):
        read_stream(str(path))


def _stream_bytes(tmp_path, items=(4, 5, 6), n=9, descriptor="uniform n=9"):
    path = tmp_path / "s.stream"
    write_stream(str(path), np.array(items, dtype=np.uint64), n, descriptor)
    return path, path.read_bytes()


def test_stream_file_rejects_truncation(tmp_path):
    path, blob = _stream_bytes(tmp_path)
    for cut in range(4, len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated"):
            read_stream(str(path))


def test_stream_file_rejects_trailing_bytes(tmp_path):
    path, blob = _stream_bytes(tmp_path)
    path.write_bytes(blob + b"junk!")
    with pytest.raises(ValueError, match="5 trailing bytes"):
        read_stream(str(path))


def _traced_peak(fn, *args):
    """The peak bytes ``tracemalloc`` sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def _rejected_peak(path, message):
    def read():
        with pytest.raises(ValueError, match=message):
            read_stream(str(path))
    return _traced_peak(read)


def test_stream_header_announcing_more_than_the_file_holds_reads_no_payload(tmp_path):
    # 2^40 items would be 8 TiB: the length check comes before any allocation.
    path, blob = _stream_bytes(tmp_path)
    dims_at = len(blob) - 8 * 3 - 16
    path.write_bytes(blob[:dims_at] + struct.pack("<QQ", 9, 1 << 40) + blob[dims_at + 16:])
    assert _rejected_peak(path, r"truncated stream file: .* needs") < 1 << 20


def test_stream_file_with_wrong_magic_reads_no_payload(tmp_path):
    path = tmp_path / "big.stream"
    path.write_bytes(b"SKMX" + bytes(8 << 20))
    assert _rejected_peak(path, "not a stream file") < 1 << 20


def test_stream_payload_read_that_comes_up_short_is_truncated(tmp_path, monkeypatch):
    # The file loses its last id after its size was taken.
    path, blob = _stream_bytes(tmp_path)
    path.write_bytes(blob[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=len(blob)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated stream file"):
        read_stream(str(path))


def test_stream_payload_is_read_once(tmp_path):
    # One copy of the ids: 8 MB for a million of them.
    path = tmp_path / "million.stream"
    write_stream(str(path), np.arange(1, 1_000_001, dtype=np.uint64), 0, "ids")
    assert _traced_peak(read_stream, str(path)) <= 8 << 20


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_stream_file_arbitrary_bytes_never_escape_value_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.stream")
        write_stream(path, np.array([4, 5, 6], dtype=np.uint64), 9, "uniform n=9")
        with open(path, "rb") as fh:
            blob = fh.read()
        raw = data.draw(st.one_of(
            st.binary(max_size=80),
            st.tuples(st.integers(0, len(blob)), st.binary(max_size=12)).map(
                lambda cut: blob[:cut[0]] + cut[1]),
            st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)).map(
                lambda flip: blob[:flip[0]] + bytes([blob[flip[0]] ^ flip[1]])
                + blob[flip[0] + 1:]),
        ))
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            items, n, descriptor = read_stream(path)
        except ValueError:
            return
        # Whatever is accepted is exactly what writing it back produces.
        write_stream(path, items, n, descriptor)
        with open(path, "rb") as fh:
            assert fh.read() == raw
