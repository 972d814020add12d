import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsketch.divergence import (
    HELLINGER_SQ_GENERATOR,
    JS_GENERATOR,
    KL_BREGMAN,
    KL_GENERATOR,
    SQEUCLID_BREGMAN,
    TV_GENERATOR,
    BregmanGenerator,
    DivergenceDomainError,
    DivergenceSpec,
    FGenerator,
    available,
    from_bregman_generator,
    from_f_generator,
    get_divergence,
    register,
    smoothed,
)

from bregman_helpers import combine_bregman

NAMES = ("kl", "js", "bhattacharyya", "hellinger", "tv")

# High-precision reference values (40-digit evaluation of the defining sums)
# for p = (1/2, 1/2), q = (1/4, 3/4), all in bits.
P, Q = [0.5, 0.5], [0.25, 0.75]
KL_PQ = 0.2075187496394219
KL_QP = 0.1887218755408671
JS_PQ = 0.0487949406953985
BC_PQ = 0.9659258262890683
DB_PQ = 0.0500156865235042
HEL_PQ = 0.1845919112825145


def random_pair(rng, n, floor=0.02):
    p = rng.random(n) + floor
    q = rng.random(n) + floor
    return p / p.sum(), q / q.sum()


class TestPinnedValues:
    def test_kl(self):
        assert get_divergence("kl")(P, Q) == pytest.approx(KL_PQ, abs=1e-12)

    def test_kl_asymmetry_witness(self):
        spec = get_divergence("kl")
        assert spec(Q, P) == pytest.approx(KL_QP, abs=1e-12)
        assert spec(P, Q) != spec(Q, P)

    def test_js(self):
        assert get_divergence("js")(P, Q) == pytest.approx(JS_PQ, abs=1e-12)

    def test_bhattacharyya(self):
        db = get_divergence("bhattacharyya")(P, Q)
        assert db == pytest.approx(DB_PQ, abs=1e-12)
        assert 2.0 ** -db == pytest.approx(BC_PQ, abs=1e-12)

    def test_hellinger(self):
        assert get_divergence("hellinger")(P, Q) == pytest.approx(HEL_PQ, abs=1e-12)

    def test_hellinger_is_sqrt_one_minus_bc(self):
        # The coefficient BC is 2^-bhattacharyya, so hellinger^2 + BC = 1.
        hel, db = get_divergence("hellinger"), get_divergence("bhattacharyya")
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = random_pair(rng, 8)
            assert hel(p, q) ** 2 + 2.0 ** -db(p, q) == pytest.approx(1.0, abs=1e-12)


class TestIdentity:
    @pytest.mark.parametrize("name", NAMES)
    def test_exact_zero_on_dyadic(self, name):
        spec = get_divergence(name)
        for p in ([0.5, 0.5], [0.25, 0.25, 0.5], [1.0], [0.125, 0.375, 0.5]):
            assert spec(p, p) == 0.0

    @pytest.mark.parametrize("name", NAMES)
    def test_near_zero_on_random(self, name):
        spec = get_divergence(name)
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, _ = random_pair(rng, int(rng.integers(2, 32)))
            assert abs(spec(p, p)) <= 1e-12


class TestInfinities:
    def test_kl_forbidden_zero(self):
        assert get_divergence("kl")([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_kl_allowed_zero(self):
        assert math.isfinite(get_divergence("kl")([1.0, 0.0], [0.5, 0.5]))

    def test_bhattacharyya_disjoint(self):
        assert get_divergence("bhattacharyya")([1, 0], [0, 1]) == math.inf

    def test_js_saturates(self):
        assert get_divergence("js")([1, 0], [0, 1]) == 1.0

    def test_hellinger_disjoint(self):
        assert get_divergence("hellinger")([1, 0], [0, 1]) == 1.0


class TestSymmetryAndRange:
    @pytest.mark.parametrize("name", ["js", "bhattacharyya", "hellinger", "tv"])
    def test_symmetric_exactly(self, name):
        spec = get_divergence(name)
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, q = random_pair(rng, int(rng.integers(2, 16)))
            assert spec(p, q) == spec(q, p)

    @given(st.integers(2, 64), st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_js_range(self, n, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(n)
        q = rng.random(n)
        # allow hard zeros
        p[rng.random(n) < 0.25] = 0.0
        q[rng.random(n) < 0.25] = 0.0
        if p.sum() == 0 or q.sum() == 0:
            return
        v = get_divergence("js")(p / p.sum(), q / q.sum())
        assert 0.0 <= v <= 1.0

    def test_nonnegativity_bulk(self):
        # 10^4 random normalized pairs across dimensions 2..64, every metric.
        rng = np.random.default_rng(5)
        specs = [get_divergence(n) for n in available()]
        for dim in (2, 3, 8, 64):
            p = rng.random((2500, dim))
            q = rng.random((2500, dim))
            p[rng.random(p.shape) < 0.1] = 0.0
            q[rng.random(q.shape) < 0.1] = 0.0
            p = p / np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
            q = q / np.maximum(q.sum(axis=1, keepdims=True), 1e-300)
            for spec in specs:
                vals = spec.eval_rows(p, q)
                assert (vals >= -1e-12).all(), spec.name


class TestTriangle:
    def test_hellinger_triangle_random(self):
        hel = get_divergence("hellinger")
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(2, 12))
            p, q = random_pair(rng, n)
            r, _ = random_pair(rng, n)
            assert hel(p, q) <= hel(p, r) + hel(r, q) + 1e-12

    def test_bhattacharyya_counterexample(self):
        # Semimetric: recorded triple where the triangle inequality fails.
        db = get_divergence("bhattacharyya")
        a, b, m = [0.9, 0.1], [0.1, 0.9], [0.5, 0.5]
        assert db(a, b) == pytest.approx(0.7369655941662062, abs=1e-12)
        assert db(a, m) + db(m, b) == pytest.approx(0.3219280948873623, abs=1e-12)
        assert db(a, b) > db(a, m) + db(m, b)

    def test_js_counterexample_but_sqrt_holds(self):
        jsd = get_divergence("js")
        e1, e2, m = [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]
        assert jsd(e1, m) == pytest.approx(0.3112781244591328, abs=1e-12)
        assert jsd(e1, e2) > jsd(e1, m) + jsd(m, e2)
        rng = np.random.default_rng(23)
        for _ in range(2000):
            n = int(rng.integers(2, 10))
            p, q = random_pair(rng, n)
            r, _ = random_pair(rng, n)
            assert math.sqrt(jsd(p, q)) <= math.sqrt(jsd(p, r)) + math.sqrt(jsd(r, q)) + 1e-12


def f_spec(gen):
    return from_f_generator(f"f[{gen.name}]", gen)


def bregman_spec(gen):
    return from_bregman_generator(f"bregman[{gen.name}]", gen)


class TestFDivergence:
    def test_kl_generator_reproduces_kl(self):
        spec, ref = f_spec(KL_GENERATOR), get_divergence("kl")
        assert spec.f_div and not spec.symmetric and not spec.triangle
        rng = np.random.default_rng(31)
        for _ in range(200):
            p, q = random_pair(rng, int(rng.integers(2, 20)))
            assert spec(p, q) == pytest.approx(ref(p, q), abs=1e-12)

    def test_js_generator_reproduces_js(self):
        spec, ref = f_spec(JS_GENERATOR), get_divergence("js")
        rng = np.random.default_rng(37)
        for _ in range(100):
            p, q = random_pair(rng, 6)
            assert spec(p, q) == pytest.approx(ref(p, q), abs=1e-12)

    def test_tv_generator_closed_form(self):
        spec, ref = f_spec(TV_GENERATOR), get_divergence("tv")
        assert spec([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)
        rng = np.random.default_rng(41)
        for _ in range(100):
            p, q = random_pair(rng, 5)
            assert spec(p, q) == pytest.approx(ref(p, q), abs=1e-12)

    def test_hellinger_sq_generator(self):
        spec, ref = f_spec(HELLINGER_SQ_GENERATOR), get_divergence("hellinger")
        rng = np.random.default_rng(43)
        for _ in range(100):
            p, q = random_pair(rng, 5)
            assert spec(p, q) == pytest.approx(ref(p, q) ** 2, abs=1e-12)

    def test_identity_is_termwise_zero(self):
        for gen in (KL_GENERATOR, TV_GENERATOR, JS_GENERATOR):
            assert f_spec(gen)([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_zero_conventions(self):
        # kl generator: q-only zeros are free, p-only zeros cost +inf
        spec = f_spec(KL_GENERATOR)
        assert spec([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)
        assert spec([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_undefined_limit_reports_index(self):
        gen = FGenerator(lambda u: u - 1.0, limit_zero=None, limit_ratio_inf=1.0,
                         name="t-1")
        with pytest.raises(DivergenceDomainError, match="index 1"):
            f_spec(gen)([1.0, 0.0], [0.5, 0.5])

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="f\\(1\\)"):
            FGenerator(lambda u: u, limit_zero=0.0, limit_ratio_inf=1.0)
        with pytest.raises(ValueError, match="convexity"):
            FGenerator(lambda u: -((u - 1.0) ** 2), limit_zero=-1.0, limit_ratio_inf=None)

    def test_monotone_under_merging(self):
        # Merging two cells never increases an f-divergence.
        rng = np.random.default_rng(47)
        for gen in (KL_GENERATOR, TV_GENERATOR, JS_GENERATOR):
            spec = f_spec(gen)
            for _ in range(100):
                p, q = random_pair(rng, 6)
                pm = np.concatenate([[p[0] + p[1]], p[2:]])
                qm = np.concatenate([[q[0] + q[1]], q[2:]])
                assert spec(pm, qm) <= spec(p, q) + 1e-12

    def test_convexity_in_pairs(self):
        rng = np.random.default_rng(53)
        for gen in (KL_GENERATOR, TV_GENERATOR):
            spec = f_spec(gen)
            for _ in range(100):
                p1, q1 = random_pair(rng, 5)
                p2, q2 = random_pair(rng, 5)
                lam = rng.uniform()
                lhs = spec(lam * p1 + (1 - lam) * p2, lam * q1 + (1 - lam) * q2)
                rhs = lam * spec(p1, q1) + (1 - lam) * spec(p2, q2)
                assert lhs <= rhs + 1e-9


class TestBregman:
    def test_identity_zero(self):
        for gen in (KL_BREGMAN, SQEUCLID_BREGMAN):
            assert bregman_spec(gen)([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_squared_euclidean(self):
        spec = bregman_spec(SQEUCLID_BREGMAN)
        assert not (spec.symmetric or spec.triangle or spec.f_div)
        rng = np.random.default_rng(59)
        for _ in range(100):
            p, q = random_pair(rng, 7)
            assert spec(p, q) == pytest.approx(float(((p - q) ** 2).sum()), abs=1e-12)

    def test_kl_bregman_matches_kl(self):
        spec, ref = bregman_spec(KL_BREGMAN), get_divergence("kl")
        rng = np.random.default_rng(61)
        for _ in range(200):
            p, q = random_pair(rng, int(rng.integers(2, 20)))
            assert spec(p, q) == pytest.approx(ref(p, q), abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(67)
        for gen in (KL_BREGMAN, SQEUCLID_BREGMAN):
            spec = bregman_spec(gen)
            for _ in range(200):
                p, q = random_pair(rng, 6)
                assert spec(p, q) >= -1e-12

    def test_zero_in_q_with_positive_p(self):
        assert bregman_spec(KL_BREGMAN)([0.5, 0.5], [1.0, 0.0]) == math.inf
        # finite derivative extension keeps t^2 finite
        assert math.isfinite(bregman_spec(SQEUCLID_BREGMAN)([0.5, 0.5], [1.0, 0.0]))

    def test_missing_extension_rejected(self):
        gen = BregmanGenerator(F=lambda x: -np.log2(x), Fprime=lambda x: -1.0 / (x * math.log(2)),
                               name="-log2")
        with pytest.raises(DivergenceDomainError):
            bregman_spec(gen)([1.0, 0.0], [0.5, 0.5])

    def test_pointwise_linearity(self):
        b1, b2 = bregman_spec(KL_BREGMAN), bregman_spec(SQEUCLID_BREGMAN)
        rng = np.random.default_rng(71)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            combined = bregman_spec(combine_bregman(KL_BREGMAN, SQEUCLID_BREGMAN, lam))
            for _ in range(50):
                p, q = random_pair(rng, 6)
                lhs = combined(p, q)
                rhs = b1(p, q) + lam * b2(p, q)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="convexity"):
            BregmanGenerator(F=lambda x: x, Fprime=lambda x: np.ones_like(x))
        with pytest.raises(ValueError, match="central differences"):
            BregmanGenerator(F=lambda x: x ** 2, Fprime=lambda x: 3.0 * x)


class TestRegistry:
    def test_available(self):
        assert set(available()) == {"kl", "js", "bhattacharyya", "hellinger", "tv"}

    def test_flags_shape(self):
        claims = {name: (spec.symmetric, spec.triangle, spec.f_div)
                  for name in available() for spec in [get_divergence(name)]}
        assert claims == {
            "kl": (False, False, True),
            "js": (True, False, True),
            "bhattacharyya": (True, False, False),
            "hellinger": (True, True, False),
            "tv": (True, True, True),
        }
        # Bregman divergences are in general neither symmetric, metric nor
        # monotone under aggregation, so a Bregman spec claims nothing.
        sq = bregman_spec(SQEUCLID_BREGMAN)
        assert (sq.symmetric, sq.triangle, sq.f_div) == (False, False, False)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown divergence 'renyi'; available"):
            get_divergence("renyi")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(get_divergence("kl"))

    def test_spec_from_row_kernel_alone(self):
        spec = DivergenceSpec("rows-tv", eval_rows=lambda P, Q: 0.5 * np.abs(P - Q).sum(axis=1))
        P = np.array([[0.5, 0.5], [1.0, 0.0]])
        Q = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert spec.eval_rows(P, Q).tolist() == [get_divergence("tv")(P[0], Q[0]), 0.5]
        # the scalar form is the same kernel on one validated row
        assert spec(P[0], Q[0]) == spec.eval_rows(P, Q)[0]
        with pytest.raises(ValueError):
            spec([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError):
            spec([1.0], [0.5, 0.5])


class TestSmoothing:
    def test_alpha_zero_is_same_object(self):
        spec = get_divergence("kl")
        assert smoothed(spec, 0.0) is spec

    def test_smoothing_removes_infinity(self):
        spec = smoothed(get_divergence("kl"), 1e-9)
        v = spec([0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(v)
        assert v > 1.0

    def test_identity_preserved(self):
        spec = smoothed(get_divergence("js"), 1e-6)
        assert spec([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            smoothed(get_divergence("js"), -0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            smoothed(get_divergence("js"), alpha)


def test_length_mismatch_rejected():
    for name in NAMES:
        with pytest.raises(ValueError):
            get_divergence(name)([0.5, 0.5], [0.2, 0.3, 0.5])
