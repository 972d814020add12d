import math
import re

import numpy as np
import pytest

from starsketch.hashing import (
    MERSENNE61,
    PRIME_TABLE,
    HashFamily,
    evaluate_batch,
    new_family,
    select_prime,
)


class TestPrimeSelection:
    def test_table_is_sorted_primes(self):
        import sympy

        assert list(PRIME_TABLE) == sorted(PRIME_TABLE)
        assert all(sympy.isprime(p) for p in PRIME_TABLE)

    def test_covers_default_scale(self):
        assert select_prime(4000) == 4099
        assert select_prime(1) == 2
        assert select_prime(4099) == 4099
        assert select_prime(2 ** 40) == MERSENNE61
        assert select_prime(2 ** 63) == MERSENNE61

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            select_prime(0)


class TestNewFamily:
    def test_fig2_shape(self):
        fam = new_family(4, 200, 4000, seed=1)
        assert fam.t == 4 and fam.k == 200 and fam.p == 4099
        for i in range(fam.t):
            for x in range(0, 4000, 97):
                assert 0 <= fam.evaluate(i, x) < 200

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            new_family(0, 10, 100, seed=1)
        with pytest.raises(ValueError):
            new_family(3, 0, 100, seed=1)

    def test_deterministic_replay(self):
        a = new_family(5, 16, 10 ** 6, seed=99)
        b = new_family(5, 16, 10 ** 6, seed=99)
        assert a == b
        assert a != new_family(5, 16, 10 ** 6, seed=100)

    def test_constant_single_cell(self):
        fam = new_family(1, 1, 50, seed=4)
        assert all(fam.evaluate(0, x) == 0 for x in range(50))

    def test_rejects_non_integral_k(self):
        # A float k would hash into float cells and write a header that
        # from_header cannot read back; numpy integers are integers.
        with pytest.raises(ValueError, match="k must be an integer"):
            new_family(2, 4.0, 100, 1)
        with pytest.raises(ValueError, match="k must be an integer"):
            HashFamily((3,), (5,), 131, 4.5, 0)
        with pytest.raises(ValueError, match="k must be an integer, got True"):
            new_family(2, True, 100, 1)  # a bool would write the header "2 True 131 1"
        assert new_family(2, np.int64(4), 100, 1) == new_family(2, 4, 100, 1)

    @pytest.mark.parametrize("t", [True, 2.0, 1.5, "2"])
    def test_rejects_non_integral_t(self, t):
        # True built a one-row family and 2.0 failed inside range() with a TypeError.
        with pytest.raises(ValueError, match=f"^t must be an integer, got {re.escape(repr(t))}$"):
            new_family(t, 4, 10, 1)

    def test_numpy_integer_t_accepted(self):
        assert new_family(np.int32(3), 4, 10, 1) == new_family(3, 4, 10, 1)

    @pytest.mark.parametrize("seed", [True, 5.0, "5", None])
    def test_rejects_non_integral_seed(self, seed):
        # True and 5.0 wrote headers that from_header cannot read back, and
        # "5" drew other (a, b) than 5 under the header seed 5.
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            new_family(2, 8, 100, seed)
        with pytest.raises(ValueError, match=message):
            HashFamily((3,), (5,), 131, 4, seed)

    def test_numpy_integer_seed_accepted(self):
        fam = new_family(2, 8, 100, np.int64(5))
        assert fam == new_family(2, 8, 100, 5)
        assert type(fam.seed) is int
        assert HashFamily.from_header(fam.header()) == fam


class TestEvaluate:
    def test_repeated_calls_agree(self):
        fam = new_family(1, 7, 1000, seed=2)
        assert fam.evaluate(0, 123) == fam.evaluate(0, 123)

    def test_extensional_equality(self):
        h1 = HashFamily((17,), (5,), 131, 4, 0)
        h2 = HashFamily((17,), (5,), 131, 4, 0)
        assert h1 == h2
        assert all(h1.evaluate(0, x) == h2.evaluate(0, x) for x in range(131))

    def test_golden_vector(self):
        # Regression pin: seed=7 family over a 4000-item universe, P = 4099.
        fam = new_family(1, 4, 4000, seed=7)
        assert (fam.a[0], fam.b[0], fam.p, fam.k) == (2478, 3831, 4099, 4)
        table = [fam.evaluate(0, x) for x in range(16)]
        assert table == [3, 2, 1, 3, 2, 0, 3, 2, 0, 3, 1, 0, 3, 1, 0, 3]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HashFamily((0,), (1,), 131, 4, 0)
        with pytest.raises(ValueError):
            HashFamily((1,), (131,), 131, 4, 0)
        with pytest.raises(ValueError, match="1 <= a < p"):
            HashFamily((131,), (0,), 131, 4, 0)
        with pytest.raises(ValueError, match="2 a values but 1 b values"):
            HashFamily((1, 2), (0,), 131, 4, 0)


class TestBatchEvaluation:
    def test_matches_scalar_small_prime(self):
        fam = new_family(1, 37, 5000, seed=13)
        xs = np.arange(5000, dtype=np.uint64)
        batch = evaluate_batch(fam, xs, 0)
        assert all(batch[x] == fam.evaluate(0, x) for x in range(0, 5000, 61))
        assert batch.min() >= 0 and batch.max() < 37

    def test_matches_scalar_mersenne(self):
        fam = new_family(1, 211, 2 ** 62, seed=5)
        assert fam.p == MERSENNE61
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 2 ** 64, size=2000, dtype=np.uint64)
        edge = np.array([0, 1, MERSENNE61 - 1, MERSENNE61, MERSENNE61 + 1, 2 ** 64 - 1],
                        dtype=np.uint64)
        xs = np.concatenate([xs, edge])
        batch = evaluate_batch(fam, xs, 0)
        for x, cell in zip(xs.tolist(), batch.tolist()):
            assert cell == fam.evaluate(0, x)

    def test_mersenne_sums_at_the_prime(self):
        # x = a^-1 * s mod P makes a*x = s mod P.  With s = P - b, a*x + b is
        # exactly P, which must wrap to cell 0, not P mod 7 = 1; s <= 3 and
        # the ids x + P (folded before the product) probe the reductions.
        fam = new_family(8, 7, 2 ** 62, seed=3)
        for i, (a, b) in enumerate(zip(fam.a, fam.b)):
            targets = [MERSENNE61 - b, 0, 1, 2, 3]
            xs = [pow(a, -1, MERSENNE61) * s % MERSENNE61 for s in targets]
            xs += [x + MERSENNE61 for x in xs]
            batch = evaluate_batch(fam, np.array(xs, dtype=np.uint64), i)
            assert batch.tolist() == [fam.evaluate(i, x) for x in xs]
            assert batch[0] == batch[5] == 0

    @pytest.mark.parametrize("bound, k", [(4000, 7), (4000, 64), (2 ** 31, 1000),
                                          (2 ** 62, 7), (2 ** 62, 2 ** 20 + 3)])
    def test_remainder_corners(self, bound, k):
        # Every remainder, by P and by k, is taken by floor division.  Ids at
        # 0, P - 1 and multiples of P, ids at and above 2^63, and ids whose
        # a*x + b mod P lands on 0, on a multiple k*j of k or just below one
        # put each remainder at its edges.
        fam = new_family(4, k, bound, seed=17)
        p = fam.p
        top = (p - 1) // k * k
        for i, (a, b) in enumerate(zip(fam.a, fam.b)):
            xs = [0, p - 1, p, 2 * p, 2 ** 63, 2 ** 64 - 1]
            xs += [(s - b) * pow(a, -1, p) % p for s in (0, k, k - 1, top, top - 1)]
            batch = evaluate_batch(fam, np.array(xs, dtype=np.uint64), i)
            assert batch.tolist() == [fam.evaluate(i, x) for x in xs]

    @pytest.mark.parametrize("bad", [[-1, 3], [2.5, 3], ["x", 3], np.array([-1, 3]),
                                     np.array([2.5, 3.0]), np.array(["x"])])
    def test_rejects_invalid_ids(self, bad):
        # -1 must not wrap to 2^64 - 1, 2.5 must not truncate to 2.
        fam = new_family(1, 37, 5000, seed=13)
        with pytest.raises(ValueError):
            evaluate_batch(fam, bad, 0)

    def test_mersenne_reduction_wraps_ids(self):
        # Pre-reduction: x and x mod P hash identically.
        fam = new_family(1, 1000, 2 ** 62, seed=8)
        assert fam.evaluate(0, MERSENNE61 + 17) == fam.evaluate(0, 17)


def test_pairwise_collision_rate():
    # 2-universality, statistically: over all pairs from a 100-item domain the
    # collision fraction stays within 1/k plus three Bernoulli sigmas.
    fam = new_family(3, 8, 100, seed=42)
    domain = list(range(100))
    pairs = math.comb(len(domain), 2)
    bound = 1 / 8 + 3 * math.sqrt((1 / 8) * (7 / 8) / pairs)
    for i in range(fam.t):
        cells = np.bincount([fam.evaluate(i, x) for x in domain], minlength=8)
        collisions = sum(int(c) * (int(c) - 1) // 2 for c in cells)
        assert collisions / pairs <= bound


class TestInducedPartition:
    # A hash function induces a partition of any item set: its cell array.
    def test_constant_function(self):
        fam = new_family(1, 1, 10, seed=3)
        cells = evaluate_batch(fam, np.array([0, 1, 2], dtype=np.uint64), 0)
        assert cells.tolist() == [0, 0, 0]

    def test_injective_gives_singletons(self):
        fam = HashFamily((1,), (0,), 131, 131, 0)
        cells = evaluate_batch(fam, np.array([3, 7, 11], dtype=np.uint64), 0)
        assert cells.tolist() == [3, 7, 11]

    def test_fixture_split(self):
        # Regression pin for seed=7, k=2 over items 0..5: cells {1,4,5} and {0,2,3}.
        fam = new_family(1, 2, 100, seed=7)
        cells = evaluate_batch(fam, np.arange(6, dtype=np.uint64), 0)
        assert cells.tolist() == [1, 0, 1, 1, 0, 0]

    def test_cells_partition_universe(self):
        fam = new_family(4, 5, 1000, seed=21)
        universe = np.arange(0, 1000, 7, dtype=np.uint64)
        for i in range(fam.t):
            cells = evaluate_batch(fam, universe, i)
            assert cells.shape == universe.shape
            assert ((0 <= cells) & (cells < 5)).all()
            assert cells.tolist() == [fam.evaluate(i, int(x)) for x in universe]


class TestHeaderSerialization:
    def test_roundtrip(self):
        fam = new_family(4, 200, 4000, seed=1)
        again = HashFamily.from_header(fam.header())
        assert again == fam

    def test_header_layout(self):
        fam = new_family(2, 3, 16, seed=6)
        lines = fam.header().splitlines()
        assert lines[0] == f"2 3 {fam.p} 6"
        assert len(lines) == 3

    def test_truncated_header_rejected(self):
        fam = new_family(3, 4, 100, seed=2)
        broken = "\n".join(fam.header().splitlines()[:-1])
        with pytest.raises(ValueError):
            HashFamily.from_header(broken)
        with pytest.raises(ValueError, match="empty"):
            HashFamily.from_header("\n")

    def test_function_line_needs_two_integers(self):
        for line, message in (("3", "two integers"), ("3 5 7", "two integers"),
                              ("3 x", "invalid literal")):
            with pytest.raises(ValueError, match=message):
                HashFamily.from_header(f"1 4 131 0\n{line}\n")

    def test_header_without_functions_rejected(self):
        with pytest.raises(ValueError, match="at least one function"):
            HashFamily.from_header("0 4 131 0\n")

    def test_non_table_prime_rejected(self):
        # 2^40 + 15 is prime, but a*x overflows uint64 in evaluate_batch for
        # it, which then disagrees with the exact scalar evaluate.
        p = 2 ** 40 + 15
        with pytest.raises(ValueError, match="PRIME_TABLE"):
            HashFamily.from_header(f"2 8 {p} 3\n{p - 2} 5\n{p - 9} 1\n")
        with pytest.raises(ValueError, match="PRIME_TABLE"):
            HashFamily((3,), (5,), p, 8, 0)
        # 131.0 equals a table prime but would be written as "131.0".
        with pytest.raises(ValueError, match="PRIME_TABLE"):
            HashFamily((3,), (5,), 131.0, 8, 0)
