"""Carter-Wegman 2-universal hash families mapping item ids into k cells.

A family is t pairs (a_i, b_i) sharing one prime P and one range k; row i is
h_i(x) = ((a_i*x + b_i) mod P) mod k, evaluated exactly for one id by
``HashFamily.evaluate(i, x)`` and over an id array by
``evaluate_batch(family, ids, i)``.  P comes from a precomputed table holding
the smallest prime at or above each power of two, topped by the Mersenne
prime 2^61 - 1, which dominates every universe we target.  Keeping to those
two regimes gives a branch-free vectorized evaluation: small-table primes fit
products in 64 bits directly and the Mersenne top entry reduces by
shift-and-fold.  The remaining remainders by P and by k are taken as
x - (x // d) * d: numpy divides a uint64 array by a scalar with a
multiply-by-reciprocal (Granlund & Montgomery, PLDI 1994) but has no such
path for ``%``, so floor division is about three times faster at 4,000 ids
and gives the same bits.

Ids at or above P are pre-reduced mod P (a negligible universality loss at 61
bits).  A family is a pure function of (seed, t, k, P) and is immutable, so it
can be shared and evaluated concurrently without coordination.
"""
from __future__ import annotations

import numbers
import random
from dataclasses import dataclass

import numpy as np

MERSENNE61 = (1 << 61) - 1

# Smallest prime >= 2^i for i = 1..31, then the 61-bit Mersenne prime.
PRIME_TABLE = (
    2, 5, 11, 17, 37, 67, 131, 257, 521, 1031, 2053, 4099, 8209, 16411,
    32771, 65537, 131101, 262147, 524309, 1048583, 2097169, 4194319,
    8388617, 16777259, 33554467, 67108879, 134217757, 268435459,
    536870923, 1073741827, 2147483659, MERSENNE61,
)

_M61 = np.uint64(MERSENNE61)
_U32_MASK = np.uint64(0xFFFFFFFF)
_U29_MASK = np.uint64((1 << 29) - 1)


def select_prime(universe_bound: int) -> int:
    """Smallest table prime >= universe_bound (2^61 - 1 for larger bounds)."""
    if universe_bound < 1:
        raise ValueError("universe_bound must be >= 1")
    for p in PRIME_TABLE:
        if p >= universe_bound:
            return p
    return MERSENNE61


def _fold_m61(z: np.ndarray) -> np.ndarray:
    # Partly reduce z < 2^64 modulo P = 2^61 - 1, to a congruent value of at
    # most (2^61 - 1) + 7; _mulmod_m61 reduces its own result into [0, P).
    return (z & _M61) + (z >> np.uint64(61))


def _mulmod_m61(a: int, x: np.ndarray) -> np.ndarray:
    # 128-bit product via 32-bit limbs, folded with 2^61 = 1 and 2^64 = 8
    # modulo the Mersenne prime.  For a < P and x <= 2^61 + 6, x's high limb
    # is at most 2^29, so all intermediates stay below 2^63.
    a64 = np.uint64(a)
    ah, al = a64 >> np.uint64(32), a64 & _U32_MASK
    xh, xl = x >> np.uint64(32), x & _U32_MASK
    hi = ah * xh
    mid = ah * xl + al * xh
    lo = _fold_m61(al * xl)
    acc = hi * np.uint64(8) + (mid >> np.uint64(29)) + ((mid & _U29_MASK) << np.uint64(32)) + lo
    acc = _fold_m61(acc)
    return np.where(acc >= _M61, acc - _M61, acc)


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy integer, not a bool.

    This is the one integer check for sizes and parameters (k, t, n, r, p
    and plan counts); a float equal to an integer is not one.
    """
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def item_ids(items, what: str = "item ids") -> np.ndarray:
    """``items`` as a uint64 array, rejecting negative and non-integer ids
    (a bool is not one).

    This is the one id check at every boundary that takes item ids, and for
    the item counts that come with them (``what`` names them in errors).  A
    uint64 array is returned as it is, with no pass over its data.
    """
    ids = np.asarray(items)
    # A 1-D sequence that is not an array is checked element by element,
    # whatever dtype numpy would infer: it reads [True, 2] as int64, and ints
    # above 2^63 beside smaller or numpy integers as float64 or object.  A
    # bool is not an id, and each element goes through int, since numpy would
    # wrap a negative numpy integer into uint64.
    if not isinstance(items, np.ndarray) and ids.ndim == 1:
        for v in items:
            if not is_integer(v):
                raise ValueError(f"{what} must be integers, got {type(v).__name__} {v!r}")
        try:
            return np.array([int(v) for v in items], dtype=np.uint64)
        except OverflowError:
            raise ValueError(f"{what} must lie in [0, 2^64)") from None
    if ids.dtype == np.uint64:
        return ids
    if ids.size == 0:
        return ids.astype(np.uint64)
    if ids.dtype.kind in "iu":
        if ids.dtype.kind == "i" and ids.min() < 0:
            raise ValueError(f"{what} must be nonnegative, found {ids.min()}")
        return ids.astype(np.uint64)
    raise ValueError(f"{what} must be integers, got dtype {ids.dtype}")


def _mod(x: np.ndarray, d: np.uint64) -> np.ndarray:
    # x % d for a uint64 array and a nonzero uint64 scalar d (module docstring).
    return x - (x // d) * d


def evaluate_batch(family: "HashFamily", xs: np.ndarray, i: int) -> np.ndarray:
    """Row i of the family over an array of item ids; agrees with ``family.evaluate(i, x)``.

    Every remainder, by P and by k, is taken by floor division (``_mod``),
    which is faster than numpy's uint64 ``%`` by a scalar and exact.
    """
    xs = item_ids(xs)
    a, b, k = family.a[i], family.b[i], np.uint64(family.k)
    if family.p == MERSENNE61:
        r = _mulmod_m61(a, _fold_m61(xs)) + np.uint64(b)
        r = np.where(r >= _M61, r - _M61, r)
        return _mod(r, k).astype(np.int64)
    p = np.uint64(family.p)
    r = _mod(np.uint64(a) * _mod(xs, p) + np.uint64(b), p)
    return _mod(r, k).astype(np.int64)


@dataclass(frozen=True)
class HashFamily:
    """t functions h_i(x) = ((a[i]*x + b[i]) mod p) mod k sharing one prime and one range."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    p: int
    k: int
    seed: int

    def __post_init__(self) -> None:
        if not is_integer(self.p) or self.p not in PRIME_TABLE:
            # evaluate_batch's 64-bit arithmetic is exact only for table primes.
            raise ValueError(f"p = {self.p} is not a prime of PRIME_TABLE")
        if not is_integer(self.k):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if not 1 <= self.k < 2 ** 32:  # a sketch file stores k as uint32
            raise ValueError(f"require 1 <= k < 2^32, got k = {self.k}")
        if not is_integer(self.seed):  # the header stores it as an integer
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not self.a:
            raise ValueError("family must contain at least one function")
        if len(self.a) != len(self.b):
            raise ValueError(f"family has {len(self.a)} a values but {len(self.b)} b values")
        if not all(1 <= a < self.p for a in self.a):
            raise ValueError("require 1 <= a < p")
        if not all(0 <= b < self.p for b in self.b):
            raise ValueError("require 0 <= b < p")

    @property
    def t(self) -> int:
        return len(self.a)

    def evaluate(self, i: int, x: int) -> int:
        """Cell index of x under row i, in [0, k); the exact reference for evaluate_batch."""
        return ((self.a[i] * (x % self.p) + self.b[i]) % self.p) % self.k

    def header(self) -> str:
        """Plain-text serialization: ``t k P seed`` plus t ``a b`` lines."""
        lines = [f"{self.t} {self.k} {self.p} {self.seed}"]
        lines.extend(f"{a} {b}" for a, b in zip(self.a, self.b))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_header(cls, text: str) -> "HashFamily":
        lines = text.strip().splitlines()
        if not lines:
            raise ValueError("empty family header")
        head = lines[0].split()
        if len(head) != 4:
            raise ValueError("family header's first line must hold four integers: t k P seed")
        t, k, p, seed = map(int, head)
        if len(lines) != t + 1:
            raise ValueError(f"family header announces {t} functions, found {len(lines) - 1}")
        fields = [line.split() for line in lines[1:]]
        if any(len(f) != 2 for f in fields):
            raise ValueError("each family header function line must hold two integers: a b")
        a, b = zip(*fields) if fields else ((), ())
        return cls(tuple(map(int, a)), tuple(map(int, b)), p, k, seed)


def new_family(t: int, k: int, universe_bound: int, seed: int) -> HashFamily:
    """Draw t functions [0, universe_bound) -> [0, k) from one nonnegative master seed.

    Per-function sub-seeds are split off the master seed, then a is drawn
    uniformly from [1, P) and b from [0, P).  Reconstruction from the same
    (t, k, universe_bound, seed) yields an identical family.
    """
    if not is_integer(t):
        raise ValueError(f"t must be an integer, got {t!r}")
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:  # random.Random would seed from |seed|, drawing seed -s's family as s's
        raise ValueError(f"seed must be nonnegative, got {seed}")
    seed = int(seed)  # random.Random takes a numpy integer only as an int
    p = select_prime(universe_bound)
    master = random.Random(seed)
    rngs = [random.Random(master.getrandbits(64)) for _ in range(t)]
    a = tuple(rng.randrange(1, p) for rng in rngs)
    b = tuple(rng.randrange(0, p) for rng in rngs)
    return HashFamily(a, b, p, k, seed)
