"""Carter-Wegman 2-universal hash families mapping item ids into k cells.

Each function is h(x) = ((a*x + b) mod P) mod k with P prime.  P comes from a
precomputed table holding the smallest prime at or above each power of two,
topped by the Mersenne prime 2^61 - 1, which dominates every universe we
target.  Keeping to those two regimes gives a branch-free vectorized
evaluation: small-table primes fit products in 64 bits directly and the
Mersenne top entry reduces by shift-and-fold.

Ids at or above P are pre-reduced mod P (a negligible universality loss at 61
bits).  A family is a pure function of (seed, t, k, P) and is immutable, so it
can be shared and evaluated concurrently without coordination.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class HashFunction:
    """One ((a*x + b) mod p) mod k function; equal parameters, equal outputs."""

    a: int
    b: int
    p: int
    k: int

    def __post_init__(self) -> None:
        if self.p not in PRIME_TABLE:
            # evaluate_batch's 64-bit arithmetic is exact only for table primes.
            raise ValueError(f"p = {self.p} is not a prime of PRIME_TABLE")
        if not 1 <= self.a < self.p:
            raise ValueError("require 1 <= a < p")
        if not 0 <= self.b < self.p:
            raise ValueError("require 0 <= b < p")
        if self.k < 1:
            raise ValueError("require k >= 1")

    def evaluate(self, x: int) -> int:
        """Cell index of x in [0, k); the exact reference for evaluate_batch."""
        return ((self.a * (x % self.p) + self.b) % self.p) % self.k


def _fold_m61(z: np.ndarray) -> np.ndarray:
    # Reduce values < 2^64 modulo 2^61 - 1.
    z = (z & _M61) + (z >> np.uint64(61))
    return np.where(z >= _M61, z - _M61, z)


def _mulmod_m61(a: int, x: np.ndarray) -> np.ndarray:
    # 128-bit product via 32-bit limbs, folded with 2^61 = 1 and 2^64 = 8
    # modulo the Mersenne prime.  All intermediates stay below 2^63.
    a64 = np.uint64(a)
    ah, al = a64 >> np.uint64(32), a64 & _U32_MASK
    xh, xl = x >> np.uint64(32), x & _U32_MASK
    hi = ah * xh
    mid = ah * xl + al * xh
    lo = _fold_m61(al * xl)
    acc = hi * np.uint64(8) + (mid >> np.uint64(29)) + ((mid & _U29_MASK) << np.uint64(32)) + lo
    acc = (acc & _M61) + (acc >> np.uint64(61))
    return np.where(acc >= _M61, acc - _M61, acc)


def item_ids(items, what: str = "item ids") -> np.ndarray:
    """``items`` as a uint64 array, rejecting negative and non-integer ids.

    This is the one id check at every boundary that takes item ids, and for
    the item counts that come with them (``what`` names them in errors).  A
    uint64 array is returned as it is, with no pass over its data.
    """
    ids = np.asarray(items)
    if ids.dtype == np.uint64:
        return ids
    if ids.size == 0:
        return ids.astype(np.uint64)
    if ids.dtype.kind in "iu":
        if ids.dtype.kind == "i" and ids.min() < 0:
            raise ValueError(f"{what} must be nonnegative, found {ids.min()}")
        return ids.astype(np.uint64)
    # A list mixing Python ints below and above 2^63 is inferred as float64
    # or object; convert it exactly once every element is known to be an int.
    if (not isinstance(items, np.ndarray) and ids.ndim == 1
            and all(isinstance(v, int) for v in items)):
        try:
            return np.asarray(items, dtype=np.uint64)
        except OverflowError:
            raise ValueError(f"{what} must lie in [0, 2^64)") from None
    raise ValueError(f"{what} must be integers, got dtype {ids.dtype}")


def evaluate_batch(h: HashFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over an array of item ids; agrees with HashFunction.evaluate."""
    xs = item_ids(xs)
    if h.p == MERSENNE61:
        r = _mulmod_m61(h.a, _fold_m61(xs))
        r = r + np.uint64(h.b)
        r = np.where(r >= _M61, r - _M61, r)
        return (r % np.uint64(h.k)).astype(np.int64)
    p = np.uint64(h.p)
    r = (np.uint64(h.a) * (xs % p) + np.uint64(h.b)) % p
    return (r % np.uint64(h.k)).astype(np.int64)


@dataclass(frozen=True)
class HashFamily:
    """t independently seeded functions sharing one range [0, k) and prime."""

    functions: tuple[HashFunction, ...]
    seed: int

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("family must contain at least one function")
        k, p = self.functions[0].k, self.functions[0].p
        if any(f.k != k or f.p != p for f in self.functions):
            raise ValueError("all functions must share k and p")

    @property
    def t(self) -> int:
        return len(self.functions)

    @property
    def k(self) -> int:
        return self.functions[0].k

    @property
    def p(self) -> int:
        return self.functions[0].p

    def header(self) -> str:
        """Plain-text serialization: ``t k P seed`` plus t ``a b`` lines."""
        lines = [f"{self.t} {self.k} {self.p} {self.seed}"]
        lines.extend(f"{f.a} {f.b}" for f in self.functions)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_header(cls, text: str) -> "HashFamily":
        lines = text.strip().splitlines()
        if not lines:
            raise ValueError("empty family header")
        t, k, p, seed = (int(v) for v in lines[0].split())
        if len(lines) != t + 1:
            raise ValueError(f"family header announces {t} functions, found {len(lines) - 1}")
        functions = []
        for line in lines[1:]:
            a, b = (int(v) for v in line.split())
            functions.append(HashFunction(a, b, p, k))
        return cls(tuple(functions), seed)


def new_family(t: int, k: int, universe_bound: int, seed: int) -> HashFamily:
    """Draw t functions [0, universe_bound) -> [0, k) from one master seed.

    Per-function sub-seeds are split off the master seed, then a is drawn
    uniformly from [1, P) and b from [0, P).  Reconstruction from the same
    (t, k, universe_bound, seed) yields an identical family.
    """
    if t < 1:
        raise ValueError("family size t must be >= 1")
    if k < 1:
        raise ValueError("cell count k must be >= 1")
    p = select_prime(universe_bound)
    master = random.Random(seed)
    sub_seeds = [master.getrandbits(64) for _ in range(t)]
    functions = []
    for sub in sub_seeds:
        rng = random.Random(sub)
        a = rng.randrange(1, p)
        b = rng.randrange(0, p)
        functions.append(HashFunction(a, b, p, k))
    return HashFamily(tuple(functions), seed)
