"""Divergences between discrete distributions, with explicit zero conventions.

All logarithms are base 2, so every value is in bits.  Infinities are
first-class results, never exceptions: KL of p against a q that lacks part of
p's support is +inf, exactly as the defining sum says.  Empty-against-empty
cells contribute nothing (the 0*f(0/0) = 0 convention), which is what makes
the kernels directly applicable to partition-aggregated vectors and raw
sketch rows containing zeros.  A ``-0.0`` entry, which validation accepts,
is a zero like ``+0.0`` everywhere: kl reads p / |q| so that a signed zero
under p > 0 still gives +inf.  The registered kernels work in place in their
own (t, k) temporaries, with no masks, and never write to their inputs, which
may be read-only or views of a shared block.

Every divergence is one row kernel over stacks of distributions, wrapped in
a :class:`DivergenceSpec` whose keyword fields ``symmetric``, ``triangle``
and ``f_div`` record the optional properties it honestly claims; the
property-test suite derives which checks to run from those fields, and
specs built from Bregman generators claim none of them.  ``f_div`` means
monotone under aggregation and jointly convex, as kl, js, tv and
bhattacharyya are.  Each registered divergence has exactly one kernel here;
its generator forms are test cross-checks.  A spec is the only way to
evaluate a divergence:
``get_divergence(name)(p, q)`` for the registered ones ("kl", "js",
"bhattacharyya", "hellinger", "tv"), and custom divergences enter the same
machinery through :func:`from_f_generator` / :func:`from_bregman_generator`
and :func:`register`.
"""
from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .histogram import as_distribution

class DivergenceDomainError(ValueError):
    """A generator met a zero it has no defined limit for."""


def _reject_flagged(flagged: np.ndarray, what: str, why: str) -> None:
    """Raise DivergenceDomainError at the first flagged cell, naming its column."""
    if flagged.any():
        i = int(np.argwhere(flagged)[0][-1])
        raise DivergenceDomainError(f"{what} at index {i} {why}")


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = as_distribution(p)
    q = as_distribution(q)
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    return p, q


# --- row kernels (rows are distributions; no per-row validation) -----------

def _kl_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # sum p_i log2(p_i / q_i).  Raising the ratios p / |q| to 5e-324, the
    # smallest positive float64, changes only the cells where p = 0, whose
    # ratio is 0 or NaN (0 / 0); with q < 2 no ratio under p > 0 rounds to 0.
    # Such a cell adds -1074 * p, a signed zero (numpy's sum starts from +0.0,
    # so no row sums to -0.0).  q = 0 or -0.0 under p > 0 gives p / |q| = +inf,
    # so the row sums to +inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = P / Q
        np.abs(terms, out=terms)
        np.fmax(terms, 5e-324, out=terms)
        np.log2(terms, out=terms)
        terms *= P
    return terms.sum(axis=1)


def _js_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # Always finite, in [0, 1]; zeros and -0.0 as in kl against the mixture.
    mix = P + Q
    mix *= 0.5
    return np.clip(0.5 * _kl_rows(P, mix) + 0.5 * _kl_rows(Q, mix), 0.0, 1.0)


def _bhattacharyya_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # -log2 of the coefficient sum sqrt(p_i q_i); +inf on disjoint supports,
    # where the sum is 0.0 or -0.0.
    terms = P * Q
    np.sqrt(terms, out=terms)
    with np.errstate(divide="ignore"):
        return -np.log2(np.minimum(terms.sum(axis=1), 1.0))


def _hellinger_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # 1 - BC rewritten termwise as 0.5 * sum (sqrt p - sqrt q)^2: identical
    # inputs cancel exactly instead of leaving a sqrt of rounding noise, and
    # a -0.0 cell squares to +0.0.
    terms = np.sqrt(P)
    terms -= np.sqrt(Q)
    np.square(terms, out=terms)
    return np.minimum(np.sqrt(0.5 * terms.sum(axis=1)), 1.0)


def _tv_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # Half the L1 distance; a -0.0 cell counts as 0.
    terms = P - Q
    np.abs(terms, out=terms)
    return np.minimum(0.5 * terms.sum(axis=1), 1.0)


def _one_row(rows: Callable[[np.ndarray, np.ndarray], np.ndarray], p, q) -> float:
    """A row kernel applied to one validated pair of distributions."""
    p, q = _pair(p, q)
    return float(rows(p[None, :], q[None, :])[0])


# --- generic f-divergences --------------------------------------------------

_CONVEXITY_SAMPLES = 1000


@dataclass(frozen=True)
class FGenerator:
    """Convex generator f on (0, inf) with f(1) = 0 plus its edge limits.

    ``limit_zero`` is lim_{u->0+} f(u) and ``limit_ratio_inf`` is
    lim_{u->inf} f(u)/u; either may be +inf, and None means the limit does
    not exist, turning the corresponding zero pattern into a domain error.
    ``f`` must accept numpy arrays.
    """

    f: Callable[[np.ndarray], np.ndarray]
    limit_zero: float | None
    limit_ratio_inf: float | None
    name: str = "f"

    def __post_init__(self) -> None:
        one = float(self.f(np.array([1.0]))[0])
        if one != 0.0:
            raise ValueError(f"{self.name}: f(1) = {one!r}, expected exactly 0")
        rng = np.random.default_rng(0)
        x = rng.uniform(0.01, 20.0, _CONVEXITY_SAMPLES)
        y = rng.uniform(0.01, 20.0, _CONVEXITY_SAMPLES)
        fm = self.f((x + y) / 2.0)
        if np.any(fm > (self.f(x) + self.f(y)) / 2.0 + 1e-9):
            raise ValueError(f"{self.name}: midpoint convexity check failed")


def _f_div_rows(gen: FGenerator, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    pp = P > 0.0
    qq = Q > 0.0
    both = pp & qq
    ratio = np.where(both, P, 1.0) / np.where(qq, Q, 1.0)
    terms = np.where(both, Q * gen.f(ratio), 0.0)

    p_only = pp & ~qq
    q_only = qq & ~pp
    if gen.limit_ratio_inf is None:
        _reject_flagged(p_only, f"{gen.name}: q is 0 where p > 0", "and lim f(u)/u is undefined")
    if gen.limit_zero is None:
        _reject_flagged(q_only, f"{gen.name}: p is 0 where q > 0", "and lim f(u) at 0 is undefined")
    with np.errstate(invalid="ignore"):
        if p_only.any():
            terms = terms + np.where(p_only, P * gen.limit_ratio_inf, 0.0)
        if q_only.any():
            terms = terms + np.where(q_only, Q * gen.limit_zero, 0.0)
    return terms.sum(axis=1)


# --- decomposable Bregman divergences ---------------------------------------

_DERIV_GRID = np.linspace(0.05, 1.0, 40)


@dataclass(frozen=True)
class BregmanGenerator:
    """Strictly convex differentiable F on (0, 1] with optional 0-extensions.

    ``value_at_zero`` extends F to 0; ``deriv_at_zero`` is the limit of F'
    there (may be -inf, in which case a vanishing q against positive p costs
    +inf).  None means no extension: zeros become domain errors.
    """

    F: Callable[[np.ndarray], np.ndarray]
    Fprime: Callable[[np.ndarray], np.ndarray]
    value_at_zero: float | None = None
    deriv_at_zero: float | None = None
    name: str = "F"

    def __post_init__(self) -> None:
        rng = np.random.default_rng(1)
        x = rng.uniform(0.02, 1.0, _CONVEXITY_SAMPLES)
        y = rng.uniform(0.02, 1.0, _CONVEXITY_SAMPLES)
        apart = np.abs(x - y) > 1e-3
        fm = self.F((x + y) / 2.0)
        avg = (self.F(x) + self.F(y)) / 2.0
        if np.any(fm[apart] >= avg[apart]):
            raise ValueError(f"{self.name}: strict midpoint convexity check failed")
        h = 1e-5
        central = (self.F(_DERIV_GRID + h) - self.F(_DERIV_GRID - h)) / (2.0 * h)
        exact = self.Fprime(_DERIV_GRID)
        rel = np.abs(central - exact) / np.maximum(1.0, np.abs(exact))
        if np.any(rel > 1e-6):
            raise ValueError(f"{self.name}: Fprime disagrees with central differences")


def _bregman_rows(gen: BregmanGenerator, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    pp = P > 0.0
    qq = Q > 0.0
    if gen.value_at_zero is None:
        _reject_flagged(~(pp & qq), f"{gen.name}: zero", "but F has no value extension at 0")
    if gen.deriv_at_zero is None:
        _reject_flagged(~qq, f"{gen.name}: q is 0", "but F' has no limit at 0")
    F0 = gen.value_at_zero if gen.value_at_zero is not None else 0.0
    Fp = np.where(pp, gen.F(np.where(pp, P, 1.0)), F0)
    Fq = np.where(qq, gen.F(np.where(qq, Q, 1.0)), F0)
    dFq = np.where(qq, gen.Fprime(np.where(qq, Q, 1.0)), 0.0)
    terms = np.where(qq, Fp - Fq - (P - Q) * dFq, 0.0)
    q0 = ~qq
    if q0.any():
        if gen.deriv_at_zero == -math.inf:
            # F(p) - F(0) - p * (-inf) = +inf for p > 0, 0 for p = 0.
            terms = terms + np.where(q0 & pp, np.inf, 0.0)
        else:
            terms = terms + np.where(q0, Fp - F0 - P * gen.deriv_at_zero, 0.0)
    return terms.sum(axis=1)


# --- named specs and registry -----------------------------------------------

@dataclass(frozen=True)
class DivergenceSpec:
    """A named divergence: one row kernel and the properties it claims.

    ``eval_rows`` maps two (t, k) float64 stacks of distributions to the t
    row values.  ``symmetric``, ``triangle`` and ``f_div`` (monotone under
    aggregation and jointly convex, as every f-divergence is) are the optional
    properties it honestly claims, and every property check reads them alone
    (:func:`smoothed` clears ``f_div``); non-negativity and identity of
    indiscernibles are required of every divergence and are not fields.
    ``eval`` is the scalar form, that kernel on one validated pair; it is
    derived from ``eval_rows`` unless given (a wrapper that times the kernel
    passes both).
    """

    name: str
    eval_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    _: KW_ONLY
    symmetric: bool = False
    triangle: bool = False
    f_div: bool = False
    eval: Callable[..., float] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.eval is None:
            object.__setattr__(self, "eval", partial(_one_row, self.eval_rows))

    def __call__(self, p, q) -> float:
        return float(self.eval(p, q))


_REGISTRY: dict[str, DivergenceSpec] = {}


def register(spec: DivergenceSpec) -> DivergenceSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"divergence {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_divergence(name: str) -> DivergenceSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown divergence {name!r}; available: {available()}") from None


def available() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def from_f_generator(name: str, gen: FGenerator) -> DivergenceSpec:
    """sum q_i f(p_i / q_i) under the three zero conventions, as a spec
    claiming ``f_div``."""
    return DivergenceSpec(name, partial(_f_div_rows, gen), f_div=True)


def from_bregman_generator(name: str, gen: BregmanGenerator) -> DivergenceSpec:
    """Decomposable sum of F(p_i) - F(q_i) - (p_i - q_i) F'(q_i), as a spec
    claiming no optional property."""
    return DivergenceSpec(name, partial(_bregman_rows, gen))


register(DivergenceSpec("kl", _kl_rows, f_div=True))
register(DivergenceSpec("js", _js_rows, symmetric=True, f_div=True))
register(DivergenceSpec("bhattacharyya", _bhattacharyya_rows, symmetric=True, f_div=True))
register(DivergenceSpec("hellinger", _hellinger_rows, symmetric=True, triangle=True))
register(DivergenceSpec("tv", _tv_rows, symmetric=True, triangle=True, f_div=True))


def smoothed(spec: DivergenceSpec, alpha: float) -> DivergenceSpec:
    """Additive-alpha variant: add alpha to every cell and renormalize.

    alpha = 0 returns the spec itself.  Smoothing removes infinities at the
    cost of the exact sketch-below-reference ordering, so result files must
    record the alpha used.  The result keeps ``symmetric`` and ``triangle``
    (both sides pass one injective map) and claims no ``f_div``.
    """
    if not 0 <= alpha < math.inf:  # also false for NaN
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha == 0:
        return spec

    def smooth_rows(V: np.ndarray) -> np.ndarray:
        W = V + alpha
        return W / W.sum(axis=1, keepdims=True)

    def eval_rows(P, Q):
        return spec.eval_rows(smooth_rows(P), smooth_rows(Q))

    # alpha per cell depends on k, so aggregation is no longer monotone.
    return replace(spec, eval_rows=eval_rows, eval=None, f_div=False)
