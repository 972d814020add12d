"""Divergences between discrete distributions, with explicit zero conventions.

All logarithms are base 2, so every value is in bits.  Infinities are
first-class results, never exceptions: KL of p against a q that lacks part of
p's support is +inf, exactly as the defining sum says.  Empty-against-empty
cells contribute nothing (the 0*f(0/0) = 0 convention), which is what makes
the kernels directly applicable to partition-aggregated vectors and raw
sketch rows containing zeros.

Every divergence is one row kernel over stacks of distributions, wrapped in
a :class:`DivergenceSpec` whose keyword fields ``symmetric``, ``triangle``
and ``f_div`` record the optional properties it honestly claims; the
property-test suite derives which checks to run from those fields, and
specs built from Bregman generators claim none of them.  A spec is the only
way to evaluate a divergence:
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

_LOG2E = math.log2(math.e)


class DivergenceDomainError(ValueError):
    """A generator met a zero it has no defined limit for."""


def _pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = as_distribution(p)
    q = as_distribution(q)
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    return p, q


# --- row kernels (rows are distributions; no per-row validation) -----------

def _kl_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # sum p_i log2(p_i / q_i); 0 log(0/q) = 0, +inf where q misses p's support.
    pos = P > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pos, P, 1.0) / np.where(Q > 0.0, Q, 1.0)
        terms = np.where(pos, P * np.log2(ratio), 0.0)
    out = terms.sum(axis=1)
    out[(pos & (Q <= 0.0)).any(axis=1)] = np.inf
    return out


def _js_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # Always finite, in [0, 1].
    mix = 0.5 * (P + Q)
    vals = 0.5 * _kl_rows(P, mix) + 0.5 * _kl_rows(Q, mix)
    return np.clip(vals, 0.0, 1.0)


def _bhattacharyya_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # -log2 of the coefficient sum sqrt(p_i q_i); +inf on disjoint supports.
    with np.errstate(divide="ignore"):
        return -np.log2(np.minimum(np.sqrt(P * Q).sum(axis=1), 1.0))


def _hellinger_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # 1 - BC rewritten termwise as 0.5 * sum (sqrt p - sqrt q)^2: identical
    # inputs cancel exactly instead of leaving a sqrt of rounding noise.
    hsq = 0.5 * ((np.sqrt(P) - np.sqrt(Q)) ** 2).sum(axis=1)
    return np.minimum(np.sqrt(hsq), 1.0)


def _tv_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return np.minimum(0.5 * np.abs(P - Q).sum(axis=1), 1.0)


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
    with np.errstate(invalid="ignore"):
        if p_only.any():
            if gen.limit_ratio_inf is None:
                i = int(np.argwhere(p_only)[0][-1])
                raise DivergenceDomainError(
                    f"{gen.name}: q is 0 where p > 0 at index {i} and lim f(u)/u is undefined"
                )
            terms = terms + np.where(p_only, P * gen.limit_ratio_inf, 0.0)
        if q_only.any():
            if gen.limit_zero is None:
                i = int(np.argwhere(q_only)[0][-1])
                raise DivergenceDomainError(
                    f"{gen.name}: p is 0 where q > 0 at index {i} and lim f(u) at 0 is undefined"
                )
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
    if (~pp).any() or (~qq).any():
        if gen.value_at_zero is None:
            i = int(np.argwhere(~(pp & qq))[0][-1])
            raise DivergenceDomainError(
                f"{gen.name}: zero at index {i} but F has no value extension at 0"
            )
        if (~qq).any() and gen.deriv_at_zero is None:
            i = int(np.argwhere(~qq)[0][-1])
            raise DivergenceDomainError(
                f"{gen.name}: q is 0 at index {i} but F' has no limit at 0"
            )
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


def _xlog2x(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


KL_GENERATOR = FGenerator(_xlog2x, limit_zero=0.0, limit_ratio_inf=math.inf, name="t*log2(t)")
TV_GENERATOR = FGenerator(lambda u: 0.5 * np.abs(u - 1.0), limit_zero=0.5,
                          limit_ratio_inf=0.5, name="|t-1|/2")
HELLINGER_SQ_GENERATOR = FGenerator(lambda u: 0.5 * (np.sqrt(u) - 1.0) ** 2, limit_zero=0.5,
                                    limit_ratio_inf=0.5, name="(sqrt(t)-1)^2/2")


def _js_generator_f(u: np.ndarray) -> np.ndarray:
    return 0.5 * (_xlog2x(u) - (1.0 + u) * np.log2((1.0 + u) / 2.0))


JS_GENERATOR = FGenerator(_js_generator_f, limit_zero=0.5, limit_ratio_inf=0.5, name="js")

KL_BREGMAN = BregmanGenerator(
    F=_xlog2x,
    Fprime=lambda x: np.log2(x) + _LOG2E,
    value_at_zero=0.0,
    deriv_at_zero=-math.inf,
    name="t*log2(t)",
)
SQEUCLID_BREGMAN = BregmanGenerator(
    F=lambda x: x ** 2,
    Fprime=lambda x: 2.0 * x,
    value_at_zero=0.0,
    deriv_at_zero=0.0,
    name="t^2",
)


# --- named specs and registry -----------------------------------------------

@dataclass(frozen=True)
class DivergenceSpec:
    """A named divergence: one row kernel and the properties it claims.

    ``eval_rows`` maps two (t, k) float64 stacks of distributions to the t
    row values.  ``symmetric``, ``triangle`` and ``f_div`` (an f-divergence:
    monotone under aggregation and jointly convex) are the optional
    properties it honestly claims; non-negativity and identity of
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
register(DivergenceSpec("bhattacharyya", _bhattacharyya_rows, symmetric=True))
register(DivergenceSpec("hellinger", _hellinger_rows, symmetric=True, triangle=True))
register(DivergenceSpec("tv", _tv_rows, symmetric=True, triangle=True, f_div=True))


def smoothed(spec: DivergenceSpec, alpha: float) -> DivergenceSpec:
    """Additive-alpha variant: add alpha to every cell and renormalize.

    alpha = 0 returns the spec unchanged.  Smoothing removes infinities at
    the cost of the exact sketch-below-reference ordering, so result files
    must record the alpha used.
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

    return replace(spec, eval_rows=eval_rows, eval=None)
