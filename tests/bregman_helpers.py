"""Generator forms of the registered divergences, for checks against their kernels.

Each generator here is a second implementation of a registered divergence
(kl, js, tv, and squared hellinger as f-divergences; kl and squared Euclidean
as Bregman divergences).  The package evaluates each divergence by its one
row kernel; tests build specs from these generators and compare.
"""
import math

import numpy as np

from starsketch.divergence import BregmanGenerator, FGenerator

_LOG2E = math.log2(math.e)


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




def combine_bregman(g1: BregmanGenerator, g2: BregmanGenerator, lam: float) -> BregmanGenerator:
    """Generator for F1 + lam * F2: its divergence is D_F1 + lam * D_F2."""
    def zsum(a, b):
        return None if a is None or b is None else a + lam * b

    return BregmanGenerator(
        F=lambda x: g1.F(x) + lam * g2.F(x),
        Fprime=lambda x: g1.Fprime(x) + lam * g2.Fprime(x),
        value_at_zero=zsum(g1.value_at_zero, g2.value_at_zero),
        deriv_at_zero=zsum(g1.deriv_at_zero, g2.deriv_at_zero),
        name=f"{g1.name}+{lam}*{g2.name}",
    )
