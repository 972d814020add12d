"""Bregman generators the linearity checks build from the shipped ones."""
from starsketch.divergence import BregmanGenerator


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
