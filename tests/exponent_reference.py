"""The Fraction formula for the exponent brackets, the reference for their differential test.

`estimate_exponent` computed each stage's bracket this way, with about ten
Fraction operations per stage; the library now takes one floor and one
ceiling division of ints per stage, which must give the same Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from hurwitzcf.exactreal import ln_brackets


def dyadic_round(x: Fraction, bits: int, up: bool) -> Fraction:
    """x rounded down, or up, to a multiple of 2**-bits."""
    scaled = x * (1 << bits)
    n = scaled.numerator // scaled.denominator
    if up and n * scaled.denominator != scaled.numerator:
        n += 1
    return Fraction(n, 1 << bits)


def estimate_exponent(xi, depth: int | None = None) -> tuple[tuple[Fraction, Fraction], ...]:
    """[v_(m+1)/v_m - eta/v_m, v_(m+1)/v_m + theta/v_m] rounded outward to 2**-64, per stage m."""
    v = xi.schedule.v()
    limit = len(v) - 1
    if depth is not None:
        limit = min(limit, depth)
    eta_hi, theta_hi = _slopes(xi.base.norm)
    out = []
    for m in range(limit):
        ratio = Fraction(v[m + 1], v[m])
        lo, hi = ratio - eta_hi / v[m], ratio + theta_hi / v[m]
        out.append((dyadic_round(lo, 64, False), dyadic_round(hi, 64, True)))
    return tuple(out)


@cache
def _slopes(norm: int) -> tuple[Fraction, Fraction]:
    """Upper brackets of 2 ln(3/2) / ln N and 2 ln 2 / ln N from 64-bit logarithms."""
    lnn_lo = ln_brackets(Fraction(norm), 64)[0]
    return 2 * ln_brackets(Fraction(3, 2), 64)[1] / lnn_lo, 2 * ln_brackets(Fraction(2), 64)[1] / lnn_lo
