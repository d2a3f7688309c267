"""The Fraction loop for the atanh brackets, the reference for their differential test.

`exactreal._atanh_brackets` summed the series this way, one Fraction
operation per term and per tail step; it now sums over one common
denominator in ints, which must give the same Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from hurwitzcf.exactreal import _dyadic_round


def atanh_brackets(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Bracket atanh(t) for 0 <= t <= 2/5 via the odd power series with a tail bound."""
    if t == 0:
        return Fraction(0), Fraction(0)
    if not 0 < t <= Fraction(2, 5):
        raise ValueError("series argument out of range")
    t_lo = _dyadic_round(t.numerator, t.denominator, bits + 16, up=False)
    t_hi = _dyadic_round(t.numerator, t.denominator, bits + 16, up=True)

    def partial(u: Fraction, j_max: int) -> Fraction:
        term = u
        acc = u
        uu = u * u
        for j in range(1, j_max + 1):
            term *= uu
            acc += term / (2 * j + 1)
        return acc

    # Tail after j_max: sum_{j > j_max} u^(2j+1)/(2j+1) < u^(2j_max+3) / (1 - u^2).
    eps = Fraction(1, 1 << (bits + 4))
    uu = t_hi * t_hi
    geom = 1 - uu
    j_max = 0
    tail_top = t_hi * uu  # t_hi**(2*j_max + 3)
    while tail_top / geom > eps:
        j_max += 1
        tail_top *= uu
    lo = partial(t_lo, j_max)
    hi = partial(t_hi, j_max) + tail_top / geom
    return lo, hi
