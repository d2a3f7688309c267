"""Exact sign decisions and rational enclosures for square roots and logarithms.

The sign tests take ints or Fractions alike; geometry runs them on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def sign(x: Fraction | int) -> int:
    return (x > 0) - (x < 0)


def sqrt_brackets(x: Fraction | int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi; the gap shrinks like 2**-bits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of a negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = x.numerator, x.denominator
    scale = 1 << bits
    s = isqrt(p * q * scale * scale)
    lo = Fraction(s, q * scale)
    hi = Fraction(s + 1, q * scale)
    return lo, hi


def sign_sqrt(u: Fraction | int, v: Fraction | int, d: Fraction | int) -> int:
    """Exact sign of u + v*sqrt(d) for rational u, v and rational d >= 0."""
    if d < 0:
        raise ValueError("negative radicand")
    if v == 0 or d == 0:
        return sign(u)
    if u == 0:
        return sign(v)
    su, sv = sign(u), sign(v)
    if su == sv:
        return su
    lhs, rhs = u * u, v * v * d
    if lhs == rhs:
        return 0
    return su if lhs > rhs else sv


def sign_two_sqrt(
    u: Fraction | int, v: Fraction | int, d1: Fraction | int, w: Fraction | int, d2: Fraction | int
) -> int:
    """Exact sign of u + v*sqrt(d1) + w*sqrt(d2)."""
    if w == 0 or d2 == 0:
        return sign_sqrt(u, v, d1)
    if v == 0 or d1 == 0:
        return sign_sqrt(u, w, d2)
    s_p = sign_sqrt(u, v, d1)
    s_q = sign(w)
    if s_p == 0:
        return s_q
    if s_p == s_q:
        return s_p
    # P = u + v*sqrt(d1) and Q = w*sqrt(d2) have opposite signs; compare magnitudes.
    s = sign_sqrt(u * u + v * v * d1 - w * w * d2, 2 * u * v, d1)
    if s == 0:
        return 0
    return s_p if s > 0 else s_q


def _dyadic_round(numerator: int, denominator: int, bits: int, up: bool) -> Fraction:
    """numerator/denominator (denominator > 0) rounded down, or up, to a multiple of 2**-bits."""
    if up:
        return Fraction(-((-numerator << bits) // denominator), 1 << bits)
    return Fraction((numerator << bits) // denominator, 1 << bits)


def _atanh_brackets(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
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


_LN2_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def ln2_brackets(bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of ln 2 = 2*atanh(1/3)."""
    if bits not in _LN2_CACHE:
        lo, hi = _atanh_brackets(Fraction(1, 3), bits + 4)
        _LN2_CACHE[bits] = (2 * lo, 2 * hi)
    return _LN2_CACHE[bits]


def ln_brackets(x: Fraction | int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of ln(x) for rational x > 0; gap shrinks like 2**-bits."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    if x == 1:
        return Fraction(0), Fraction(0)
    if x < 1:
        lo, hi = ln_brackets(1 / x, bits)
        return -hi, -lo
    # Reduce to m = x / 2**k with 1 <= m < 2, then ln x = k ln 2 + 2 atanh((m-1)/(m+1)).
    k = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(1 << k) if k >= 0 else x * (1 << -k)
    while m >= 2:
        m /= 2
        k += 1
    while m < 1:
        m *= 2
        k -= 1
    t = (m - 1) / (m + 1)
    at_lo, at_hi = _atanh_brackets(t, bits + 4)
    l2_lo, l2_hi = ln2_brackets(bits + max(4, k.bit_length() + 2))
    if k >= 0:
        return k * l2_lo + 2 * at_lo, k * l2_hi + 2 * at_hi
    return k * l2_hi + 2 * at_lo, k * l2_lo + 2 * at_hi
