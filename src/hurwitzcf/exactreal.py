"""Exact sign decisions and rational enclosures for square roots and logarithms.

The sign tests take ints or Fractions alike; geometry runs them on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


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
    """Bracket atanh(t) for 0 <= t <= 2/5 via the odd power series with a tail bound.

    t is rounded out to a_lo / 2**k <= t <= a_hi / 2**k, k = bits + 16, and
    atanh(u) lies between S(u) = sum_(j <= J) u**(2j+1) / (2j+1) and S(u)
    plus u**(2J+3) / (1 - u**2), the bound on the tail; J is the least with
    that bound at most 2**-(bits+4) at u = a_hi / 2**k.  The work is in
    ints: each S is one numerator over 2**(k (2J+1)) lcm(1, 3, ..., 2J+1),
    summed by Horner's rule in 2**(2k), and each bound one Fraction.
    """
    if t == 0:
        return Fraction(0), Fraction(0)
    if not 0 < t <= Fraction(2, 5):
        raise ValueError("series argument out of range")
    k = bits + 16
    n, d = t.numerator, t.denominator
    a_lo, a_hi = (n << k) // d, -((-n << k) // d)
    # The tail bound is a_hi**(2J+3) / (2**(k (2J+1)) gap), gap = 2**(2k) - a_hi**2.
    square = a_hi * a_hi
    gap = (1 << 2 * k) - square
    j_max, top, scaled_gap = 0, a_hi * square, gap << k
    while top << (bits + 4) > scaled_gap:
        j_max += 1
        top *= square
        scaled_gap <<= 2 * k
    odd_lcm = lcm(*range(1, 2 * j_max + 2, 2))

    def scaled_sum(a: int) -> int:
        """S(a / 2**k) times 2**(k (2J+1)) odd_lcm."""
        acc, power, a2 = 0, a, a * a
        for j in range(j_max + 1):
            acc = (acc << 2 * k) + odd_lcm // (2 * j + 1) * power
            power *= a2
        return acc

    den = odd_lcm << k * (2 * j_max + 1)
    lo = Fraction(scaled_sum(a_lo), den)
    hi = Fraction(scaled_sum(a_hi) * gap + odd_lcm * top, den * gap)
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
