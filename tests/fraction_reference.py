"""The Fraction-based exact geometry that geometry's integer surds replaced.

Kept as the slow reference for differential tests: the quadratic surd
p + q*sqrt(d) over rationals, a rational strictly between two of them, and
the slice and candidate-point predicates of the exact emptiness path, all
in Fractions.  Two fixes over the old library code: a perfect-square
radicand folds into p at construction, and a surd is unhashable, because
equal values can be written with different radicands.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt

from hurwitzcf.exactreal import sign_sqrt, sign_two_sqrt, sqrt_brackets


@total_ordering
class QuadSurd:
    """The exact real number p + q*sqrt(d), rational p, q, and rational d >= 0."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction | int, q: Fraction | int = 0, d: Fraction | int = 0) -> None:
        p, q, d = Fraction(p), Fraction(q), Fraction(d)
        if d < 0:
            raise ValueError("negative radicand")
        if q != 0 and d != 0:
            num, den = isqrt(d.numerator), isqrt(d.denominator)
            if num * num == d.numerator and den * den == d.denominator:
                p, d = p + q * Fraction(num, den), Fraction(0)
        if q == 0 or d == 0:
            q, d = Fraction(0), Fraction(0)
        self.p, self.q, self.d = p, q, d

    def is_rational(self) -> bool:
        return self.q == 0

    def sign(self) -> int:
        return sign_sqrt(self.p, self.q, self.d)

    def cmp(self, other: QuadSurd) -> int:
        return sign_two_sqrt(self.p - other.p, self.q, self.d, -other.q, other.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadSurd):
            return NotImplemented
        return self.cmp(other) == 0

    def __lt__(self, other: QuadSurd) -> bool:
        return self.cmp(other) < 0

    # QuadSurd(0, 2, 2) == QuadSurd(0, 1, 8): no hash of the fields agrees with ==
    __hash__ = None

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rational bracket lo <= self <= hi."""
        if self.q == 0:
            return self.p, self.p
        r_lo, r_hi = sqrt_brackets(self.d, bits)
        if self.q > 0:
            return self.p + self.q * r_lo, self.p + self.q * r_hi
        return self.p + self.q * r_hi, self.p + self.q * r_lo

    def __repr__(self) -> str:
        if self.q == 0:
            return f"QuadSurd({self.p})"
        return f"QuadSurd({self.p} + {self.q}*sqrt({self.d}))"


def rational_between(a: QuadSurd, b: QuadSurd) -> Fraction:
    """A rational strictly between a and b (requires a < b)."""
    if a.is_rational() and b.is_rational():
        if not a.p < b.p:
            raise ValueError("rational_between needs a < b")
        return (a.p + b.p) / 2
    bits = 16
    while True:
        _, a_hi = a.enclosure(bits)
        b_lo, _ = b.enclosure(bits)
        if a_hi < b_lo:
            return (a_hi + b_lo) / 2
        bits *= 2
        if bits > 1 << 20:
            raise ArithmeticError("rational_between failed to separate values")


# --------------------------------------------- slices and points in Fractions

_ONE_Q = QuadSurd(1)
_NEG_ONE_Q = QuadSurd(-1)
_UNIVERSE = (_NEG_ONE_Q, True, _ONE_Q, True)


def _quad_roots(A: Fraction, B: Fraction, C: Fraction) -> list[QuadSurd]:
    """Real roots of A*t^2 + B*t + C with A > 0, sorted, as quadratic surds."""
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    mid = -B / (2 * A)
    if disc == 0:
        return [QuadSurd(mid)]
    n, m = disc.numerator, disc.denominator
    spread = Fraction(1, 1) / (2 * A * m)
    d = n * m
    return [QuadSurd(mid, -spread, d), QuadSurd(mid, spread, d)]


def _point_satisfies(con, pt) -> bool:
    """Whether the point (xp + xq*sqrt(d), yp + yq*sqrt(d)) satisfies the constraint."""
    xp, xq, yp, yq, d = pt
    rat = (
        con.a * (xp * xp + (xq * xq + yq * yq) * d + yp * yp)
        + 2 * (con.bre * xp + con.bim * yp)
        + con.c
    )
    surd = 2 * con.a * (xp * xq + yp * yq) + 2 * (con.bre * xq + con.bim * yq)
    s = con.sense * sign_sqrt(rat, surd, d)
    return s > 0 or (s == 0 and not con.strict)


def _iv_intersect(i1, i2):
    lo1, lc1, hi1, hc1 = i1
    lo2, lc2, hi2, hc2 = i2
    c = lo1.cmp(lo2)
    if c > 0:
        lo, lc = lo1, lc1
    elif c < 0:
        lo, lc = lo2, lc2
    else:
        lo, lc = lo1, lc1 and lc2
    c = hi1.cmp(hi2)
    if c < 0:
        hi, hc = hi1, hc1
    elif c > 0:
        hi, hc = hi2, hc2
    else:
        hi, hc = hi1, hc1 and hc2
    c = lo.cmp(hi)
    if c < 0:
        return (lo, lc, hi, hc)
    if c == 0 and lc and hc:
        return (lo, True, hi, True)
    return None


def _slice_sets(con, xs: Fraction):
    """Feasible y-intervals of one constraint on the vertical line x = xs."""
    K = con.a * xs * xs + 2 * con.bre * xs + con.c
    a, bim = con.a, con.bim
    if a == 0 and bim == 0:
        v = con.sense * K
        return [_UNIVERSE] if (v > 0 or (v == 0 and not con.strict)) else []
    if a == 0:
        ystar = QuadSurd(Fraction(-K, 2 * bim))
        if con.sense * bim > 0:
            return [(ystar, not con.strict, _ONE_Q, True)]
        return [(_NEG_ONE_Q, True, ystar, not con.strict)]
    roots = _quad_roots(Fraction(a), Fraction(2 * bim), K)
    if con.sense > 0:  # exterior of the disk
        if not roots:
            return [_UNIVERSE]
        if len(roots) == 1:
            if not con.strict:
                return [_UNIVERSE]
            y0 = roots[0]
            return [(_NEG_ONE_Q, True, y0, False), (y0, False, _ONE_Q, True)]
        ylo, yhi = roots
        closed = not con.strict
        return [(_NEG_ONE_Q, True, ylo, closed), (yhi, closed, _ONE_Q, True)]
    # interior of the disk
    if not roots:
        return []
    if len(roots) == 1:
        return [] if con.strict else [(roots[0], True, roots[0], True)]
    ylo, yhi = roots
    closed = not con.strict
    return [(ylo, closed, yhi, closed)]


def _slice_nonempty(region, xs: Fraction) -> bool:
    feasible = [_UNIVERSE]
    for con in region.constraints:
        sets = _slice_sets(con, xs)
        if not sets:
            return False
        new = []
        for iv in feasible:
            for s in sets:
                merged = _iv_intersect(iv, s)
                if merged is not None:
                    new.append(merged)
        if not new:
            return False
        feasible = new
    return True
