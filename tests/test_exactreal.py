"""Exact real-number predicates: square roots, logarithms, and the reference quadratic surd."""

from fractions import Fraction

import pytest

from hurwitzcf.exactreal import (
    ln2_brackets,
    ln_brackets,
    sign_sqrt,
    sign_two_sqrt,
    sqrt_brackets,
)

from fraction_reference import QuadSurd, rational_between


def test_sqrt_brackets_enclose_and_shrink():
    for x in (2, 5, Fraction(9, 4), Fraction(1, 3), 10**12):
        prev_gap = None
        for bits in (8, 16, 32, 64):
            lo, hi = sqrt_brackets(x, bits)
            assert lo * lo <= x <= hi * hi
            gap = hi - lo
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
    assert sqrt_brackets(0, 16) == (0, 0)
    lo, hi = sqrt_brackets(Fraction(9, 4), 16)
    assert lo <= Fraction(3, 2) <= hi
    with pytest.raises(ValueError):
        sqrt_brackets(-1, 16)


def test_sign_sqrt_exact():
    assert sign_sqrt(Fraction(3), Fraction(-2), Fraction(2)) == 1      # 3 - 2*sqrt(2) > 0
    assert sign_sqrt(Fraction(-3), Fraction(2), Fraction(2)) == -1
    assert sign_sqrt(Fraction(-2), Fraction(1), Fraction(4)) == 0      # -2 + sqrt(4)
    assert sign_sqrt(Fraction(0), Fraction(-1), Fraction(7)) == -1
    assert sign_sqrt(Fraction(5), Fraction(0), Fraction(7)) == 1
    assert sign_sqrt(Fraction(1), Fraction(-1), Fraction(Fraction(1, 2))) == 1


def test_sign_two_sqrt_exact():
    # sqrt(2) + sqrt(3) - 3 > 0 ?  3.146 - 3 > 0
    assert sign_two_sqrt(Fraction(-3), Fraction(1), Fraction(2), Fraction(1), Fraction(3)) == 1
    # sqrt(2) - sqrt(3) < 0
    assert sign_two_sqrt(Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(3)) == -1
    # sqrt(8) - 2*sqrt(2) = 0
    assert sign_two_sqrt(Fraction(0), Fraction(1), Fraction(8), Fraction(-2), Fraction(2)) == 0


def test_quad_surd_ordering():
    a = QuadSurd(0, 1, 2)               # sqrt(2)
    b = QuadSurd(Fraction(3, 2))        # 3/2
    c = QuadSurd(1, -1, 5)              # 1 - sqrt(5) < 0
    assert c < a < b
    assert QuadSurd(0, 2, 2) == QuadSurd(0, 1, 8)
    assert QuadSurd(5) == QuadSurd(5, 0, 3)
    assert a.sign() == 1 and c.sign() == -1 and QuadSurd(0).sign() == 0


def test_quad_surd_folds_a_square_radicand_and_is_unhashable():
    # 0 + 1*sqrt(4) is the rational 2, and sqrt(9/4) the rational 3/2
    assert QuadSurd(0, 1, 4).is_rational() and QuadSurd(0, 1, 4).p == 2
    assert QuadSurd(1, -2, Fraction(9, 4)).p == -2
    assert QuadSurd(0, 1, 4) == QuadSurd(2)
    # equal values with different radicands: no hash of the fields could agree with ==
    assert QuadSurd(0, 2, 2) == QuadSurd(0, 1, 8)
    with pytest.raises(TypeError):
        hash(QuadSurd(2))


def test_quad_surd_enclosure():
    s = QuadSurd(1, 2, 3)
    lo, hi = s.enclosure(32)
    assert lo < hi
    assert sign_sqrt(1 - lo, Fraction(2), Fraction(3)) >= 0
    assert sign_sqrt(1 - hi, Fraction(2), Fraction(3)) <= 0


def test_rational_between_separates():
    a, b = QuadSurd(0, 1, 2), QuadSurd(Fraction(3, 2))
    r = rational_between(a, b)
    assert a < QuadSurd(r) < b
    # values agree to many digits but differ exactly: sqrt(2) vs 1.41421356
    close = QuadSurd(Fraction(141421356, 100000000))
    r2 = rational_between(close, a)
    assert close < QuadSurd(r2) < a
    with pytest.raises(ValueError):
        rational_between(QuadSurd(2), QuadSurd(1))


def test_ln_brackets_known_values():
    lo, hi = ln2_brackets(64)
    assert lo < hi
    assert Fraction(693147180559945309, 10**18) < hi
    assert lo < Fraction(693147180559945310, 10**18)
    lo5, hi5 = ln_brackets(Fraction(5), 64)
    assert Fraction(1609437912434100374, 10**18) < hi5
    assert lo5 < Fraction(1609437912434100375, 10**18)
    assert ln_brackets(1, 16) == (0, 0)
    lo2, hi2 = ln_brackets(Fraction(2), 64)
    lo_half, hi_half = ln_brackets(Fraction(1, 2), 64)
    assert (lo_half, hi_half) == (-hi2, -lo2) and hi_half < 0
    with pytest.raises(ValueError):
        ln_brackets(Fraction(0), 16)


def test_ln_brackets_additivity_enclosure():
    lo6, hi6 = ln_brackets(6, 64)
    lo2, hi2 = ln_brackets(2, 64)
    lo3, hi3 = ln_brackets(3, 64)
    assert lo6 <= hi2 + hi3 and lo2 + lo3 <= hi6


def test_ln_brackets_huge_argument():
    x = Fraction(5) ** 2000
    lo, hi = ln_brackets(x, 64)
    # 2000 * ln 5 = 3218.87582...
    assert Fraction(3218) < lo < hi < Fraction(3219)
    assert hi - lo < Fraction(1, 1 << 32)
