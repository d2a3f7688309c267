"""Exact Gaussian integer and Gaussian rational arithmetic."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ_I

from hurwitzcf.gaussian import (
    ONE,
    UNITS,
    ZERO,
    GaussianInt,
    GaussianRational,
    _mul3,
    exact_div,
    format_gaussian_int,
    format_gaussian_rational,
    gauss_gcd,
    nearest_gaussian,
    parse_gaussian_int,
    parse_gaussian_rational,
)


def g(re, im=0):
    return GaussianInt(re, im)


def test_ring_arithmetic():
    a, b = g(3, -2), g(-1, 4)
    assert a + b == g(2, 2)
    assert a - b == g(4, -6)
    assert a * b == g(5, 14)
    assert -a == g(-3, 2)
    assert a.conj() == g(3, 2)
    assert a.norm == 13
    assert (a * b).norm == a.norm * b.norm


def test_powers_and_units():
    assert g(0, 1) ** 2 == g(-1)
    assert g(-2, 1) ** 2 == g(3, -4)
    assert g(-2, 1) ** 0 == ONE
    for u in UNITS:
        assert u.is_unit()
        assert (u * u.conj()) == ONE
    assert not g(1, 1).is_unit()


def _four_product(z, w):
    """z * w by the schoolbook formula, independent of GaussianInt.__mul__."""
    return g(z.re * w.re - z.im * w.im, z.re * w.im + z.im * w.re)


components = st.one_of(st.integers(-10, 10), st.integers(-(2**200), 2**200), st.integers(-(2**4000), 2**4000))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.builds(GaussianInt, components, components), st.builds(GaussianInt, components, components))
def test_three_product_matches_four_product(z, w):
    assert _mul3(z, w) == z * w == _four_product(z, w)
    assert _mul3(z, z) == z * z
    assert _mul3(w, z) == _mul3(z, w)


def test_three_product_edge_cases():
    rng = random.Random(14)
    big = [g(rng.getrandbits(100_000) - (1 << 99_999), rng.getrandbits(100_000) - (1 << 99_999)) for _ in range(3)]
    big += [-big[0], big[1].conj()]
    small = [g(re, im) for re in (-2, -1, 0, 1, 2) for im in (-2, -1, 0, 1, 2)]
    lopsided = [g(re * 3**n, im * 5**n) for n in (40, 900) for re in (-1, 0, 1) for im in (-1, 0, 1)]
    pairs = list(itertools.product(small + lopsided, repeat=2))
    pairs += list(itertools.product(big, big + small[::4] + lopsided[::3]))
    pairs += [(z, z) for z in small + lopsided + big]  # one object as both operands
    for z, w in pairs:
        assert _mul3(z, w) == _four_product(z, w), (z, w)
    # powers against repeated schoolbook products
    for z in small + lopsided[:9]:
        product = ONE
        for k in range(40):
            assert z**k == product
            product = _four_product(product, z)
    assert big[0] ** 3 == _four_product(_four_product(big[0], big[0]), big[0])


def _sympy_power(z, k):
    w = ZZ_I(z.re, z.im) ** k
    return g(int(w.x), int(w.y))


@pytest.mark.parametrize("base", [g(-1, 1), g(-2, 1), g(-2, -1), g(-3, 1), g(-3, -1)])
def test_big_powers_match_sympy(base):
    # odd, even, all-ones and lone-top-bit exponents from 10**4 to 10**5
    for k in (10_000, 10_001, 2**14 - 1, 2**14, 65_537, 99_999):
        assert base**k == _sympy_power(base, k), k


def test_powers_of_units_zero_and_big_bases():
    for u in UNITS:
        for k in range(9):
            assert u**k == _sympy_power(u, k) == UNITS[k * UNITS.index(u) % 4]
    assert ZERO**0 == ONE
    assert all(ZERO**k == ZERO for k in (1, 2, 3, 1000))
    rng = random.Random(16)
    for bits in (64, 3000, 40_000):
        z = g(rng.getrandbits(bits) - (1 << (bits - 1)), -rng.getrandbits(bits))
        for k in range(1, 6):
            assert z**k == _sympy_power(z, k), (bits, k)
    for bad in (-1, 2.0):
        with pytest.raises(ValueError):
            g(1, 1) ** bad


def test_divmod_nearest_remainder_small():
    rng = random.Random(11)
    for _ in range(500):
        a = g(rng.randint(-80, 80), rng.randint(-80, 80))
        b = g(rng.randint(-9, 9), rng.randint(-9, 9))
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert 2 * r.norm <= b.norm


def test_rounding_ties_go_up():
    # components at exactly 1/2 round toward +infinity, matching [-1/2, 1/2)^2
    assert nearest_gaussian(GaussianRational(g(1, 1), g(2))) == g(1, 1)
    assert nearest_gaussian(GaussianRational(g(-1, -1), g(2))) == ZERO
    assert nearest_gaussian(GaussianRational(g(3, -3), g(2))) == g(2, -1)


def test_half_open_fundamental_domain():
    assert GaussianRational(g(-1, -1), g(2)).in_fundamental_domain()
    assert not GaussianRational(g(1, 0), g(2)).in_fundamental_domain()
    assert not GaussianRational(g(0, 1), g(2)).in_fundamental_domain()
    assert GaussianRational(g(0, 0), ONE).in_fundamental_domain()
    assert GaussianRational(g(49, -50), g(100)).in_fundamental_domain()


def test_canonical_associate_quadrant():
    for z in (g(3, 4), g(-3, 4), g(-3, -4), g(3, -4), g(0, 7), g(-7, 0)):
        canon, unit = z.canonical_associate()
        assert canon == z * unit
        assert unit.is_unit()
        assert canon.re > 0 and canon.im >= 0
    assert ZERO.canonical_associate()[0] == ZERO


def test_gcd_divides_both_and_is_maximal():
    rng = random.Random(23)
    for _ in range(200):
        a = g(rng.randint(-50, 50), rng.randint(-50, 50))
        b = g(rng.randint(-50, 50), rng.randint(-50, 50))
        if a.is_zero() and b.is_zero():
            continue
        d = gauss_gcd(a, b)
        assert not d.is_zero()
        for z in (a, b):
            q, r = divmod(z, d)
            assert r == ZERO
    assert gauss_gcd(g(5, -6), g(-2, 1) ** 4).is_unit()
    assert gauss_gcd(g(3, 1), g(2, -1)).norm == 5


def test_exact_div_rejects_nondivisors():
    assert exact_div(g(5, 14), g(3, -2)) == g(-1, 4)
    with pytest.raises(ValueError):
        exact_div(g(1, 1), g(2, 0))
    # an int divisor is coerced as the dividend is
    assert exact_div(g(4), 2) == g(2)
    assert exact_div(4, 2) == g(2)
    with pytest.raises(ZeroDivisionError):
        exact_div(g(4), 0)
    with pytest.raises(ValueError):
        exact_div(g(5), 2)


def test_rational_reduction_and_equality():
    z = GaussianRational(g(10, 0), g(27, 0))
    assert z.num == g(10) and z.den == g(27)
    assert GaussianRational(g(20), g(54)) == z
    # reduction fixes the canonical associate of the denominator
    w = GaussianRational(g(1, 0), g(0, -3))
    assert w.den.re > 0 and w.den.im >= 0
    assert GaussianRational(g(2, 2), g(4)) == GaussianRational(g(1, 1), g(2))


def test_rational_field_ops():
    a = GaussianRational(g(1, 1), g(3))
    b = GaussianRational(g(2, -1), g(5))
    assert a + b == GaussianRational(g(11, 2), g(15))
    assert a * b == GaussianRational(g(3, 1), g(15))
    assert (a / b) * b == a
    assert a - a == GaussianRational(ZERO, ONE)
    assert (a + 1) - 1 == a
    assert a.norm() == Fraction(2, 9)
    assert GaussianRational(g(5, -6), g(-2, 1) ** 4).is_gaussian_int() is False
    assert GaussianRational(g(8, 4), g(2)).is_gaussian_int() is True


def test_real_imag_components():
    z = GaussianRational(g(1, 1), g(1, -1))
    assert z.real == Fraction(0)
    assert z.imag == Fraction(1)
    assert GaussianRational(g(10), g(27)).real == Fraction(10, 27)


def test_format_parse_round_trip():
    cases = [g(0), g(5), g(-3), g(0, 1), g(0, -1), g(0, 4), g(2, -3), g(-2, 1), g(1, 1)]
    for z in cases:
        assert parse_gaussian_int(format_gaussian_int(z)) == z
    assert format_gaussian_int(g(-2, 1)) == "-2+i"
    assert format_gaussian_int(g(0, -1)) == "-i"
    assert format_gaussian_int(g(3, -4)) == "3-4i"
    with pytest.raises(ValueError):
        parse_gaussian_int("2 + 3j")


def test_parse_rational_forms():
    assert parse_gaussian_rational("10/27") == GaussianRational(g(10), g(27))
    assert parse_gaussian_rational("5-6i / -7-24i") == GaussianRational(g(5, -6), g(-7, -24))
    assert parse_gaussian_rational("-2+i") == GaussianRational(g(-2, 1), ONE)
    z = GaussianRational(g(5, -6), g(-2, 1) ** 4)
    assert parse_gaussian_rational(format_gaussian_rational(z)) == z
    with pytest.raises(ValueError):
        parse_gaussian_rational("1/2/3")
    with pytest.raises(ZeroDivisionError):
        parse_gaussian_rational("1/0")


def test_hash_agrees_with_equality_to_ints():
    table = {3: "x", -7: "y"}
    assert GaussianInt(3) == 3 and table.get(GaussianInt(3)) == "x"
    assert table.get(GaussianRational(g(-14), g(2))) == "y"
    assert hash(GaussianRational(g(3, 1))) == hash(g(3, 1))
    assert {g(3), GaussianRational(g(6), g(2)), 3} == {3}
    assert len({g(3, 1), g(1, 3), GaussianRational(g(3, 1), g(2))}) == 3


def test_bool_components_are_rejected():
    for re, im in ((True, False), (1, True), (False, 0)):
        with pytest.raises(TypeError, match="bool"):
            GaussianInt(re, im)
    with pytest.raises(TypeError):
        GaussianInt(1.0, 0)
    with pytest.raises(TypeError):
        GaussianInt.from_any(True)


def test_bool_exponents_are_rejected():
    # True == 1 would otherwise power to the base itself
    for exponent in (True, False):
        with pytest.raises(TypeError, match="not bool"):
            g(-2, 1) ** exponent
    for bad in (-1, 2.0, "2"):
        with pytest.raises(ValueError, match="nonnegative int exponent"):
            g(-2, 1) ** bad
