"""Differential tests of the int-pair Gauss-map kernel against slow oracles.

The oracles are the boxed GaussianInt loops that `hcf_expand` and `gauss_gcd`
ran before the kernel replaced them, plus sympy's ZZ_I gcd.  The gcd-only
loop behind `_gcd` is checked against the Gauss map's last remainder.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzcf.cf import CfSequence, convergents, evaluate
from hurwitzcf.gaussian import (
    _EUCLID_BITS,
    UNITS,
    ZERO,
    GaussianInt,
    GaussianRational,
    _gauss_map,
    _gcd,
    _round_half_up,
    gauss_gcd,
)
from hurwitzcf.hcf import hcf_expand


def g(re, im=0):
    return GaussianInt(re, im)


def boxed_expand(num, den):
    """The boxed Gauss map: head [num/den], then a full-size product per digit."""
    head = divmod(num, den)[0]
    num = num - head * den
    digits = []
    while not num.is_zero():
        t = num * den.conj()
        n = den.norm
        assert -n <= 2 * t.re < n and -n <= 2 * t.im < n
        n = num.norm
        t = den * num.conj()
        d = g(_round_half_up(t.re, n), _round_half_up(t.im, n))
        assert d.norm >= 2
        digits.append(d)
        num, den = den - d * num, num
    return head, tuple(digits)


def boxed_gcd(a, b):
    """The boxed Euclidean loop with nearest-integer remainders."""
    while not b.is_zero():
        r = a % b
        assert r.norm * 2 <= b.norm
        a, b = b, r
    return a.canonical_associate()[0]


def kernel(num, den):
    head, digits, last = _gauss_map(num.re, num.im, den.re, den.im)
    return g(*head), tuple(g(*d) for d in digits), g(*last)


def check_against_oracles(num, den):
    head, digits, last = kernel(num, den)
    assert (head, digits) == boxed_expand(num, den)
    expected_gcd = boxed_gcd(num, den)
    assert last.canonical_associate()[0] == expected_gcd
    assert gauss_gcd(num, den) == expected_gcd
    if not num.is_zero():
        exp = hcf_expand(GaussianRational(num, den))
        assert (exp.integer_part, exp.digits) == (head, digits)


def random_gaussian(rng, bits):
    return g(rng.randint(-(1 << bits), 1 << bits), rng.randint(-(1 << bits), 1 << bits))


@pytest.mark.parametrize("bits", [2, 3, 8, 32, 128, 512, 1500])
def test_random_operands_match_boxed_loops(bits):
    rng = random.Random(f"kernel-{bits}")
    for _ in range(max(4, 400 // bits)):
        num, den = random_gaussian(rng, bits), random_gaussian(rng, bits)
        if not den.is_zero():
            check_against_oracles(num, den)


def test_large_operands_match_sympy_and_round_trip():
    # The boxed expansion costs about a second at this size, so the digits
    # are checked by exact re-evaluation; the kernel checks every step's
    # domain and digit itself.
    zz_i = pytest.importorskip("sympy.polys.domains").ZZ_I
    rng = random.Random("kernel-5000")
    num, den = random_gaussian(rng, 5000), random_gaussian(rng, 5000)
    common = random_gaussian(rng, 64)
    head, digits, last = kernel(num * common, den * common)
    assert evaluate(CfSequence(head, digits)) == GaussianRational(num, den)
    ref = zz_i.gcd(zz_i(num.re, num.im), zz_i(den.re, den.im)) * zz_i(common.re, common.im)
    assert last.canonical_associate()[0] == g(int(ref.x), int(ref.y)).canonical_associate()[0]


def test_gcd_matches_sympy_across_sizes():
    zz_i = pytest.importorskip("sympy.polys.domains").ZZ_I
    rng = random.Random("kernel-sympy")
    for bits in (2, 5, 16, 64, 300, 1000):
        for _ in range(6):
            a, b = random_gaussian(rng, bits), random_gaussian(rng, bits)
            common = random_gaussian(rng, bits // 2 + 1)
            a, b = a * common, b * common
            if a.is_zero() and b.is_zero():
                continue
            ref = zz_i.gcd(zz_i(a.re, a.im), zz_i(b.re, b.im))
            assert gauss_gcd(a, b) == g(int(ref.x), int(ref.y)).canonical_associate()[0]


def test_half_boundary_ties():
    # (x + y i) / (2 den) puts components exactly on the half-open box's
    # edges, both at the head step and inside the expansion.
    dens = (g(1), g(2), g(3), g(1, 1), g(2, 1), g(1, -2), g(3, -2))
    for den in dens:
        span = 2 * max(abs(den.re), abs(den.im)) + 3
        for x in range(-span, span + 1):
            for y in range(-span, span + 1):
                check_against_oracles(g(x, y), 2 * den)


def test_unreduced_inputs_keep_digits_and_return_the_common_factor():
    rng = random.Random("kernel-unreduced")
    for _ in range(60):
        word = tuple(g(rng.choice([-3, -2, 2, 3, 4]), rng.randint(-3, 3)) for _ in range(rng.randint(1, 12)))
        try:
            value = evaluate(CfSequence(ZERO, word))
        except ArithmeticError:
            continue
        common = random_gaussian(rng, rng.choice([1, 8, 100]))
        if common.is_zero():
            continue
        p, q = value.num, value.den  # coprime: consecutive convergents
        head, digits, last = kernel(p * common, q * common)
        assert (head, digits) == boxed_expand(p, q)
        assert last.canonical_associate()[0] == common.canonical_associate()[0]
        assert gauss_gcd(p * common, q * common) == common.canonical_associate()[0]


def test_last_remainder_scales_the_last_convergent():
    # On unreduced num/den the pass leaves num = p_n * last and den = q_n * last
    # exactly, p_n / q_n the last convergent of [head; digits].
    rng = random.Random("kernel-convergent")
    for bits in (1, 3, 12, 64, 300):
        for _ in range(12):
            num, den = random_gaussian(rng, bits), random_gaussian(rng, bits)
            common = random_gaussian(rng, rng.choice([0, 2, 40]))
            if den.is_zero() or common.is_zero():
                continue
            num, den = num * common, den * common
            head, digits, last = kernel(num, den)
            table = convergents(CfSequence(head, digits))
            assert num == table.p(table.last_index) * last
            assert den == table.q(table.last_index) * last


def test_zero_and_integral_inputs():
    assert kernel(ZERO, g(3, 4)) == (ZERO, (), g(3, 4))
    assert kernel(g(6, 8), g(3, 4)) == (g(2), (), g(3, 4))
    assert gauss_gcd(g(0), g(-4, 3)) == g(3, 4)
    assert gauss_gcd(g(-4, 3), 0) == g(3, 4)
    with pytest.raises(ValueError):
        gauss_gcd(0, 0)
    with pytest.raises(ZeroDivisionError):
        _gauss_map(1, 0, 0, 0)


small = st.integers(min_value=-(1 << 40), max_value=1 << 40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small, small, small, small)
def test_small_operands_match_boxed_loops(nre, nim, dre, dim):
    if dre or dim:
        check_against_oracles(g(nre, nim), g(dre, dim))


def check_gcd(a, b, zz_i):
    """_gcd(a, b) is _gauss_map's last remainder and its norm, and sympy's gcd up to a unit."""
    gre, gim, gn = _gcd(a.re, a.im, b.re, b.im)
    last = _gauss_map(a.re, a.im, b.re, b.im)[2]
    assert (gre, gim) == last and gn == gre * gre + gim * gim
    ref = zz_i.gcd(zz_i(a.re, a.im), zz_i(b.re, b.im))
    assert g(gre, gim).canonical_associate()[0] == g(int(ref.x), int(ref.y)).canonical_associate()[0]


def test_gcd_loop_matches_the_gauss_map_and_sympy():
    zz_i = pytest.importorskip("sympy.polys.domains").ZZ_I
    rng = random.Random("kernel-gcd-loop")
    # zero numerators, units and associates of b
    for b in (g(1), g(0, -1), g(3, 4), g(-2, 1), g(7, -5)):
        for u in UNITS:
            check_gcd(ZERO, b, zz_i)
            check_gcd(u, b, zz_i)
            check_gcd(b, u, zz_i)
            check_gcd(u * b, b, zz_i)
    # ties: a/b has a component of exactly +-1/2 at the first step
    for c in (g(1), g(2, 1), g(3, -2), g(5, 8)):
        for e in (g(1), g(-1), g(0, 1), g(0, -1), g(1, 1), g(-1, -1), g(1, -1)):
            check_gcd(g(rng.randint(-9, 9), rng.randint(-9, 9)) * 2 * c + c * e, 2 * c, zz_i)
    # unreduced inputs with a known common factor, on both sides of _EUCLID_BITS
    for bits in (1, 17, 64, _EUCLID_BITS - 8, _EUCLID_BITS, _EUCLID_BITS + 1, 400):
        for _ in range(8):
            a, b = random_gaussian(rng, bits), random_gaussian(rng, bits)
            common = random_gaussian(rng, rng.choice([0, 3, 20]))
            if b.is_zero() or common.is_zero():
                continue
            check_gcd(a * common, b * common, zz_i)
            assert gauss_gcd(a * common, b * common) == (gauss_gcd(a, b) * common).canonical_associate()[0]
