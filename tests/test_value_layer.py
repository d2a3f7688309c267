"""The int-pair value layer against the boxed reference in value_reference.py, and its contracts."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import value_reference as ref
from hurwitzcf.cf import CfSequence, CfUndefinedError, convergents, evaluate
from hurwitzcf.gaussian import (
    ONE,
    ZERO,
    GaussianInt,
    GaussianRational,
    _associate_unit,
    _box,
    gauss_gcd,
    nearest_gaussian,
)
from hurwitzcf.spectrum import DigitExpansion, decode_base_b, encode_base_b


def g(re, im=0):
    return GaussianInt(re, im)


# Magnitudes of exactly b bits for b from 1 to 4000, a third of them past 600 bits.
_bits = st.one_of(st.integers(1, 64), st.integers(65, 600), st.integers(601, 4000))
_magnitudes = st.one_of(st.integers(1, 3), _bits.flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)))
_signs = st.sampled_from((1, -1))


@st.composite
def gaussians(draw, zero=False):
    """Nonzero Gaussian integers on both axes and in all four quadrants; each component sized on its own."""
    shapes = ("quadrant", "real axis", "imaginary axis") + (("zero",) if zero else ())
    shape = draw(st.sampled_from(shapes))
    if shape == "zero":
        return ZERO
    re = draw(_magnitudes) * draw(_signs) if shape != "imaginary axis" else 0
    im = draw(_magnitudes) * draw(_signs) if shape != "real axis" else 0
    return g(re, im)


@st.composite
def fractions(draw):
    """(num, den) pairs, unreduced: half of them share a drawn factor."""
    num, den = draw(gaussians(zero=True)), draw(gaussians())
    if draw(st.booleans()):
        common = draw(gaussians())
        num, den = num * common, den * common
    return num, den


def _pair(z):
    return z.num, z.den


def _exact_ints(*zs):
    return all(type(z) is GaussianInt and type(z.re) is int and type(z.im) is int for z in zs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fractions())
@example((g(0), g(5, -3)))
@example((g(6, 8), g(-3, -4)))
@example((g(7), g(0, -1)))
def test_normal_form_matches_reference(fraction):
    num, den = fraction
    z = GaussianRational(num, den)
    assert _pair(z) == ref.normal_form(num, den)
    assert _pair(GaussianRational._raw(*_pair(z))) == _pair(z)
    assert _exact_ints(z.num, z.den)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fractions(), fractions())
@example((g(1), g(2)), (g(1), g(2)))
@example((g(3, 1), g(6, -2)), (g(-1, 0), g(0, 2)))
def test_arithmetic_matches_reference(x, y):
    x, y = ref.normal_form(*x), ref.normal_form(*y)
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert _pair(a + b) == ref.add(x, y)
    assert _pair(a - b) == ref.sub(x, y)
    assert _pair(a * b) == ref.mul(x, y)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError, match="zero denominator in Gaussian rational"):
            a / b
    else:
        assert _pair(a / b) == ref.div(x, y)
    # mixed operands coerce to n/1
    n = y[0]
    assert _pair(a + n) == ref.add(x, (n, ONE)) == _pair(n + a)
    assert _pair(n - a) == ref.sub((n, ONE), x)
    assert _pair(a * n.re) == ref.mul(x, (g(n.re), ONE))
    assert _exact_ints(*_pair(a + b), *_pair(a * b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fractions())
def test_x_minus_x_is_zero(fraction):
    x = GaussianRational(*fraction)
    for zero in (x - x, x + (-x), x * 0, 0 * x):
        assert zero == 0 and zero.num == ZERO and zero.den == ONE
    if not x.is_zero():
        assert x / x == 1 and (x / x).den == ONE


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gaussians(zero=True), gaussians(), st.sampled_from(ref.UNITS))
def test_associates_and_gcd_match_reference(z, w, u):
    assert z.canonical_associate() == ref.canonical_associate(z)
    assert gauss_gcd(z, w) == ref.gcd(z, w) == gauss_gcd(w * u, z * u)
    assert _associate_unit(u * w, w) == u == ref.associate_unit(u * w, w)
    assert _associate_unit(z, w) == ref.associate_unit(z, w)
    assert _associate_unit(w + 1, w) is None


def test_associates_on_the_axes_and_at_zero():
    assert g(0).canonical_associate() == ref.canonical_associate(g(0)) == (ZERO, ONE)
    for z in (g(5), g(-5), g(0, 5), g(0, -5), g(1, 1), g(-1, 1), g(-1, -1), g(1, -1)):
        assert z.canonical_associate() == ref.canonical_associate(z)
        assert gauss_gcd(z, 0) == gauss_gcd(0, z) == ref.gcd(z, g(0))
    with pytest.raises(ValueError, match="gcd"):
        gauss_gcd(0, 0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fractions())
def test_rounding_and_domain_match_reference(fraction):
    x = ref.normal_form(*fraction)
    z = GaussianRational(*x)
    assert nearest_gaussian(z) == ref.nearest_gaussian(x)
    assert z.in_fundamental_domain() == ref.in_fundamental_domain(x)
    head = nearest_gaussian(z)
    assert (z - head).in_fundamental_domain()
    assert _exact_ints(head)


_small_digits = st.builds(g, st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gaussians(zero=True), st.lists(st.one_of(_small_digits, gaussians()), max_size=12))
def test_convergents_and_evaluate_match_reference(head, tail):
    cf = CfSequence(head, tuple(tail))
    table = convergents(cf)
    assert (table.ps, table.qs) == ref.convergents(head, tail)
    assert _exact_ints(*table.ps, *table.qs)
    try:
        expected = ref.evaluate(head, tail)
    except CfUndefinedError as exc:
        with pytest.raises(CfUndefinedError) as caught:
            evaluate(cf)
        assert str(caught.value) == str(exc)
    else:
        assert _pair(evaluate(cf)) == expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_small_digits, st.lists(st.builds(g, st.integers(-2, 2), st.integers(-1, 1)), max_size=8))
@example(g(0), [g(2), g(1), g(-1)])
@example(g(0), [g(1), g(-1)])
@example(g(3), [g(0)])
@example(g(1), [g(-1)])
def test_zero_suffix_words_raise_like_reference(head, tail):
    # digits in {-2..2} x {-1, 0, 1} make words with a zero suffix common
    cf = CfSequence(head, tuple(tail))
    try:
        expected = ref.evaluate(head, tail)
    except CfUndefinedError as exc:
        with pytest.raises(CfUndefinedError) as caught:
            evaluate(cf)
        assert type(caught.value) is CfUndefinedError and str(caught.value) == str(exc)
    else:
        assert _pair(evaluate(cf)) == expected


def test_zero_suffix_messages_name_the_digit():
    for tail, digit in (((2, 1, -1), 2), ((1, -1), 1), ((0,), 1), ((3, 0), 2)):
        with pytest.raises(CfUndefinedError, match=f"suffix starting at digit {digit} evaluates to zero"):
            evaluate(CfSequence(g(0), tuple(g(d) for d in tail)))
    assert evaluate(CfSequence(g(0), (g(3), g(0), g(5)))) == GaussianRational(g(1), g(8))
    assert evaluate(CfSequence(g(1), (g(-1),))) == 0


_bases = st.sampled_from([g(-a, s) for a in (1, 2, 3, 7) for s in (1, -1)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gaussians(zero=True), _bases)
def test_codec_matches_reference(z, base):
    expansion = encode_base_b(z, base)
    assert expansion.digits == ref.encode_base_b(z, base)
    assert all(type(d) is int for d in expansion.digits)
    decoded = decode_base_b(expansion)
    assert decoded == z == ref.decode_base_b(expansion.digits, base)
    assert _exact_ints(decoded)


# -- contracts ---------------------------------------------------------------


def test_int_valued_values_hash_like_the_int():
    values = [
        (GaussianRational(g(6), g(3)), 2),
        (GaussianRational(g(1), g(2)) + GaussianRational(g(1), g(2)), 1),
        (GaussianRational(g(2, 2), g(1, 1)), 2),
        (GaussianRational(g(3), g(2)) * 2, 3),
        (GaussianRational(g(7), g(-1)) / -7, 1),
        (GaussianRational(g(15, 5), g(1, 1)) - GaussianRational(g(10), g(1, 1)), 5),
        (evaluate(CfSequence(g(4), ())), 4),
        (evaluate(CfSequence(g(1), (g(-1),))), 0),
        (GaussianRational(g(0), g(3, 4)), 0),
        (g(-7), -7),
        (_box(11, 0), 11),
        (convergents(CfSequence(g(9), (g(2),))).p(0), 9),
        (decode_base_b(encode_base_b(g(12345), g(-2, 1))), 12345),
        (nearest_gaussian(GaussianRational(g(7), g(2))), 4),
    ]
    for value, n in values:
        assert value == n and n == value
        assert hash(value) == hash(n)
        assert len({value, n}) == 1


def test_bool_components_are_refused():
    for args in ((True, 0), (1, False), (True, True)):
        with pytest.raises(TypeError):
            GaussianInt(*args)
    for args in ((True,), (1, True), (g(1), False), (False, g(2))):
        with pytest.raises(TypeError):
            GaussianRational(*args)
    with pytest.raises(TypeError):
        GaussianRational(g(1), g(2)) + True
    with pytest.raises(TypeError):
        GaussianInt(1.0, 0)


def test_boxed_values_are_immutable():
    z = GaussianRational(g(3, 4), g(5, -2))
    table = convergents(CfSequence(g(1), (g(2, 1), g(-3))))
    values = [_box(3, 4), z.num, z.den, table.p(1), table.q(1), decode_base_b(DigitExpansion(g(-2, 1), (1, 3))),
              g(3, 4).canonical_associate()[0], gauss_gcd(g(6), g(4, 2)), nearest_gaussian(z)]
    for value in values:
        assert type(value) is GaussianInt
        for name in ("re", "im", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(z, name, ONE)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert _box(3, 4) == g(3, 4) and hash(_box(3, 4)) == hash(g(3, 4))
