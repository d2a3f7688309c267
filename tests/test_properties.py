"""Quick randomized property runs; the acceptance gate repeats them at full size.

The suites in suites.py draw their cases from fixed seeds, which the gate
keeps.  The hypothesis tests below state the same six properties on drawn
cases, so that a failure shrinks to a small counterexample.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hurwitzcf.cf import CfSequence, CfUndefinedError, convergents, evaluate, fold, fold_unit, fold_unit_neg
from hurwitzcf.gaussian import ZERO, GaussianInt, GaussianRational
from hurwitzcf.hcf import digit_in_alphabet, hcf_expand
from hurwitzcf.spectrum import decode_base_b, encode_base_b
from suites import ALL_SUITES


@pytest.mark.parametrize("name,suite", ALL_SUITES, ids=[name for name, _ in ALL_SUITES])
def test_property_suite(name, suite):
    failures = suite(1000, random.Random(f"dev-{name}"))
    assert failures == 0


def _gaussians(bound):
    return st.builds(GaussianInt, st.integers(-bound, bound), st.integers(-bound, bound))


# The suites' generators as strategies: digits of the alphabet with components
# up to 6, words of 1 to 8 digits, and fractions of components up to 10**6
# over nonzero denominators of components up to 1000.
digits = _gaussians(6).filter(digit_in_alphabet)
words = st.lists(digits, min_size=1, max_size=8).map(tuple)
fractions = st.builds(GaussianRational, _gaussians(10**6), _gaussians(1000).filter(bool))
bases = st.sampled_from([GaussianInt(-a, im) for a in (1, 2, 3) for im in (1, -1)])

properties = settings(max_examples=200, deadline=None, derandomize=True)


@properties
@given(words)
def test_determinant(word):
    table = convergents(CfSequence(ZERO, word))
    for n in range(1, table.last_index + 1):
        assert table.p(n) * table.q(n - 1) - table.p(n - 1) * table.q(n) == (-1) ** (n - 1)


@properties
@given(fractions)
def test_denominator_growth(z):
    table = convergents(hcf_expand(z).to_cf())
    norms = [table.q(n).norm for n in range(table.last_index + 1)]
    assert all(a < b for a, b in zip(norms, norms[1:]))


@properties
@given(fractions)
def test_hurwitz_quality(z):
    table = convergents(hcf_expand(z).to_cf())
    for n in range(table.last_index):
        assert (z - table.value(n)).norm() * Fraction(table.q(n).norm) ** 2 < 1


@properties
@given(st.lists(digits, min_size=1, max_size=6).map(tuple), digits)
def test_folding_identity(tail, x):
    word = CfSequence(ZERO, tail)
    try:
        value = evaluate(word)
    except CfUndefinedError:
        assume(False)  # some words have no finite value, as in the suite
    q = convergents(word).q(len(tail))
    sign = GaussianInt((-1) ** len(tail), 0)
    assert evaluate(fold(word, x)) == value + GaussianRational(sign, x * q * q)
    assert evaluate(fold_unit(word)) == value + GaussianRational(sign, q * q)
    assert evaluate(fold_unit_neg(word)) == value + GaussianRational(-sign, q * q)


@properties
@given(fractions)
def test_expand_round_trip(z):
    expansion = hcf_expand(z)
    assert all(digit_in_alphabet(d) for d in expansion.digits)
    assert expansion.value() == z


@properties
@given(bases, _gaussians(10**9))
def test_encode_decode(base, z):
    expansion = encode_base_b(z, base)
    assert all(0 <= d < base.norm for d in expansion.digits)
    assert decode_base_b(expansion) == z
