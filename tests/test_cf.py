"""Finite continued fractions: convergents, evaluation, folding identities."""

import random
from fractions import Fraction

import pytest

from hurwitzcf.cf import (
    CfSequence,
    CfUndefinedError,
    convergents,
    evaluate,
    fold,
    fold_sign,
    fold_unit,
    fold_unit_neg,
    format_cf,
    mirror,
    mirror_negate,
    parse_cf,
)
from hurwitzcf.gaussian import ONE, ZERO, GaussianInt, GaussianRational
from hurwitzcf.hcf import HcfExpansion, hcf_expand


def g(re, im=0):
    return GaussianInt(re, im)


def rand_word(rng, length):
    out = []
    while len(out) < length:
        d = g(rng.randint(-6, 6), rng.randint(-6, 6))
        if d.norm >= 4:
            out.append(d)
    return tuple(out)


def test_convergent_recurrence_and_determinant():
    rng = random.Random(5)
    for _ in range(100):
        word = CfSequence(g(rng.randint(-3, 3)), rand_word(rng, rng.randint(1, 8)))
        table = convergents(word)
        for n in range(1, table.last_index + 1):
            a = word.digit(n)
            p2 = table.p(n - 2) if n >= 2 else ONE
            q2 = table.q(n - 2) if n >= 2 else ZERO
            assert table.p(n) == a * table.p(n - 1) + p2
            assert table.q(n) == a * table.q(n - 1) + q2
            det = table.p(n) * table.q(n - 1) - table.p(n - 1) * table.q(n)
            assert det == (ONE if n % 2 == 1 else -ONE)


def test_evaluate_matches_last_convergent():
    word = CfSequence(g(2, -1), (g(3), g(-3, 1), g(0, 4)))
    table = convergents(word)
    assert evaluate(word) == table.value(table.last_index)
    assert evaluate(CfSequence(g(7))) == GaussianRational(g(7), ONE)


def test_evaluate_oracle():
    assert evaluate(CfSequence(ZERO, (g(3), g(-3), g(-3)))) == GaussianRational(g(10), g(27))


def test_undefined_suffix_raises():
    # the suffix [-i; -i] evaluates to -i + 1/(-i) = 0, so the next 1/0 is undefined
    bad = CfSequence(ZERO, (g(2), g(0, -1), g(0, -1)))
    with pytest.raises(CfUndefinedError):
        evaluate(bad)


def test_mirror_helpers():
    word = (g(1, 2), g(-3), g(0, 4))
    assert mirror(word) == (g(0, 4), g(-3), g(1, 2))
    assert mirror_negate(word) == (g(0, -4), g(3), g(-1, -2))
    assert mirror_negate(mirror_negate(word)) == word


def test_fold_identity_exact():
    rng = random.Random(9)
    for _ in range(60):
        tail = rand_word(rng, rng.randint(1, 6))
        word = CfSequence(ZERO, tail)
        x = g(rng.randint(-5, 5), rng.randint(-5, 5))
        if x.is_zero():
            continue
        try:
            base_val = evaluate(word)
            table = convergents(word)
            folded_val = evaluate(fold(word, x))
        except CfUndefinedError:
            continue
        n = len(tail)
        q = table.q(n)
        expected = base_val + GaussianRational(GaussianInt(fold_sign(n), 0), x * q * q)
        assert folded_val == expected


def test_fold_oracles():
    third = CfSequence(ZERO, (g(3),))
    assert evaluate(fold_unit(third)) == GaussianRational(g(2), g(9))
    assert evaluate(fold_unit_neg(third)) == GaussianRational(g(4), g(9))
    assert evaluate(fold(third, g(5))) == GaussianRational(g(14), g(45))
    word = CfSequence(ZERO, (g(4), g(4), g(-5)))
    assert evaluate(fold_unit(word)) == GaussianRational(g(1538), g(6561))
    assert fold_unit(word).tail == (g(4), g(4), g(-4), g(-6), g(4), g(4))


def test_unit_folds_match_explicit_identity():
    rng = random.Random(31)
    for _ in range(60):
        tail = rand_word(rng, rng.randint(1, 6))
        word = CfSequence(ZERO, tail)
        try:
            base_val = evaluate(word)
            q = convergents(word).q(len(tail))
            plus = evaluate(fold_unit(word))
            minus = evaluate(fold_unit_neg(word))
        except CfUndefinedError:
            continue
        s = GaussianRational(GaussianInt(fold_sign(len(tail)), 0), q * q)
        assert plus == base_val + s
        assert minus == base_val - s


def test_public_constructor_coerces_and_internal_words_match_it():
    cf = CfSequence(0, (2, 3))
    assert type(cf.head) is GaussianInt and all(type(a) is GaussianInt for a in cf.tail)
    assert cf == CfSequence(ZERO, (g(2), g(3)))
    assert evaluate(cf) == GaussianRational(g(3), g(7))
    assert CfSequence(g(1), [g(2, 1), 5]).tail == (g(2, 1), g(5))
    # the folds and hcf_expand build their words without coercion; they equal the public form
    word = CfSequence(0, (4, 4, -5))
    built = {
        fold(word, 3): (4, 4, -5, 3, 5, -4, -4),
        fold_unit(word): (4, 4, -4, -6, 4, 4),
        fold_unit_neg(word): (4, 4, -6, -4, 4, 4),
        hcf_expand(GaussianRational(g(3), g(7))).to_cf(): (2, 3),
    }
    for folded, tail in built.items():
        assert folded == CfSequence(0, tail) and hash(folded) == hash(CfSequence(0, tail))
        assert type(folded.tail) is tuple and all(type(a) is GaussianInt for a in folded.tail)
    # a hand-built expansion is coerced by its own constructor, so to_cf may trust it
    by_hand = HcfExpansion(0, [2, 3])
    assert by_hand == hcf_expand(GaussianRational(g(3), g(7)))
    assert by_hand.to_cf() == cf and by_hand.value() == GaussianRational(g(3), g(7))


def test_fold_rejects_bad_input():
    with pytest.raises(ValueError):
        fold(CfSequence(ZERO, (g(3),)), 0)
    with pytest.raises(ValueError):
        fold(CfSequence(g(1)), 5)
    with pytest.raises(ValueError):
        fold_unit(CfSequence(g(1)))


def test_format_parse_round_trip():
    word = CfSequence(g(1, -1), (g(-2, 1), g(0, 2)))
    assert parse_cf(format_cf(word)) == word
    assert format_cf(CfSequence(g(3))) == "[3;]"
    assert parse_cf("[0; 3, -3, -3]") == CfSequence(ZERO, (g(3), g(-3), g(-3)))


def test_negative_indices_raise_instead_of_wrapping():
    word = parse_cf("[0; 2, 3, -2+i]")
    table = convergents(word)
    assert word.digit(0) == ZERO and word.digit(3) == g(-2, 1)
    assert (table.p(-1), table.q(-1)) == (ONE, ZERO)
    for n in (-1, -2, -4):
        with pytest.raises(IndexError):
            word.digit(n)
    for n in (-2, -3, -5):
        for read in (table.p, table.q, table.value):
            with pytest.raises(IndexError):
                read(n)
    with pytest.raises(IndexError):
        word.digit(4)
    with pytest.raises(IndexError):
        table.p(4)
