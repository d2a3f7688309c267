"""Canonical nearest-integer expansions and digit-succession rules."""

import random
from fractions import Fraction

import pytest

from hurwitzcf.cf import convergents
from hurwitzcf.exactreal import sqrt_brackets
from hurwitzcf.gaussian import ONE, ZERO, GaussianInt, GaussianRational
from hurwitzcf.hcf import (
    allowed_successors,
    check_error_sandwich,
    digit_in_alphabet,
    error_sandwich,
    hcf_expand,
)


def g(re, im=0):
    return GaussianInt(re, im)


def test_alphabet_membership():
    for bad in (g(0), g(1), g(-1), g(0, 1), g(0, -1)):
        assert not digit_in_alphabet(bad)
    for good in (g(1, 1), g(2), g(0, -2), g(-2, 1), g(3, 4)):
        assert digit_in_alphabet(good)


def test_expand_oracle_real_fraction():
    exp = hcf_expand(GaussianRational(g(10), g(27)))
    assert exp.integer_part == ZERO
    assert exp.digits == (g(3), g(-3), g(-3))
    assert exp.value() == GaussianRational(g(10), g(27))


def test_expand_oracle_complex_fraction():
    exp = hcf_expand(GaussianRational(g(5, -6), g(-2, 1) ** 4))
    assert exp.integer_part == ZERO
    assert exp.digits == (g(2, -3), g(-1, -2), g(-3, 1))


def test_expand_integers_terminate_immediately():
    assert hcf_expand(7).digits == ()
    assert hcf_expand(g(-2, 5)).digits == ()
    exp = hcf_expand(GaussianRational(g(21, -35), g(7)))
    assert exp.integer_part == g(3, -5) and exp.digits == ()


def test_expand_round_trip_random():
    rng = random.Random(101)
    for _ in range(400):
        num = g(rng.randint(-400, 400), rng.randint(-400, 400))
        den = g(rng.randint(-40, 40), rng.randint(-40, 40))
        if den.is_zero():
            continue
        z = GaussianRational(num, den)
        exp = hcf_expand(z)
        assert all(digit_in_alphabet(d) for d in exp.digits)
        assert exp.value() == z


def test_expansions_can_touch_the_half_open_boundary():
    # tails may sit on the included box edges, where the strict pairwise
    # successor law does not apply
    z = GaussianRational(g(-8, -95), g(12, 3))
    exp = hcf_expand(z)
    assert exp.digits == (g(-1, 1), g(-2), g(1, -2), g(-1, 1))
    assert not all(allowed_successors(a).allows(b) for a, b in zip(exp.digits, exp.digits[1:]))
    assert exp.value() == z


def test_tail_values_stay_in_domain():
    z = GaussianRational(g(137, -254), g(401, 38))
    exp = hcf_expand(z)
    tail = z - exp.integer_part
    for d in exp.digits:
        assert tail.in_fundamental_domain()
        tail = GaussianRational(ONE, ONE) / tail - d
    assert tail == GaussianRational(ZERO, ONE)


def test_successor_rule_kinds():
    assert allowed_successors(g(1, 1)).kind == "quadrant"
    assert allowed_successors(g(-2)).kind == "half_plane"
    assert allowed_successors(g(0, 2)).kind == "half_plane"
    assert allowed_successors(g(2, 1)).kind == "two_branch"
    assert allowed_successors(g(3)).kind == "free"
    assert allowed_successors(g(2, 2)).kind == "free"
    assert allowed_successors(g(-3, 4)).kind == "free"
    with pytest.raises(ValueError):
        allowed_successors(g(0, 1))


def test_successors_after_corner_digit():
    rule = allowed_successors(g(1, 1))
    # closed quadrant Re >= 0, Im <= 0
    assert rule.fresh_allows(g(2))
    assert rule.fresh_allows(g(2, -2))
    assert rule.fresh_allows(g(0, -2))
    assert not rule.fresh_allows(g(-2))
    assert not rule.fresh_allows(g(2, 2))
    assert not rule.fresh_allows(g(0, 2))
    assert not rule.fresh_allows(g(1))  # not even a digit


def test_successors_after_norm_four_digit():
    rule = allowed_successors(g(2))
    assert rule.fresh_allows(g(2, 5)) and rule.fresh_allows(g(2, -5))
    assert rule.fresh_allows(g(0, 2))
    assert not rule.fresh_allows(g(-2, 1))
    rule_i = allowed_successors(g(0, -2))
    assert rule_i.fresh_allows(g(5, 2)) and rule_i.fresh_allows(g(-5, 2))
    assert not rule_i.fresh_allows(g(1, -2))


def test_successors_after_norm_five_digit():
    rule = allowed_successors(g(2, 1))
    assert rule.kind == "two_branch"
    assert rule.forbidden == g(-1, 1)
    assert rule.decayed_digit == g(2)
    assert rule.fresh_allows(g(-1, -1))
    assert not rule.fresh_allows(g(-1, 1))
    # decayed branch is the half-plane of the worn edge
    assert rule.decayed_allows(g(2, 7)) and not rule.decayed_allows(g(-2, 1))
    assert rule.allows(g(-1, -1)) and rule.allows(g(2, 7))


def sq_brackets(bound, bits):
    """Rational lo <= bound^2 <= hi, from sqrt brackets: the reference for SandwichBound.cmp_sq."""
    q4 = Fraction(bound.q_norm) ** 2
    s2_lo, s2_hi = sqrt_brackets(2, bits)
    if bound.side == "upper":
        # U^2 = (24 + 16*sqrt(2)) / (N * |q|^4)
        den = bound.digit_norm * q4
        return (24 + 16 * s2_lo) / den, (24 + 16 * s2_hi) / den
    # L^2 = (6 - 4*sqrt(2)) / (|q|^4 * (N + 1/2 + sqrt(2N)))
    r_lo, r_hi = sqrt_brackets(2 * bound.digit_norm, bits)
    num_lo, num_hi = 6 - 4 * s2_hi, 6 - 4 * s2_lo
    den_lo = q4 * (bound.digit_norm + Fraction(1, 2) + r_lo)
    den_hi = q4 * (bound.digit_norm + Fraction(1, 2) + r_hi)
    return num_lo / den_hi, num_hi / den_lo


def test_error_sandwich_brackets_are_ordered():
    z = GaussianRational(g(10), g(27))
    lower, upper = error_sandwich(z, 1)
    lo_lo, lo_hi = sq_brackets(lower, 32)
    up_lo, up_hi = sq_brackets(upper, 32)
    assert 0 < lo_lo <= lo_hi < up_lo <= up_hi
    with pytest.raises(ValueError):
        error_sandwich(z, 5)


SANDWICH_SAMPLES = [
    GaussianRational(g(10), g(27)),
    GaussianRational(g(5, -6), g(-2, 1) ** 4),
    GaussianRational(g(137, -254), g(401, 38)),
    GaussianRational(g(71), g(512)),
]


def test_error_sandwich_holds_on_samples():
    for z in SANDWICH_SAMPLES:
        for n in range(len(hcf_expand(z).digits)):
            assert check_error_sandwich(z, n)


def _refined_cmp_sq(bound, value_sq):
    """Reference: the sign of bound^2 - value_sq by refining sq_brackets from 16 to 4096 bits."""
    bits = 16
    while bits <= 4096:
        lo, hi = sq_brackets(bound, bits)
        if value_sq < lo:
            return 1
        if value_sq > hi:
            return -1
        bits *= 2
    raise ArithmeticError("sandwich bound comparison failed to converge")


def test_cmp_sq_matches_bracket_refinement():
    # the actual squared errors, and values squeezed against each bound from both sides
    signs = set()
    for z in SANDWICH_SAMPLES:
        for n in range(len(hcf_expand(z).digits)):
            for bound in error_sandwich(z, n):
                values = [(z - convergents(hcf_expand(z).to_cf()).value(n)).norm()]
                for bits in (8, 64, 200):
                    lo, hi = sq_brackets(bound, bits)
                    values += [lo, hi, lo * (1 - Fraction(1, 2**bits)), hi * (1 + Fraction(1, 2**bits))]
                for value_sq in values:
                    expected = _refined_cmp_sq(bound, value_sq)
                    assert bound.cmp_sq(value_sq) == expected
                    signs.add((bound.side, expected))
    assert signs == {(side, s) for side in ("lower", "upper") for s in (-1, 1)}


def test_hurwitz_quality_of_convergents():
    # every convergent approximates better than 1/|q_n|^2
    z = GaussianRational(g(137, -254), g(401, 38))
    exp = hcf_expand(z)
    table = convergents(exp.to_cf())
    for n in range(table.last_index):
        err_sq = (z - table.value(n)).norm()
        assert err_sq * Fraction(table.q(n).norm) ** 2 < 1


def test_check_error_sandwich_expands_once(monkeypatch):
    from hurwitzcf import hcf

    calls = []
    for name in ("hcf_expand", "convergents"):
        original = getattr(hcf, name)
        monkeypatch.setattr(hcf, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    assert check_error_sandwich(GaussianRational(g(10), g(27)), 1)
    assert sorted(calls) == ["convergents", "hcf_expand"]
