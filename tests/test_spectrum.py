"""Folded-series numbers with pinned convergent denominators, schedules, encodings."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

import exponent_reference as exponent_ref
import value_reference as ref
from hurwitzcf import spectrum
from hurwitzcf.cf import CfSequence, evaluate
from hurwitzcf.exactreal import ln_brackets
from hurwitzcf.gaussian import ONE, ZERO, BudgetError, GaussianInt, GaussianRational, exact_div
from hurwitzcf.spectrum import (
    DigitExpansion,
    FoldingSchedule,
    PsiFunction,
    XiNumber,
    build_xi,
    check_tail_sandwich,
    decode_base_b,
    encode_base_b,
    encode_fractional,
    estimate_exponent,
    schedule_from_psi,
    schedule_from_tau,
    unit_seed,
    variant_schedule,
)
from hurwitzcf.zaremba import certify

B = GaussianInt(-2, 1)


def g(re, im=0):
    return GaussianInt(re, im)


def test_schedule_recurrence():
    sched = FoldingSchedule(4, (3, 4))
    assert sched.v() == (4, 11, 26)
    assert sched.stage_count == 2
    with pytest.raises(ValueError, match="v0 must be a positive integer"):
        FoldingSchedule(0, ())
    with pytest.raises(ValueError, match="nonnegative"):
        FoldingSchedule(1, (-1,))


def test_schedule_refuses_non_int_exponents():
    # these were truncated by int(): u = (2, 1), and v = (4.5, 10.0)
    with pytest.raises(TypeError, match="must be int, not float"):
        FoldingSchedule(4, (2.7, True))
    with pytest.raises(TypeError, match="must be int, not bool"):
        FoldingSchedule(4, (2, True))
    with pytest.raises(TypeError, match="must be int, not float"):
        FoldingSchedule(4.5, (1,))
    with pytest.raises(TypeError, match="must be int, not bool"):
        FoldingSchedule(True, ())
    with pytest.raises(TypeError, match="must be int, not str"):
        FoldingSchedule(4, ("3",))
    assert FoldingSchedule(4, [3, 4]).u == (3, 4)


def test_schedule_from_tau_five_halves():
    sched = schedule_from_tau(Fraction(5, 2), Fraction(1), B, 9)
    assert sched.v() == (
        244, 610, 1525, 3814, 9536, 23841, 59604, 149011, 372529, 931322,
    )
    assert sched.u == (122, 305, 764, 1908, 4769, 11922, 29803, 74507, 186264)


def test_schedule_from_tau_doubling_and_tripling():
    doubling = schedule_from_tau(Fraction(2), Fraction(1), B, 5)
    assert doubling.v() == (64, 128, 256, 512, 1024, 2048)
    assert doubling.u == (0, 0, 0, 0, 0)
    tripling = schedule_from_tau(Fraction(3), Fraction(1), B, 3)
    assert tripling.v() == (729, 2187, 6561, 19683)
    assert tripling.u == (729, 2187, 6561)


def test_schedule_start_depends_on_base_norm():
    sched = schedule_from_tau(Fraction(5, 2), Fraction(1), g(-3, 1), 1)
    assert sched.v()[0] == 97


def test_schedule_from_tau_rejects():
    with pytest.raises(ValueError, match="growth ratio below 2"):
        schedule_from_tau(Fraction(3, 2), Fraction(1), B, 3)
    with pytest.raises(ValueError, match="scale factor must be positive"):
        schedule_from_tau(Fraction(2), Fraction(0), B, 3)
    with pytest.raises(ValueError, match="at least one stage"):
        schedule_from_tau(Fraction(2), Fraction(1), B, 0)


def _ref_floor_log(ratio, base_ratio):
    """Largest m >= 0 with base_ratio**m <= ratio, one multiplication at a time."""
    if ratio < 1:
        return -1
    m, power = 0, Fraction(1)
    while power * base_ratio <= ratio:
        power *= base_ratio
        m += 1
    return m


def test_floor_log_matches_the_multiplying_loop():
    cases = [(Fraction(1, 2), Fraction(2)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(5, 2))]
    for base_ratio in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 3), Fraction(1000)):
        for k in (1, 2, 3, 17, 64, 100):
            power = base_ratio**k
            cases += [(power, base_ratio), (power - Fraction(1, 10**9), base_ratio), (power * Fraction(10**9 + 1, 10**9), base_ratio)]
    rng = random.Random(18)
    for _ in range(200):
        ratio = Fraction(rng.randint(1, 10**30), rng.randint(1, 10**6))
        base_ratio = Fraction(rng.randint(2, 50), 1) / rng.choice((1, 1, 2, 3))
        if base_ratio >= 2:
            cases.append((ratio, base_ratio))
    for ratio, base_ratio in cases:
        assert spectrum._floor_log(ratio, base_ratio) == _ref_floor_log(ratio, base_ratio), (ratio, base_ratio)
    for base_value in (2, 5, 10, 13):
        for target in (*range(-2, 40), *(base_value**k + e for k in (3, 17, 64) for e in (-1, 0, 1))):
            m, power = 0, 1
            while power < target:
                power *= base_value
                m += 1
            assert spectrum._ceil_log(target, base_value) == m, (target, base_value)


def test_schedule_from_tau_matches_the_fraction_formula():
    for tau, lam, stages in ((Fraction(5, 2), Fraction(1, 10**200), 4), (Fraction(7, 3), Fraction(10**6, 7), 3),
                             (Fraction(2), Fraction(3, 10**50), 6), (Fraction(9, 2), Fraction(2), 2)):
        norm = B.norm
        m0 = 1 + max(0, _ref_floor_log(3 / lam, tau), spectrum._ceil_log(9, norm))
        v = tuple(int(lam * tau ** (n + 3 + m0)) for n in range(stages + 1))
        assert schedule_from_tau(tau, lam, B, stages).v() == v


def test_schedule_from_tau_budget_refuses_before_any_power():
    for tau, lam in ((Fraction(10**200000), Fraction(1)), (Fraction(5 * 10**400000 + 1, 2 * 10**400000), Fraction(1))):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="work budget"):
            schedule_from_tau(tau, lam, B, 21)
        assert time.perf_counter() - start < 1.0


def test_schedule_from_psi_power_only():
    sched = schedule_from_psi(PsiFunction(Fraction(5, 2), Fraction(0)), B, 8, 8)
    assert sched.v() == (8, 21, 54, 136, 341, 854, 2136, 5341, 13354)
    plain = schedule_from_psi(PsiFunction(Fraction(2), Fraction(0)), B, 4, 8)
    assert plain.u == (1,) * 8


def test_schedule_from_psi_with_log_factor():
    sched = schedule_from_psi(PsiFunction(Fraction(2), Fraction(1)), B, 4, 8)
    assert sched.v() == (4, 11, 26, 57, 120, 247, 502, 1013, 2036)
    assert sched.u == (3, 4, 5, 6, 7, 8, 9, 10)


def _full_size_ln_arg_brackets(norm, v, bits):
    """Reference: bracket ln(1 + norm**(v/2)) through the full-size argument."""
    if v % 2 == 0:
        return ln_brackets(Fraction(1 + norm ** (v // 2)), bits)
    root = isqrt(norm**v)
    lo, _ = ln_brackets(Fraction(1 + root), bits)
    _, hi = ln_brackets(Fraction(2 + root), bits)
    return lo, hi


def test_ln_arg_brackets_match_full_size_reference():
    # small bits put v = 1..64 on both sides of the v//2 >= bits switch
    for norm in (2, 5, 10):
        for bits in (4, 8, 16, 64):
            for v in list(range(1, 65)) + [2 * bits + 1, 1001, 1024]:
                lo, hi = spectrum._ln_arg_brackets(norm, v, bits)
                ref_lo, ref_hi = _full_size_ln_arg_brackets(norm, v, bits)
                if v // 2 < bits and v % 2 == 0:
                    assert (lo, hi) == (ref_lo, ref_hi)
                elif v // 2 < bits:
                    # odd v: nested in the reference's [ln(1 + r), ln(2 + r)], r = isqrt(norm**v),
                    # which never narrows, and as narrow as the asymptotic bracket
                    assert ref_lo <= lo and hi <= ref_hi
                    assert 0 < hi - lo < Fraction(1, 2 ** (bits - 1))
                else:
                    # both contain ln(1 + norm**(v/2)); the asymptotic one is within 2**-(bits-1)
                    assert lo <= ref_hi and ref_lo <= hi
                    assert 0 < hi - lo < Fraction(1, 2 ** (bits - 1))


def test_schedule_from_psi_matches_full_size_brackets(monkeypatch):
    cases = [
        (PsiFunction(Fraction(2), Fraction(1)), B, 4, 6),
        (PsiFunction(Fraction(5, 2), Fraction(2)), GaussianInt(-3, -1), 7, 5),
        (PsiFunction(Fraction(3), Fraction(1, 2)), GaussianInt(-1, 1), 64, 4),
    ]
    fast = [schedule_from_psi(*case).v() for case in cases]
    monkeypatch.setattr(spectrum, "_ln_arg_brackets", _full_size_ln_arg_brackets)
    assert fast == [schedule_from_psi(*case).v() for case in cases]


def test_schedule_from_psi_odd_start_with_log_factor_finishes():
    # the odd-v bracket used to stay 1/sqrt(norm**v) wide, so no precision separated it
    start = time.perf_counter()
    sched = schedule_from_psi(PsiFunction(Fraction(2), Fraction(1)), GaussianInt(-1, 1), 1, 2)
    assert time.perf_counter() - start < 2.0
    assert sched.v() == (1, 4, 12)


def test_psi_shape_is_checked():
    with pytest.raises(ValueError, match="unsupported Psi shape"):
        PsiFunction(Fraction(3, 2), Fraction(0))
    with pytest.raises(ValueError, match="unsupported Psi shape"):
        PsiFunction(Fraction(2), Fraction(-1))


def test_unit_seed_expands_reciprocal_power():
    seed = unit_seed(B, 4)
    assert evaluate(CfSequence(ZERO, seed)) == GaussianRational(ONE, B**4)
    for v0 in (0, -1):
        with pytest.raises(ValueError, match="v0 must be a positive integer"):
            unit_seed(B, v0)
    for v0 in (True, False):
        with pytest.raises(TypeError, match="v0 must be int, not bool"):
            unit_seed(B, v0)


def test_the_stage_check_refuses_a_word_that_is_not_canonical():
    # -7/16 = [0; -2, -3, -2], not [0; -2, -4, 2]; a word of big digits is
    # canonical without a run, by the full-to-full rule
    spectrum._canonical_stage((g(-2), g(-3), g(-2)), 0)
    spectrum._canonical_stage((B**40, -(B**40)), 1)
    with pytest.raises(AssertionError, match="stage 2: stream is not the canonical expansion"):
        spectrum._canonical_stage((g(-2), g(-4), g(2)), 2)


def test_build_stage_one_frozen():
    seed = certify(B, 4).digits
    xi = build_xi(seed, FoldingSchedule(4, (3, 4)), B, stages=1)
    assert xi.digits(0) == seed
    assert xi.digits(1) == (
        g(2, -3), g(-1, -2), g(-3, 1), g(2, -11), g(3, -1), g(1, 2), g(-2, 3),
    )
    assert xi.partial(1) == evaluate(CfSequence(ZERO, xi.digits(1)))


def test_build_partials_follow_series():
    seed = certify(B, 4).digits
    sched = FoldingSchedule(4, (3, 4, 9))
    xi = build_xi(seed, sched, B)
    v = sched.v()
    assert xi.stage_count == 3
    for m in range(1, 4):
        step = xi.partial(m) - xi.partial(m - 1)
        assert step == GaussianRational(-ONE, B ** v[m])
        assert (xi.partial(m) * B ** v[m]).is_gaussian_int()
    for m in range(1, 4):
        assert xi.digits(m)[: len(xi.digits(m - 1))] == xi.digits(m - 1)
        assert len(xi.digits(m)) == 2 * len(xi.digits(m - 1)) + 1


def test_build_unit_folds_double_length():
    seed = certify(B, 4).digits
    xi = build_xi(seed, FoldingSchedule(4, (0, 0, 0)), B)
    assert [len(xi.digits(m)) for m in range(4)] == [3, 6, 12, 24]
    v = FoldingSchedule(4, (0, 0, 0)).v()
    for m in range(1, 4):
        step = xi.partial(m) - xi.partial(m - 1)
        assert step == GaussianRational(-ONE, B ** v[m])


def test_tail_sandwich_and_exponent_brackets():
    seed = certify(B, 4).digits
    sched = FoldingSchedule(4, (3, 3, 3, 3, 3))
    xi = build_xi(seed, sched, B)
    for m in range(3):
        assert check_tail_sandwich(xi, m)
    with pytest.raises(ValueError, match="three stages beyond"):
        check_tail_sandwich(xi, 3)
    v = sched.v()
    brackets = estimate_exponent(xi)
    assert len(brackets) == 5
    for m, (lo, hi) in enumerate(brackets):
        ratio = Fraction(v[m + 1], v[m])
        assert lo < ratio < hi
        assert hi - lo < Fraction(2)  # widths shrink like 1/v_m
        assert (1 << 64) % lo.denominator == 0
        assert (1 << 64) % hi.denominator == 0
    assert brackets[4][1] - brackets[4][0] < brackets[0][1] - brackets[0][0]
    assert estimate_exponent(xi, depth=2) == brackets[:2]


def test_build_input_validation():
    seed = certify(B, 4).digits
    with pytest.raises(ValueError, match="base must be -A\\+i or -A-i"):
        build_xi(seed, FoldingSchedule(4, (3,)), g(2, 1))
    with pytest.raises(ValueError, match="empty seed"):
        build_xi((), FoldingSchedule(1, (3,)), B)
    with pytest.raises(ValueError, match="drive the full state back"):
        build_xi((g(2, 1),), FoldingSchedule(1, (3,)), B)
    with pytest.raises(ValueError, match="open-valid word"):
        build_xi((g(-2), g(1, -1)), FoldingSchedule(1, (3,)), B)
    with pytest.raises(ValueError, match="denominator base\\*\\*v0"):
        build_xi(unit_seed(B, 4), FoldingSchedule(3, (3,)), B)
    with pytest.raises(ValueError, match="coprime to the base"):
        build_xi(unit_seed(B, 4), FoldingSchedule(5, (3,)), B)
    with pytest.raises(ValueError, match="schedule is shorter"):
        build_xi(seed, FoldingSchedule(4, (3,)), B, stages=2)
    for stages in (-1, -2):
        with pytest.raises(ValueError, match="stage count must be nonnegative"):
            build_xi(seed, FoldingSchedule(4, (3,)), B, stages=stages)
    with pytest.raises(ValueError, match="below 8"):
        build_xi(seed, FoldingSchedule(4, (1,)), B)


def test_build_with_wider_base():
    base = g(-3, 1)
    seed = unit_seed(base, 2)
    xi = build_xi(seed, FoldingSchedule(2, (1, 2)), base)
    v = (2, 5, 12)
    for m in range(1, 3):
        assert (xi.partial(m) * base ** v[m]).is_gaussian_int()
        assert len(xi.digits(m)) == 2 * len(xi.digits(m - 1)) + 1


def test_w_variant_schedules():
    sched = FoldingSchedule(4, (3, 4, 0))
    # a 1 raises its increment by the least s with N**s >= 8; no stage is added
    for a, s in ((1, 3), (2, 2), (3, 1), (7, 1)):
        for im in (1, -1):
            base = g(-a, im)
            assert variant_schedule(sched, base, (1, 0, 1)) == FoldingSchedule(4, (3 + s, 4, s))
            assert variant_schedule(sched, base, (0, 1)) == FoldingSchedule(4, (3, 4 + s, 0))
            assert variant_schedule(sched, base, ()) == sched
    for word in ((2,), (0, -1), (1.0,), ("1",)):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            variant_schedule(sched, B, word)
    with pytest.raises(ValueError, match="longer than the schedule"):
        variant_schedule(sched, B, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="base must be -A\\+i or -A-i"):
        variant_schedule(sched, g(2, 1), (1,))


def test_w_variant_builds_disagree():
    for base in (g(-1, 1), B, g(-3, 1)):
        sched = schedule_from_tau(Fraction(5, 2), Fraction(1), base, 3)
        seed = unit_seed(base, sched.v0)
        first, second = (build_xi(seed, variant_schedule(sched, base, word), base) for word in ((0, 1), (1, 1)))
        assert first.partial(0) == second.partial(0)
        assert first.partial(1) != second.partial(1)
        assert check_tail_sandwich(first, 0) and check_tail_sandwich(second, 0)


def test_encode_oracle():
    assert encode_base_b(g(5), B).digits == (0, 1, 3, 1)
    assert encode_base_b(ZERO, B).digits == ()
    assert decode_base_b(DigitExpansion(B, (0, 1, 3, 1))) == g(5)


def test_encode_round_trip_all_small_bases():
    rng = random.Random(11)
    for a in (1, 2, 3):
        for im in (1, -1):
            base = g(-a, im)
            for _ in range(50):
                z = g(rng.randint(-500, 500), rng.randint(-500, 500))
                exp = encode_base_b(z, base)
                assert all(0 <= d < base.norm for d in exp.digits)
                assert decode_base_b(exp) == z


def test_digit_expansion_validation():
    with pytest.raises(ValueError, match="range"):
        DigitExpansion(B, (5,))
    with pytest.raises(ValueError, match="base must be"):
        DigitExpansion(g(2, 1), (0,))


def test_encode_fractional():
    value = certify(B, 4).value()
    expansion, shift = encode_fractional(value, B)
    assert shift == 4
    assert decode_base_b(expansion) == g(5, -6)
    whole, none_needed = encode_fractional(GaussianRational(g(7), ONE), B)
    assert none_needed == 0 and decode_base_b(whole) == g(7)
    with pytest.raises(ValueError, match="not a power of the base"):
        encode_fractional(GaussianRational(ONE, g(3)), B)


def test_encode_fractional_matches_the_multiplying_loop():
    rng = random.Random(15)
    bases = [g(-a, s) for a in range(1, 8) for s in (1, -1)]
    for base in bases:
        pool = [g(1), g(1, 1), g(1, -1), g(2, 1), g(2, -1), g(3), g(3, 2), base, base.conj(), base * base]
        for _ in range(40):
            den = ONE
            for _ in range(rng.randint(0, 4)):
                den = den * rng.choice(pool)
            num = g(rng.randint(-50, 50), rng.randint(-50, 50))
            value = GaussianRational(num, den)
            try:
                expected = ref.encode_fractional(value.num, value.den, base)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    encode_fractional(value, base)
                continue
            expansion, shift = encode_fractional(value, base)
            assert (expansion.digits, shift) == expected
    # a composite base: 1/(1+i) on -3+i (norm 10) needs one digit of shift
    expansion, shift = encode_fractional(GaussianRational(ONE, g(1, 1)), g(-3, 1))
    assert shift == 1 and decode_base_b(expansion) == exact_div(g(-3, 1), g(1, 1))
    # the conjugate prime of the pair: 2+i divides no power of -2+i = i(1+2i)
    with pytest.raises(ValueError, match="not a power of the base"):
        encode_fractional(GaussianRational(ONE, g(2, 1)), B)


def test_encode_fractional_of_a_big_partial():
    schedule = schedule_from_tau(Fraction(5, 2), Fraction(1), B, 3)
    xi = build_xi(unit_seed(B, schedule.v0), schedule, B)
    partial = xi.partial(3)
    expansion, shift = encode_fractional(partial, B)
    assert shift == schedule.v()[3]
    assert decode_base_b(expansion) == xi.stages[3].numerator
    assert (expansion.digits, shift) == ref.encode_fractional(partial.num, partial.den, B)


def test_encode_fractional_of_the_v_9536_partial():
    # ref.encode_fractional's multiplying loop takes about 10 s here, so the
    # reference checks the shift at its two ends and encodes the numerator.
    schedule = schedule_from_tau(Fraction(5, 2), Fraction(1), B, 4)
    partial = build_xi(unit_seed(B, schedule.v0), schedule, B).partial(4)
    expansion, shift = encode_fractional(partial, B)
    assert shift == schedule.v()[4] == 9536
    numerator, den = ref.normal_form(partial.num * B**shift, partial.den)
    assert den == ONE
    assert ref.normal_form(partial.num * B ** (shift - 1), partial.den)[1] != ONE
    assert expansion.digits == ref.encode_base_b(numerator, B)


def test_estimate_exponent_brackets_each_logarithm_once(monkeypatch):
    from hurwitzcf import spectrum

    xi = build_xi(certify(B, 4).digits, FoldingSchedule(4, (3, 3, 3)), B)
    first = estimate_exponent(xi)
    calls = []
    original = spectrum.ln_brackets
    monkeypatch.setattr(spectrum, "ln_brackets", lambda *a: calls.append(a) or original(*a))
    assert estimate_exponent(xi) == first
    assert calls == []


def test_estimate_exponent_matches_the_fraction_formula():
    # estimate_exponent reads only the base and the schedule, so the corpus
    # needs no stage built.
    def check(schedule, base):
        xi = XiNumber(base, schedule, ())
        n = schedule.stage_count
        for depth in (None, 0, 1, n // 2, n, n + 3):
            assert estimate_exponent(xi, depth) == exponent_ref.estimate_exponent(xi, depth), (schedule, depth)

    bases = [g(-a, s) for a in (1, 2, 3) for s in (1, -1)]
    for base in bases:
        for tau in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 3)):
            for lam in (Fraction(1), Fraction(1, 3), Fraction(7, 2)):
                schedule = schedule_from_tau(tau, lam, base, 6)
                check(schedule, base)
                check(variant_schedule(schedule, base, (1, 0, 1)), base)
        for psi in (PsiFunction(2, 0), PsiFunction(Fraction(5, 2), 1)):
            check(schedule_from_psi(psi, base, 4, 5), base)
    xi = build_xi(certify(B, 4).digits, FoldingSchedule(4, (3, 3, 3)), B)
    assert estimate_exponent(xi) == exponent_ref.estimate_exponent(xi)


def test_estimate_exponent_rejects_a_negative_depth():
    xi = build_xi(certify(B, 4).digits, FoldingSchedule(4, (3, 3, 3)), B)
    assert estimate_exponent(xi, 0) == ()
    with pytest.raises(ValueError, match="depth must be at least 0"):
        estimate_exponent(xi, -1)
