"""The xi builder's fast paths against slow oracles: the series-side folding
step and each stage's pinned pair against the convergent recurrence, the
builder with its modular stage check against the two-sided builder in
xi_reference.py, the residue tail sandwich and its telescoping fallback against the per-m
formula, and the up-front work budget."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import random
import time
import weakref
from fractions import Fraction

import pytest
import sympy
import xi_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitzcf import cli, gaussian, geometry, spectrum
from hurwitzcf.cf import CfSequence, _fold_series, convergents, fold, fold_unit, fold_unit_neg
from hurwitzcf.gaussian import ONE, UNITS, ZERO, GaussianInt
from hurwitzcf.spectrum import (
    MAX_POWER_BITS,
    BudgetError,
    FoldingSchedule,
    PsiFunction,
    build_xi,
    check_tail_sandwich,
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


def last_pair(cf):
    """(q_n, p_n), the last convergent of cf, from cf.convergents."""
    table = convergents(cf)
    return table.q(table.last_index), table.p(table.last_index)


def old_sandwich(xi, m):
    """check_tail_sandwich as it was: one top-size power, product and norm per m."""
    top = xi.stage_count
    v = xi.schedule.v()
    gap = xi.stages[top].numerator - xi.stages[m].numerator * xi.base ** (v[top] - v[m])
    scale = xi.base.norm ** (v[top] - v[m + 1])
    return scale <= 4 * gap.norm <= 9 * scale


small = st.builds(GaussianInt, st.integers(-6, 6), st.integers(-6, 6))
digit = small.filter(lambda d: d.norm >= 2)
middles = st.one_of(
    st.sampled_from(UNITS),
    digit,
    st.builds(lambda k, u: u * B**k, st.integers(8, 80), st.sampled_from(UNITS)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(digit, min_size=1, max_size=9), middles, st.sampled_from(UNITS), st.sampled_from((1, -1)))
def test_fold_step_matches_the_recurrence(word, middle, u, sign):
    # Any unit u writes the last convergent (q, p) of [0; word] as (u B, u c).
    word = tuple(word)
    cf = CfSequence(ZERO, word)
    q, p = last_pair(cf)
    den, num = u.conj() * q, u.conj() * p
    tail = _fold_series(word, u, middle, sign)
    x = g(sign * (-1) ** len(word)) * u * u * middle
    if x == g(1):
        assert tail == fold_unit(cf).tail
    elif x == g(-1):
        assert tail == fold_unit_neg(cf).tail
    else:
        assert tail == fold(cf, x).tail
    q_fold, p_fold = last_pair(CfSequence(ZERO, tail))
    assert p_fold * middle * den * den == q_fold * (num * middle * den + sign)


def _seeds():
    out = []
    for base in (g(-2, 1), g(-2, -1), g(-3, 1), g(-3, -1), g(-4, 1)):
        for v0 in (3, 4, 5, 7):
            out.append((base, v0, unit_seed(base, v0)))
    for k in (4, 6, 8, 9):  # full seed words of lengths 3, 5, 6 and 7
        out.append((B, k, certify(B, k).digits))
    return out


def _schedules(rng, base, v0):
    norm = base.norm
    steps = [0, 0] + [s for s in (1, 2, 3, 5) if norm**s >= 8]
    for _ in range(3):
        yield FoldingSchedule(v0, tuple(rng.choice(steps) for _ in range(rng.randint(1, 5))))
    yield FoldingSchedule(v0, (0,) * 5)
    for word in itertools.product((0, 1), repeat=2):
        yield variant_schedule(FoldingSchedule(v0, (0, steps[-1], 0)), base, word)


def _assert_pinned(xi):
    """Each stage's (base**v_n, numerator_n) is the full stream's last convergent pair times one unit."""
    v = xi.schedule.v()
    for n, stage in enumerate(xi.stages):
        q, p = last_pair(CfSequence(ZERO, stage.digits))
        power = xi.base ** v[n]
        assert any(u * power == q and u * stage.numerator == p for u in UNITS), n


def test_build_xi_matrices_equal_the_full_stream_convergents():
    rng = random.Random(7)
    kinds = set()
    built = 0
    for base, v0, seed in _seeds():
        for schedule in _schedules(rng, base, v0):
            try:
                xi = build_xi(seed, schedule, base)
            except (ValueError, AssertionError) as exc:
                # The old builder refused these too: a seed that is not
                # canonical after a unit fold, or a digit-norm-5 middle.
                assert "canonical" in str(exc) or "below 8" in str(exc)
                continue
            built += 1
            _assert_pinned(xi)
            for n in range(1, xi.stage_count + 1):
                digits, previous = xi.digits(n), xi.digits(n - 1)
                if len(digits) == 2 * len(previous):
                    kinds.add(("unit", digits[len(previous) - 1] == previous[-1] + 1))
                else:
                    power = base ** schedule.u[n - 1]
                    coefficient = next(u for u in UNITS if u * power == digits[len(previous)])
                    kinds.add(("general", len(previous) % 2, coefficient))
    assert built >= 60
    # unit folds both ways; general folds on odd and even words with both coefficient signs
    assert {("unit", True), ("unit", False)} <= kinds
    assert {("general", p, c) for p in (0, 1) for c in (g(1), g(-1))} <= kinds


@pytest.mark.parametrize("base, tau, stages, pattern", [
    (g(-3, 1), "5/2", 2, (0, 1)),
    (g(-2, -1), "5/2", 3, (1, 0, 1)),
    (g(-2, 1), "2", 4, None),
    (g(-3, -1), "5/2", 4, None),
])
def test_cli_schedules_match_the_full_stream_convergents(base, tau, stages, pattern):
    schedule = schedule_from_tau(Fraction(tau), Fraction(1), base, stages + 1)
    if pattern is not None:  # `hurwitzcf xi --variant`
        schedule = variant_schedule(schedule, base, pattern)
    xi = build_xi(unit_seed(base, schedule.v0), schedule, base, stages=stages)
    assert xi.stage_count == stages
    _assert_pinned(xi)


def _assert_residues(xi):
    """build_xi's stored residues are d_k - d_(k-1) b**(v_k - v_(k-1)), by plain * and **."""
    assert "_residues" in vars(xi)
    v = xi.schedule.v()
    d = [s.numerator for s in xi.stages]
    assert xi._residues == tuple(d[k] - d[k - 1] * xi.base ** (v[k] - v[k - 1]) for k in range(1, xi.stage_count + 1))


def _observed(build, *args, **kwargs):
    """(index, numerator, digits, partial) per stage as a builder returns them, or the error it raises.

    build_xi's partials come from XiNumber.partial, which powers the base
    afresh; the reference's from its exact product chain for base**v_n.
    build_xi's residues are checked on the way.
    """
    try:
        xi = build(*args, **kwargs)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    if isinstance(xi, spectrum.XiNumber):
        _assert_residues(xi)
        return [(s.index, s.numerator, s.digits, xi.partial(s.index)) for s in xi.stages]
    return xi


def test_build_xi_matches_the_two_sided_builder_on_the_corpus():
    rng = random.Random(7)
    for base, v0, seed in _seeds():
        for schedule in _schedules(rng, base, v0):
            assert _observed(build_xi, seed, schedule, base) == _observed(ref.build_xi, seed, schedule, base)


_SMALL_BASES = [g(-a, im) for a in (1, 2, 3) for im in (1, -1)]


@functools.cache
def _tau_schedule(base, tau, stages):
    return schedule_from_tau(Fraction(tau), Fraction(1), base, stages + 1)


@pytest.mark.parametrize("base", _SMALL_BASES)
def test_build_xi_matches_the_two_sided_builder_on_the_cli_schedules(base):
    schedules = [(_tau_schedule(base, "5/2", 5), 5), (_tau_schedule(base, "2", 7), 7)]
    for word in ((1, 0, 1, 1, 0), (0, 1, 0, 0, 1)):  # `hurwitzcf xi --variant`
        schedules.append((variant_schedule(_tau_schedule(base, "5/2", 5), base, word), 5))
    for schedule, stages in schedules:
        seed = unit_seed(base, schedule.v0)
        fast = _observed(build_xi, seed, schedule, base, stages=stages)
        assert isinstance(fast, list) and len(fast) == stages + 1
        assert fast == _observed(ref.build_xi, seed, schedule, base, stages=stages)


def _stream_digest(xi):
    """sha256 over each stage's numerator and digits, components in hex."""
    h = hashlib.sha256()
    for s in xi.stages:
        h.update(f"{s.numerator.re:x},{s.numerator.im:x};".encode())
        h.update(",".join(f"{d.re:x}:{d.im:x}" for d in s.digits).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("base, tau, stages, digest", [
    (g(-2, 1), "5/2", 7, "c5865a37bdef80f34ec839435552342577c1a3beba237f95aad010f26b900ac0"),
    (g(-3, -1), "2", 9, "f9cb31bcae54efbb6b2dd5a3be16cb9f0bb28dc55867d450e897a22d130f06d4"),
], ids=["-2+i-5/2-7", "-3-i-2-9"])
def test_cli_streams_keep_their_recorded_digests(base, tau, stages, digest):
    # `hurwitzcf xi --base <base> --tau <tau> --lambda 1 --stages <stages>`,
    # recorded with the two-sided builder
    schedule = _tau_schedule(base, tau, stages)
    xi = build_xi(unit_seed(base, schedule.v0), schedule, base, stages=stages)
    assert _stream_digest(xi) == digest


def _variant(base, tau, stages, word):
    """What `hurwitzcf xi --variant w:<word>` builds and brackets."""
    schedule = variant_schedule(_tau_schedule(base, tau, stages), base, word)
    xi = build_xi(unit_seed(base, schedule.v0), schedule, base, stages=stages)
    return xi, estimate_exponent(xi, stages + 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(_SMALL_BASES),
    st.sampled_from([("5/2", 4, Fraction(23, 10), Fraction(27, 10)), ("2", 6, Fraction(19, 10), Fraction(21, 10))]),
    st.data(),
)
def test_variants_keep_the_exponent_and_differ_where_their_words_do(base, case, data):
    tau, stages, low, high = case
    bits = st.lists(st.integers(0, 1), min_size=stages, max_size=stages)
    word, tail = data.draw(bits), data.draw(bits)
    k = data.draw(st.integers(0, stages - 1))
    other = word[:k] + [1 - word[k]] + tail[k + 1:]
    xi, brackets = _variant(base, tau, stages, tuple(word))
    xo, other_brackets = _variant(base, tau, stages, tuple(other))
    # word[k] raises the increment that makes stage k + 1
    assert [xi.partial(m) for m in range(k + 1)] == [xo.partial(m) for m in range(k + 1)]
    assert xi.partial(k + 1) != xo.partial(k + 1)
    for number, pairs in ((xi, brackets), (xo, other_brackets)):
        assert all(check_tail_sandwich(number, m) for m in range(stages - 2))
        for lo, hi in pairs[-2:]:
            assert low <= lo < hi <= high


_CHECK_SEEDS = ((certify(B, 4).digits, (3,)), (unit_seed(B, 4), (0,)))


@pytest.mark.parametrize("corrupt", [
    lambda name, w: 2 * w % spectrum._CHECK_PRIME if name == "power" else w,  # q is no unit times it
    lambda name, w: -w % spectrum._CHECK_PRIME if name == "numerator" else w,  # q passes, p does not
])
def test_stage_check_rejects_a_wrong_matrix(monkeypatch, corrupt):
    # Stage 1 reads base**v_1 only as its image, a modular power, and
    # numerator_1 only as the image build_xi carries; the check passes the
    # power's image to _unit_multiples first, the numerator's second.  A
    # doubled power image or a negated numerator image stands for a series
    # value that is not the stream's.  Each half of the check must fire on
    # the general fold of the certificate seed (middle B**3) and on the unit
    # fold of unit_seed(B, 4) (middle 1): the power half computes only the
    # power's multiples, the numerator half both.  The build forms no product.
    original, multiples = spectrum._unit_multiples, []

    def unit_multiples(w):
        multiples.append(w)
        return original(corrupt("power" if len(multiples) == 1 else "numerator", w))

    monkeypatch.setattr(spectrum, "_unit_multiples", unit_multiples)
    calls = _count_big_work(monkeypatch)
    for seed, u in _CHECK_SEEDS:
        multiples.clear()
        with pytest.raises(AssertionError, match="stage 1: folded stream disagrees with the series"):
            build_xi(seed, FoldingSchedule(4, u), B)
        assert len(multiples) == (1 if corrupt("power", 1) != 1 else 2)
    assert calls["_mul3"] == 0


@pytest.mark.parametrize("at", [1, 3, 6])
def test_a_wrong_product_fails_the_read_that_forms_it(monkeypatch, at):
    # numerator_n is formed on first read and checked against the image the
    # build carried: a negated product at stage `at` raises there, naming it
    xi = _built(B, "5/2", 6)
    products = []

    def product(z, w):
        products.append(1)
        return -gaussian._mul3(z, w) if len(products) == at else gaussian._mul3(z, w)

    monkeypatch.setattr(spectrum, "_mul3", product)
    assert [xi.stages[n].numerator for n in range(at)]
    with pytest.raises(AssertionError, match=f"stage {at}: numerator disagrees with the checked series image"):
        xi.partial(6)
    assert len(products) == at


def test_numerators_read_out_of_order_match_the_reference():
    schedule = _tau_schedule(B, "5/2", 6)
    seed = unit_seed(B, schedule.v0)
    reference = ref.build_xi(seed, schedule, B, stages=6)
    in_order = [s.numerator for s in build_xi(seed, schedule, B, stages=6).stages]
    xi = build_xi(seed, schedule, B, stages=6)
    assert xi.stages[5].numerator == reference[5][1]
    assert xi.partial(2) == reference[2][3]
    assert [s.numerator for s in xi.stages] == in_order == [numerator for _, numerator, _, _ in reference]
    assert [dataclasses.replace(s) for s in xi.stages] == list(xi.stages)


def test_a_dropped_number_frees_its_numerators_at_once():
    # a stage holds the numerators, not its number, so no cycle waits for the collector
    gc.disable()
    try:
        xi = _built(B, "5/2", 6)
        xi.partial(6)
        numerators = weakref.ref(xi.stages[1]._numerators)
        del xi
        assert numerators() is None
    finally:
        gc.enable()


def test_stage_check_rejects_a_wrong_digit(monkeypatch):
    # The check runs the recurrence over the folded digits, so a stream that is
    # not the fold of the last one fails it, whichever digit is wrong.
    original = spectrum._fold_series
    for seed, u in _CHECK_SEEDS:
        for at in (0, len(seed) - 1, len(seed), -1):
            def fold_series(*args, at=at):
                tail = list(original(*args))
                tail[at] = tail[at] + g(2)
                return tuple(tail)

            monkeypatch.setattr(spectrum, "_fold_series", fold_series)
            with pytest.raises(AssertionError, match="stage 1: folded stream disagrees with the series"):
                build_xi(seed, FoldingSchedule(4, u), B)
        monkeypatch.setattr(spectrum, "_fold_series", original)
        assert build_xi(seed, FoldingSchedule(4, u), B).stage_count == 1


def _built(base, tau, stages):
    schedule = schedule_from_tau(Fraction(tau), Fraction(1), base, stages)
    return build_xi(unit_seed(base, schedule.v0), schedule, base)


def test_one_pass_sandwich_matches_the_per_m_formula():
    seed = certify(B, 4).digits
    cases = [
        build_xi(seed, FoldingSchedule(4, (3, 3, 3, 3, 3)), B),
        build_xi(seed, FoldingSchedule(4, (0, 0, 0, 0, 0, 0)), B),
        _built(g(-3, -1), "5/2", 6),
        _built(B, "2", 7),
    ]
    for xi in cases:
        verdicts = [check_tail_sandwich(xi, m) for m in range(xi.stage_count - 2)]
        assert verdicts == [old_sandwich(xi, m) for m in range(xi.stage_count - 2)]
        assert all(verdicts)


@pytest.mark.parametrize("base, tau, stages", [(B, "5/2", 6), (g(-3, -1), "2", 9)])
def test_three_product_pipeline_matches_plain_products(monkeypatch, base, tau, stages):
    def observe():  # what `hurwitzcf xi --stages <stages>` computes
        schedule = schedule_from_tau(Fraction(tau), Fraction(1), base, stages + 1)
        xi = build_xi(unit_seed(base, schedule.v0), schedule, base, stages=stages)
        return (
            [(s.numerator, s.digits, xi.partial(s.index)) for s in xi.stages],
            estimate_exponent(xi, stages + 1),
            [check_tail_sandwich(xi, m) for m in range(stages - 2)],
        )

    fast = observe()
    calls = []

    def plain(z, w):
        calls.append(max(abs(z.re), abs(z.im), abs(w.re), abs(w.im)).bit_length())
        return z * w

    for module in (gaussian, spectrum):
        monkeypatch.setattr(module, "_mul3", plain)
    slow = observe()
    assert max(calls) > 1000  # the big products went through the patch
    assert fast == slow
    assert all(fast[2])


def test_stage_check_map_is_a_ring_map_that_keeps_the_units_apart():
    m, r = spectrum._CHECK_PRIME, spectrum._CHECK_ROOT
    assert sympy.isprime(m) and r * r % m == m - 1
    rng = random.Random(5)

    image = spectrum._image

    def big():
        return g(rng.randrange(-2**300, 2**300), rng.randrange(-2**300, 2**300))

    assert len(set(spectrum._unit_multiples(image(ONE)))) == 4
    assert all(image(g(-a, s)) for a in range(1, 100) for s in (1, -1))
    for _ in range(50):
        z, w = big(), big()
        assert image(z * w) == image(z) * image(w) % m
        assert image(z + w) == (image(z) + image(w)) % m
        assert spectrum._unit_multiples(image(z)) == tuple(image(u * z) for u in UNITS)
    # the image of a multiple of P is 0, and so is each of its unit multiples
    assert spectrum._unit_multiples(image(g(m, 3 * m))) == (0, 0, 0, 0)
    # build_xi takes base**v's image as a modular power of the base's
    for base in (B, g(-3, -1), g(-1, 1)):
        for v in (1, 2, 61, 1000, 4097):
            assert pow(image(base), v, m) == image(base**v)
    for length in (1, 2, 7, 40):
        word = tuple(rng.choice((big(), g(rng.randrange(-9, 10), rng.randrange(-9, 10)))) for _ in range(length))
        q, p = last_pair(CfSequence(ZERO, word))
        assert spectrum._last_pair_mod(word) == (image(q), image(p))


def test_digit_norm_test_matches_the_norm():
    # the full-to-full rule the stage check's canonicity test reads, on big digits too
    for re in range(-6, 7):
        for im in range(-6, 7):
            d = g(re, im)
            assert geometry._norm_at_least_8(d.re, d.im) is (d.norm >= 8), d
    for d in (B**40, -(B**41), g(0, 3**50), g(2, -(3**50)), g(-(3**50), 1)):
        assert geometry._norm_at_least_8(d.re, d.im) and d.norm >= 8


def test_a_stream_of_big_digits_skips_the_verdict_call(monkeypatch):
    # the full-to-full rule settles these streams on the digits themselves;
    # a stream with a small digit still goes to _word_verdicts
    calls = []
    original = spectrum._word_verdicts
    monkeypatch.setattr(spectrum, "_word_verdicts", lambda keys: calls.append(len(keys)) or original(keys))
    xi = _built(B, "5/2", 6)
    assert all(d.norm >= 8 for d in xi.digits(6)) and calls == []
    seed = certify(B, 4).digits  # -1-2i has norm 5
    build_xi(seed, FoldingSchedule(4, (3,)), B)
    assert calls == [len(seed), 2 * len(seed) + 1]


def _tampered(xi, m, delta):
    stages = list(xi.stages)
    stages[m] = dataclasses.replace(stages[m], numerator=stages[m].numerator + delta)
    return dataclasses.replace(xi, stages=tuple(stages))


def test_perturbed_top_numerator_fails_every_sandwich():
    xi = _built(B, "5/2", 6)
    top = xi.stage_count
    v = xi.schedule.v()
    assert all(check_tail_sandwich(xi, m) for m in range(top - 2))
    bad = _tampered(xi, top, 3 * B ** (v[top] - v[1]))
    for m in range(top - 2):
        assert check_tail_sandwich(bad, m) is False
        assert old_sandwich(bad, m) is False
    # the verdicts were cached on the untampered number, not shared with the copy
    assert all(check_tail_sandwich(xi, m) for m in range(top - 2))


def test_tampered_numbers_get_the_per_m_verdicts():
    rng = random.Random(3)
    xi = _built(g(-3, 1), "5/2", 6)
    top = xi.stage_count
    v = xi.schedule.v()
    for _ in range(30):
        m = rng.randint(0, top)
        size = rng.choice((0, v[1], v[top] - v[2], v[top] - v[3], v[top]))
        delta = GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3)) * xi.base ** rng.randint(0, size)
        bad = _tampered(xi, m, delta)
        got = [check_tail_sandwich(bad, k) for k in range(top - 2)]
        assert got == [old_sandwich(bad, k) for k in range(top - 2)]


@functools.cache
def _sandwich_case(name):
    if name == "small":  # v = 4, 11, 25, ...: gaps of 14 and more still pass the residue bound
        return build_xi(certify(B, 4).digits, FoldingSchedule(4, (3,) * 5), B)
    if name == "tiny":  # v = 2, 4, 8, ...: the bound fails for m = 0 at k = 2
        return build_xi(unit_seed(B, 2), FoldingSchedule(2, (0,) * 6), B)
    return _built(B if name == "-2+i" else g(-3, -1), "5/2", 6)


def _exact_passes(monkeypatch):
    """Count the exact comparisons of the telescoping fallback."""
    calls = []
    original = spectrum._sandwich_holds
    monkeypatch.setattr(spectrum, "_sandwich_holds", lambda gap, lift: calls.append(1) or original(gap, lift))
    return calls


_residues = st.sampled_from([g(1), g(-1), g(0, 1), g(0, -1), g(1, 1), g(1, -1), g(-1, 1), g(-1, -1), g(2), g(2, 1)])


def _shifted(xi, k, delta):
    """Add delta b**(v_j - v_k) to every numerator d_j with j >= k: only the residue e_k moves, by delta."""
    v = xi.schedule.v()
    for j in range(k, xi.stage_count + 1):
        xi = _tampered(xi, j, delta * xi.base ** (v[j] - v[k]))
    return xi


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(("-2+i", "-3-i", "small", "tiny")),
    st.lists(st.tuples(st.booleans(), st.integers(0, 6), _residues), max_size=3),
)
def test_residue_verdicts_match_the_per_m_formula(case, tampers):
    xi = _sandwich_case(case)
    top = xi.stage_count
    for whole_tail, k, delta in tampers:
        xi = (_shifted if whole_tail else _tampered)(xi, min(k, top), delta)
    got = [check_tail_sandwich(xi, m) for m in range(top - 2)]
    assert got == [old_sandwich(xi, m) for m in range(top - 2)]


def test_both_sandwich_paths_run(monkeypatch):
    exact = _exact_passes(monkeypatch)
    honest = _sandwich_case("-2+i")
    top = honest.stage_count
    v = honest.schedule.v()
    runs = [
        (honest, False),
        (_tampered(honest, top, g(2, 1)), False),  # e_top = +-1 + 2+i only enters the tails
        (_tampered(honest, 0, g(1)), False),  # e_1 grows, and it is no tail term
        (_tampered(honest, 2, g(0, -1)), True),  # e_3 grows by i b**(v_3 - v_2)
        (_shifted(honest, 2, g(0, 1)), False),  # e_2 = -1 + i: norm 2
        (_shifted(honest, 3, g(1)), False),  # e_3 = 0
        (_shifted(honest, 1, g(-1)), False),  # e_1 = -2: norm 4
        # e_3 = 2**(v_3 - v_2 - 7), so 2 beta_3 + 10 = lam (v_3 - v_2): only the
        # 2(k - m - 1) term fails the bound, at m = 1, k = 3
        (_shifted(honest, 3, g((1 << (v[3] - v[2] - 7)) + 1)), True),
        (_sandwich_case("small"), False),
        (_sandwich_case("tiny"), True),
    ]
    for xi, falls_back in runs:
        exact.clear()
        verdicts = spectrum._tail_sandwiches(xi)
        assert list(verdicts) == [old_sandwich(xi, m) for m in range(xi.stage_count - 2)]
        assert bool(exact) is falls_back


def _count_big_work(monkeypatch):
    """Count the _mul3 products and the GaussianInt powers made from here on."""
    calls = {"_mul3": 0, "__pow__": 0}
    mul3, power = gaussian._mul3, GaussianInt.__pow__

    def counted_mul3(z, w):
        calls["_mul3"] += 1
        return mul3(z, w)

    def counted_pow(z, exponent):
        calls["__pow__"] += 1
        return power(z, exponent)

    for module in (gaussian, spectrum):
        monkeypatch.setattr(module, "_mul3", counted_mul3)
    monkeypatch.setattr(GaussianInt, "__pow__", counted_pow)
    return calls


def test_honest_sandwich_makes_no_big_product(monkeypatch):
    # the sandwiches read the build's residues and lifts: no product, no power
    xi = _built(B, "5/2", 6)
    exact = _exact_passes(monkeypatch)
    calls = _count_big_work(monkeypatch)
    assert all(spectrum._tail_sandwiches(xi))
    assert calls == {"_mul3": 0, "__pow__": 0}
    assert xi.stage_count == 6
    assert exact == []


def test_a_copy_makes_one_big_product_per_stage_in_its_sandwiches(monkeypatch):
    # a copy carries no cache: one power per lift and one residue product per
    # stage, besides forming the numerators it shares with xi (as many again)
    xi = _built(B, "5/2", 6)
    copy = dataclasses.replace(xi)
    exact = _exact_passes(monkeypatch)
    calls = _count_big_work(monkeypatch)
    assert all(spectrum._tail_sandwiches(copy))
    assert calls == {"_mul3": 2 * copy.stage_count, "__pow__": 2 * copy.stage_count}
    assert exact == []
    assert copy._residues == xi._residues and copy._lifts == xi._lifts


@pytest.mark.parametrize("case", ["-2+i", "-3-i", "small", "tiny", "tau-2", "psi", "variant"])
def test_build_xi_residues_match_plain_products(case):
    # the series terms build_xi stores are the residues the numerators give
    if case in ("-2+i", "-3-i", "small", "tiny"):
        xi = _sandwich_case(case)
    elif case == "tau-2":  # unit folds only
        xi = _built(g(-3, 1), "2", 8)
        assert all(len(xi.digits(n)) == 2 * len(xi.digits(n - 1)) for n in range(1, xi.stage_count + 1))
    elif case == "psi":
        schedule = schedule_from_psi(PsiFunction(2, 1), B, 4, 6)
        xi = build_xi(unit_seed(B, 4), schedule, B)
    else:
        xi, _ = _variant(g(-2, -1), "5/2", 5, (1, 0, 0, 1, 1))
    _assert_residues(xi)
    assert set(xi._residues) <= {g(1), g(-1)}


@pytest.mark.parametrize("base, tau, stages", [(B, "5/2", 6), (g(-3, -1), "2", 9)])
def test_build_xi_makes_one_big_product_per_stage(monkeypatch, base, tau, stages):
    schedule = _tau_schedule(base, tau, stages)
    seed = unit_seed(base, schedule.v0)
    calls = _count_big_work(monkeypatch)
    xi = build_xi(seed, schedule, base, stages=stages)
    # per stage the middle digit base**u_n; base**v0 once; no product
    assert calls == {"_mul3": 0, "__pow__": stages + 1}
    numerators = [s.numerator for s in xi.stages]
    # forming the numerators: per stage the lift and one product
    assert calls == {"_mul3": stages, "__pow__": 2 * stages + 1}
    assert numerators == [s.numerator for s in xi.stages]
    assert xi._lifts == tuple(base ** (v - w) for v, w in zip(schedule.v()[1:], schedule.v()[:stages]))


def test_the_cli_xi_command_forms_no_big_product(monkeypatch, capsys):
    # `hurwitzcf xi` prints stream lengths, sandwiches and exponent brackets,
    # none of which reads a numerator or a lift
    calls = _count_big_work(monkeypatch)
    assert cli.main(["xi", "--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "8"]) == 0
    assert capsys.readouterr().out.count("\n") == 10
    # the middle digits base**u_n, and base**v0 in unit_seed and in build_xi
    assert calls == {"_mul3": 0, "__pow__": 8 + 2}


def test_a_copy_computes_its_own_lifts():
    # dataclasses.replace does not carry build_xi's residues into the copy: a
    # copy with another schedule, or with a tampered numerator, gets the per-m
    # formula's verdicts on its own schedule
    xi = _built(B, "5/2", 6)
    top = xi.stage_count
    other = dataclasses.replace(xi, schedule=variant_schedule(xi.schedule, B, (0, 1)))
    assert "_lifts" not in vars(xi) and "_lifts" not in vars(other)
    assert "_residues" in vars(xi) and "_residues" not in vars(other)
    got = [check_tail_sandwich(other, m) for m in range(top - 2)]
    assert got == [old_sandwich(other, m) for m in range(top - 2)]
    assert not all(got)
    bad = _tampered(xi, 3, g(0, 1))
    got = [check_tail_sandwich(bad, m) for m in range(top - 2)]
    assert got == [old_sandwich(bad, m) for m in range(top - 2)]
    assert not all(got)
    assert all(check_tail_sandwich(xi, m) for m in range(top - 2))


def test_sandwich_bracket_ties_fall_back_to_exact_norms():
    rng = random.Random(9)
    for bits in (8, 70, 300, 5000):
        for _ in range(20):
            w = g(rng.getrandbits(bits) - rng.getrandbits(bits), rng.getrandbits(bits))
            if w == ZERO:
                continue
            # 4|gap|^2 = |lift|^2 and 4|gap|^2 = 9|lift|^2 exactly, then one unit off
            for gap, lift in ((w, 2 * w), (3 * w, 2 * w)):
                for nudge in (ZERO, g(1), g(-1), g(0, 1)):
                    got = spectrum._sandwich_holds(gap + nudge, lift)
                    scale = lift.norm
                    assert got == (scale <= 4 * (gap + nudge).norm <= 9 * scale)


def test_sandwich_verdicts_come_from_one_pass(monkeypatch):
    calls = []
    original = spectrum._tail_sandwiches
    monkeypatch.setattr(spectrum, "_tail_sandwiches", lambda xi: calls.append(1) or original(xi))
    xi = _built(B, "2", 8)
    assert [check_tail_sandwich(xi, m) for m in range(6)] == [True] * 6
    assert [check_tail_sandwich(xi, m) for m in range(6)] == [True] * 6
    assert len(calls) == 1
    with pytest.raises(ValueError, match="three stages beyond"):
        check_tail_sandwich(xi, 6)


def test_power_bits_bounds_the_power():
    for base in (g(-1, 1), B, g(-3, -1), g(-7, 1)):
        for v in (1, 2, 5, 64, 97, 1000, 4097):
            power = base**v
            actual = max(abs(power.re).bit_length(), abs(power.im).bit_length())
            assert actual <= gaussian._power_bits(base, v) <= actual + v // 32 + 3


def test_budget_admits_the_largest_sweep_and_refuses_before_any_power(monkeypatch):
    # tau = 5/2 to stage 8 on -2+i is the largest build the tests and benchmark run
    schedule = schedule_from_tau(Fraction(5, 2), Fraction(1), B, 9)
    assert gaussian._power_bits(B, schedule.v()[8]) <= MAX_POWER_BITS

    def no_power(self, exponent):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(GaussianInt, "__pow__", no_power)
    with pytest.raises(BudgetError, match="work budget"):
        unit_seed(B, 10**18)
    with pytest.raises(BudgetError, match="work budget"):
        build_xi((g(3),), FoldingSchedule(1, (10**9,)), B)
    with pytest.raises(BudgetError, match="work budget"):
        schedule_from_tau(Fraction(5, 2), Fraction(1), B, 10**6)
    with pytest.raises(BudgetError, match="work budget"):
        schedule_from_psi(PsiFunction(Fraction(2), Fraction(0)), B, 4, 10**6)
    assert issubclass(BudgetError, ValueError)


def test_psi_schedule_checks_the_budget_before_each_stage_search(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="work budget"):
        schedule_from_psi(PsiFunction(2, 1), B, 10**6, 1)
    assert time.perf_counter() - start < 1.0
    # the check runs on every stage's v, not only on v0
    psi = PsiFunction(2, 1)
    v = schedule_from_psi(psi, B, 4, 4).v()
    monkeypatch.setattr(spectrum, "_MAX_PSI_BITS", gaussian._power_bits(B, v[3]) - 1)
    assert schedule_from_psi(psi, B, 4, 3).v() == v[:4]
    with pytest.raises(BudgetError, match="work budget"):
        schedule_from_psi(psi, B, 4, 4)
