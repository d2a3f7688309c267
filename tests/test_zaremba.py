"""Bounded-digit certificates for power denominators and the brute-force optimum."""

import dataclasses
import hashlib
import itertools
import random
import sys
import time
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurwitzcf
from hurwitzcf import geometry, zaremba
from hurwitzcf.cf import CfSequence, CfUndefinedError, convergents, evaluate, fold, fold_unit, fold_unit_neg
from hurwitzcf.gaussian import (
    ONE,
    ZERO,
    BudgetError,
    GaussianInt,
    GaussianRational,
    _gauss_map,
    exact_div,
    gauss_gcd,
)
from hurwitzcf.geometry import (
    Validity,
    _word_verdicts,
    closed_cylinder_nonempty,
    frontier_digits,
    get_automaton,
    is_valid,
)
from hurwitzcf.hcf import digit_in_alphabet, hcf_expand
from hurwitzcf.zaremba import (
    DESK_NORM_CAP,
    ETA_SQ,
    CertificateError,
    ZarembaCertificate,
    brute_force_min_K,
    certificate_transcript,
    certify,
    digit_window_ok,
    emit_certificates,
    parse_certificates,
    supported_bases,
    verify_certificate,
)


def g(re, im=0):
    return GaussianInt(re, im)


def test_supported_bases_and_windows():
    bases = supported_bases()
    assert g(-2, 1) in bases and g(-2, -1) in bases
    assert g(-3, 1) in bases and g(-3, -1) in bases
    assert g(2) in bases and g(3) in bases and g(5) in bases
    assert len(bases) == 7
    assert ETA_SQ[(-2, 1)] == 18 and ETA_SQ[(-3, -1)] == 18
    assert ETA_SQ[(2, 0)] == 64 and ETA_SQ[(3, 0)] == 64 and ETA_SQ[(5, 0)] == 49


def test_certify_rejects_bad_requests():
    with pytest.raises(ValueError, match="unsupported base"):
        certify(g(1, 1), 3)
    with pytest.raises(ValueError, match="power must be a positive integer"):
        certify(g(2), 0)


def test_certify_names_a_long_unsupported_base_by_its_size():
    # under Python's default int string limit, where printing this base would raise
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match=r"^unsupported base: a 16610-bit component$"):
            certify(GaussianInt(10**5000, 1), 1)
        with pytest.raises(ValueError, match=r"^unsupported base: 18446744073709551615\+i$"):
            certify(GaussianInt(2**64 - 1, 1), 1)
    finally:
        sys.set_int_max_str_digits(saved)


def test_certify_refuses_a_power_that_is_not_an_int(monkeypatch):
    # True == 1 and hash(True) == hash(1): a bool power would share 1's cache entry
    monkeypatch.setattr(zaremba, "_CACHE", {})
    for power in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="power must be int"):
            certify(g(-2, 1), power)
    assert zaremba._CACHE == {}
    assert type(certify(g(-2, 1), 1).power) is int


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
def test_certificates_past_the_default_int_digit_limit_round_trip():
    # 2**14300 has 4305 decimal digits; emitting and parsing raise the limit
    # only while they convert, and put it back
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        cert = certify(2, 14300)
        assert parse_certificates(emit_certificates([cert])) == [cert]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_small_certificates_are_canonical_expansions():
    for base in supported_bases():
        for power in range(1, 7):
            cert = certify(base, power)
            assert cert.denominator() == base**power
            exp = hcf_expand(cert.value())
            assert exp.digits == cert.digits
            assert cert.max_digit_norm() <= cert.eta_sq


def test_every_seed_certificate_is_pinned():
    # powers 1-16 hold every seed and the first folds on each base; a seed's
    # numerator or digits moving changes this digest
    text = emit_certificates([certify(b, p) for b in supported_bases() for p in range(1, 17)])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "489763c22c322fee0e56b22639395b5e8a7a028a67ce8c8ef9dc2b0584e43491"
    )
    assert max(max(seeds) for seeds in zaremba._SEEDS.values()) <= 16


def test_the_ladder_certificates_are_pinned():
    # powers at the scale of perfbench's certify-ladder, each with its chain of
    # halved powers; a fold sign or a fallback to canonical digits that moves
    # anywhere on those chains changes this digest
    text = emit_certificates(
        [certify(b, p) for b in supported_bases() for p in (256, 300, 384, 512, 1000, 1024, 2048, 4096)]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "88bd5cda8456e4f3b84f3634e9633b9913dbd3b126efdde7d4e27f43f0f6d4d2"
    )


def test_frozen_certificate_values():
    cert = certify(g(-2, 1), 4)
    assert cert.numerator == g(5, -6)
    assert cert.digits == (g(2, -3), g(-1, -2), g(-3, 1))
    assert cert.max_digit_norm() == 13
    mirror = certify(g(-2, -1), 4)
    assert mirror.numerator == g(5, 6)
    assert mirror.digits == tuple(d.conj() for d in cert.digits)


def test_transcript_names_and_order():
    cert = certify(g(3), 5)
    transcript = certificate_transcript(cert)
    assert [name for name, _ in transcript] == [
        "evaluation",
        "coprime",
        "fundamental_domain",
        "digit_bound",
        "canonical_expansion",
        "validity",
        "digit_window",
    ]
    assert all(ok for _, ok in transcript)
    assert transcript[:-1] == verify_certificate(cert)


def test_tampered_certificate_fails_verification():
    cert = certify(g(2), 6)
    bad = dataclasses.replace(cert, numerator=cert.numerator + g(2))
    failed = {name for name, ok in verify_certificate(bad) if not ok}
    assert "evaluation" in failed and "canonical_expansion" in failed


def test_digit_window_edges():
    # deep power-of-two certificates keep first and last digits off the rim
    cert = certify(g(2), 10)
    first, last = cert.digits[0], cert.digits[-1]
    assert 9 <= first.norm <= 49 and 9 <= last.norm <= 49
    assert digit_window_ok(cert)
    # the corner bases only promise the global ceiling
    deep = certify(g(-3, 1), 6)
    assert any(d.norm == 5 for d in deep.digits)
    assert digit_window_ok(deep)


def test_unit_shift_window_for_corner_base():
    cert = certify(g(-2, 1), 9)
    one = g(1)
    for d in (cert.digits[0], cert.digits[-1]):
        assert 5 <= (d + one).norm <= 18
        assert 5 <= (d - one).norm <= 18


def test_emit_parse_round_trip():
    certs = [certify(g(-2, 1), 4), certify(g(5), 3)]
    text = emit_certificates(certs)
    assert text.startswith("[certificate]\n")
    assert "digits = 2-3i, -1-2i, -3+i" in text
    assert "check.digit_window = pass" in text
    assert parse_certificates(text) == certs


@pytest.mark.parametrize("field", ("base", "power", "numerator", "digits", "eta_sq"))
def test_a_record_without_a_field_is_refused_by_name(field):
    text = emit_certificates([certify(g(-2, 1), 4), certify(g(5), 3)])
    first, second = text.split("\n\n")
    cut = "\n".join(line for line in second.splitlines() if not line.startswith(f"{field} ="))
    with pytest.raises(ValueError, match=f"certificate record 2 has no {field} field"):
        parse_certificates(first + "\n\n" + cut)


def test_certificate_error_carries_transcript():
    cert = certify(g(2), 3)
    bad = dataclasses.replace(cert, digits=cert.digits[:-1])
    with pytest.raises(CertificateError) as info:
        transcript = certificate_transcript(bad)
        if not all(ok for _, ok in transcript):
            raise CertificateError("tampered", transcript)
    assert any(not ok for _, ok in info.value.transcript)


def test_brute_force_oracles():
    assert brute_force_min_K(2) == brute_force_min_K(g(2))
    r2 = brute_force_min_K(2)
    assert (r2.numerator, r2.k_sq, r2.digits) == (g(-1), 4, (g(-2),))
    r5 = brute_force_min_K(5)
    assert (r5.numerator, r5.k_sq) == (g(-2), 4)
    r = brute_force_min_K(g(-2, 1) ** 4)
    assert r.numerator == g(-12) and r.k_sq == 5
    assert certify(g(-2, 1), 4).max_digit_norm() >= r.k_sq


def test_brute_force_parity_samples():
    expected = {
        (3, -4): (g(-2, -1), 5),
        (8, 0): (g(-4, -1), 5),
        (9, 0): (g(-4, -3), 5),
        (7, 2): (g(-4, 1), 5),
        (1, 1): (g(0, -1), 2),
        (8, -6): (g(-5, -2), 5),
    }
    for (re, im), (num, k_sq) in expected.items():
        res = brute_force_min_K(g(re, im))
        assert (res.numerator, res.k_sq) == (num, k_sq)
        # optimal numerator is coprime and in the fundamental domain
        value = GaussianRational(res.numerator, g(re, im))
        assert value.in_fundamental_domain()
        assert hcf_expand(value).digits == res.digits


def _slow_oracle(den):
    """The optimum from public gcd and expansion, in the oracle's scan order.

    Numerators run over a square wider than the domain, lexicographically in
    (re, im); the first one reaching a new minimal max digit norm wins.
    """
    bound = isqrt(den.norm) + 1
    best = None
    for re in range(-bound, bound + 1):
        for im in range(-bound, bound + 1):
            a = g(re, im)
            if a.is_zero() or gauss_gcd(a, den).norm != 1:
                continue
            value = GaussianRational(a, den)
            if not value.in_fundamental_domain():
                continue
            digits = hcf_expand(value).digits
            k_sq = max(d.norm for d in digits)
            if best is None or k_sq < best[1]:
                best = (a, k_sq, digits)
    return best


# Denominators from each norm class: powers of the primes over 2, 5 and 3, general
# odd and even norms, and the axes.
SCAN_CLASSES = {
    "norm 2^k": (g(1, 1), g(-2, 2), g(4), g(4, 4), g(0, 8), g(8, -8), g(16)),
    "norm 5^k, both primes": (g(5), g(10, 5), g(10, -5), g(0, 25)),
    "norm 5^k, one prime": (g(2, 1), g(3, 4), g(2, -11), g(-2, 1) ** 4),
    "norm 3^k": (g(3), g(0, 9), g(27)),
    "general odd": (g(7, 2), g(6, 5), g(-6, 3), g(13, 4), g(-5, -12)),
    "general even": (g(8, -6), g(6, 2), g(12, -2), g(7, 7), g(14, 4)),
    "axes": (g(13), g(0, 11), g(-7), g(0, -6), g(10), g(-12)),
}


def test_brute_scan_matches_python_reference():
    for cls, dens in SCAN_CLASSES.items():
        for den in dens:
            res = brute_force_min_K(den)
            assert (res.numerator, res.k_sq, res.digits) == _slow_oracle(den), (cls, den)


def test_brute_force_cap():
    with pytest.raises(ValueError, match="oracle restricted to desk scale"):
        brute_force_min_K(g(2) ** 13)
    with pytest.raises(BudgetError, match="desk scale"):
        brute_force_min_K(g(2) ** 13)
    with pytest.raises(ValueError, match="norm at least 2"):
        brute_force_min_K(g(1))
    assert (g(2) ** 12).norm <= DESK_NORM_CAP


def test_brute_force_at_the_cap():
    # 5792 is the largest real denominator within the cap and 4096+4095i a
    # complex one just under it, so their scans meet the largest intermediates
    # the int64 headroom assertion covers, on the axis and off it.
    optima = {g(5792): (g(-2895, -624), 5), g(4096, 4095): (g(-3371, -644), 5)}
    for den, optimum in optima.items():
        assert den.norm <= DESK_NORM_CAP < (den + 1).norm
        res = brute_force_min_K(den)
        assert (res.numerator, res.k_sq) == optimum
        head, expansion, last = _gauss_map(res.numerator.re, res.numerator.im, den.re, den.im)
        assert head == (0, 0)
        assert last[0] ** 2 + last[1] ** 2 == 1
        assert expansion == [(d.re, d.im) for d in res.digits]
        assert max(d.norm for d in res.digits) == res.k_sq


def _ref_candidates(dre, dim, nrm):
    """The scalar scan's candidates, in its order."""
    bound = isqrt(nrm // 2) + 2
    even = nrm % 2 == 0
    for are in range(-bound, bound + 1):
        for aim in range(-bound, bound + 1):
            if are == 0 and aim == 0:
                continue
            if even and (are + aim) % 2 == 0:
                continue
            tre = 2 * (are * dre + aim * dim)
            if tre < -nrm or tre >= nrm:
                continue
            tim = 2 * (aim * dre - are * dim)
            if tim < -nrm or tim >= nrm:
                continue
            yield are, aim


def _ref_brute_scan(dre, dim, nrm):
    """The scalar scan the lockstep one replaced: one pruned expansion per candidate."""
    best = 1 << 62
    best_re = 0
    best_im = 0
    for are, aim in _ref_candidates(dre, dim, nrm):
        nre, nim = are, aim
        cre, cim = dre, dim
        kmax = 0
        while nre != 0 or nim != 0:
            nn = nre * nre + nim * nim
            tr = cre * nre + cim * nim
            ti = cim * nre - cre * nim
            qre = (2 * tr + nn) // (2 * nn)
            qim = (2 * ti + nn) // (2 * nn)
            dk = qre * qre + qim * qim
            if dk >= best:
                break
            if dk > kmax:
                kmax = dk
            rre = cre - (qre * nre - qim * nim)
            rim = cim - (qre * nim + qim * nre)
            cre, cim = nre, nim
            nre, nim = rre, rim
        else:
            # Not pruned, so kmax < best; the last remainder is the gcd.
            if cre * cre + cim * cim == 1:
                best = kmax
                best_re = are
                best_im = aim
    return best_re, best_im, best


def _differential_dens():
    dens = [den for group in SCAN_CLASSES.values() for den in group]
    rng = random.Random(20240917)
    drawn = []
    while len(drawn) < 300:
        den = g(rng.randint(-64, 64), rng.randint(-64, 64))
        if 2 <= den.norm <= 1 << 12:
            drawn.append(den)
    # norms 2^13 .. 2^17: general odd and even, a power of 1+i, of 2+i and of 3
    large = [g(97, -64), g(120, -67), g(-150, 111), g(1, 1) ** 16, g(2, 1) ** 7, g(243)]
    return dens + drawn + large


DIFFERENTIAL_DENS = _differential_dens()


@pytest.fixture(scope="module")
def ref_scans():
    return {den: _ref_brute_scan(den.re, den.im, den.norm) for den in DIFFERENTIAL_DENS}


@pytest.mark.parametrize("chunk", [zaremba._CHUNK, 7, 64])
def test_lockstep_scan_matches_the_scalar_scan(monkeypatch, ref_scans, chunk):
    # Small pools put tied candidates both in one pool and in pools apart.
    monkeypatch.setattr(zaremba, "_CHUNK", chunk)
    for den in DIFFERENTIAL_DENS:
        assert zaremba._brute_scan(den.re, den.im, den.norm) == ref_scans[den], den


def test_candidates_are_the_scalar_scans_in_its_order():
    for den in (den for den in DIFFERENTIAL_DENS if den.norm <= 1 << 12):
        total, emit = zaremba._candidates(den.re, den.im, den.norm)
        numbers, are, aim = emit(0, total)
        expected = list(_ref_candidates(den.re, den.im, den.norm))
        assert list(zip(are.tolist(), aim.tolist())) == expected, den
        assert (numbers[1:] > numbers[:-1]).all()


def test_tampered_certificates_yield_transcripts_not_exceptions():
    cert = certify(g(-2, 1), 9)
    den = cert.denominator()
    cases = {
        # value outside F: the numerator is shifted by a whole denominator
        "outside": dataclasses.replace(cert, numerator=cert.numerator + den),
        # numerator shares the base as a factor; the value stays in F
        "shared": dataclasses.replace(cert, numerator=certify(g(-2, 1), 8).numerator * g(-2, 1)),
        "empty": dataclasses.replace(cert, digits=()),
    }
    failed = {}
    for name, bad in cases.items():
        transcript = verify_certificate(bad)
        assert [n for n, _ in transcript] == [n for n, _ in verify_certificate(cert)]
        failed[name] = {n for n, ok in transcript if not ok}
        assert certificate_transcript(bad)[:-1] == transcript
    assert failed["outside"] == {"evaluation", "fundamental_domain", "canonical_expansion"}
    assert failed["shared"] == {"evaluation", "coprime", "canonical_expansion"}
    assert {"evaluation", "digit_bound", "canonical_expansion", "validity"} <= failed["empty"]
    assert not digit_window_ok(cases["empty"])


def test_folded_candidate_outside_the_domain_is_not_canonical(monkeypatch):
    # The child -1/2 = [0; -2] folds to [0; -2, 4, 2] = -9/16, outside F, and to
    # [0; -2, -4, 2] = -7/16, inside F but not canonical (-7/16 = [0; -2, -3, -2]).
    # Neither word may be stored; the first candidate's fraction keeps its
    # canonical digits, and the certificate fails the domain check.
    child = ZarembaCertificate(g(2), 1, g(-1), 64, (g(-2),))
    # [0; -2] has (q_1, p_1) = (-2, 1) = -1 * (2, -1), so the child's unit is -1.
    monkeypatch.setattr(zaremba, "_CACHE", {((2, 0), 1): (child, (), g(-1))})
    # Both words pass the fold proof's structure and pair checks, but 0 lies
    # in neither half-open run's final region, so neither is canonical and one
    # Gauss-map pass gives the first candidate's fraction its canonical digits.
    cert, transcript, _ = zaremba._folded_step(g(2), 4)
    numerator, digits, den = cert.numerator, cert.digits, cert.denominator()
    assert (numerator, den) == (g(-9), g(16))
    assert digits == hcf_expand(GaussianRational(g(-9), g(16))).digits == (g(2), g(4), g(-2))
    assert _gauss_map(numerator.re, numerator.im, den.re, den.im)[0] == (-1, 0)
    assert (numerator, digits) == _ref_folded_step(g(2), 4)
    assert transcript[:6] == verify_certificate(cert) == _ref_verify_certificate(cert)
    assert {n for n, ok in verify_certificate(cert) if not ok} == {"evaluation", "fundamental_domain", "canonical_expansion"}


def _count_calls(monkeypatch, *targets):
    """Count calls of each (module, name) function through every hurwitzcf module that holds it."""
    calls = {name: 0 for _, name in targets}
    modules = [m for n, m in sys.modules.items() if n.startswith("hurwitzcf") and m is not None]
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_certifying_a_fresh_power_runs_no_gcd_and_no_expansion(monkeypatch):
    # gaussian._gcd is the int-pair gcd behind GaussianRational's normal form and arithmetic
    calls = _count_calls(monkeypatch, (hurwitzcf.gaussian, "gauss_gcd"), (hurwitzcf.gaussian, "_gcd"),
                         (hurwitzcf.hcf, "hcf_expand"))
    monkeypatch.setattr(zaremba, "_CACHE", {})
    cert = certify(g(-2, 1), 40)
    assert all(ok for _, ok in certificate_transcript(cert))
    assert calls == {"gauss_gcd": 0, "_gcd": 0, "hcf_expand": 0}
    GaussianRational(g(4), g(6))
    assert calls["_gcd"] == 1
    hurwitzcf.gauss_gcd(g(4), g(6))
    assert calls["gauss_gcd"] == 1


def test_certifying_makes_one_pass_and_no_evaluation_per_certificate(monkeypatch):
    monkeypatch.setattr(zaremba, "_CACHE", {})
    calls = _count_calls(
        monkeypatch,
        (hurwitzcf.cf, "evaluate"),
        (hurwitzcf.gaussian, "exact_div"),
        (hurwitzcf.gaussian, "_gauss_map"),
    )
    cert = certify(g(-2, 1), 1024)
    assert all(ok for _, ok in zaremba._CACHE[(cert.base.key(), 1024)][1])
    # powers 1024, 512, ..., 8 folded, each proved from its child's
    # convergent pair; only the seed 4 takes a verifying pass
    assert len(zaremba._CACHE) == 9
    assert calls == {"evaluate": 0, "exact_div": 0, "_gauss_map": 1}


def test_certifying_reads_norms_and_the_open_run_off_the_digit_keys(monkeypatch):
    # Load the automaton first: every digit of these certificates is in its
    # recorded frontier, so no transition is built and no alphabet test made.
    get_automaton()
    monkeypatch.setattr(zaremba, "_CACHE", {})
    calls = _count_calls(
        monkeypatch,
        (hurwitzcf.hcf, "digit_in_alphabet"),
        (hurwitzcf.geometry, "is_valid"),
        (hurwitzcf.gaussian, "_gauss_map"),
    )
    cert = certify(g(-2, 1), 1024)
    assert all(ok for _, ok in zaremba._CACHE[(cert.base.key(), 1024)][1])
    assert calls == {"digit_in_alphabet": 0, "is_valid": 0, "_gauss_map": 1}


@pytest.mark.parametrize("base", supported_bases(), ids=str)
def test_a_cold_certify_makes_only_the_seed_pass(monkeypatch, base):
    # every fold on the chain down from 4096 is proved from its child's
    # convergent pair and the open run; each chain ends at one seed
    monkeypatch.setattr(zaremba, "_CACHE", {})
    calls = _count_calls(monkeypatch, (hurwitzcf.gaussian, "_gauss_map"))
    certify(base, 4096)
    assert sum(power in zaremba._SEEDS[base.key()] for _, power in zaremba._CACHE) == 1
    assert calls == {"_gauss_map": 1}


def test_a_level_without_a_canonical_candidate_makes_one_pass(monkeypatch):
    # 2625's chain halves through 1312, 656, 328, 164, 82, 41, 20 and 10 down
    # to the seed 5.  The eight levels from 20 up have no canonical candidate:
    # each makes one pass, for the fallback's digits, and none per candidate.
    # The seed makes the ninth; 10 proves its second candidate.
    monkeypatch.setattr(zaremba, "_CACHE", {})
    calls = _count_calls(monkeypatch, (hurwitzcf.gaussian, "_gauss_map"))
    certify(g(-2, 1), 2625)
    assert calls == {"_gauss_map": 9}


def _count_half_open_runs(monkeypatch):
    """A list that gains one entry per run of the half-open automaton."""
    runs = []
    run_keys = geometry.Automaton.run_keys

    def counted(self, keys):
        if self.box == geometry._BOX_HALF_OPEN:
            runs.append(keys)
        return run_keys(self, keys)

    monkeypatch.setattr(geometry.Automaton, "run_keys", counted)
    return runs


def test_boundary_only_digits_pass_the_validity_check(monkeypatch):
    # the open run rejects these words, so one half-open run per word decides
    # validity; is_valid would repeat the failed open run
    auto = get_automaton()
    words = [w for w in itertools.product(frontier_digits(2), repeat=2) if auto.run(w) is None]
    boundary = [w for w in words if is_valid(w) is Validity.VALID_BOUNDARY_ONLY]
    assert len(boundary) == 6
    cert = certify(g(-2, 1), 4)
    bads = [dataclasses.replace(cert, digits=word) for word in boundary + words[:6]]
    calls = _count_calls(monkeypatch, (hurwitzcf.geometry, "is_valid"),
                         (hurwitzcf.geometry, "closed_cylinder_nonempty"))
    runs = _count_half_open_runs(monkeypatch)
    transcripts = [verify_certificate(bad) for bad in bads]
    assert calls == {"is_valid": 0, "closed_cylinder_nonempty": 0}
    assert len(runs) == 12
    for bad, transcript in zip(bads, transcripts):
        assert transcript == _ref_verify_certificate(bad)
        assert dict(transcript)["validity"] is (bad.digits in boundary)


def test_a_rejected_fold_candidate_runs_the_half_open_automaton_once(monkeypatch):
    # over powers 1-1024 on the seven bases, 506 fold candidates are rejected
    # as not canonical, and 9 checked words end their open run outside the
    # full state; each takes one half-open run for both verdicts
    monkeypatch.setattr(zaremba, "_CACHE", {})
    runs = _count_half_open_runs(monkeypatch)
    for base in supported_bases():
        for power in range(1, 1025):
            certify(base, power)
    assert len(runs) <= 515


def test_a_transcript_makes_one_gauss_map_pass_and_one_digit_pass(monkeypatch):
    monkeypatch.setattr(zaremba, "_CACHE", {})
    cert = certify(g(-2, 1), 64)
    calls = _count_calls(monkeypatch, (hurwitzcf.gaussian, "_gauss_map"), (zaremba, "_digit_checks"))
    transcript = certificate_transcript(cert)
    assert transcript == zaremba._CACHE[(cert.base.key(), 64)][1]
    assert calls == {"_gauss_map": 1, "_digit_checks": 1}


def test_verifying_an_over_budget_power_is_refused_before_any_power():
    cert = certify(g(-2, 1), 4)
    huge = dataclasses.replace(cert, power=10**9)
    parsed = parse_certificates(emit_certificates([cert]).replace("power = 4", "power = 1000000000"))
    assert parsed == [huge]
    for check in (verify_certificate, certificate_transcript, lambda c: emit_certificates([c])):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="exceeds the work budget of 100000 bits"):
            check(huge)
        assert time.perf_counter() - start < 0.1


# The parent implementation, kept as the reference: it evaluated every folded
# word by back-substitution and verified evaluation by cross-multiplication.
def _ref_folded_step(base, power):
    key = base.key()
    if key == (2, 0):
        if power % 2 == 0:
            child, middle = certify(base, (power - 2) // 2), g(4)
        else:
            child, middle = certify(base, (power - 3) // 2), g(8)
    elif key == (3, 0):
        if power % 2 == 0:
            child, middle = certify(base, power // 2), None
        else:
            child, middle = certify(base, (power - 1) // 2), g(3)
    elif key == (5, 0):
        if power % 2 == 0:
            child, middle = certify(base, power // 2), None
        else:
            child, middle = certify(base, (power - 1) // 2), g(5)
    else:
        if power % 2 == 0:
            child, middle = certify(base, power // 2), None
        else:
            child, middle = certify(base, (power - 1) // 2), base
    cf = CfSequence(ZERO, child.digits)
    if middle is None:
        candidates = (fold_unit(cf), fold_unit_neg(cf))
        expected = 2 * len(child.digits)
    else:
        candidates = (fold(cf, middle), fold(cf, -middle))
        expected = 2 * len(child.digits) + 1
    den = base ** power
    tried = []
    for folded in candidates:
        assert len(folded.tail) == expected
        value = evaluate(folded)
        head, expansion, _ = _gauss_map(value.num.re, value.num.im, value.den.re, value.den.im)
        if head == (0, 0) and expansion == [(d.re, d.im) for d in folded.tail]:
            return exact_div(value.num * den, value.den), folded.tail
        tried.append((value, expansion))
    value, expansion = tried[0]
    return exact_div(value.num * den, value.den), tuple(GaussianInt(re, im) for re, im in expansion)


def _ref_verify_certificate(cert):
    den = cert.base ** cert.power
    num = cert.numerator
    head, expansion, last = _gauss_map(num.re, num.im, den.re, den.im)
    in_domain = head == (0, 0)
    digits_ok = bool(cert.digits) and all(digit_in_alphabet(d) for d in cert.digits)
    try:
        value = evaluate(CfSequence(ZERO, cert.digits))
        evaluated = value.num * den == num * value.den
    except (ArithmeticError, ValueError):
        evaluated = False
    canonical = in_domain and expansion == [(d.re, d.im) for d in cert.digits]
    valid = digits_ok and is_valid(cert.digits) is not Validity.INVALID
    return (
        ("evaluation", evaluated),
        ("coprime", last[0] * last[0] + last[1] * last[1] == 1),
        ("fundamental_domain", in_domain),
        ("digit_bound", digits_ok and cert.max_digit_norm() <= cert.eta_sq),
        ("canonical_expansion", canonical),
        ("validity", valid),
    )


def _chosen_candidate(cert):
    """0 or 1 for the folded word certify stored, None for canonical digits of a non-canonical fold."""
    child_power, middle = zaremba._fold_plan(cert.base, cert.power)
    cf = CfSequence(ZERO, certify(cert.base, child_power).digits)
    words = (fold_unit(cf), fold_unit_neg(cf)) if middle == g(1) else (fold(cf, middle), fold(cf, -middle))
    tails = [w.tail for w in words]
    return tails.index(cert.digits) if cert.digits in tails else None


FALLBACK_POWERS = {20, 21, 40, 41, 42, 43, *range(80, 88), *range(160, 176)}


def test_closed_form_folding_matches_the_evaluating_reference():
    for base in supported_bases():
        key = base.key()
        chosen = {}
        for power in range(1, 201):
            cert = certify(base, power)
            cached, transcript, unit = zaremba._CACHE[(key, power)]
            assert cached is cert
            assert transcript == _ref_verify_certificate(cert) + (("digit_window", digit_window_ok(cert)),)
            if power <= 50:
                # the cached unit has q_n = u * base**power and p_n = u * numerator;
                # larger powers rest on the kernel identity checked in test_kernel.py
                table = convergents(CfSequence(ZERO, cert.digits))
                q, p = table.q(table.last_index), table.p(table.last_index)
                assert q == unit * cert.denominator() and p == unit * cert.numerator
            if power not in zaremba._SEEDS[key]:
                assert (cert.numerator, cert.digits) == _ref_folded_step(base, power), (base, power)
                chosen[power] = _chosen_candidate(cert)
        corner = key in ((-2, 1), (-2, -1))
        assert {p for p, c in chosen.items() if c is None} == (FALLBACK_POWERS if corner else set())
        assert {p for p, c in chosen.items() if c == 1} == ({10} if corner else set())


def test_tampered_transcripts_match_the_evaluating_reference():
    cert = certify(g(-2, 1), 20)
    assert _chosen_candidate(cert) is None
    folded = fold_unit(CfSequence(ZERO, certify(g(-2, 1), 10).digits)).tail
    cases = {
        # the folded word has the certificate's value but is not its canonical expansion
        "non-canonical": dataclasses.replace(cert, digits=folded),
        "zero suffix": dataclasses.replace(cert, digits=cert.digits[:-1] + (g(0),)),
        "shifted": dataclasses.replace(cert, numerator=cert.numerator + g(1)),
        "outside": dataclasses.replace(cert, numerator=cert.numerator + cert.denominator()),
        "empty": dataclasses.replace(cert, digits=()),
    }
    failed = {}
    for name, bad in cases.items():
        transcript = verify_certificate(bad)
        assert transcript == _ref_verify_certificate(bad), name
        failed[name] = {n for n, ok in transcript if not ok}
    assert "canonical_expansion" in failed["non-canonical"] and "evaluation" not in failed["non-canonical"]
    assert {"evaluation", "canonical_expansion"} <= failed["zero suffix"]
    assert {"evaluation", "canonical_expansion"} <= failed["shifted"]


LADDER_POWERS = (256, 300, 384, 1000, 1024, 2048, 4096, 8192)


def _spy_passes(monkeypatch):
    """Record every Gauss-map pass zaremba makes, in order."""
    passes = []

    def spy(*args):
        passes.append(_gauss_map(*args))
        return passes[-1]

    monkeypatch.setattr(zaremba, "_gauss_map", spy)
    return passes


def test_fold_proved_certificates_match_a_fresh_gauss_map_pass(monkeypatch):
    # certify proves folds from the child's convergent pair and the open run;
    # certificate_transcript re-verifies with a Gauss-map pass, whose last
    # remainder r gives the unit conj(r)
    certs = [certify(b, p) for b in supported_bases() for p in (*range(1, 513), *LADDER_POWERS)]
    passes = _spy_passes(monkeypatch)
    for cert in certs:
        _, transcript, unit = zaremba._CACHE[(cert.base.key(), cert.power)]
        assert certificate_transcript(cert) == transcript, (cert.base, cert.power)
        last = passes[-1][2]
        assert unit == g(last[0], -last[1]), (cert.base, cert.power)
    assert len(passes) == len(certs)


def test_the_power_8192_certificates_are_pinned():
    # recorded when every fold still took a Gauss-map pass; the numerators
    # pass the default limit on integer string conversion, which
    # emit_certificates raises for itself
    text = emit_certificates([certify(b, 8192) for b in supported_bases()])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "24d794c2f0810e3907d0f23e9fa4e0cdb7bdfe58be313f4cc6bea82e7b2d7119"
    )


def test_a_run_that_ends_in_the_full_state_reads_a_canonical_expansion():
    # the one verdict call, without certify: valid is closed_cylinder_nonempty;
    # a word whose open run ends in the full state is the canonical expansion
    # of [0; word], and any other word is one exactly when 0 lies in its
    # half-open run's final region
    auto = get_automaton()
    words = [w for n in (1, 2, 3) for w in itertools.product(frontier_digits(2), repeat=n)]
    verdicts, full = [], 0
    for word in words:
        keys = [(d.re, d.im) for d in word]
        full += auto.run_keys(keys) == auto.full_index
        verdicts.append(_word_verdicts(keys))
    canonical = [c for _, c in verdicts]
    assert (len(words), full, sum(canonical)) == (8420, 820, 3449)
    assert [v for v, _ in verdicts] == [closed_cylinder_nonempty(w) for w in words]
    folded = [
        certify(b, p).digits for b in supported_bases() for p in range(1, 513) if p not in zaremba._SEEDS[b.key()]
    ]
    assert all(auto.run(w) == auto.full_index for w in folded)
    assert all(_word_verdicts([(d.re, d.im) for d in w]) == (True, True) for w in folded)
    for word, verdict in zip(words + folded, canonical + [True] * len(folded)):
        try:
            expansion = hcf_expand(evaluate(CfSequence(ZERO, word)))
        except CfUndefinedError:  # a zero suffix: [0; word] has no value
            assert not verdict, word
            continue
        assert (expansion.integer_part == ZERO and expansion.digits == word) is verdict, word


def _mutant(kind):
    """A _fold_series that builds a wrong tail of the given kind; the tails it changed go in .changed."""
    real = zaremba._fold_series

    def mutant(word, unit, middle, sign):
        n = len(word)
        honest = real(word, unit, middle, sign)
        tail = real(word, unit * g(0, 1), middle, sign) if kind == "unit" else honest
        unit_fold = len(tail) == 2 * n
        if kind == "mirror":
            tail = tail[: n + 1] + (tuple(-d for d in word[-2::-1]) if unit_fold else word[::-1])
        elif kind == "first half":
            tail = tail[: n // 2] + (tail[n // 2] + 1,) + tail[n // 2 + 1:]
        elif kind == "last digit":
            tail = tail[:-1] + (tail[-1] + g(0, 1),)
        elif kind == "pivot" and unit_fold:
            tail = tail[: n - 1] + (tail[n], tail[n - 1]) + tail[n + 1:]
        elif kind == "middle" and not unit_fold:
            tail = tail[:n] + tail[n + 1:]
        if tail != honest:
            mutant.changed.add(tail)
        return tail

    mutant.changed = set()
    return mutant


@pytest.mark.parametrize("kind", ("mirror", "first half", "last digit", "pivot", "middle", "unit"))
def test_a_tampered_fold_is_never_proved(monkeypatch, kind):
    # every wrong tail fails the fold proof and is skipped without a pass, or
    # certify raises; no rejected tail is cached, a level that proves no
    # candidate makes exactly one pass, and no certificate whose fresh
    # transcript fails is cached
    mutant = _mutant(kind)
    levels = {}  # (base key, power) -> the fold proofs and the passes made at that level
    active = []
    passes = []
    real_certify, real_proof = zaremba.certify, zaremba._fold_proof

    def spy_certify(base, power):
        active.append(levels.setdefault((base.key(), power), {"proofs": [], "passes": 0}))
        try:
            return real_certify(base, power)
        finally:
            active.pop()

    def spy_proof(word, pair, tail, keys, numerator, den):
        proof = real_proof(word, pair, tail, keys, numerator, den)
        active[-1]["proofs"].append((tail, numerator, proof))
        return proof

    def spy_pass(*args):
        if active:
            active[-1]["passes"] += 1
        passes.append(_gauss_map(*args))
        return passes[-1]

    monkeypatch.setattr(zaremba, "_fold_series", mutant)
    monkeypatch.setattr(zaremba, "certify", spy_certify)
    monkeypatch.setattr(zaremba, "_fold_proof", spy_proof)
    monkeypatch.setattr(zaremba, "_gauss_map", spy_pass)
    monkeypatch.setattr(zaremba, "_CACHE", {})
    raised = 0
    for base, powers in ((g(-2, 1), range(5, 49)), (g(2), range(14, 41)), (g(5), range(3, 33))):
        for power in powers:
            try:
                zaremba.certify(base, power)
            except CertificateError:
                raised += 1
    proofs = [row for level in levels.values() for row in level["proofs"]]
    rejected = {(tail, numerator) for tail, numerator, proof in proofs if proof is None}
    assert rejected and all(proof is None for tail, _, proof in proofs if tail in mutant.changed)
    for key, level in levels.items():
        entry = zaremba._CACHE.get(key)
        if entry is None:  # certify raised at this level or below it
            assert level["passes"] <= 1, key
            continue
        stored = (entry[0].digits, entry[0].numerator)
        proved = [(tail, numerator) for tail, numerator, proof in level["proofs"] if proof is not None]
        assert stored not in rejected, key
        assert level["passes"] == (0 if stored in proved else 1), key
    cached = list(zaremba._CACHE.values())
    assert cached or raised
    for cert, transcript, unit in cached:
        assert certificate_transcript(cert) == transcript and all(ok for _, ok in transcript)
        last = passes[-1][2]
        assert unit == g(last[0], -last[1])


# The earlier digit_window_ok, copied verbatim as the reference for the one-pass window.
def _ref_digit_window_ok(cert: ZarembaCertificate) -> bool:
    """Digit-window side conditions preserved by this base family's induction."""
    if not cert.digits:
        return False
    key = cert.base.key()
    norms = [d.norm for d in cert.digits]
    first, last = cert.digits[0], cert.digits[-1]

    def edge_norms_within(lo: int, hi: int) -> bool:
        return lo <= first.norm <= hi and lo <= last.norm <= hi

    if key in ((-3, 1), (-3, -1)):
        return max(norms) <= 18
    if key in ((-2, 1), (-2, -1)):
        if cert.power < 4:
            return max(norms) <= 18
        edges = all(
            5 <= (d + s).norm <= 18 for d in (first, last) for s in (ONE, -ONE)
        )
        return edges and all(5 <= n <= 18 for n in norms)
    if key == (2, 0):
        if cert.power < 6:
            return max(norms) <= 64
        return max(norms) <= 64 and edge_norms_within(9, 49)
    if key == (3, 0):
        if cert.power < 4:
            return max(norms) <= 64
        return max(norms) <= 64 and edge_norms_within(16, 49)
    return max(norms) <= 49 and edge_norms_within(16, 49)


_SMALL = [g(re, im) for re in range(-11, 12) for im in range(-11, 12)]
# norms on either side of every window and digit-bound edge
_EDGE_NORMS = {4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 45, 49, 50, 52, 64, 65}
_TAMPER_POOLS = {
    "alphabet": [d for d in _SMALL if 2 <= d.norm <= 64],
    "non-alphabet": [g(0), g(1), g(-1), g(0, 1), g(0, -1)],
    "over eta_sq": [d for d in _SMALL if 18 < d.norm <= 120],
    "window edge": [d for d in _SMALL if d.norm in _EDGE_NORMS],
}


def _tamper(cert, kind, where, pick):
    digits = list(cert.digits)
    if kind in _TAMPER_POOLS:
        pool = _TAMPER_POOLS[kind]
        if kind == "over eta_sq":
            pool = [d for d in pool if d.norm > cert.eta_sq]
        # a window-edge digit goes where the window reads it: first or last
        i = (0, -1)[where % 2] if kind == "window edge" else where % len(digits)
        digits[i] = pool[pick % len(pool)]
        return dataclasses.replace(cert, digits=tuple(digits))
    if kind == "truncate":
        return dataclasses.replace(cert, digits=tuple(digits[: where % len(digits)]))
    if kind == "empty":
        return dataclasses.replace(cert, digits=())
    shift = g(pick % 7 - 3, pick // 7 % 7 - 3)
    if shift == ZERO:
        shift = cert.denominator()
    return dataclasses.replace(cert, numerator=cert.numerator + shift)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.sampled_from(supported_bases()),
    st.integers(1, 64),
    st.sampled_from(("alphabet", "non-alphabet", "over eta_sq", "window edge", "truncate", "empty", "shift")),
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 20),
)
def test_tampered_transcripts_match_the_references(base, power, kind, where, pick):
    bad = _tamper(certify(base, power), kind, where, pick)
    expected = _ref_verify_certificate(bad)
    assert verify_certificate(bad) == expected
    assert certificate_transcript(bad) == expected + (("digit_window", _ref_digit_window_ok(bad)),)
    assert digit_window_ok(bad) == _ref_digit_window_ok(bad)
