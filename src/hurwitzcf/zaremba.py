"""Bounded-digit certificates for power denominators, plus an exhaustive search oracle."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

from .cf import CfSequence, _fold_series, _folded_pair, evaluate, fold_sign
from .gaussian import (
    ONE,
    ZERO,
    BudgetError,
    GaussianInt,
    GaussianRational,
    _associate_unit,
    _check_power_budget,
    _gauss_map,
    format_gaussian_int,
    parse_gaussian_int,
)
from .geometry import _word_verdicts

DESK_NORM_CAP = 1 << 25

# Work budget: the largest component size, in bits, of base**power that certify
# will build a certificate for.  A fold proved from its child's convergent pair
# costs a few big products, and a cold certify(-2+i, 65536) takes 0.05 s on a
# 2-CPU machine.  A Gauss-map pass grows about 4x per doubling of the power:
# certificate_transcript makes one (5.9 s at (-2+i)**84000, about 97.5k bits,
# the largest admitted), and so does each fold with no canonical candidate,
# one per level on that call's chain, so the cold call itself takes 9.1-9.4 s.
MAX_CERTIFY_BITS = 100_000

# Decimal digits of a MAX_CERTIFY_BITS-bit integer (log10 2 < 0.30103): what any admitted certificate needs.
MAX_CERTIFY_DIGITS = MAX_CERTIFY_BITS * 30103 // 100000 + 1

ETA_SQ = {
    (-3, 1): 18,
    (-3, -1): 18,
    (-2, 1): 18,
    (-2, -1): 18,
    (2, 0): 64,
    (3, 0): 64,
    (5, 0): 49,
}


def _gi(re: int, im: int = 0) -> GaussianInt:
    return GaussianInt(re, im)


# The base cases the folds start from: a numerator over base**power for each
# (base key, power).  certify takes a seed's digits from the Gauss-map pass it
# makes to check it, so they are its canonical expansion by construction.
_SEEDS: dict[tuple[int, int], dict[int, GaussianInt]] = {
    (-3, 1): {
        1: _gi(1),
        2: _gi(2, 3),
    },
    (-2, 1): {
        1: _gi(1),
        2: _gi(0, 2),
        3: _gi(2, -4),
        4: _gi(5, -6),
        5: _gi(13, -11),
        6: _gi(27, -38),
        7: _gi(0, -97),
    },
    (2, 0): {
        1: _gi(-1),
        2: _gi(1),
        3: _gi(3),
        4: _gi(5),
        5: _gi(9),
        6: _gi(17),
        7: _gi(19),
        8: _gi(79),
        9: _gi(71),
        10: _gi(165),
        11: _gi(423),
        12: _gi(557),
        13: _gi(1453),
    },
    (3, 0): {
        1: _gi(1),
        2: _gi(4),
        3: _gi(10),
        4: _gi(19),
        5: _gi(50),
        6: _gi(107),
        7: _gi(323),
    },
    (5, 0): {
        1: _gi(1),
        2: _gi(6),
    },
}
# A conjugate base takes its partner's numerators conjugated.  The half-open
# domain is not conjugation-symmetric, so boundary ties may re-expand the
# mirrored fraction; its digits come from the pass all the same.
_SEEDS[(-3, -1)] = {power: num.conj() for power, num in _SEEDS[(-3, 1)].items()}
_SEEDS[(-2, -1)] = {power: num.conj() for power, num in _SEEDS[(-2, 1)].items()}


@dataclass(frozen=True)
class ZarembaCertificate:
    """Numerator over base**power whose expansion keeps every digit norm within eta_sq."""

    base: GaussianInt
    power: int
    numerator: GaussianInt
    eta_sq: int
    digits: tuple[GaussianInt, ...]

    def denominator(self) -> GaussianInt:
        """base**power."""
        return self.base ** self.power

    def value(self) -> GaussianRational:
        """numerator / base**power as a reduced Gaussian rational."""
        return GaussianRational(self.numerator, self.base ** self.power)

    def max_digit_norm(self) -> int:
        """Largest |a_i|^2 over the digit sequence."""
        return max(d.norm for d in self.digits)


class CertificateError(Exception):
    """A certificate check failed; carries the verification transcript as evidence."""

    def __init__(self, message: str, transcript: tuple[tuple[str, bool], ...]) -> None:
        super().__init__(message)
        self.transcript = transcript


def supported_bases() -> tuple[GaussianInt, ...]:
    """Bases with a constructive certificate family."""
    return tuple(_gi(*key) for key in sorted(ETA_SQ))


def certificate_transcript(cert: ZarembaCertificate) -> tuple[tuple[str, bool], ...]:
    """Re-run every certificate check from scratch; failures are data, not exceptions.

    The six core invariants, then the family digit window.  One Gauss-map
    pass over the unreduced numerator / base**power yields the canonical
    digits, the domain check and the gcd (its last remainder), and one list
    of the digits' (re, im) pairs feeds every digit check.
    Raises BudgetError, as certify does, before building base**power past
    MAX_CERTIFY_BITS.
    """
    _check_power_budget(cert.base, cert.power, MAX_CERTIFY_BITS, "power")
    den = cert.base ** cert.power
    num = cert.numerator
    keys = [(d.re, d.im) for d in cert.digits]
    return _checks(cert, den, _gauss_map(num.re, num.im, den.re, den.im), keys)


def verify_certificate(cert: ZarembaCertificate) -> tuple[tuple[str, bool], ...]:
    """The six core invariant checks: certificate_transcript without the digit window."""
    return certificate_transcript(cert)[:6]


def _checks(
    cert: ZarembaCertificate, den: GaussianInt, evidence, keys: list[tuple[int, int]]
) -> tuple[tuple[str, bool], ...]:
    """The seven-check transcript of cert from its evidence over numerator / den.

    The evidence is either a Gauss-map pass over numerator / den or a
    _FoldProof.  Every digit check reads the digits' (re, im) pairs, keys:
    one norm per digit gives the alphabet test, the digit bound and the
    digit window, and geometry._word_verdicts gives validity.

    A pass gives the domain check, the canonical check and coprimality (its
    last remainder).  A canonical expansion of numerator / den evaluates to
    that fraction by construction, so the digits are evaluated only when they
    are not canonical.  A fold proof has shown evaluation and coprimality,
    and _word_verdicts says whether its digits are the canonical expansion of
    numerator / den, and so whether that value lies in F.
    """
    digits_ok, bounded, window = _digit_checks(cert, keys)
    valid, canonical_word = _word_verdicts(keys) if digits_ok else (False, False)
    if isinstance(evidence, _FoldProof):
        evaluated = coprime = True
        in_domain = canonical = canonical_word
    else:
        head, expansion, last = evidence
        in_domain = head == (0, 0)
        coprime = last[0] * last[0] + last[1] * last[1] == 1
        canonical = in_domain and expansion == keys
        evaluated = canonical
        if not canonical:
            try:
                value = evaluate(CfSequence(ZERO, cert.digits))
                evaluated = value.num * den == cert.numerator * value.den
            except (ArithmeticError, ValueError):
                pass
    return (
        ("evaluation", evaluated),
        ("coprime", coprime),
        ("fundamental_domain", in_domain),
        ("digit_bound", bounded),
        ("canonical_expansion", canonical),
        ("validity", valid),
        ("digit_window", window),
    )


def _digit_checks(cert: ZarembaCertificate, keys: list[tuple[int, int]]) -> tuple[bool, bool, bool]:
    """(alphabet, digit bound, digit window) of the digits' keys, from one norm each.

    Every digit lies in the alphabet when the least norm is at least 2.  The
    window is the family's side conditions, preserved by its induction.
    """
    if not keys:
        return False, False, False
    norms = [re * re + im * im for re, im in keys]
    lo, hi = min(norms), max(norms)
    edges = (keys[0], keys[-1])

    def edge_norms_from(least: int) -> bool:
        return all(least <= re * re + im * im <= 49 for re, im in edges)

    key, power = cert.base.key(), cert.power
    if key in ((-3, 1), (-3, -1)):
        window = hi <= 18
    elif key in ((-2, 1), (-2, -1)):
        window = hi <= 18 and (
            power < 4
            or 5 <= lo and all(5 <= (re + s) * (re + s) + im * im <= 18 for re, im in edges for s in (1, -1))
        )
    elif key == (2, 0):
        window = hi <= 64 and (power < 6 or edge_norms_from(9))
    elif key == (3, 0):
        window = hi <= 64 and (power < 4 or edge_norms_from(16))
    else:
        window = hi <= 49 and edge_norms_from(16)
    return lo >= 2, lo >= 2 and hi <= cert.eta_sq, window


def digit_window_ok(cert: ZarembaCertificate) -> bool:
    """Digit-window side conditions preserved by this base family's induction."""
    return _digit_checks(cert, [(d.re, d.im) for d in cert.digits])[2]


# Certificates that certify built and verified, each with its transcript and
# the unit u with q_n = u * base**power and p_n = u * numerator, where p_n / q_n
# is the last convergent of the digits.  _folded_step reads a child's u to
# pick the sign of its fold and to prove the folded certificate from the
# child's last convergent.
_Entry = tuple[ZarembaCertificate, tuple[tuple[str, bool], ...], GaussianInt]
_CACHE: dict[tuple[tuple[int, int], int], _Entry] = {}

@dataclass(frozen=True)
class _FoldProof:
    """Evidence that a folded word's last convergent is (unit den, unit numerator).

    _fold_proof makes one only when the word's structure and its convergent
    pair both check; the determinant of a convergent matrix is a unit, so
    that pair is coprime.
    """

    unit: GaussianInt


def _fold_proof(
    word: tuple[GaussianInt, ...],
    pair: tuple[GaussianInt, GaussianInt],
    tail: tuple[GaussianInt, ...],
    keys: list[tuple[int, int]],
    numerator: GaussianInt,
    den: GaussianInt,
) -> _FoldProof | None:
    """Prove that [0; tail] is the fold of the child [0; word] with value numerator / den.

    word is the child's certified tail, n digits long, and pair its last
    convergent (q_n, p_n); keys are tail's (re, im) pairs.

    (a) Structure, digit by digit: tail is word + (x,) + word reversed and
    negated (a fold by x), or body + (a + s, a - s) + body reversed for
    word = body + (a,) and s = +-1 (a unit fold).
    (b) Pair: the folded word's last convergent is then cf._folded_pair of
    (q_n, p_n) and the pivot x or s.  It must be u' (den, numerator) for a
    unit u'.
    Returns the proof with u', or None when either check fails.
    """
    n = len(word)
    if len(tail) == 2 * n + 1:
        if tail[:n] != word or keys[n + 1:] != [(-re, -im) for re, im in reversed(keys[:n])]:
            return None
        folded = _folded_pair(*pair, n, tail[n], False)
    elif len(tail) == 2 * n:
        a = word[-1]
        s = tail[n - 1] - a
        if s not in (ONE, -ONE) or tail[n] != a - s:
            return None
        if tail[: n - 1] != word[:-1] or keys[n + 1:] != keys[: n - 1][::-1]:
            return None
        folded = _folded_pair(*pair, n, s, True)
    else:
        return None
    unit = _associate_unit(folded[0], den)
    if unit is None or folded[1] != unit * numerator:
        return None
    return _FoldProof(unit)


def _fold_plan(base: GaussianInt, power: int) -> tuple[int, GaussianInt]:
    """The child power and the middle digit (ONE for a unit fold) that build base**power."""
    key = base.key()
    if key == (2, 0):
        if power % 2 == 0:
            return (power - 2) // 2, _gi(4)
        return (power - 3) // 2, _gi(8)
    if power % 2 == 0:
        return power // 2, ONE
    return (power - 1) // 2, base


def _folded_step(base: GaussianInt, power: int) -> _Entry:
    """The folded certificate for base**power, its transcript and its unit: a _CACHE entry.

    The child c / B, B = base**k, has last convergent (u B, u c), so
    cf._fold_series folds its word to the value (c middle B + sign) /
    (middle B^2), and middle B^2 = base**power.  The sign (-1)^n u^2, for n
    child digits, is tried first: it is the fold by +middle (the unit fold
    fold_unit for middle = ONE).  Prefer a folded word that is its own
    canonical expansion: a candidate is stored only when _fold_proof proves
    it from the child's convergent pair and _checks finds it canonical, and
    any other candidate is skipped without a Gauss-map pass.  The other
    sign, the fold by -middle, is an equally valid folding step, built only
    when the first is not stored.  If neither is, the first candidate's
    fraction still is the target, so one Gauss-map pass gives its canonical
    digits, as for a seed.  A stored word is the folded tail itself, sharing
    digit objects with the child.
    """
    key = base.key()
    child_power, middle = _fold_plan(base, power)
    child = certify(base, child_power)
    unit = _CACHE[(key, child_power)][2]
    scale = base ** child_power
    lift = middle * scale
    den = lift * scale
    series = lift * child.numerator
    pair = (unit * scale, unit * child.numerator)
    first = fold_sign(len(child.digits)) * (unit * unit).re
    for sign in (first, -first):
        tail = _fold_series(child.digits, unit, middle, sign)
        cert = ZarembaCertificate(base, power, series + sign, ETA_SQ[key], tail)
        keys = [(d.re, d.im) for d in tail]
        proof = _fold_proof(child.digits, pair, tail, keys, cert.numerator, den)
        if proof is not None:
            transcript = _checks(cert, den, proof, keys)
            if dict(transcript)["canonical_expansion"]:
                return cert, transcript, proof.unit
    numerator = series + first
    gauss = _gauss_map(numerator.re, numerator.im, den.re, den.im)
    return _gauss_checked(ZarembaCertificate(base, power, numerator, ETA_SQ[key], _pass_digits(gauss)), den, gauss)


def _gauss_checked(cert: ZarembaCertificate, den: GaussianInt, gauss) -> _Entry:
    """cert with the transcript of its Gauss-map pass, whose digits are cert's, and its unit.

    When the digits pass as canonical, num = p_n * last and den = q_n * last
    for the pass's last remainder, so u = conj(last).
    """
    return cert, _checks(cert, den, gauss, gauss[1]), GaussianInt(gauss[2][0], -gauss[2][1])


def _pass_digits(gauss) -> tuple[GaussianInt, ...]:
    """The canonical digits a Gauss-map pass read off, as GaussianInts."""
    return tuple(GaussianInt(re, im) for re, im in gauss[1])


def certify(base: GaussianInt | int, power: int) -> ZarembaCertificate:
    """Build, verify, and cache the bounded-digit certificate for base**power."""
    if not isinstance(power, int) or isinstance(power, bool):  # True == 1 would share 1's cache entry
        raise TypeError(f"power must be int, not {type(power).__name__}")
    base = GaussianInt.from_any(base)
    key = base.key()
    if key not in ETA_SQ:
        bits = max(abs(base.re), abs(base.im)).bit_length()
        # a long base is named by its size, as its digits could pass Python's int string limit
        name = format_gaussian_int(base) if bits <= 64 else f"a {bits}-bit component"
        raise ValueError(f"unsupported base: {name}")
    if power < 1:
        raise ValueError("power must be a positive integer")
    _check_power_budget(base, power, MAX_CERTIFY_BITS, "power")
    cached = _CACHE.get((key, power))
    if cached is not None:
        return cached[0]
    numerator = _SEEDS[key].get(power)
    if numerator is None:
        entry = _folded_step(base, power)
    else:
        den = base ** power
        gauss = _gauss_map(numerator.re, numerator.im, den.re, den.im)
        entry = _gauss_checked(ZarembaCertificate(base, power, numerator, ETA_SQ[key], _pass_digits(gauss)), den, gauss)
    cert, transcript, _ = entry
    if not all(ok for _, ok in transcript):
        failing = ", ".join(name for name, ok in transcript if not ok)
        raise CertificateError(
            f"certificate checks failed for base {format_gaussian_int(base)}"
            f" power {power}: {failing}",
            transcript,
        )
    _CACHE[(key, power)] = entry
    return cert


def _emitted_transcript(cert: ZarembaCertificate) -> tuple[tuple[str, bool], ...]:
    """The transcript certify kept for this very certificate, else a fresh one."""
    cached = _CACHE.get((cert.base.key(), cert.power))
    if cached is not None and cached[0] is cert:
        return cached[1]
    return certificate_transcript(cert)


@contextmanager
def wide_int_strings() -> Iterator[None]:
    """Python's limit on integer string conversion, raised to MAX_CERTIFY_DIGITS for the block if set lower."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    raised = 0 < limit < MAX_CERTIFY_DIGITS
    if raised:
        sys.set_int_max_str_digits(MAX_CERTIFY_DIGITS)
    try:
        yield
    finally:
        if raised:
            sys.set_int_max_str_digits(limit)


def emit_certificates(certs: Iterable[ZarembaCertificate]) -> str:
    """Render certificates as '[certificate]' records with a stable field order."""
    blocks = []
    with wide_int_strings():
        for cert in certs:
            lines = [
                "[certificate]",
                f"base = {format_gaussian_int(cert.base)}",
                f"power = {cert.power}",
                f"numerator = {format_gaussian_int(cert.numerator)}",
                "digits = " + ", ".join(format_gaussian_int(d) for d in cert.digits),
                f"eta_sq = {cert.eta_sq}",
            ]
            lines.extend(
                f"check.{name} = {'pass' if ok else 'FAIL'}"
                for name, ok in _emitted_transcript(cert)
            )
            blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


_CERTIFICATE_FIELDS = ("base", "power", "numerator", "digits", "eta_sq")


def parse_certificates(text: str) -> list[ZarembaCertificate]:
    """Parse records produced by emit_certificates (check lines are recomputable)."""
    certs: list[ZarembaCertificate] = []
    fields: dict[str, str] = {}

    def flush() -> None:
        if not fields:
            return
        missing = [name for name in _CERTIFICATE_FIELDS if name not in fields]
        if missing:
            raise ValueError(f"certificate record {len(certs) + 1} has no {', '.join(missing)} field")
        certs.append(
            ZarembaCertificate(
                base=parse_gaussian_int(fields["base"]),
                power=int(fields["power"]),
                numerator=parse_gaussian_int(fields["numerator"]),
                eta_sq=int(fields["eta_sq"]),
                digits=tuple(
                    parse_gaussian_int(part.strip())
                    for part in fields["digits"].split(",")
                    if part.strip()
                ),
            )
        )

    with wide_int_strings():
        for line in text.splitlines():
            line = line.strip()
            if line == "[certificate]":
                flush()
                fields = {}
            elif "=" in line and not line.startswith("check."):
                name, _, value = line.partition("=")
                fields[name.strip()] = value.strip()
        flush()
    return certs


@dataclass(frozen=True)
class BruteResult:
    """Optimal numerator for a denominator: minimal max digit norm, lexicographic tie-break."""

    numerator: GaussianInt
    k_sq: int
    digits: tuple[GaussianInt, ...]


# Lanes in flight in the lockstep scan.  Each lane array holds at most this
# many; the pool takes the next candidates once pruning has halved it.  On
# the oracle-scan benchmark's 31 denominators (2 CPUs) 4096 lanes took
# 0.17 s, 2048 took 0.21 s and 16384 took 0.25 s.
_CHUNK = 4096

# Every lane runs _gauss_map on a/den, so |x| <= |y|/sqrt(2) (x/y lies in F) and
# |y|^2 <= N for its remainders x, y.  Then |P| <= N/sqrt(2) and the digit d = [y/x]
# has |d||x| <= 3|y|/2, so |d||P| <= 3N/2, |d|^2 |x|^2 <= 9N/4, and every int64
# intermediate of a step (2 Re(d P), the new |x|^2, 2 Re P + |x|^2) stays below
# 10 N, about 2**28.3 at the cap.
_NO_OPTIMUM = 1 << 62
assert 16 * DESK_NORM_CAP < _NO_OPTIMUM, "DESK_NORM_CAP leaves no int64 headroom"


def _aim_span(c: int, lo, hi, bound: int):
    """Per row, the first and last aim with lo <= aim * c <= hi (first > last if none)."""
    if c < 0:
        c, lo, hi = -c, -hi, -lo
    if c == 0:
        inside = (lo <= 0) & (hi >= 0)
        return np.where(inside, -bound, bound + 1), np.full(lo.shape, bound)
    return -(-lo // c), hi // c


def _candidates(dre: int, dim: int, nrm: int):
    """The numerators a != 0 with a/den in F, and re + im odd when nrm is even.

    Returns (total, emit).  The candidates are numbered g = 0, ..., total - 1
    in scan order, (re, im) lexicographic, and emit(top, stop) gives those
    numbered top to stop - 1 as int64 arrays (g, re, im).  Row re is the
    interval of im cut out by the integer form of the domain test,
    -(nrm // 2) <= re dre + im dim, im dre - re dim <= (nrm - 1) // 2.  When
    nrm is even, (1+i) divides den, so a coprime a has re + im odd and a row
    steps by 2; that also skips the origin, which is dropped by hand when
    nrm is odd.
    """
    bound = isqrt(nrm // 2) + 2
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    lo, hi = -(nrm // 2), (nrm - 1) // 2
    first, last = _aim_span(dim, lo - side * dre, hi - side * dre, bound)
    first2, last2 = _aim_span(dre, lo + side * dim, hi + side * dim, bound)
    first = np.maximum(first, first2)
    last = np.minimum(last, last2)
    step = 1
    if nrm % 2 == 0:
        step = 2
        first += (side + first + 1) % 2
    count = np.maximum(0, (last - first) // step + 1)
    ends = np.cumsum(count)
    starts = ends - count
    offset = first - step * starts
    origin = -1 if step == 2 else int(starts[bound] - first[bound])

    def emit(top: int, stop: int):
        r0 = int(np.searchsorted(ends, top, side="right"))
        r1 = int(np.searchsorted(ends, stop - 1, side="right")) + 1
        span = np.minimum(ends[r0:r1], stop) - np.maximum(starts[r0:r1], top)
        row = np.repeat(np.arange(r0, r1), span)
        g = np.arange(top, stop, dtype=np.int64)
        if top <= origin < stop:
            row = np.delete(row, origin - top)
            g = np.delete(g, origin - top)
        return g, side[row], offset[row] + step * g

    return int(ends[-1]), emit


def _brute_scan(dre: int, dim: int, nrm: int) -> tuple[int, int, int]:
    """Scan the numerators a with a/den in F; return the first optimum (re, im, k_sq).

    A pool of up to _CHUNK int64 lanes runs _gauss_map's loop on a/den in
    lockstep: a lane carries P = x conj(y), |x|^2 and |y|^2 (seeded as a conj(den),
    |a|^2 and N) and steps them by the kernel's formulas.  It finishes when |x|^2 = 0,
    and then |y|^2 = |gcd(a, den)|^2, so a is prime to den exactly when |y|^2 = 1.
    The optimum is the least (kmax, g) over finished coprime lanes, g the candidate's
    number in scan order, so a lane is dropped once kmax >= best + (g < best_g): it
    can no longer win.  Lanes stay in ascending g: the pool takes the next candidates
    at its end once pruning has halved it.
    """
    total, emit = _candidates(dre, dim, nrm)
    # |y|^2 at least halves per step, so a lane ends within nrm.bit_length() steps,
    # and so the pool refills, taking >= _CHUNK / 2 candidates each time but the last.
    steps_left = nrm.bit_length() * (2 * total // _CHUNK + 2)
    best = _NO_OPTIMUM
    best_g = -1
    top = 0
    g = pre = pim = nx = ny = kmax = np.empty(0, dtype=np.int64)
    while g.size or top < total:
        steps_left -= 1
        assert steps_left >= 0, "lockstep scan failed to terminate: carried norms not shrinking"
        if top < total and 2 * g.size <= _CHUNK:
            stop = min(top + _CHUNK - g.size, total)
            new, are, aim = emit(top, stop)
            g = np.concatenate((g, new))
            pre = np.concatenate((pre, are * dre + aim * dim))
            pim = np.concatenate((pim, aim * dre - are * dim))
            nx = np.concatenate((nx, are * are + aim * aim))
            ny = np.concatenate((ny, np.full_like(new, nrm)))
            kmax = np.concatenate((kmax, np.zeros_like(new)))
            top = stop
        two_nx = 2 * nx
        are = (2 * pre + nx) // two_nx
        aim = (nx - 2 * pim) // two_nx
        dn = are * are + aim * aim
        np.maximum(kmax, dn, out=kmax)
        nx, ny = ny - 2 * (are * pre - aim * pim) + dn * nx, nx
        pre, pim = pre - are * ny, -pim - aim * ny
        live = kmax < best + (g < best_g)
        done = np.flatnonzero(nx == 0)
        if done.size:
            won = done[live[done] & (ny[done] == 1)]
            if won.size:
                # g ascends along the lanes, so argmin keeps the first tie.
                pick = won[np.argmin(kmax[won])]
                best = int(kmax[pick])
                best_g = int(g[pick])
                live = kmax < best + (g < best_g)
            live[done] = False
        keep = np.flatnonzero(live)
        g, pre, pim, nx, ny, kmax = g[keep], pre[keep], pim[keep], nx[keep], ny[keep], kmax[keep]
    if best_g < 0:
        return 0, 0, best
    _, are, aim = emit(best_g, best_g + 1)
    return int(are[0]), int(aim[0]), best


# perfbench/child.py reads this name for its provenance block; the scan has
# one kernel, and None keeps that block unchanged.
_brute_scan_fast = None


def brute_force_min_K(den: GaussianInt | int) -> BruteResult:
    """Exhaustive Zaremba optimum over coprime numerators in the fundamental domain."""
    den = GaussianInt.from_any(den)
    nrm = den.norm
    if nrm > DESK_NORM_CAP:
        raise BudgetError("oracle restricted to desk scale")
    if nrm <= 1:
        raise ValueError("denominator must have norm at least 2")
    best_re, best_im, best = _brute_scan(den.re, den.im, nrm)
    assert best < _NO_OPTIMUM
    digits = _pass_digits(_gauss_map(best_re, best_im, den.re, den.im))
    return BruteResult(GaussianInt(best_re, best_im), best, digits)
