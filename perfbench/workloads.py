"""Job lists for the four workloads, made from the workload seed alone.

A job is a plain dict of ints, tuples and strings; the library sees only
these generated values.  Sizes are drawn from fixed strata, so that the total
work of a job list hardly depends on the seed: runs made with different
seeds are compared, and only a difference in the program should move them.
"""

from __future__ import annotations

import random
from math import isqrt

from checks import fold_words, gauss_expand, mul, suffix_zero

WORKLOADS = ("certify-ladder", "xi-stream", "desk-mix", "oracle-scan")
DEFAULT_SEED = 0

BASES = ((-3, -1), (-3, 1), (-2, -1), (-2, 1), (2, 0), (3, 0), (5, 0))


def _gint(rng: random.Random, bits: int) -> tuple[int, int]:
    """A Gaussian integer whose larger component has exactly `bits` bits."""
    big = rng.getrandbits(bits - 1) | (1 << (bits - 1))
    small = rng.randrange(0, big + 1)
    pair = (big, small) if rng.random() < 0.5 else (small, big)
    return (pair[0] * rng.choice((1, -1)), pair[1] * rng.choice((1, -1)))


def _with_norm(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    """A Gaussian integer with norm in [lo, hi)."""
    while True:
        target = rng.randrange(lo, hi)
        re = rng.randrange(0, isqrt(target) + 1)
        im = isqrt(target - re * re)
        z = (re * rng.choice((1, -1)), im * rng.choice((1, -1)))
        if lo <= z[0] ** 2 + z[1] ** 2 < hi:
            return z if rng.random() < 0.5 else (z[1], z[0])


def _pure_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def cheap_mode(den: tuple[int, int]) -> bool:
    """Whether the oracle's coprimality test for den is a residue rule, not an inner gcd."""
    n = den[0] ** 2 + den[1] ** 2
    return n & (n - 1) == 0 or _pure_power(n, 5) or _pure_power(n, 9)


def _general_den(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    while True:
        den = _with_norm(rng, lo, hi)
        if not cheap_mode(den):
            return den


def _unit_times(rng: random.Random, z: tuple[int, int]) -> tuple[int, int]:
    re, im = z
    for _ in range(rng.randrange(4)):
        re, im = -im, re
    return (re, im)


def _gpow(z: tuple[int, int], k: int) -> tuple[int, int]:
    out = (1, 0)
    for _ in range(k):
        out = mul(out, z)
    return out


# ------------------------------------------------------------ certify-ladder

def certify_ladder(rng: random.Random) -> list[dict]:
    """On each base, in seeded order, powers k0, l1, 2k0, l2, 4k0; then (-2+i)^4096.

    k0 in [256, 264), 2k0, 4k0 is a doubling sweep that reuses the previous
    certificate on most bases.  The lone powers l1 in [384, 392) and l2 in
    [800, 816) recurse through chains of halved powers that share no
    certificate above power 13 with the sweep or with each other, so each
    job meets the same cache state on every seed.  certify(-2+i, 4096) is the largest job and the same on
    every seed.
    """
    jobs = []
    bases = list(BASES)
    rng.shuffle(bases)
    for base in bases:
        k0 = rng.randrange(256, 264)
        powers = (k0, rng.randrange(384, 392), 2 * k0, rng.randrange(800, 816), 4 * k0)
        jobs += [{"kind": "certify", "base": base, "power": k} for k in powers]
    jobs.append({"kind": "certify", "base": (-2, 1), "power": 4096})
    return jobs


# ----------------------------------------------------------------- xi-stream

def xi_stream(rng: random.Random) -> list[dict]:
    """CLI xi jobs swept over the stage count on -2+i and -3-i, in seeded order.

    tau=5/2 folds by big middle digits, tau=2 by units.  The sweep on -2+i
    ends with the acceptance-6 size, tau=5/2 stage 8.  The bases are fixed:
    conjugate bases cost differently at some stages, and which job is the
    11th slowest (job_tail_ms) would then follow the seed.  No xi job shares
    a cache with another, so the seed changes only the order.
    """
    a, b = (-2, 1), (-3, -1)
    plan = [(a, "5/2", range(1, 9)), (b, "5/2", range(1, 8)),
            (a, "2", range(1, 11)), (b, "2", range(1, 12))]
    jobs = [{"kind": "xi", "base": base, "tau": tau, "lam": "1", "stages": s}
            for base, tau, stages in plan for s in stages]
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ desk-mix

_SMALL_DIGITS = tuple((re, im) for re in range(-3, 4) for im in range(-3, 4) if re * re + im * im >= 2)
_WORD_POOL_SEED = 20231018
_WORD_POOL_SIZE = 128


def word_pool() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Random short words, the same for every seed.

    About one in five takes the exact geometry path, where a word costs from
    milliseconds to about a second; drawing these per seed would make
    desk-mix time depend on the seed more than on the program.
    """
    rng = random.Random(_WORD_POOL_SEED)
    return tuple(
        tuple(rng.choice(_SMALL_DIGITS) for _ in range(rng.randint(2, 4)))
        for _ in range(_WORD_POOL_SIZE)
    )


def _canonical_word(rng: random.Random, bits: int) -> tuple[tuple[int, int], ...]:
    """Digits of a random fraction's canonical expansion (a valid word)."""
    while True:
        den = _gint(rng, bits)
        head, digits = gauss_expand(_gint(rng, bits), den)
        if len(digits) >= 2:
            return digits


def desk_mix(rng: random.Random) -> list[dict]:
    """Thousands of small interactive jobs, shuffled.

    The seed draws every expansion, fold, encoding and oracle input, and picks
    one symmetry (negation, conjugation, both or neither) for the fixed word
    pool; either map sends a word's open cylinder to a congruent one.
    """
    jobs = []
    for _ in range(500):
        jobs.append({"kind": "expand", "num": _gint(rng, rng.randint(20, 64)),
                     "den": _gint(rng, rng.randint(20, 64))})
    while len(jobs) < 650:
        digits = _canonical_word(rng, rng.randint(8, 24))
        x = rng.choice(_SMALL_DIGITS)
        if not any(suffix_zero(w) for w in fold_words(digits, x)):
            jobs.append({"kind": "fold", "digits": digits, "x": x})
    for _ in range(100):
        jobs.append({"kind": "valid", "digits": _canonical_word(rng, rng.randint(4, 12))})
    sign_re = rng.choice((1, -1))               # negation
    sign_im = sign_re * rng.choice((1, -1))     # negation, then conjugation
    for word in word_pool():
        jobs.append({"kind": "valid", "digits": tuple((sign_re * re, sign_im * im) for re, im in word)})
    for _ in range(150):
        base = (-rng.randint(1, 4), rng.choice((1, -1)))
        jobs.append({"kind": "encode", "z": _gint(rng, rng.randint(20, 64)), "base": base})
    for i in range(40):
        # norms 2^6 .. 2^12, one stratum per job; every fourth a base power
        lo = 1 << (6 + 6 * i // 40)
        if i % 4 == 0:
            jobs.append({"kind": "oracle", "den": _unit_times(rng, _gpow((1, 1), 6 + 6 * i // 40))})
        else:
            jobs.append({"kind": "oracle", "den": _general_den(rng, lo, 2 * lo)})
    rng.shuffle(jobs)
    return jobs


# --------------------------------------------------------------- oracle-scan

def oracle_scan(rng: random.Random) -> list[dict]:
    """Exhaustive optima at norms 2^13 .. 2^20: general denominators and base powers.

    General denominators use the inner-gcd coprimality test: 24 on a
    geometric ladder of norms from 2^13 to 2^16, and one near 2^17.
    (1±i)^16, (1±i)^18, (1±i)^20, (2±i)^7, (2+i)^a (2-i)^(7-a) and 3^5 use
    residue rules.  A scan's cost follows its norm, so each general norm is
    drawn within 1% of its rung: which job is the 11th slowest
    (job_tail_ms), and how slow, is then nearly seed-independent.
    """
    dens = []
    for i in range(24):
        lo = int(2 ** (13 + 3 * (i + 0.5) / 24))
        dens.append(_general_den(rng, lo, lo + lo // 100))
    dens.append(_general_den(rng, 1 << 17, (1 << 17) + (1 << 10)))
    one_i = (1, rng.choice((1, -1)))
    dens += [_unit_times(rng, _gpow(one_i, k)) for k in (16, 18, 20)]
    dens.append(_unit_times(rng, _gpow((2, rng.choice((1, -1))), 7)))
    a = rng.randint(1, 6)
    dens.append(_unit_times(rng, mul(_gpow((2, 1), a), _gpow((2, -1), 7 - a))))
    dens.append(_unit_times(rng, (3 ** 5, 0)))
    rng.shuffle(dens)
    return [{"kind": "oracle", "den": den} for den in dens]


_MAKERS = {
    "certify-ladder": certify_ladder,
    "xi-stream": xi_stream,
    "desk-mix": desk_mix,
    "oracle-scan": oracle_scan,
}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list for this seed; the same seed gives the same list."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
