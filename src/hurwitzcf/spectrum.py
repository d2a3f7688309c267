"""Prescribed-irrationality-exponent numbers built by repeated folding."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable

from .cf import CfSequence, _fold_series, convergents, mirror_negate
from .exactreal import _dyadic_round, ln_brackets, sqrt_brackets
from .gaussian import (
    ONE,
    UNITS,
    ZERO,
    BudgetError,
    GaussianInt,
    GaussianRational,
    _associate_unit,
    _box,
    _brief,
    _check_power_budget,
    _exact_quo,
    _gauss_map,
    _mul3,
    _power_bits,
)
from .geometry import _norm_at_least_8, _word_verdicts, is_full

_MAX_BRACKET_BITS = 4096

# Work budget: the largest component size, in bits, of a power base**v that
# unit_seed or build_xi will compute.
MAX_POWER_BITS = 1 << 23

# Budget of schedule_from_psi on the component bits of base**v at each stage.
# Its logarithm brackets need only ln(norm) at such sizes (see _ln_arg_brackets;
# a stage at v = 400000 on -2+i takes about 0.03 s on a 2-CPU machine), but each
# comparison still raises Fraction(norm) to a power that grows with the stage.
_MAX_PSI_BITS = 1 << 19


def _check_stage_budget(stages: int) -> None:
    # v_n >= 2**n and |base| >= sqrt(2) put base**v_n at 2**(n-1) bits or more,
    # so no stage past MAX_POWER_BITS.bit_length() can be built; one more
    # schedule stage is allowed for the exponent bracket of the last built one.
    if stages > MAX_POWER_BITS.bit_length() + 1:
        raise BudgetError(
            f"{stages} stages: every stage past {MAX_POWER_BITS.bit_length()} exceeds the "
            f"work budget of {MAX_POWER_BITS} bits per component"
        )


def _check_base(base: GaussianInt) -> int:
    """Return A for a base of the form -A+i or -A-i with A >= 1."""
    base = GaussianInt.from_any(base)
    if base.re >= 0 or abs(base.im) != 1:
        raise ValueError("base must be -A+i or -A-i with A >= 1")
    return -base.re


@dataclass(frozen=True)
class FoldingSchedule:
    """Exponent schedule v_n = u_n + 2 v_{n-1} driving the folded series."""

    v0: int
    u: tuple[int, ...]

    def __post_init__(self) -> None:
        u = tuple(self.u)
        for x in (self.v0, *u):
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"schedule exponents must be int, not {type(x).__name__}")
        object.__setattr__(self, "u", u)
        if self.v0 < 1:
            raise ValueError("v0 must be a positive integer")
        if any(x < 0 for x in self.u):
            raise ValueError("schedule increments must be nonnegative")

    def v(self) -> tuple[int, ...]:
        """The exponents v_0, v_1, ..., v_N."""
        out = [self.v0]
        for x in self.u:
            out.append(x + 2 * out[-1])
        return tuple(out)

    @property
    def stage_count(self) -> int:
        return len(self.u)


def _least(holds: Callable[[int], bool], lo: int = 0) -> int:
    """Least m >= lo with holds(m), for a predicate that stays true once true.

    Doubling, then bisection: probes lo, lo + 1, lo + 3, lo + 7, ... until one
    holds, then bisects the gap above the last failing probe, O(log m) calls.
    """
    miss, hi, step = lo - 1, lo, 1
    while not holds(hi):
        miss, hi, step = hi, hi + step, 2 * step
    while hi - miss > 1:
        mid = (miss + hi) // 2
        if holds(mid):
            hi = mid
        else:
            miss = mid
    return hi


def _floor_log(ratio: Fraction, base_ratio: Fraction) -> int:
    """Largest m >= 0 with base_ratio**m <= ratio, or -1 when ratio < 1, by comparing int powers."""
    n, d = ratio.as_integer_ratio()
    p, q = base_ratio.as_integer_ratio()
    return -1 if n < d else _least(lambda m: p**m * d > n * q**m, 1) - 1


def _ceil_log(target: int, base_value: int) -> int:
    """Smallest m >= 0 with base_value**m >= target."""
    return _least(lambda m: base_value**m >= target)


def schedule_from_tau(tau: Fraction, lam: Fraction, base: GaussianInt, stages: int) -> FoldingSchedule:
    """Schedule with v_n = floor(lam * tau**(n+3+m0)), so v_{n+1}/v_n -> tau."""
    tau, lam = Fraction(tau), Fraction(lam)
    if tau < 2:
        raise ValueError("growth ratio below 2 is not constructible by folding")
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    if stages < 1:
        raise ValueError("need at least one stage")
    _check_stage_budget(stages)
    norm = _check_base(base) ** 2 + 1
    # Work budget, checked before any power: with lam = a/b and tau = p/q, the
    # schedule's integers are the parts of lam * tau**k for k <= top, of at most
    # a.bit_length() + k * p.bit_length() and b.bit_length() + k * q.bit_length()
    # bits; tau >= 2 and tau**m <= 3/lam < 2**((3b).bit_length() - a.bit_length() + 1)
    # bound m0's floor_log term without a power.
    (a, b), (p, q) = lam.as_integer_ratio(), tau.as_integer_ratio()
    m0_bound = 1 + max(0, (3 * b).bit_length() - a.bit_length(), _ceil_log(9, norm))
    top = stages + 3 + m0_bound
    bits = max(a.bit_length() + top * p.bit_length(), b.bit_length() + top * q.bit_length())
    if bits > MAX_POWER_BITS:
        raise BudgetError(
            f"lam * tau**{_brief(top)} has parts of up to {_brief(bits)} bits: the schedule exceeds "
            f"the work budget of {MAX_POWER_BITS} bits per component"
        )
    # unit_seed and build_xi compute base**v0, so refuse a v0 they never admit before
    # computing it: m0 >= k0 - 3 and lam * tau**k0 > 2**low, so v0 >= 2**low when
    # low >= 0, and _power_bits grows with v, so 2**64 can stand in for a larger bound.
    k0 = 4 + _ceil_log(9, norm)
    low = a.bit_length() - 1 - b.bit_length() + k0 * (p.bit_length() - 1 - q.bit_length())
    if low >= 0 and _power_bits(GaussianInt.from_any(base), 1 << min(low, 64)) > MAX_POWER_BITS:
        raise BudgetError(
            f"v0 >= 2**{_brief(low)}: base**v0 exceeds the work budget of {MAX_POWER_BITS} bits per component"
        )
    m0 = 1 + max(0, _floor_log(3 / lam, tau), _ceil_log(9, norm))
    num, den = a * p ** (3 + m0), b * q ** (3 + m0)
    v = []
    for _ in range(stages + 1):
        v.append(num // den)
        num, den = num * p, den * q
    u = []
    for n in range(1, stages + 1):
        step = v[n] - 2 * v[n - 1]
        if step < 0:
            raise AssertionError("schedule increments must be nonnegative")
        if tau == 2 and step not in (0, 1):
            raise AssertionError("doubling schedule must have 0/1 increments")
        u.append(step)
    return FoldingSchedule(v[0], tuple(u))


@dataclass(frozen=True)
class PsiFunction:
    """Approximation target Psi(x) = x**(-t) * ln(1+x)**(-s), rational t >= 2, s >= 0."""

    t: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "s", Fraction(self.s))
        if self.t < 2 or self.s < 0:
            raise ValueError("unsupported Psi shape: require t >= 2 and s >= 0")


def _ln_arg_brackets(norm: int, v: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of L = ln(1 + norm**(v/2)).

    L = (v/2) ln(norm) + a tail in (0, 2**-(v//2)] for norm >= 2, so once v//2 >= bits
    only ln(norm) is needed; below that the argument is small and bracketed directly,
    through a bracket of norm**(v/2) to bits fractional bits when v is odd.
    """
    if v // 2 >= bits:
        lo, hi = ln_brackets(norm, bits + v.bit_length())
        return Fraction(v, 2) * lo, Fraction(v, 2) * hi + Fraction(1, 1 << bits)
    if v % 2 == 0:
        return ln_brackets(1 + norm ** (v // 2), bits)
    root_lo, root_hi = sqrt_brackets(norm**v, bits)
    lo, _ = ln_brackets(1 + root_lo, bits)
    _, hi = ln_brackets(1 + root_hi, bits)
    return lo, hi


def _psi_condition(psi: PsiFunction, norm: int, v: int, w: int, slack: int, strict_less: bool) -> bool:
    """Decide 2 * norm**(slack/2) <?> norm**(w/2) * Psi(norm**(v/2)) exactly.

    With strict_less the predicate is `2 * norm**(slack/2) < ...`; otherwise it
    is `... <= 2 * norm**(slack/2)`.  Powers of ln are bracketed to whatever
    precision the comparison needs; ties cannot occur unless s = 0.
    """
    q = psi.t.denominator
    rho = psi.s.denominator
    exponent = (q * w - psi.t.numerator * v - q * slack) * rho
    power = 2 * q * psi.s.numerator
    rhs = Fraction(norm) ** exponent
    two = Fraction(2) ** (2 * q * rho)
    if power == 0:
        return two < rhs if strict_less else rhs <= two
    bits = 64
    while bits <= _MAX_BRACKET_BITS:
        l_lo, l_hi = _ln_arg_brackets(norm, v, bits)
        if two * l_hi**power < rhs:
            return True if strict_less else False
        if two * l_lo**power > rhs:
            return False if strict_less else True
        bits *= 2
    raise ArithmeticError("cannot separate logarithmic comparison")


def schedule_from_psi(psi: PsiFunction, base: GaussianInt, v0: int, stages: int) -> FoldingSchedule:
    """Schedule whose stages squeeze |b|**v_{n+1} * Psi(|b|**v_n) into (2, 2|b|]."""
    if stages < 1:
        raise ValueError("need at least one stage")
    _check_stage_budget(stages)
    base = GaussianInt.from_any(base)
    norm = _check_base(base) ** 2 + 1
    v, u = v0, []
    for n in range(1, stages + 1):
        _check_power_budget(base, v, _MAX_PSI_BITS)

        def satisfied(step: int) -> bool:
            return _psi_condition(psi, norm, v, step + 2 * v, 0, True)

        step = _least(satisfied, 1)
        if step > 1 and satisfied(step - 1):
            raise AssertionError("increment is not minimal")
        if not _psi_condition(psi, norm, v, step + 2 * v, 1, False):
            raise ValueError(f"stage {n}: schedule invariant 2 < |b|^v' Psi(|b|^v) <= 2|b| fails")
        u.append(step)
        v = step + 2 * v
    return FoldingSchedule(v0, tuple(u))


class _Numerators:
    """The exact numerators d_0, ..., d_top of a built number, formed in stage order on first read.

    d_n = d_(n-1) * base**(v_n - v_(n-1)) + e_n, one power and one _mul3 per
    stage.  build_xi checked every stage against the image of d_n under the
    stage check's ring map, carried without forming d_n; each product is
    checked against that image and for a factor of the base, so a wrong
    product raises, naming its stage.  It holds no reference to its number.
    """

    def __init__(self, base: GaussianInt, v: tuple[int, ...], residues: list[GaussianInt],
                 images: list[int], seed_numerator: GaussianInt) -> None:
        self._base, self._v, self._residues, self._images = base, v, residues, images
        self._known = [seed_numerator]

    def __getitem__(self, n: int) -> GaussianInt:
        known, base, v = self._known, self._base, self._v
        while len(known) <= n:
            k = len(known)
            numerator = _mul3(known[-1], base ** (v[k] - v[k - 1])) + self._residues[k - 1]
            if _image(numerator) != self._images[k]:
                raise AssertionError(f"stage {k}: numerator disagrees with the checked series image")
            if divmod(numerator, base)[1] == ZERO:
                raise AssertionError(f"stage {k}: numerator shares a factor with the base")
            known.append(numerator)
        return known[n]


@dataclass(frozen=True)
class XiStage:
    """One stage of the folded series: the numerator over base**v_index and its digit stream.

    A stage build_xi returns past stage 0 forms its numerator on first read,
    from the number's _Numerators.
    """

    index: int
    numerator: GaussianInt
    digits: tuple[GaussianInt, ...]

    @classmethod
    def _pending(cls, index: int, digits: tuple[GaussianInt, ...], numerators: _Numerators) -> XiStage:
        stage = object.__new__(cls)
        stage.__dict__.update(index=index, digits=digits, _numerators=numerators)
        return stage

    def __getattr__(self, name: str) -> GaussianInt:
        # Reached only for an attribute the stage does not hold: a pending numerator.
        numerators = self.__dict__.get("_numerators")
        if name != "numerator" or numerators is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return numerators[self.index]


@dataclass(frozen=True)
class XiNumber:
    """Stages of a number whose convergents are pinned to denominators b**v_n."""

    base: GaussianInt
    schedule: FoldingSchedule
    stages: tuple[XiStage, ...] = field(repr=False)

    @property
    def stage_count(self) -> int:
        return len(self.stages) - 1

    def partial(self, m: int) -> GaussianRational:
        """Stage m's partial sum numerator_m / base**v_m, computed on demand.

        Reading it forms a built number's numerators up to stage m, unless
        a read already has, each checked against the image build_xi carried.
        Those numerators are +-1 past a multiple of the base, and the read
        checks them coprime to it, so the fraction is already reduced.
        """
        stage = self.stages[m]
        return GaussianRational._raw(stage.numerator, self.base ** self.schedule.v()[stage.index])

    def digits(self, m: int) -> tuple[GaussianInt, ...]:
        return self.stages[m].digits

    @cached_property
    def _lifts(self) -> tuple[GaussianInt, ...]:
        """base**(v_k - v_(k-1)) for k = 1, ..., stage_count, at index k - 1.

        Read only by a copy's residues and the sandwiches' telescoping
        fallback; like every cached_property, the cache is not carried into
        a dataclasses.replace copy, which computes its own from its base and
        schedule.
        """
        v = self.schedule.v()
        return tuple(self.base ** (v[k] - v[k - 1]) for k in range(1, self.stage_count + 1))

    @cached_property
    def _residues(self) -> tuple[GaussianInt, ...]:
        """numerator_k - numerator_(k-1) * lift_k at index k - 1; build_xi stores its own series terms."""
        d = [stage.numerator for stage in self.stages]
        return tuple(d[k] - _mul3(d[k - 1], lift) for k, lift in enumerate(self._lifts, 1))

    @cached_property
    def _sandwich_verdicts(self) -> tuple[bool, ...]:
        return _tail_sandwiches(self)


def unit_seed(base: GaussianInt, v0: int) -> tuple[GaussianInt, ...]:
    """Digits of 1/base**v0, the simplest full seed."""
    if isinstance(v0, bool):
        raise TypeError("v0 must be int, not bool")
    base = GaussianInt.from_any(base)
    if v0 < 1:
        raise ValueError("v0 must be a positive integer")
    _check_power_budget(base, v0, MAX_POWER_BITS)
    power = base**v0
    head, digits, _ = _gauss_map(1, 0, power.re, power.im)
    if head != (0, 0):
        raise AssertionError("seed fraction should lie in the fundamental domain")
    return tuple(_box(re, im) for re, im in digits)


def _seed_checks(seed: tuple[GaussianInt, ...]) -> None:
    if not seed:
        raise ValueError("empty seed: the seed word needs at least one digit")
    try:
        seed_full = is_full(seed) and is_full(mirror_negate(seed))
    except ValueError as exc:
        raise ValueError("seed digits must form an open-valid word") from exc
    if not seed_full:
        raise ValueError("seed word must drive the full state back to itself, forwards and mirrored")


def _canonical_stage(digits: tuple[GaussianInt, ...], n: int) -> None:
    # _word_verdicts takes the same all-norms-at-least-8 shortcut, but only
    # after the key list is built; a stream that takes it needs no keys.
    if all(_norm_at_least_8(d.re, d.im) for d in digits):
        return
    if not _word_verdicts([(d.re, d.im) for d in digits])[1]:
        raise AssertionError(f"stage {n}: stream is not the canonical expansion")


# The stage check's ring map Z[i] -> Z/P, a + bi -> a + b r for the prime
# P = 2**61 - 31 = 1 (mod 4) and a root r of -1 modulo P.  It takes the four
# units to 1, r, -1, -r, which are distinct, and no base -A+-i to 0.
_CHECK_PRIME = 2305843009213693921
_CHECK_ROOT = 583529827753931384


def _last_pair_mod(digits: tuple[GaussianInt, ...]) -> tuple[int, int]:
    """The last convergent pair (q, p) of [0; digits] under the check's ring map.

    cf.convergents' recurrence on residues, so the pair stays below the
    prime however long the word.
    """
    m, r = _CHECK_PRIME, _CHECK_ROOT
    p, p1, q, q1 = 0, 1, 1, 0
    for a in digits:
        x = (a.re + a.im * r) % m
        p, p1, q, q1 = (x * p + p1) % m, p, (x * q + q1) % m, q
    return q, p


def _image(z: GaussianInt) -> int:
    """z under the check's ring map."""
    m = _CHECK_PRIME
    return (z.re % m + z.im % m * _CHECK_ROOT) % m


def _unit_multiples(w: int) -> tuple[int, int, int, int]:
    """The images of u * z for u in UNITS in order, given the image w of z."""
    m = _CHECK_PRIME
    wr = w * _CHECK_ROOT % m
    return w, wr, (m - w) % m, (m - wr) % m


def _series_sign(n: int, seed_length: int) -> int:
    """The sign of the series term stage n adds: -1, but +1 at stage 1 after a seed word of even length."""
    return -1 if n > 1 or seed_length % 2 == 1 else 1


def build_xi(seed: tuple[GaussianInt, ...], schedule: FoldingSchedule, base: GaussianInt,
             stages: int | None = None) -> XiNumber:
    """Fold the seed along the schedule, pinning stage m to denominator base**v_m.

    Each stage folds the digits exactly and forms no big product: the series
    side is carried only as the image of numerator_n in Z/P under the stage
    check's ring map, image(numerator_(n-1)) * image(base)**(v_n - v_(n-1))
    +- 1 by modular powers.  The check that the stream's last convergent is
    unit * numerator_n / base**v_n runs the convergent recurrence over the
    folded digits modulo P (_last_pair_mod) and compares that pair with
    image(base)**v_n and the carried image, so it ties the digits to the
    series values without a product of the power's size.  A correct stage
    always passes; a wrong digit passes only if it leaves both residues of
    the pair unchanged.  The exact numerators numerator_n =
    numerator_(n-1) * base**(v_n - v_(n-1)) +- 1 are formed on first read
    (stage.numerator, XiNumber.partial, a copy's residues), one stage at a
    time, each checked against its carried image (_Numerators).  The series
    terms +-1 stay on the number, so its tail sandwiches make no big product.
    """
    base = GaussianInt.from_any(base)
    _check_base(base)
    seed = tuple(GaussianInt.from_any(d) for d in seed)
    if stages is None:
        stages = schedule.stage_count
    if stages < 0:
        raise ValueError("stage count must be nonnegative")
    if stages > schedule.stage_count:
        raise ValueError("schedule is shorter than the requested stage count")
    v = schedule.v()
    _check_power_budget(base, v[stages], MAX_POWER_BITS)
    _seed_checks(seed)
    power = base ** v[0]
    table = convergents(CfSequence._raw(ZERO, seed))
    q, p = table.q(table.last_index), table.p(table.last_index)
    # p/q is reduced and v0 >= 1, so the seed value is a numerator coprime to the
    # base over base**v0 exactly when q = unit * base**v0; a proper divisor q of
    # base**v0 leaves a numerator that shares a factor with the base.
    unit = _associate_unit(q, power)
    if unit is None:
        if power % q == ZERO:
            raise ValueError("seed numerator must be coprime to the base")
        raise ValueError("seed value must have denominator base**v0")
    seed_numerator = unit.conj() * p
    _canonical_stage(seed, 0)
    residues, images = [], [_image(seed_numerator)]
    numerators = _Numerators(base, v, residues, images, seed_numerator)
    stage_list = [XiStage(0, seed_numerator, seed)]
    digits = seed
    base_norm = base.norm
    base_image = _image(base)
    for n in range(1, stages + 1):
        length = len(digits)
        series_sign = _series_sign(n, len(seed))
        step = schedule.u[n - 1]
        # base_norm >= 2, so base_norm**step < 8 only for 1 <= step <= 2.
        if step and base_norm ** min(step, 3) < 8:
            raise ValueError(f"stage {n}: middle digit norm {base_norm ** step} is below 8")
        middle = base**step
        digits = _fold_series(digits, unit, middle, series_sign)
        if len(digits) != 2 * length + (0 if step == 0 else 1):
            raise AssertionError(f"stage {n}: unexpected stream length")
        residues.append(GaussianInt(series_sign, 0))
        images.append((images[-1] * pow(base_image, v[n] - v[n - 1], _CHECK_PRIME) + series_sign) % _CHECK_PRIME)
        # The last convergent p/q is reduced and so is numerator_n / base**v_n
        # (numerator_n is +-1 past a multiple of the base), so they are equal
        # exactly when q = u base**v_n and p = u numerator_n; compared under
        # the check's ring map, where the four multiples differ.
        q, p = _last_pair_mod(digits)
        multiples = _unit_multiples(pow(base_image, v[n], _CHECK_PRIME))
        if q not in multiples or p != _unit_multiples(images[-1])[multiples.index(q)]:
            raise AssertionError(f"stage {n}: folded stream disagrees with the series")
        unit = UNITS[multiples.index(q)]
        _canonical_stage(digits, n)
        stage_list.append(XiStage._pending(n, digits, numerators))
    xi = XiNumber(base, schedule, tuple(stage_list))
    xi.__dict__["_residues"] = tuple(residues)  # fills the cached_property
    return xi


def _tail_sandwiches(xi: XiNumber) -> tuple[bool, ...]:
    """check_tail_sandwich's verdicts for m = 0, ..., top - 3, from the per-stage residues.

    The residues e_k = d_k - d_(k-1) b**(v_k - v_(k-1)) are the number's own
    (XiNumber._residues), which build_xi stored, so a built number's
    verdicts cost no big product unless the bound below fails.  The gap
    g_m = d_top - d_m b**(v_top - v_m) is
    the sum of e_k b**(v_top - v_k) over k > m, and the sandwich asks
    1/2 <= |g_m / L_m| <= 3/2 for L_m = b**(v_top - v_(m+1)), whose squared
    modulus is the scale N**(v_top - v_(m+1)).  Now
    g_m / L_m = e_(m+1) + t_m with t_m the sum of e_k b**(v_(m+1) - v_k) over
    k >= m + 2.  With beta_k = bit_length(max(|Re e_k|, |Im e_k|)) + 1, so
    |e_k| < 2**beta_k, and lam = bit_length(N) - 1, so |b| >= 2**(lam/2),
    2 beta_k + 10 + 2 (k - m - 1) <= lam (v_k - v_(m+1)) for every such k
    puts the k-th term below 2**-(5 + k - m - 1), hence |t_m| < 1/32.  No
    norm is 3 and 3/2 - sqrt(2) > 1/32, so the verdict is then exactly
    |e_(m+1)|**2 in {1, 2}, with no lift and no gap.  An honest number has
    e_k = +-1, and its schedules pass the bound unless they are tiny.

    Where the bound fails for some m, the gaps are telescoped downwards,
    g_(k-1) = g_k + e_k b**(v_top - v_k), reusing the residues and the
    lifts b**(v_k - v_(k-1)) (XiNumber._lifts), read only here.  A
    dataclasses.replace copy carries no residues and computes its own from
    its numerators, so a tampered number gets the verdicts of the plain
    formula.
    """
    top = xi.stage_count
    v = xi.schedule.v()
    residues = (ZERO, *xi._residues)
    lam = xi.base.norm.bit_length() - 1
    beta = [max(abs(e.re), abs(e.im)).bit_length() + 1 for e in residues]
    if all(
        2 * beta[k] + 10 + 2 * (k - m - 1) <= lam * (v[k] - v[m + 1])
        for m in range(top - 2)
        for k in range(m + 2, top + 1)
    ):
        return tuple(residues[m + 1].norm in (1, 2) for m in range(top - 2))
    verdicts = [False] * (top - 2)
    lifts = xi._lifts
    gap, lift = ZERO, ONE
    for k in range(top, 0, -1):
        gap = gap + _mul3(residues[k], lift)
        if k <= top - 2:
            verdicts[k - 1] = _sandwich_holds(gap, lift)
        if k > 1:
            lift = _mul3(lift, lifts[k - 1])
    return tuple(verdicts)


def _sandwich_holds(gap: GaussianInt, lift: GaussianInt) -> bool:
    """Exactly |lift|^2 <= 4 |gap|^2 <= 9 |lift|^2."""
    scale = lift.norm
    return scale <= 4 * gap.norm <= 9 * scale


def check_tail_sandwich(xi: XiNumber, m: int) -> bool:
    """Exact check (1/4) N**-v_{m+1} <= |xi_M - xi_m|**2 <= (9/4) N**-v_{m+1}."""
    if not 0 <= m <= xi.stage_count - 3:
        raise ValueError("sandwich needs at least three stages beyond m")
    return xi._sandwich_verdicts[m]


def estimate_exponent(xi: XiNumber, depth: int | None = None) -> tuple[tuple[Fraction, Fraction], ...]:
    """Rational brackets around -log|xi - d_m/b^v_m| / log|b^v_m| for each stage m.

    With eta = En/Ed and theta = Tn/Td upper brackets of 2 ln(3/2) / ln N and
    2 ln 2 / ln N, stage m's bracket is v_(m+1)/v_m - eta/v_m to
    v_(m+1)/v_m + theta/v_m, rounded outward to 2**-64, so still an enclosure:
    one floor of (v_(m+1) Ed - En) / (v_m Ed) and one ceiling of
    (v_(m+1) Td + Tn) / (v_m Td), both scaled by 2**64.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be at least 0")
    v = xi.schedule.v()
    en, ed, tn, td = _exponent_slopes(xi.base.norm)
    return tuple(
        (_dyadic_round(high * ed - en, low * ed, 64, False), _dyadic_round(high * td + tn, low * td, 64, True))
        for low, high in zip(v[:depth], v[1:])
    )


@cache
def _exponent_slopes(norm: int) -> tuple[int, int, int, int]:
    """(En, Ed, Tn, Td) for eta = En/Ed >= 2 ln(3/2) / ln N and theta = Tn/Td >= 2 ln 2 / ln N."""
    lnn_lo = _ln_bracket(Fraction(norm))[0]
    eta_hi = 2 * _ln_bracket(Fraction(3, 2))[1] / lnn_lo
    theta_hi = 2 * _ln_bracket(Fraction(2))[1] / lnn_lo
    return *eta_hi.as_integer_ratio(), *theta_hi.as_integer_ratio()


@cache
def _ln_bracket(x: Fraction) -> tuple[Fraction, Fraction]:
    """The 64-bit ln_brackets of x, computed once per x."""
    return ln_brackets(x, 64)


def variant_schedule(schedule: FoldingSchedule, base: GaussianInt, word: tuple[int, ...]) -> FoldingSchedule:
    """The schedule with increment n raised by word[n] * s, one number for each 0/1 word.

    s is the least step with N(base)**s >= 8, so a raised increment still
    gives build_xi a middle digit of norm 8 or more.  No stage is added, and
    the increments past the word stay as they are.  Each v_n moves by less
    than 2**n * s, which leaves v_(n+1) / v_n with the schedule's limit tau:
    the variants keep the exponent, and distinct words give distinct numbers.
    """
    norm = _check_base(base) ** 2 + 1
    if any(not isinstance(bit, int) or bit not in (0, 1) for bit in word):
        raise ValueError("variant word entries must be 0 or 1")
    if len(word) > len(schedule.u):
        raise ValueError("variant word is longer than the schedule")
    step = _ceil_log(8, norm)
    raised = tuple(x + bit * step for x, bit in zip(schedule.u, word))
    return FoldingSchedule(schedule.v0, raised + schedule.u[len(word):])


@dataclass(frozen=True)
class DigitExpansion:
    """Base -A+i or -A-i digit string, least-significant digit first."""

    base: GaussianInt
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_base(self.base)
        norm = self.base.norm
        if any(not 0 <= d < norm for d in self.digits):
            raise ValueError("digits must lie in range(norm(base))")


def encode_base_b(z: GaussianInt, base: GaussianInt) -> DigitExpansion:
    """Digits of z in base -A+i or -A-i; every Gaussian integer terminates."""
    base = GaussianInt.from_any(base)
    a = _check_base(base)
    bre, bim = base.re, base.im
    norm = base.norm
    z = GaussianInt.from_any(z)
    zre, zim = z.re, z.im
    # z = d + base*z' for the digit d = z mod base, which is zre + bim*a*zim mod norm.
    s = a * bim
    digits = []
    while zre or zim:
        d = (zre + s * zim) % norm
        digits.append(d)
        zre, zim = _exact_quo(zre - d, zim, bre, bim, norm)
    return DigitExpansion(base, tuple(digits))


def decode_base_b(expansion: DigitExpansion) -> GaussianInt:
    """Evaluate a digit string back to its Gaussian integer."""
    bre, bim = expansion.base.re, expansion.base.im
    vre = vim = 0
    for d in reversed(expansion.digits):
        vre, vim = vre * bre - vim * bim + d, vre * bim + vim * bre
    # The digits are the caller's, so box through the checking constructor.
    return GaussianInt(vre, vim)


def encode_fractional(value: GaussianRational, base: GaussianInt) -> tuple[DigitExpansion, int]:
    """Encode r / base**k as (digits of r stretched by k, k); needs a base-power denominator."""
    base = GaussianInt.from_any(base)
    _check_base(base)
    # The shift is the least k with den | base**k.  base = -A +- i has no
    # rational integer factor, so no prime divides it together with its
    # conjugate and 1 + i divides it at most once.  A den made of its primes
    # then divides base**k exactly when N(den) divides N**k, so the least k
    # with N(den) | N**k is the shift whenever there is one.  Every prime of N
    # is at least 2, so such a k is below N(den).bit_length().  Square N**(2**j)
    # until N(den) divides it, then set the bits of k - 1 from the top: O(log k)
    # big operations, and no factor of N needed.
    dre, dim = value.den.re, value.den.im
    n = dre * dre + dim * dim
    squares = [base.norm]  # N**(2**j)
    while squares[-1] % n:
        if 1 << (len(squares) - 1) >= n.bit_length():
            raise ValueError("denominator is not a power of the base")
        squares.append(squares[-1] * squares[-1])
    shift, below = 0, 1  # below = N**shift, which N(den) does not divide
    if n > 1:
        for j in range(len(squares) - 2, -1, -1):
            if below * squares[j] % n:
                below *= squares[j]
                shift += 1 << j
        shift += 1
    power = base**shift
    # power / den, without _exact_quo's message, which would print both numbers.
    qre, rre = divmod(power.re * dre + power.im * dim, n)
    qim, rim = divmod(power.im * dre - power.re * dim, n)
    if rre or rim:
        raise ValueError("denominator is not a power of the base")
    return encode_base_b(value.num * _box(qre, qim), base), shift
