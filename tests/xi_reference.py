"""The two-sided xi builder, the slow reference for build_xi's differential tests.

It keeps the earlier stage loop: each stage carries the folded word's last
convergent pair (q, p) through the Folding Lemma's closed form, computed
here from the fold by x itself (y = (-1)^n x, q' = y q^2, p' = 1 + y q p;
for x = +-1 the word is the unit fold and the pair y times its last
convergent), computes the series side (base**v_n by an exact product
chain, and the numerator) as well, and compares the two pairs in full.
The seed, the series signs, the argument checks and the canonical-stream
check are spectrum's own; only the per-stage check and the powers differ from
build_xi's, which never forms base**v_n.

_last_pair_mod is the convergent recurrence over a whole word under the stage
check's ring map, which build_xi ran on every stage's stream before it
carried the pair through the Folding Lemma.
"""

from __future__ import annotations

from hurwitzcf.cf import CfSequence, convergents, fold, fold_unit, fold_unit_neg
from hurwitzcf.gaussian import ONE, ZERO, GaussianInt, GaussianRational, _associate_unit, _mul3
from hurwitzcf.spectrum import (
    _CHECK_PRIME,
    _CHECK_ROOT,
    MAX_POWER_BITS,
    FoldingSchedule,
    _canonical_stage,
    _check_base,
    _check_power_budget,
    _seed_checks,
    _series_sign,
)


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


def _fold_pair(
    word: CfSequence, x: GaussianInt, q: GaussianInt, p: GaussianInt
) -> tuple[CfSequence, GaussianInt, GaussianInt]:
    """The fold of word by x and its last convergent pair, from the word's (q, p)."""
    if x == ONE:
        folded = fold_unit(word)
    elif x == -ONE:
        folded = fold_unit_neg(word)
    else:
        folded = fold(word, x)
    yq = (-x if len(word.tail) & 1 else x) * q
    return folded, yq * q, ONE + yq * p


Stage = tuple[int, GaussianInt, tuple[GaussianInt, ...], GaussianRational]


def build_xi(seed: tuple[GaussianInt, ...], schedule: FoldingSchedule, base: GaussianInt,
             stages: int | None = None) -> list[Stage]:
    """spectrum.build_xi with the stage check done on the fold pair and the series pair.

    Returns (index, numerator, digits, partial) for each stage, the partial
    being numerator_n over the product chain's base**v_n.
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
    unit = _associate_unit(q, power)
    if unit is None:
        if power % q == ZERO:
            raise ValueError("seed numerator must be coprime to the base")
        raise ValueError("seed value must have denominator base**v0")
    numerator = unit.conj() * p
    value = GaussianRational._raw(numerator, power)
    _canonical_stage(seed, 0)
    stage_list = [(0, numerator, seed, value)]
    digits = seed
    base_norm = base.norm
    for n in range(1, stages + 1):
        length = len(digits)
        series_sign = _series_sign(n, len(seed))
        coefficient = GaussianInt(series_sign * (-1) ** length, 0) * unit * unit
        step = schedule.u[n - 1]
        if step and base_norm ** min(step, 3) < 8:
            raise ValueError(f"stage {n}: middle digit norm {base_norm ** step} is below 8")
        middle = base**step
        folded, q, p = _fold_pair(CfSequence._raw(ZERO, digits), coefficient * middle, q, p)
        digits = folded.tail
        if len(digits) != 2 * length + (0 if step == 0 else 1):
            raise AssertionError(f"stage {n}: unexpected stream length")
        lift = _mul3(middle, power)
        numerator = _mul3(numerator, lift) + GaussianInt(series_sign, 0)
        power = _mul3(power, lift)
        if divmod(numerator, base)[1] == ZERO:
            raise AssertionError(f"stage {n}: numerator shares a factor with the base")
        # The last convergent p/q is reduced and so is numerator / base**v_n,
        # so they are equal exactly when q = u base**v_n and p = u numerator.
        unit = _associate_unit(q, power)
        if unit is None or p != unit * numerator:
            raise AssertionError(f"stage {n}: folded stream disagrees with the series")
        partial = GaussianRational._raw(numerator, power)
        _canonical_stage(digits, n)
        stage_list.append((n, numerator, digits, partial))
    return stage_list
