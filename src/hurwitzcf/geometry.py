"""Exact planar regions driving the digit-successor automaton and validity checks.

A region is an intersection of integer circle/line constraints clipped to the
unit box.  All emptiness and equality decisions are exact: cheap interval and
grid filters answer first, and a complete slice decomposition with quadratic
surds settles whatever they cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

import numpy as np

from .cf import CfSequence, fold, fold_unit
from .exactreal import QuadSurd, rational_between, sign_sqrt
from .gaussian import ZERO, GaussianInt, format_gaussian_int
from .hcf import digit_in_alphabet, hcf_expand  # hcf_expand: perfbench's tracer test reads it here


@dataclass(frozen=True)
class Constraint:
    """sense * (a*|z|^2 + 2*(bre*x + bim*y) + c) > 0, or >= 0 when not strict."""

    a: int
    bre: int
    bim: int
    c: int
    sense: int
    strict: bool

    def key(self) -> tuple[int, int, int, int, int, bool]:
        return (self.a, self.bre, self.bim, self.c, self.sense, self.strict)

    def curve_key(self) -> tuple[int, int, int, int]:
        return (self.a, self.bre, self.bim, self.c)

    @property
    def is_constant(self) -> bool:
        return self.a == 0 and self.bre == 0 and self.bim == 0

    def constant_satisfied(self) -> bool:
        v = self.sense * self.c
        return v > 0 or (v == 0 and not self.strict)

    def negate(self) -> Constraint:
        """The exact complement: not(F > 0) is F <= 0, not(F >= 0) is F < 0."""
        return constraint(self.a, self.bre, self.bim, self.c, -self.sense, not self.strict)

    def invert(self) -> Constraint:
        """Constraint satisfied by 1/z exactly when self is satisfied by z."""
        return constraint(self.c, self.bre, -self.bim, self.a, self.sense, self.strict)

    def translate(self, t: GaussianInt) -> Constraint:
        """Constraint for the region shifted by +t."""
        bre = self.bre - self.a * t.re
        bim = self.bim - self.a * t.im
        c = self.c + self.a * t.norm - 2 * (self.bre * t.re + self.bim * t.im)
        return constraint(self.a, bre, bim, c, self.sense, self.strict)

    def conjugate(self) -> Constraint:
        """Constraint for the complex-conjugated region."""
        return constraint(self.a, self.bre, -self.bim, self.c, self.sense, self.strict)

    def rotate(self) -> Constraint:
        """Constraint for the region multiplied by i."""
        return constraint(self.a, -self.bim, self.bre, self.c, self.sense, self.strict)


def constraint(a: int, bre: int, bim: int, c: int, sense: int, strict: bool) -> Constraint:
    """Build a Constraint in normal form: gcd 1, a >= 0, sign-canonical at a = 0."""
    g = gcd(gcd(abs(a), abs(bre)), gcd(abs(bim), abs(c)))
    if g > 1:
        a, bre, bim, c = a // g, bre // g, bim // g, c // g
    flip = False
    if a < 0:
        flip = True
    elif a == 0:
        if bre < 0 or (bre == 0 and bim < 0):
            flip = True
        elif bre == 0 and bim == 0 and c < 0:
            flip = True
    if flip:
        a, bre, bim, c, sense = -a, -bre, -bim, -c, -sense
    return Constraint(a, bre, bim, c, sense, bool(strict))


def _box_constraints(half_open: bool) -> tuple[Constraint, ...]:
    return (
        constraint(0, 1, 0, 1, 1, not half_open),  # x >= -1/2 (strict when open)
        constraint(0, -1, 0, 1, 1, True),  # x < 1/2
        constraint(0, 0, 1, 1, 1, not half_open),  # y >= -1/2
        constraint(0, 0, -1, 1, 1, True),  # y < 1/2
    )


_BOX_OPEN = _box_constraints(half_open=False)
_BOX_HALF_OPEN = _box_constraints(half_open=True)
_BOX_CURVES = frozenset(con.curve_key() for con in _BOX_OPEN)


def _is_box_curve(con: Constraint) -> bool:
    return con.curve_key() in _BOX_CURVES


class Region:
    """A finite intersection of constraints, kept in sorted deduplicated form."""

    __slots__ = ("constraints", "_fingerprint")

    def __init__(self, constraints: tuple[Constraint, ...]) -> None:
        by_body: dict[tuple[int, int, int, int, int], bool] = {}
        unsat_constant = None
        for con in constraints:
            if con.is_constant:
                if not con.constant_satisfied():
                    unsat_constant = con
                continue
            body = (con.a, con.bre, con.bim, con.c, con.sense)
            by_body[body] = by_body.get(body, False) or con.strict
        cons = [Constraint(*body, strict) for body, strict in by_body.items()]
        if unsat_constant is not None:
            cons.append(unsat_constant)
        self.constraints = tuple(sorted(cons, key=Constraint.key))
        self._fingerprint: bytes | None = None

    def key(self) -> tuple[tuple[int, int, int, int, int, bool], ...]:
        return tuple(con.key() for con in self.constraints)

    def all_strict(self) -> bool:
        return all(con.strict for con in self.constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return self.constraints == other.constraints

    def __hash__(self) -> int:
        return hash(self.constraints)

    def __repr__(self) -> str:
        return f"Region({len(self.constraints)} constraints)"


def open_box_region() -> Region:
    return Region(_BOX_OPEN)


def half_open_box_region() -> Region:
    return Region(_BOX_HALF_OPEN)


def region_conjugate(region: Region) -> Region:
    return canonicalize(Region(tuple(con.conjugate() for con in region.constraints)))


def region_rotate(region: Region) -> Region:
    return canonicalize(Region(tuple(con.rotate() for con in region.constraints)))


# ---------------------------------------------------------------- grid filter

_GRID_SCALE = 64
_GRID_COEFF_LIMIT = 1 << 40
_AXIS = np.arange(-_GRID_SCALE // 2, _GRID_SCALE // 2 + 1, dtype=np.int64)
_KX, _KY = (arr.ravel() for arr in np.meshgrid(_AXIS, _AXIS, indexing="ij"))
_KN = _KX * _KX + _KY * _KY


def _grid_mask(region: Region) -> np.ndarray | None:
    """Boolean membership of the 65x65 rational grid, or None if unsafe in int64."""
    mask = np.ones(_KX.shape, dtype=bool)
    for con in region.constraints:
        if max(abs(con.a), abs(con.bre), abs(con.bim), abs(con.c)) > _GRID_COEFF_LIMIT:
            return None
        vals = con.a * _KN + 128 * (con.bre * _KX + con.bim * _KY) + 4096 * con.c
        if con.sense > 0:
            mask &= (vals > 0) if con.strict else (vals >= 0)
        else:
            mask &= (vals < 0) if con.strict else (vals <= 0)
        if not mask.any():
            return mask
    return mask


def fingerprint(region: Region) -> bytes:
    """Packed grid membership bits; different fingerprints prove different regions."""
    if region._fingerprint is None:
        mask = _grid_mask(region)
        assert mask is not None, "fingerprint needs small constraint coefficients"
        region._fingerprint = np.packbits(mask).tobytes()
    return region._fingerprint


# ------------------------------------------------------------ interval filter

def _interval_infeasible(con: Constraint) -> bool:
    """True when the constraint alone fails everywhere on the closed unit box.

    On u in [-1/2, 1/2], a*u^2 + 2*b*u (a >= 0) peaks at a/4 + |b| and bottoms
    out at -b^2/a when the vertex -b/a lies inside, else at a/4 - |b|.  The
    bounds of the constraint's value are compared with 0 in integers: the upper
    one scaled by 4, the lower one by 4*max(a, 1).
    """
    a, bre, bim = con.a, abs(con.bre), abs(con.bim)
    if con.sense > 0:
        hi = 2 * a + 4 * (bre + bim + con.c)
        return hi < 0 or (hi == 0 and con.strict)
    m = max(a, 1)
    lo = 4 * m * con.c
    for b in (bre, bim):
        lo += -4 * b * b if 2 * b <= a else m * (a - 4 * b)
    return lo > 0 or (lo == 0 and con.strict)


# ------------------------------------------------------------- exact geometry

_HALF = QuadSurd(Fraction(1, 2))
_NEG_HALF = QuadSurd(Fraction(-1, 2))
_ONE_Q = QuadSurd(1)
_NEG_ONE_Q = QuadSurd(-1)

_Interval = tuple[QuadSurd, bool, QuadSurd, bool]
_UNIVERSE: _Interval = (_NEG_ONE_Q, True, _ONE_Q, True)

_Point = tuple[Fraction, Fraction, Fraction, Fraction, int]  # (xp + xq*sqrt(d), yp + yq*sqrt(d))
_ZERO = Fraction(0)


def _quad_roots(A: Fraction, B: Fraction, C: Fraction) -> list[QuadSurd]:
    """Real roots of A*t^2 + B*t + C with A > 0, sorted, as quadratic surds."""
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    mid = -B / (2 * A)
    if disc == 0:
        return [QuadSurd(mid)]
    n, m = disc.numerator, disc.denominator
    spread = Fraction(1, 1) / (2 * A * m)
    d = n * m
    return [QuadSurd(mid, -spread, d), QuadSurd(mid, spread, d)]


def _curves(region: Region) -> list[tuple[int, int, int, int]]:
    seen: list[tuple[int, int, int, int]] = []
    for con in region.constraints:
        ck = con.curve_key()
        if ck not in seen and not (ck[0] == 0 and ck[1] == 0 and ck[2] == 0):
            seen.append(ck)
    return seen


def _line_circle_points(
    line: tuple[int, int, int], circle: tuple[int, int, int, int]
) -> list[_Point]:
    """Meeting points of the line 2*(lre*x + lim*y) + lc = 0 with a circle (a > 0)."""
    lre, lim, lc = line
    a, bre, bim, c = circle
    if lim == 0:
        x0 = Fraction(-lc, 2 * lre)
        K = a * x0 * x0 + 2 * bre * x0 + c
        return [(x0, _ZERO, r.p, r.q, int(r.d)) for r in _quad_roots(Fraction(a), Fraction(2 * bim), K)]
    alpha = Fraction(-lre, lim)
    beta = Fraction(-lc, 2 * lim)
    A = a * (1 + alpha * alpha)
    B = 2 * a * alpha * beta + 2 * bre + 2 * bim * alpha
    C = a * beta * beta + 2 * bim * beta + c
    return [(r.p, r.q, alpha * r.p + beta, alpha * r.q, int(r.d)) for r in _quad_roots(A, B, C)]


def _pair_points(c1: tuple[int, int, int, int], c2: tuple[int, int, int, int]) -> list[_Point]:
    """Meeting points of two distinct curves."""
    a1, bre1, bim1, cc1 = c1
    a2, bre2, bim2, cc2 = c2
    if a1 == 0 and a2 == 0:
        det = bre1 * bim2 - bim1 * bre2
        if det == 0:
            return []
        x = Fraction(bim1 * cc2 - bim2 * cc1, 2 * det)
        y = Fraction(bre2 * cc1 - bre1 * cc2, 2 * det)
        return [(x, _ZERO, y, _ZERO, 0)]
    if a1 == 0 or a2 == 0:
        line, circle = (c1, c2) if a1 == 0 else (c2, c1)
        return _line_circle_points(line[1:], circle)
    # two circles meet on their radical line
    lre = a2 * bre1 - a1 * bre2
    lim = a2 * bim1 - a1 * bim2
    if lre == 0 and lim == 0:
        return []
    return _line_circle_points((lre, lim, a2 * cc1 - a1 * cc2), c1)


def _arrangement(region: Region) -> tuple[list[QuadSurd], list[_Point]]:
    """Critical x values and candidate points of the region's curves, in one walk.

    The candidate points are each circle's centre and four extreme points and
    every meeting point of two curves.  The critical x values, sorted and within
    the box, are the box edges, the vertical lines, each circle's leftmost and
    rightmost points and every meeting point; no slice changes shape between two
    consecutive ones.
    """
    xs: list[QuadSurd] = [_NEG_HALF, _HALF]
    pts: list[_Point] = []
    curves = _curves(region)
    for a, bre, bim, c in curves:
        if a == 0:
            if bim == 0:
                xs.append(QuadSurd(Fraction(-c, 2 * bre)))
            continue
        D = bre * bre + bim * bim - a * c  # a^2 times the squared radius
        cx, cy = Fraction(-bre, a), Fraction(-bim, a)
        pts.append((cx, _ZERO, cy, _ZERO, 0))
        if D > 0:
            unit = Fraction(1, a)
            pts += [(cx, -unit, cy, _ZERO, D), (cx, unit, cy, _ZERO, D),
                    (cx, _ZERO, cy, -unit, D), (cx, _ZERO, cy, unit, D)]
            xs += [QuadSurd(cx, -unit, D), QuadSurd(cx, unit, D)]
        elif D == 0:
            xs.append(QuadSurd(cx))
    for i, curve in enumerate(curves):
        for other in curves[i + 1:]:
            meets = _pair_points(curve, other)
            pts += meets
            xs += [QuadSurd(xp, xq, d) for xp, xq, _, _, d in meets]
    xs = sorted(x for x in xs if not (x < _NEG_HALF or _HALF < x))
    criticals: list[QuadSurd] = []
    for x in xs:
        if not criticals or criticals[-1] < x:
            criticals.append(x)
    return criticals, pts


def _point_satisfies(con: Constraint, pt: _Point) -> bool:
    xp, xq, yp, yq, d = pt
    rat = (
        con.a * (xp * xp + (xq * xq + yq * yq) * d + yp * yp)
        + 2 * (con.bre * xp + con.bim * yp)
        + con.c
    )
    surd = 2 * con.a * (xp * xq + yp * yq) + 2 * (con.bre * xq + con.bim * yq)
    s = con.sense * sign_sqrt(rat, surd, d)
    return s > 0 or (s == 0 and not con.strict)


def _iv_intersect(i1: _Interval, i2: _Interval) -> _Interval | None:
    lo1, lc1, hi1, hc1 = i1
    lo2, lc2, hi2, hc2 = i2
    c = lo1.cmp(lo2)
    if c > 0:
        lo, lc = lo1, lc1
    elif c < 0:
        lo, lc = lo2, lc2
    else:
        lo, lc = lo1, lc1 and lc2
    c = hi1.cmp(hi2)
    if c < 0:
        hi, hc = hi1, hc1
    elif c > 0:
        hi, hc = hi2, hc2
    else:
        hi, hc = hi1, hc1 and hc2
    c = lo.cmp(hi)
    if c < 0:
        return (lo, lc, hi, hc)
    if c == 0 and lc and hc:
        return (lo, True, hi, True)
    return None


def _slice_sets(con: Constraint, xs: Fraction) -> list[_Interval]:
    """Feasible y-intervals of one constraint on the vertical line x = xs."""
    K = con.a * xs * xs + 2 * con.bre * xs + con.c
    a, bim = con.a, con.bim
    if a == 0 and bim == 0:
        v = con.sense * K
        return [_UNIVERSE] if (v > 0 or (v == 0 and not con.strict)) else []
    if a == 0:
        ystar = QuadSurd(Fraction(-K, 2 * bim))
        if con.sense * bim > 0:
            return [(ystar, not con.strict, _ONE_Q, True)]
        return [(_NEG_ONE_Q, True, ystar, not con.strict)]
    roots = _quad_roots(Fraction(a), Fraction(2 * bim), K)
    if con.sense > 0:  # exterior of the disk
        if not roots:
            return [_UNIVERSE]
        if len(roots) == 1:
            if not con.strict:
                return [_UNIVERSE]
            y0 = roots[0]
            return [(_NEG_ONE_Q, True, y0, False), (y0, False, _ONE_Q, True)]
        ylo, yhi = roots
        closed = not con.strict
        return [(_NEG_ONE_Q, True, ylo, closed), (yhi, closed, _ONE_Q, True)]
    # interior of the disk
    if not roots:
        return []
    if len(roots) == 1:
        return [] if con.strict else [(roots[0], True, roots[0], True)]
    ylo, yhi = roots
    closed = not con.strict
    return [(ylo, closed, yhi, closed)]


def _slice_nonempty(region: Region, xs: Fraction) -> bool:
    feasible: list[_Interval] = [_UNIVERSE]
    for con in region.constraints:
        sets = _slice_sets(con, xs)
        if not sets:
            return False
        new: list[_Interval] = []
        for iv in feasible:
            for s in sets:
                merged = _iv_intersect(iv, s)
                if merged is not None:
                    new.append(merged)
        if not new:
            return False
        feasible = new
    return True


def _is_empty_exact(region: Region) -> bool:
    criticals, points = _arrangement(region)
    for left, right in zip(criticals, criticals[1:]):
        if left < right:
            xs = rational_between(left, right)
            if _slice_nonempty(region, xs):
                return False
    if region.all_strict():
        return True
    for x in criticals:
        if x.is_rational() and _slice_nonempty(region, x.p):
            return False
    for pt in points:
        if all(_point_satisfies(con, pt) for con in region.constraints):
            return False
    return True


_EMPTY_MEMO: dict[tuple, bool] = {}


def is_empty(region: Region) -> bool:
    """Exact emptiness of a box-clipped region."""
    key = region.key()
    cached = _EMPTY_MEMO.get(key)
    if cached is not None:
        return cached
    result = _is_empty_uncached(region)
    _EMPTY_MEMO[key] = result
    return result


def _is_empty_uncached(region: Region) -> bool:
    by_curve: dict[tuple[int, int, int, int], list[Constraint]] = {}
    for con in region.constraints:
        if con.is_constant:
            if not con.constant_satisfied():
                return True
            continue
        by_curve.setdefault(con.curve_key(), []).append(con)
    for group in by_curve.values():
        senses = {con.sense for con in group}
        if len(senses) == 2 and any(con.strict for con in group):
            return True
    for con in region.constraints:
        if _interval_infeasible(con):
            return True
    mask = _grid_mask(region)
    if mask is not None and mask.any():
        return False
    return _is_empty_exact(region)


# ------------------------------------------------------- canonical form

def canonicalize(region: Region) -> Region:
    """Drop constraints implied by the rest; box edges are always kept."""
    kept = list(region.constraints)
    for con in list(kept):
        if _is_box_curve(con) or con.is_constant:
            continue
        others = [c for c in kept if c != con]
        if is_empty(Region(tuple(others) + (con.negate(),))):
            kept = others
    return Region(tuple(kept))


def region_subset(r1: Region, r2: Region) -> bool:
    """Exact containment r1 subset-of r2."""
    return all(
        is_empty(Region(r1.constraints + (con.negate(),))) for con in r2.constraints
    )


def region_equal(r1: Region, r2: Region) -> bool:
    """Exact set equality, with fingerprint fast paths."""
    if r1.constraints == r2.constraints:
        return True
    if fingerprint(r1) != fingerprint(r2):
        return False
    return region_subset(r1, r2) and region_subset(r2, r1)


# ------------------------------------------------------------- the automaton

def cylinder_one(digit: GaussianInt) -> Region:
    """Open rank-one cylinder: z in the open box with 1/z in digit + open box."""
    cons = list(_BOX_OPEN)
    for con in _BOX_OPEN:
        cons.append(con.translate(digit).invert())
    return canonicalize(Region(tuple(cons)))


def prototype_step(region: Region, digit: GaussianInt, box: tuple[Constraint, ...] = _BOX_OPEN) -> Region:
    """Image of region under z -> 1/z - digit, clipped to the box (open by default)."""
    cons = list(box)
    for con in region.constraints:
        cons.append(con.invert().translate(-digit))
    return canonicalize(Region(tuple(cons)))


def _disk_centers(region: Region) -> list[GaussianInt] | None:
    """Centers of removed unit disks, or None if some constraint has another shape."""
    centers = []
    for con in region.constraints:
        if _is_box_curve(con):
            continue
        if (
            con.a == 1
            and con.sense == 1
            and con.strict
            and con.bre * con.bre + con.bim * con.bim - con.c == 1
        ):
            centers.append(GaussianInt(-con.bre, -con.bim))
        else:
            return None
    return centers


def _state_label(index: int, region: Region, box: tuple[Constraint, ...]) -> str:
    centers = _disk_centers(region)
    edges = tuple(con for con in region.constraints if _is_box_curve(con))
    if centers is None or edges != Region(box).constraints:
        return f"state{index}"
    if not centers:
        return "full"
    inner = ",".join(format_gaussian_int(c) for c in sorted(centers, key=GaussianInt.key))
    return f"del[{inner}]"


def _edge_impossible(region: Region, digit: GaussianInt) -> bool:
    """Cheap sufficient test that the digit's cylinder misses the region entirely.

    The cylinder of d lies inside a removed disk B(center, 1) when:
    - |center| = 1 and Re(center * d) >= 1, or
    - |center|^2 = 2 and d + closed box lies within B(conj(center), 1).
    """
    centers = _disk_centers(region)
    if not centers:
        return False
    for g in centers:
        n = g.norm
        if n == 1:
            if g.re * digit.re - g.im * digit.im >= 1:
                return True
        elif n == 2:
            ok = True
            for s1 in (-1, 1):
                for s2 in (-1, 1):
                    dre = 2 * digit.re + s1 - 2 * g.re
                    dim = 2 * digit.im + s2 + 2 * g.im
                    if dre * dre + dim * dim > 4:
                        ok = False
            if ok:
                return True
    return False


def frontier_digits(bound: int = 4) -> tuple[GaussianInt, ...]:
    """All alphabet digits with max(|re|, |im|) <= bound, in a fixed order."""
    out = [
        GaussianInt(re, im)
        for re in range(-bound, bound + 1)
        for im in range(-bound, bound + 1)
        if re * re + im * im >= 2
    ]
    return tuple(sorted(out, key=GaussianInt.key))


@dataclass
class AutomatonState:
    index: int
    label: str
    region: Region


class Automaton:
    """Successor automaton over canonical prototype sets, built lazily, for the open or half-open box."""

    def __init__(self, box: tuple[Constraint, ...] = _BOX_OPEN) -> None:
        self.box = box
        self.states: list[AutomatonState] = []
        self._key_index: dict[tuple, int] = {}
        self._fp_index: dict[bytes, list[int]] = {}
        self._transitions: dict[tuple[int, tuple[int, int]], int | None] = {}
        self.full_index = self._identify(Region(box))

    @property
    def state_count(self) -> int:
        return len(self.states)

    def label(self, index: int) -> str:
        return self.states[index].label

    def _identify(self, region: Region) -> int:
        key = region.key()
        found = self._key_index.get(key)
        if found is not None:
            return found
        fp = fingerprint(region)
        for idx in self._fp_index.get(fp, []):
            if region_equal(region, self.states[idx].region):
                self._key_index[key] = idx
                return idx
        idx = len(self.states)
        self.states.append(AutomatonState(idx, _state_label(idx, region, self.box), region))
        self._key_index[key] = idx
        self._fp_index.setdefault(fp, []).append(idx)
        return idx

    def transition(self, index: int, digit: GaussianInt) -> int | None:
        """Target state after reading digit, or None when the cylinder is empty."""
        if not digit_in_alphabet(digit):
            raise ValueError(f"digit outside the Hurwitz alphabet: {digit}")
        key = (index, digit.key())
        if key in self._transitions:
            return self._transitions[key]
        region = self.states[index].region
        if index == self.full_index and digit.norm >= 8:
            # 1/(v + d) stays inside the open box for every v there, so the
            # step is the full box again; verified against the exact step in tests.
            result: int | None = self.full_index
        elif _edge_impossible(region, digit):
            result = None
        else:
            step = prototype_step(region, digit, self.box)
            result = None if is_empty(step) else self._identify(step)
        self._transitions[key] = result
        return result

    def run(self, digits: tuple[GaussianInt, ...]) -> int | None:
        """Final state index after reading digits from the full state, or None."""
        index: int | None = self.full_index
        for d in digits:
            index = self.transition(index, d)
            if index is None:
                return None
        return index


def explore_automaton(bound: int = 4, max_states: int = 64, box: tuple[Constraint, ...] = _BOX_OPEN) -> Automaton:
    """Breadth-first closure of the automaton over the digit frontier."""
    auto = Automaton(box)
    digits = frontier_digits(bound)
    pending = [auto.full_index]
    seen = {auto.full_index}
    while pending:
        index = pending.pop(0)
        for d in digits:
            target = auto.transition(index, d)
            if auto.state_count > max_states:
                raise RuntimeError("automaton failed to close: state budget exceeded")
            if target is not None and target not in seen:
                seen.add(target)
                pending.append(target)
    return auto


_AUTOMATON: Automaton | None = None
_HALF_OPEN_AUTOMATON: Automaton | None = None


def get_automaton() -> Automaton:
    global _AUTOMATON
    if _AUTOMATON is None:
        _AUTOMATON = explore_automaton()
    return _AUTOMATON


def export_state_table(auto: Automaton, bound: int = 4) -> str:
    """One line per transition over the digit frontier: state,digit,successor."""
    lines = ["state,digit,successor"]
    for state in auto.states:
        for d in frontier_digits(bound):
            target = auto.transition(state.index, d)
            if target is not None:
                lines.append(f"{state.label},{format_gaussian_int(d)},{auto.label(target)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- validity

class Validity(Enum):
    VALID = "Valid"
    VALID_BOUNDARY_ONLY = "ValidBoundaryOnly"
    INVALID = "Invalid"


def _coerce_digits(digits) -> tuple[GaussianInt, ...]:
    out = tuple(GaussianInt.from_any(d) for d in digits)
    for d in out:
        if not digit_in_alphabet(d):
            raise ValueError(f"digit outside the Hurwitz alphabet: {d}")
    return out


def closed_cylinder_nonempty(digits) -> bool:
    """Whether some z in the half-open box follows the digits without leaving it."""
    global _HALF_OPEN_AUTOMATON
    if _HALF_OPEN_AUTOMATON is None:  # created on first use, so set-up never builds it
        _HALF_OPEN_AUTOMATON = Automaton(_BOX_HALF_OPEN)
    return _HALF_OPEN_AUTOMATON.run(_coerce_digits(digits)) is not None


def is_valid(digits) -> Validity:
    """Three-way digit-sequence validity: open, boundary-only, or invalid."""
    seq = _coerce_digits(digits)
    if get_automaton().run(seq) is not None:
        return Validity.VALID
    if closed_cylinder_nonempty(seq):
        return Validity.VALID_BOUNDARY_ONLY
    return Validity.INVALID


def is_full(digits) -> bool:
    """Whether the digits drive the full state back to itself (open sense)."""
    seq = _coerce_digits(digits)
    auto = get_automaton()
    final = auto.run(seq)
    if final is None:
        raise ValueError("sequence is not open-valid")
    return final == auto.full_index


def _check_program_word(digits: tuple[GaussianInt, ...]) -> None:
    if is_valid(digits) is not Validity.VALID or not is_full(digits):
        raise AssertionError(f"folding program produced a bad word: {list(map(str, digits))}")
    rev = tuple(reversed(digits))
    if is_valid(rev) is not Validity.VALID or not is_full(rev):
        raise AssertionError(f"folding program produced a bad reversal: {list(map(str, rev))}")


def verify_folding_program(seed, middle: GaussianInt | int = GaussianInt(-2, 1), depth: int = 4) -> int:
    """Check that both folding moves preserve open validity and fullness.

    Applies every composition of fold-by-middle and unit-fold up to the given
    depth to the seed word, checking each result and its reversal.  Returns the
    number of words checked.
    """
    seed_cf = CfSequence(ZERO, _coerce_digits(seed))
    middle = GaussianInt.from_any(middle)
    _check_program_word(seed_cf.tail)
    count = 1
    level = [seed_cf]
    for _ in range(depth):
        nxt = []
        for cf in level:
            for out in (fold(cf, middle), fold_unit(cf)):
                _check_program_word(out.tail)
                count += 1
                nxt.append(out)
        level = nxt
    return count
