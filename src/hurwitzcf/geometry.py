"""Exact planar regions driving the digit-successor automaton and validity checks.

A region is an intersection of integer circle/line constraints clipped to the
unit box; a constraint is a plain int tuple and is its own sort and memo key.
All emptiness and equality decisions are exact: a per-constraint interval
bound answers first, and a complete slice decomposition settles whatever it
cannot.  That exact path runs on plain integers: every root, meeting point,
critical x value and sample point is a quadratic surd (p + q*sqrt(d))/r held
as an int tuple, and every exact decision is one point test, _point_satisfies.
A vertical slice is sampled at every constraint's roots on it within the box
and at a rational between each two consecutive ones, and it is nonempty
exactly when one sample passes.  A region's fingerprint is its exact
membership of a 9x9 grid of eighths in the closed box: equal regions share
it, so states with different fingerprints differ.  The run-time automata
are loaded from the tables recorded in _automata, not explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cmp_to_key
from itertools import starmap
from math import gcd, isqrt
from typing import NamedTuple

from . import _automata
from .cf import CfSequence, fold, fold_unit
from .exactreal import sign_sqrt, sign_two_sqrt
from .gaussian import ZERO, BudgetError, GaussianInt, format_gaussian_int
from .hcf import digit_in_alphabet, hcf_expand  # hcf_expand: perfbench's tracer test reads it here


class Constraint(NamedTuple):
    """sense * (a*|z|^2 + 2*(bre*x + bim*y) + c) > 0, or >= 0 when not strict."""

    a: int
    bre: int
    bim: int
    c: int
    sense: int
    strict: bool

    def curve_key(self) -> tuple[int, int, int, int]:
        return self[:4]

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
        by_body: dict[tuple[int, int, int, int, int], Constraint] = {}
        unsat_constant = None
        for con in constraints:
            if con.is_constant:
                if not con.constant_satisfied():
                    unsat_constant = con
                continue
            body = con[:5]
            kept = by_body.get(body)
            if kept is None or (con.strict and not kept.strict):  # the strict one implies the other
                by_body[body] = con
        cons = list(by_body.values())
        if unsat_constant is not None:
            cons.append(unsat_constant)
        self.constraints = tuple(sorted(cons))
        self._fingerprint: int | None = None

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
    """The image of region under z -> conj z, which sends (bre, bim) to (bre, -bim)."""
    return canonicalize(Region(tuple(constraint(con.a, con.bre, -con.bim, *con[3:]) for con in region.constraints)))


def region_rotate(region: Region) -> Region:
    """The image of region under z -> iz, which sends (bre, bim) to (-bim, bre)."""
    return canonicalize(Region(tuple(constraint(con.a, -con.bim, con.bre, *con[3:]) for con in region.constraints)))


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
# A surd (p, q, r, d) is the real number (p + q*sqrt(d))/r in plain integers,
# with r > 0 and d never a perfect square: a rational has q = d = 0.  A point
# (x0, x1, y0, y1, r, d) is x = (x0 + x1*sqrt(d))/r, y = (y0 + y1*sqrt(d))/r.

_Surd = tuple[int, int, int, int]
_Point = tuple[int, int, int, int, int, int]

_HALF: _Surd = (1, 0, 2, 0)
_NEG_HALF: _Surd = (-1, 0, 2, 0)


def _surd(p: int, q: int, r: int, d: int) -> _Surd:
    """(p + q*sqrt(d))/r for r != 0, with a square radicand folded into p."""
    if q and d:
        s = isqrt(d)
        if s * s == d:
            p, q, d = p + q * s, 0, 0
    else:
        q = d = 0
    return (p, q, r, d) if r > 0 else (-p, -q, -r, d)


def _cmp(s: _Surd, t: _Surd) -> int:
    """Exact sign of s - t."""
    p1, q1, r1, d1 = s
    p2, q2, r2, d2 = t
    u = p1 * r2 - p2 * r1
    if d1 == d2:
        return sign_sqrt(u, q1 * r2 - q2 * r1, d1)
    return sign_two_sqrt(u, q1 * r2, d1, -q2 * r1, d2)


def _floor_scaled(s: _Surd, k: int) -> int:
    """floor(s * 2**k)."""
    p, q, r, d = s
    t = q << k
    n = t * t * d
    root = isqrt(n)
    if t < 0:
        root = -root if root * root == n else -root - 1
    return ((p << k) + root) // r


def _rational_between(lo: _Surd, hi: _Surd) -> tuple[int, int]:
    """The dyadic u/w with the least w such that lo < u/w < hi (requires lo < hi)."""
    k = 0
    while True:
        u = _floor_scaled(lo, k) + 1
        if _cmp((u, 0, 1 << k, 0), hi) < 0:
            return u, 1 << k
        k += 1


def _quad_roots(A: int, B: int, C: int) -> list[_Surd]:
    """Real roots of A*t^2 + 2*B*t + C with A > 0, sorted, as surds."""
    disc = B * B - A * C
    if disc < 0:
        return []
    if disc == 0:
        return [(-B, 0, A, 0)]
    return [_surd(-B, -1, A, disc), _surd(-B, 1, A, disc)]


def _column_roots(a: int, bim: int, kn: int, w: int) -> list[_Surd]:
    """Roots y of a*y^2 + 2*bim*y + kn/w^2 (a > 0, w > 0): t = w*y solves a*t^2 + 2*bim*w*t + kn."""
    return [(p, q, r * w, d) for p, q, r, d in _quad_roots(a, bim * w, kn)]


def _curves(region: Region) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(dict.fromkeys(con.curve_key() for con in region.constraints if not con.is_constant))


def _line_circle_points(
    line: tuple[int, int, int], circle: tuple[int, int, int, int]
) -> list[_Point]:
    """Meeting points of the line 2*(lre*x + lim*y) + lc = 0 with a circle (a > 0)."""
    lre, lim, lc = line
    a, bre, bim, c = circle
    if lim < 0:  # the same line, written with lim > 0
        lre, lim, lc = -lre, -lim, -lc
    if lim == 0:
        u, w = (-lc, 2 * lre) if lre > 0 else (lc, -2 * lre)
        kn = a * u * u + 2 * bre * u * w + c * w * w
        return [(u * (r // w), 0, p, q, r, d) for p, q, r, d in _column_roots(a, bim, kn, w)]
    # y = -(2*lre*x + lc)/L with L = 2*lim turns the circle into A*x^2 + 2*B*x + C
    L = 2 * lim
    A = a * (L * L + 4 * lre * lre)
    B = 2 * a * lre * lc + bre * L * L - 2 * bim * lre * L
    C = a * lc * lc - 2 * bim * lc * L + c * L * L
    return [
        (L * x0, L * x1, -(2 * lre * x0 + lc * r), -2 * lre * x1, L * r, d) for x0, x1, r, d in _quad_roots(A, B, C)
    ]


def _pair_points(c1: tuple[int, int, int, int], c2: tuple[int, int, int, int]) -> list[_Point]:
    """Meeting points of two distinct curves."""
    a1, bre1, bim1, cc1 = c1
    a2, bre2, bim2, cc2 = c2
    if a1 == 0 and a2 == 0:
        det = bre1 * bim2 - bim1 * bre2
        if det == 0:
            return []
        s = 1 if det > 0 else -1
        return [(s * (bim1 * cc2 - bim2 * cc1), 0, s * (bre2 * cc1 - bre1 * cc2), 0, 2 * s * det, 0)]
    if a1 == 0 or a2 == 0:
        line, circle = (c1, c2) if a1 == 0 else (c2, c1)
        return _line_circle_points(line[1:], circle)
    # two circles meet on their radical line
    lre = a2 * bre1 - a1 * bre2
    lim = a2 * bim1 - a1 * bim2
    if lre == 0 and lim == 0:
        return []
    return _line_circle_points((lre, lim, a2 * cc1 - a1 * cc2), c1)


def _in_box_range(s: _Surd) -> bool:
    """-1/2 <= s <= 1/2."""
    return _cmp(s, _NEG_HALF) >= 0 and _cmp(s, _HALF) <= 0


def _distinct_sorted(values: list[_Surd]) -> list[_Surd]:
    """The values within [-1/2, 1/2], sorted, each once."""
    out: list[_Surd] = []
    for s in sorted(filter(_in_box_range, values), key=cmp_to_key(_cmp)):
        if not out or _cmp(out[-1], s) < 0:
            out.append(s)
    return out


@cache
def _arrangement(curves: tuple[tuple[int, int, int, int], ...]) -> tuple[tuple[_Surd, ...], tuple[_Point, ...]]:
    """Critical x values and candidate points of a curve set, in one walk.

    The candidate points are each circle's centre and four extreme points and
    every meeting point of two curves, kept when they lie in the closed box.
    The critical x values, sorted and within the box, are the box edges, the
    vertical lines, each circle's leftmost and rightmost points and every
    meeting point; no slice changes shape between two consecutive ones.  The
    result depends on the curves alone, so every region on one curve set
    (canonicalize tests one per constraint) shares it.
    """
    xs: list[_Surd] = [_NEG_HALF, _HALF]
    pts: list[_Point] = []
    for a, bre, bim, c in curves:
        if a == 0:
            if bim == 0:
                xs.append(_surd(-c, 0, 2 * bre, 0))
            continue
        D = bre * bre + bim * bim - a * c  # a^2 times the squared radius
        pts.append((-bre, 0, -bim, 0, a, 0))
        if D > 0:
            ext_x = [_surd(-bre, -1, a, D), _surd(-bre, 1, a, D)]
            ext_y = [_surd(-bim, -1, a, D), _surd(-bim, 1, a, D)]
            pts += [(p, q, -bim, 0, a, d) for p, q, _, d in ext_x] + [(-bre, 0, p, q, a, d) for p, q, _, d in ext_y]
            xs += ext_x
        elif D == 0:
            xs.append((-bre, 0, a, 0))
    for i, curve in enumerate(curves):
        for other in curves[i + 1:]:
            meets = _pair_points(curve, other)
            pts += meets
            xs += [(x0, x1, r, d) for x0, x1, _, _, r, d in meets]
    in_box = [pt for pt in pts if _in_box_range(pt[:2] + pt[4:]) and _in_box_range(pt[2:])]  # x, y as surds
    return tuple(_distinct_sorted(xs)), tuple(in_box)


def _point_satisfies(con: Constraint, pt: _Point) -> bool:
    x0, x1, y0, y1, r, d = pt
    a, bre, bim = con.a, con.bre, con.bim
    if a:
        rat = a * (x0 * x0 + y0 * y0 + (x1 * x1 + y1 * y1) * d) + 2 * r * (bre * x0 + bim * y0) + con.c * r * r
        surd = 2 * (a * (x0 * x1 + y0 * y1) + r * (bre * x1 + bim * y1))
    else:  # a line: r times its value suffices
        rat = 2 * (bre * x0 + bim * y0) + con.c * r
        surd = 2 * (bre * x1 + bim * y1)
    s = con.sense * sign_sqrt(rat, surd, d)
    return s > 0 or (s == 0 and not con.strict)


def _holds(cons: tuple[Constraint, ...], pt: _Point) -> bool:
    return all(_point_satisfies(con, pt) for con in cons)


_FINGERPRINT_POINTS: tuple[_Point, ...] = tuple(
    (kx, 0, ky, 0, 8, 0) for kx in range(-4, 5) for ky in range(-4, 5)
)


def fingerprint(region: Region) -> int:
    """Bit j is set when the region holds _FINGERPRINT_POINTS[j], the 9x9 grid of eighths.

    Equal regions have equal fingerprints, so different ones prove different regions.
    """
    if region._fingerprint is None:
        region._fingerprint = sum(
            1 << j
            for j, pt in enumerate(_FINGERPRINT_POINTS)
            if _holds(region.constraints, pt)
        )
    return region._fingerprint


def _slice_nonempty(region: Region, u: int, w: int) -> bool:
    """Whether a box-clipped region meets the vertical line x = u/w (w > 0).

    On the line each constraint changes sign only at its own roots in y, so
    membership is constant strictly between two consecutive roots: the roots
    within the box and one rational between each two consecutive ones are the
    sample points of the slice (Collins's cylindrical decomposition in one
    dimension), and the slice is nonempty exactly when one of them passes.
    Every region carries the box's horizontal edges, so y = -1/2 and 1/2 are
    among the roots.
    """
    ys: list[_Surd] = []
    for a, bre, bim, c, _, _ in region.constraints:
        kn = a * u * u + 2 * bre * u * w + c * w * w  # w^2 times the value at y = 0
        if a:
            ys += _column_roots(a, bim, kn, w)
        elif bim:
            ys.append(_surd(-kn, 0, 2 * bim * w * w, 0))
    ys = _distinct_sorted(ys)
    ys += [(n, 0, m, 0) for n, m in (_rational_between(lo, hi) for lo, hi in zip(ys, ys[1:]))]
    return any(_holds(region.constraints, (u * r, 0, p * w, q * w, w * r, d)) for p, q, r, d in ys)


def _is_empty_exact(region: Region) -> bool:
    """Exact emptiness of a box-clipped region by slices and candidate points.

    The slices strictly between consecutive critical x values come first, then
    those at rational critical x values, then the candidate points; each of
    them is decided by point tests alone.
    """
    criticals, points = _arrangement(_curves(region))
    for left, right in zip(criticals, criticals[1:]):
        if _slice_nonempty(region, *_rational_between(left, right)):
            return False
    if region.all_strict():
        return True
    for p, q, r, _ in criticals:
        if q == 0 and _slice_nonempty(region, p, r):
            return False
    # box edges first: line tests are the cheapest, and they reject candidates on an open edge
    cons = tuple(sorted(region.constraints, key=lambda con: not _is_box_curve(con)))
    return not any(_holds(cons, pt) for pt in points)


_EMPTY_MEMO: dict[tuple[Constraint, ...], bool] = {}


def is_empty(region: Region) -> bool:
    """Exact emptiness of a box-clipped region."""
    cached = _EMPTY_MEMO.get(region.constraints)
    if cached is not None:
        return cached
    result = _is_empty_uncached(region)
    _EMPTY_MEMO[region.constraints] = result
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
    if any(_interval_infeasible(con) for con in region.constraints):
        return True
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


def _state_label(index: int, region: Region, box: tuple[Constraint, ...]) -> str:
    """full for the box, del[...] for the box less open unit disks about the listed centers, else state<index>."""
    edges = tuple(con for con in region.constraints if _is_box_curve(con))
    disks = [con for con in region.constraints if not _is_box_curve(con)]
    if edges != Region(box).constraints or not all(
        con.a == 1 and con.sense == 1 and con.strict and con.bre * con.bre + con.bim * con.bim - con.c == 1
        for con in disks
    ):
        return f"state{index}"
    if not disks:
        return "full"
    centers = sorted((GaussianInt(-con.bre, -con.bim) for con in disks), key=GaussianInt.key)
    return f"del[{','.join(map(format_gaussian_int, centers))}]"


def frontier_digits(bound: int = 4) -> tuple[GaussianInt, ...]:
    """All alphabet digits with max(|re|, |im|) <= bound, in a fixed order."""
    out = [
        GaussianInt(re, im)
        for re in range(-bound, bound + 1)
        for im in range(-bound, bound + 1)
        if re * re + im * im >= 2
    ]
    return tuple(sorted(out, key=GaussianInt.key))


def _parse_constraint(text: str) -> Constraint:
    """A constraint written as a,bre,bim,c,sense,strict with strict as 0 or 1."""
    a, bre, bim, c, sense, strict = map(int, text.split(","))
    return Constraint(a, bre, bim, c, sense, strict == 1)


_MISS = object()  # run_keys' marker for a transition not yet in the table


def _norm_at_least_8(re: int, im: int) -> bool:
    """Whether digit re + im i has norm >= 8; a component outside (-3, 3) gives norm >= 9 unsquared."""
    return not (-3 < re < 3 and -3 < im < 3) or re * re + im * im >= 8


@dataclass
class AutomatonState:
    index: int
    label: str
    region: Region


class Automaton:
    """Successor automaton over canonical prototype sets, for the open or half-open box.

    It starts from the full state alone, or from a recorded table, and builds
    every transition it lacks lazily, by the exact step.
    """

    def __init__(self, box: tuple[Constraint, ...] = _BOX_OPEN, table: tuple[str, str] | None = None) -> None:
        self.box = box
        self.states: list[AutomatonState] = []
        self._key_index: dict[tuple[Constraint, ...], int] = {}
        self._fp_index: dict[int, list[int]] = {}
        self._transitions: dict[tuple[int, tuple[int, int]], int | None] = {}
        if table is None:
            self.full_index = self._identify(Region(box))
        else:
            self._load(*table)
            self.full_index = 0

    def _load(self, states: str, transitions: str) -> None:
        """Take the states and transitions of a table in _automata, whose format it describes.

        Each region gets its recorded fingerprint, so _identify can match a
        region first met past the frontier without computing a state's.
        """
        for line in states.splitlines():
            label, fp, cons = line.split(" ")
            region = Region(tuple(_parse_constraint(con) for con in cons.split(";")))
            region._fingerprint = int(fp)
            self._add_state(region, label)
        keys = [d.key() for d in frontier_digits(_automata.BOUND)]
        decode = {"-": None, **{str(index): index for index in range(len(self.states))}}
        self._transitions = {
            (index, key): decode[target]
            for index, row in enumerate(transitions.splitlines())
            for key, target in zip(keys, row.split(" "))
        }

    @property
    def state_count(self) -> int:
        return len(self.states)

    def label(self, index: int) -> str:
        return self.states[index].label

    def _identify(self, region: Region) -> int:
        key = region.constraints
        found = self._key_index.get(key)
        if found is not None:
            return found
        fp = fingerprint(region)
        for idx in self._fp_index.get(fp, []):
            if region_equal(region, self.states[idx].region):
                self._key_index[key] = idx
                return idx
        return self._add_state(region, _state_label(len(self.states), region, self.box))

    def _add_state(self, region: Region, label: str) -> int:
        idx = len(self.states)
        self.states.append(AutomatonState(idx, label, region))
        self._key_index[region.constraints] = idx
        self._fp_index.setdefault(fingerprint(region), []).append(idx)
        return idx

    def transition(self, index: int, digit: GaussianInt) -> int | None:
        """Target state after reading digit, or None when the cylinder is empty."""
        if not digit_in_alphabet(digit):
            raise ValueError(f"digit outside the Hurwitz alphabet: {digit}")
        key = (index, digit.key())
        if key in self._transitions:
            return self._transitions[key]
        if index == self.full_index and _norm_at_least_8(*key[1]):
            # 1/(v + d) stays inside the open box for every v there, so the
            # step is the full box again; verified against the exact step in tests.
            result: int | None = self.full_index
        else:
            step = prototype_step(self.states[index].region, digit, self.box)
            result = None if is_empty(step) else self._identify(step)
        self._transitions[key] = result
        return result

    def run(self, digits: tuple[GaussianInt, ...]) -> int | None:
        """Final state index after reading digits from the full state, or None."""
        return self.run_keys([(d.re, d.im) for d in digits])

    def run_keys(self, keys: list[tuple[int, int]]) -> int | None:
        """run over digits given as (re, im) pairs.

        Each step is one lookup in the transition table; transition runs only
        on a miss.  It stores no entry for a non-alphabet digit, so such a
        digit always misses and raises there.
        """
        lookup = self._transitions.get
        index = self.full_index
        for key in keys:
            step = lookup((index, key), _MISS)
            if step is _MISS:
                step = self.transition(index, GaussianInt(*key))
            if step is None:
                return None
            index = step
        return index


def _close(box: tuple[Constraint, ...], bound: int, max_states: int) -> Automaton:
    """Breadth-first closure of the box's automaton: Automaton.transition for every (state, frontier digit)."""
    auto = Automaton(box)
    digits = frontier_digits(bound)
    pending, seen = [auto.full_index], {auto.full_index}
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


# The open closure takes 100-150 us per transition on a 2-CPU host (1.7-2.1 s for
# the 14 092 of bound 16, 6.2-6.5 s at bound 32), so the budget is about 2 s.
_MAX_CLOSURE_TRANSITIONS = 16_000


def explore_automaton(bound: int = 4, max_states: int = 64) -> Automaton:
    """Breadth-first closure of the open-box automaton over frontier_digits(bound).

    get_automaton loads it at the default bound from a recorded table, which
    the tests check against it.  Raises BudgetError before any step when its
    13 states' transitions would pass _MAX_CLOSURE_TRANSITIONS, and
    RuntimeError once it holds more than max_states states.
    """
    if isinstance(bound, bool):
        raise TypeError("bound must be int, not bool")
    side = 2 * max(bound, 0) + 1
    if 13 * (side * side - 5) > _MAX_CLOSURE_TRANSITIONS:  # side**2 - 5 frontier digits from bound 1 on
        raise BudgetError(f"bound {bound} exceeds the work budget of {_MAX_CLOSURE_TRANSITIONS} automaton transitions")
    return _close(_BOX_OPEN, bound, max_states)


@cache
def get_automaton() -> Automaton:
    """The open-box automaton, loaded from its recorded table: explore_automaton() state for state."""
    return Automaton(_BOX_OPEN, (_automata.OPEN_STATES, _automata.OPEN_TRANSITIONS))


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


@cache
def _half_open_automaton() -> Automaton:
    # loaded on first use, so set-up never builds it
    return Automaton(_BOX_HALF_OPEN, (_automata.HALF_OPEN_STATES, _automata.HALF_OPEN_TRANSITIONS))


def closed_cylinder_nonempty(digits) -> bool:
    """Whether some z in the half-open box follows the digits without leaving it."""
    return _half_open_automaton().run(_coerce_digits(digits)) is not None


_ORIGIN_BIT = 1 << _FINGERPRINT_POINTS.index((0, 0, 0, 0, 8, 0))


def _word_verdicts(keys: list[tuple[int, int]]) -> tuple[bool, bool]:
    """(closed_cylinder_nonempty, canonical expansion of [0; keys]) for alphabet digits as (re, im) pairs.

    Digits of norm >= 8 only, or an open run that ends in the full state,
    give both: that state's region is the open box, which holds 0, so some
    point reads the digits inside the open box and lands on 0 after the last
    one; that point is [0; keys], and there the half-open rounding agrees.
    Otherwise one half-open run gives both: the word is valid when it
    survives, and its final region, T**n of the half-open cylinder for T the
    Gauss map, holds 0 (bit _ORIGIN_BIT of its fingerprint) exactly when the
    Gauss map reads these digits from [0; keys] and stops.
    """
    auto = get_automaton()
    if all(starmap(_norm_at_least_8, keys)) or auto.run_keys(keys) == auto.full_index:
        return True, True
    half_open = _half_open_automaton()
    final = half_open.run_keys(keys)
    valid = final is not None
    return valid, valid and fingerprint(half_open.states[final].region) & _ORIGIN_BIT != 0


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
    # open-valid and full is one open run that ends in the full state
    auto = get_automaton()
    if auto.run(digits) != auto.full_index:
        raise AssertionError(f"folding program produced a bad word: {list(map(str, digits))}")
    rev = tuple(reversed(digits))
    if auto.run(rev) != auto.full_index:
        raise AssertionError(f"folding program produced a bad reversal: {list(map(str, rev))}")


# Checking folded words costs about 1.5-2 us per digit on a 2-CPU host (0.5-0.7 s
# for the 349 013 digits of depth 8 on a 3-digit seed), so the budget is about 2 s.
MAX_FOLDING_DIGITS = 1 << 20


def verify_folding_program(seed, middle: GaussianInt | int = GaussianInt(-2, 1), depth: int = 4) -> int:
    """Check that both folding moves preserve open validity and fullness.

    Applies every composition of fold-by-middle and unit-fold up to the given
    depth to the seed word, checking each result and its reversal.  Returns the
    number of words checked.  Raises BudgetError before any fold when the words
    would pass MAX_FOLDING_DIGITS digits in all.
    """
    if isinstance(depth, bool):
        raise TypeError("depth must be int, not bool")
    seed_cf = CfSequence(ZERO, _coerce_digits(seed))
    middle = GaussianInt.from_any(middle)
    total, words, length = 0, 1, len(seed_cf.tail)
    for _ in range(depth + 1):  # a fold turns n digits into at most 2n + 1
        total += words * length
        if total > MAX_FOLDING_DIGITS:
            raise BudgetError(
                f"folding depth {depth} exceeds the work budget of {MAX_FOLDING_DIGITS} digits checked"
            )
        words, length = 2 * words, 2 * length + 1
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
