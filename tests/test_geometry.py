"""Prototype-set geometry, the successor automaton, and word validity."""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hurwitzcf
from hurwitzcf import _automata, geometry
from hurwitzcf.gaussian import ZERO, BudgetError, GaussianInt, GaussianRational
from hurwitzcf.geometry import (
    Constraint,
    Region,
    Validity,
    _interval_infeasible,
    _is_empty_exact,
    constraint,
    canonicalize,
    closed_cylinder_nonempty,
    cylinder_one,
    explore_automaton,
    export_state_table,
    fingerprint,
    frontier_digits,
    get_automaton,
    half_open_box_region,
    is_empty,
    is_full,
    is_valid,
    open_box_region,
    prototype_step,
    region_conjugate,
    region_equal,
    region_rotate,
    region_subset,
    verify_folding_program,
)
from hurwitzcf.hcf import allowed_successors, hcf_expand

import fraction_reference as ref
from fraction_reference import QuadSurd, rational_between
from render_automata import COMMAND, MODULE, builds, render


def g(re, im=0):
    return GaussianInt(re, im)


def chain(*digits):
    region = open_box_region()
    for d in digits:
        region = prototype_step(region, d)
    return region


def test_box_region_basics():
    box = open_box_region()
    assert not is_empty(box)
    stepped = prototype_step(box, g(2))
    assert not is_empty(stepped)
    assert region_subset(stepped, box)
    assert not region_subset(box, stepped)
    assert region_equal(stepped, prototype_step(box, g(2)))


def test_cylinder_one_matches_single_step():
    box = open_box_region()
    for d in (g(2), g(1, 1), g(-2, 1), g(3, -4)):
        cyl = cylinder_one(d)
        assert not is_empty(cyl)
        assert region_subset(cyl, box)
        assert not region_equal(cyl, box)
        # restricting the step to its own cylinder changes nothing
        assert region_equal(prototype_step(cyl, d), chain(d))


def test_automaton_has_thirteen_states():
    auto = get_automaton()
    assert auto.state_count == 13
    labels = [s.label for s in auto.states]
    assert labels == [
        "full",
        "del[1+i]",
        "del[1]",
        "del[1-i]",
        "del[i,1]",
        "del[-i,1]",
        "del[i]",
        "del[-i]",
        "del[-1+i]",
        "del[-1,i]",
        "del[-1,-i]",
        "del[-1-i]",
        "del[-1]",
    ]
    assert auto is get_automaton()  # cached singleton
    fresh = explore_automaton()
    assert fresh.state_count == 13


def test_automaton_matches_region_chase():
    auto = get_automaton()
    rng = random.Random(7)
    digs = frontier_digits(3)
    for _ in range(60):
        word = tuple(rng.choice(digs) for _ in range(rng.randint(1, 3)))
        region = chain(*word)
        assert (auto.run(word) is None) == is_empty(region)


def test_automaton_matches_successor_rules():
    auto = get_automaton()
    for a in frontier_digits(3):
        state = auto.run((a,))
        assert state is not None
        rule = allowed_successors(a)
        for x in frontier_digits(3):
            assert (auto.transition(state, x) is not None) == rule.fresh_allows(x)


def _pullback_nonempty(digits):
    """Reference: pull the half-open box back through the digits, last digit first."""
    current = half_open_box_region()
    for d in reversed(digits):
        cons = list(geometry._BOX_HALF_OPEN)
        for con in current.constraints:
            cons.append(con.translate(d).invert())
        current = canonicalize(Region(tuple(cons)))
        if is_empty(current):
            return False
    return True


def test_closed_cylinder_spot_facts():
    spots = {
        (g(-1, 2), g(1, 1)): False,
        (g(-2), g(1, -2)): True,
        (g(-2), g(1, -1)): False,
    }
    for word, expected in spots.items():
        assert closed_cylinder_nonempty(word) is expected
        assert _pullback_nonempty(word) is expected


def test_half_open_automaton_matches_pullback():
    # every length-2 word over |re|, |im| <= 2 that the open automaton rejects
    auto = get_automaton()
    words = [w for w in itertools.product(frontier_digits(2), repeat=2) if auto.run(w) is None]
    assert len(words) == 100
    verdicts = [is_valid(w) for w in words]
    assert verdicts.count(Validity.VALID_BOUNDARY_ONLY) == 6
    assert verdicts.count(Validity.INVALID) == 94
    for word, verdict in zip(words, verdicts):
        expected = _pullback_nonempty(word)
        assert closed_cylinder_nonempty(word) is expected
        assert (verdict is Validity.VALID_BOUNDARY_ONLY) is expected


def test_half_open_automaton_closes_and_its_shortcuts_hold(recorded_builds):
    box = geometry._BOX_HALF_OPEN
    auto = recorded_builds[1]  # geometry._close(box, 3, 64) from a cold memo
    assert auto.state_count == 63
    full = auto.states[auto.full_index].region
    for d in frontier_digits(6):
        if d.norm >= 8:
            assert region_equal(prototype_step(full, d, box), full)


def test_set_up_and_explore_build_no_half_open_state(tmp_path):
    # a fresh interpreter, so that import-time work is seen too
    code = "\n".join([
        "import contextlib, io, sys",
        "from hurwitzcf import geometry",
        "from hurwitzcf.cli import main",
        "assert geometry.get_automaton().state_count == 13",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['prototype', 'explore', '--export', sys.argv[1]]) == 0",
        "assert geometry._half_open_automaton.cache_info().currsize == 0",
    ])
    src = str(Path(hurwitzcf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "table.csv")], env=env, check=True)


# ------------------------------------------------------ the recorded automata

_TABLES = (
    (geometry._BOX_OPEN, (_automata.OPEN_STATES, _automata.OPEN_TRANSITIONS)),
    (geometry._BOX_HALF_OPEN, (_automata.HALF_OPEN_STATES, _automata.HALF_OPEN_TRANSITIONS)),
)


def test_the_recorded_automata_are_the_renderers_output():
    assert MODULE.read_text(encoding="utf-8") == render(), (
        f"src/hurwitzcf/_automata.py is stale; regenerate it with: {COMMAND}"
    )


@pytest.mark.parametrize("which", [0, 1], ids=["open", "half-open"])
def test_loaded_automata_are_their_exact_builds(which):
    # the open one is explore_automaton(), the half-open one geometry._close of its box
    box, table = _TABLES[which]
    loaded, built = geometry.Automaton(box, table), builds()[which]
    assert loaded.state_count == (13, 63)[which]
    assert loaded.full_index == built.full_index == 0
    assert [s.label for s in loaded.states] == [s.label for s in built.states]
    assert [s.region.constraints for s in loaded.states] == [s.region.constraints for s in built.states]
    assert all(type(con.strict) is bool for s in loaded.states for con in s.region.constraints)
    assert loaded._transitions == built._transitions
    assert [s.region._fingerprint for s in loaded.states] == [
        fingerprint(Region(s.region.constraints)) for s in loaded.states
    ]
    got = geometry.get_automaton() if which == 0 else geometry._half_open_automaton()
    assert [s.region.constraints for s in got.states] == [s.region.constraints for s in loaded.states]


@pytest.mark.parametrize("which", [0, 1], ids=["open", "half-open"])
def test_transitions_past_the_frontier_match_a_fresh_build(which):
    # digits with a component of +-5 lie outside the table: the loaded
    # automaton steps them exactly and meets no region it does not hold
    box, table = _TABLES[which]
    loaded, fresh = geometry.Automaton(box, table), geometry.Automaton(box)
    words, pending = {loaded.full_index: ()}, [loaded.full_index]  # a shortest word to each state
    while pending:
        index = pending.pop(0)
        for d in frontier_digits():
            target = loaded._transitions[index, d.key()]
            if target is not None and target not in words:
                words[target] = words[index] + (d,)
                pending.append(target)
    assert len(words) == loaded.state_count
    outside = [d for d in frontier_digits(5) if 5 in (abs(d.re), abs(d.im))]
    assert len(outside) == 40
    for index, word in words.items():
        for d in outside:
            target, reached = loaded.transition(index, d), fresh.run(word + (d,))
            assert (target is None) is (reached is None)
            if target is not None:
                assert region_equal(loaded.states[target].region, fresh.states[reached].region), (index, d)
    assert loaded.state_count == fresh.state_count == (13, 63)[which]
    # a region equal to a state but written otherwise is matched by its
    # recorded fingerprint, and does not become a duplicate state
    implied = constraint(0, 1, 0, 2, 1, True)  # x > -1
    for state in list(loaded.states):
        again = Region(state.region.constraints + (implied,))
        assert again.constraints != state.region.constraints
        assert loaded._identify(again) == state.index
    assert loaded.state_count == (13, 63)[which]


# ------------------------------------------------- the closure at other bounds

@pytest.mark.parametrize("which", [0, 1], ids=["open", "half-open"])
def test_the_bound_3_closure_is_the_table_over_its_frontier(recorded_builds, which):
    # every state is met at bound 3 already, in the recorded order; the
    # fixture's half-open build is geometry._close(box, 3, 64)
    box, table = _TABLES[which]
    loaded = geometry.Automaton(box, table)
    built = recorded_builds[1] if which else explore_automaton(3)
    assert [s.label for s in built.states] == [s.label for s in loaded.states]
    assert [s.region.constraints for s in built.states] == [s.region.constraints for s in loaded.states]
    keys = [d.key() for d in frontier_digits(3)]
    assert built._transitions == {
        (index, key): loaded._transitions[index, key] for index in range(loaded.state_count) for key in keys
    }
    assert len(built._transitions) == (572, 2772)[which]


def test_explore_refuses_an_over_budget_bound_and_too_many_states():
    for bound in (18, 32, 10**6):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="work budget"):
            explore_automaton(bound)
        assert time.perf_counter() - start < 0.1
    assert 13 * len(frontier_digits(17)) <= geometry._MAX_CLOSURE_TRANSITIONS < 13 * len(frontier_digits(18))
    with pytest.raises(RuntimeError, match="state budget exceeded"):
        explore_automaton(max_states=12)
    assert explore_automaton(max_states=13).state_count == 13


def test_prototype_steps_commute_with_the_box_symmetries():
    # T_d(iR) = -i * T_{id}(R) and T_d(conj R) = conj(T_{conj d}(R)) on the open box
    for state in get_automaton().states:
        region = state.region
        rotated, conjugated = region_rotate(region), region_conjugate(region)
        for d in frontier_digits():
            back = prototype_step(region, d * g(0, 1))
            for _ in range(3):
                back = region_rotate(back)
            assert region_equal(prototype_step(rotated, d), back), (state.label, d)
            assert region_equal(prototype_step(conjugated, d), region_conjugate(prototype_step(region, d.conj()))), (
                state.label, d)


# ------------------------------------------------ reference emptiness walkers
# The interval filter in Fractions and the two curve-pair walks as they were
# before geometry._arrangement: one walk for the critical x values, one for
# the candidate points, with each line-circle meeting solved twice.  Roots
# and point tests come from fraction_reference, the Fraction-surd path that
# geometry's integer surds replaced; its slices intersect y-intervals, where
# geometry samples points.

def _ref_axis_range(a, beta):
    quarter = Fraction(a, 4)
    hi = quarter + abs(beta)
    if a > 0 and 2 * abs(beta) <= a:
        lo = Fraction(-beta * beta, a)
    else:
        lo = quarter - abs(beta)
    return lo, hi


def _ref_interval_infeasible(con):
    xlo, xhi = _ref_axis_range(con.a, con.bre)
    ylo, yhi = _ref_axis_range(con.a, con.bim)
    lo, hi = xlo + ylo + con.c, xhi + yhi + con.c
    if con.sense > 0:
        return hi < 0 or (hi == 0 and con.strict)
    return lo > 0 or (lo == 0 and con.strict)


def _ref_line_circle_xroots(line, circle):
    lre, lim, lc = line
    a, bre, bim, c = circle
    if lim == 0:
        if lre == 0:
            return []
        return [QuadSurd(Fraction(-lc, 2 * lre))]
    alpha = Fraction(-lre, lim)
    beta = Fraction(-lc, 2 * lim)
    A = a * (1 + alpha * alpha)
    B = 2 * a * alpha * beta + 2 * bre + 2 * bim * alpha
    C = a * beta * beta + 2 * bim * beta + c
    if A == 0:
        if B == 0:
            return []
        return [QuadSurd(-C / B)]
    return ref._quad_roots(A, B, C)


def _ref_line_circle_points(line, circle):
    lre, lim, lc = line
    a, bre, bim, c = circle
    pts = []
    if lim == 0:
        if lre == 0 or a == 0:
            return []
        x0 = Fraction(-lc, 2 * lre)
        K = a * x0 * x0 + 2 * bre * x0 + c
        for root in ref._quad_roots(Fraction(a), Fraction(2 * bim), K):
            pts.append((x0, Fraction(0), root.p, root.q, int(root.d)))
        return pts
    alpha = Fraction(-lre, lim)
    beta = Fraction(-lc, 2 * lim)
    for root in _ref_line_circle_xroots(line, circle):
        pts.append((root.p, root.q, alpha * root.p + beta, alpha * root.q, int(root.d)))
    return pts


def _ref_pair_geometry(c1, c2):
    a1, bre1, bim1, cc1 = c1
    a2, bre2, bim2, cc2 = c2
    if a1 == 0 and a2 == 0:
        det = bre1 * bim2 - bim1 * bre2
        if det == 0:
            return [], []
        x = Fraction(bim1 * cc2 - bim2 * cc1, 2 * det)
        y = Fraction(bre2 * cc1 - bre1 * cc2, 2 * det)
        return [QuadSurd(x)], [(x, Fraction(0), y, Fraction(0), 0)]
    if a1 == 0 or a2 == 0:
        line, circle = (c1, c2) if a1 == 0 else (c2, c1)
        lre, lim, lc = line[1], line[2], line[3]
        return _ref_line_circle_xroots((lre, lim, lc), circle), _ref_line_circle_points((lre, lim, lc), circle)
    lre = a2 * bre1 - a1 * bre2
    lim = a2 * bim1 - a1 * bim2
    lc = a2 * cc1 - a1 * cc2
    if lre == 0 and lim == 0:
        return [], []
    return _ref_line_circle_xroots((lre, lim, lc), c1), _ref_line_circle_points((lre, lim, lc), c1)


def _ref_critical_xs(region):
    half, neg_half = QuadSurd(Fraction(1, 2)), QuadSurd(Fraction(-1, 2))
    xs = [neg_half, half]
    curves = geometry._curves(region)
    for a, bre, bim, c in curves:
        if a > 0:
            D = bre * bre + bim * bim - a * c
            if D > 0:
                mid = Fraction(-bre, a)
                xs.append(QuadSurd(mid, Fraction(-1, a), D))
                xs.append(QuadSurd(mid, Fraction(1, a), D))
            elif D == 0:
                xs.append(QuadSurd(Fraction(-bre, a)))
        elif bim == 0 and bre != 0:
            xs.append(QuadSurd(Fraction(-c, 2 * bre)))
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            xs.extend(_ref_pair_geometry(curves[i], curves[j])[0])
    xs = sorted(x for x in xs if not (x < neg_half or half < x))
    out = []
    for x in xs:
        if not out or out[-1] < x:
            out.append(x)
    return out


def _ref_candidate_points(region):
    pts = []
    curves = geometry._curves(region)
    for a, bre, bim, c in curves:
        if a == 0:
            continue
        D = bre * bre + bim * bim - a * c
        cx, cy = Fraction(-bre, a), Fraction(-bim, a)
        pts.append((cx, Fraction(0), cy, Fraction(0), 0))
        if D > 0:
            unit = Fraction(1, a)
            pts.append((cx, -unit, cy, Fraction(0), D))
            pts.append((cx, unit, cy, Fraction(0), D))
            pts.append((cx, Fraction(0), cy, -unit, D))
            pts.append((cx, Fraction(0), cy, unit, D))
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            pts.extend(_ref_pair_geometry(curves[i], curves[j])[1])
    return pts


def _ref_is_empty_exact(region):
    criticals = _ref_critical_xs(region)
    for left, right in zip(criticals, criticals[1:]):
        if left < right and ref._slice_nonempty(region, rational_between(left, right)):
            return False
    if region.all_strict():
        return True
    for x in criticals:
        if x.is_rational() and ref._slice_nonempty(region, x.p):
            return False
    return not any(
        all(ref._point_satisfies(con, pt) for con in region.constraints)
        for pt in _ref_candidate_points(region)
    )


@pytest.fixture(scope="module")
def recorded_builds():
    """Both automata built from a cold memo, with every region each emptiness stage saw.

    The open one is explore_automaton(), the half-open one the closure at
    bound 3; both step every state over their frontier.
    """
    seen = {"_is_empty_uncached": [], "_is_empty_exact": []}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_EMPTY_MEMO", {})
        mp.setattr(geometry, "_arrangement", functools.cache(geometry._arrangement.__wrapped__))
        for name, regions in seen.items():
            def wrapped(region, _stage=getattr(geometry, name), _regions=regions):
                _regions.append(region)
                return _stage(region)
            mp.setattr(geometry, name, wrapped)
        opened = explore_automaton()
        exact = seen["_is_empty_exact"]
        open_exact = list(exact)
        half_open = geometry._close(geometry._BOX_HALF_OPEN, 3, 64)
    return opened, half_open, seen["_is_empty_uncached"], open_exact, exact[len(open_exact):]


def test_interval_filter_matches_fraction_reference(recorded_builds):
    *_, uncached, _, _ = recorded_builds
    met = {con for region in uncached for con in region.constraints}
    assert len(met) > 400
    rng = random.Random(11)
    big = [
        constraint(rng.randint(0, 10**6), *(rng.randint(-(10**6), 10**6) for _ in range(3)),
                   rng.choice((1, -1)), rng.random() < 0.5)
        for _ in range(3000)
    ]
    # every tie (bound exactly 0, vertex on the box edge) among small coefficients
    small = [
        constraint(a, bre, bim, c, sense, strict)
        for a in range(5) for bre in range(-4, 5) for bim in range(-4, 5) for c in range(-6, 7)
        for sense in (1, -1) for strict in (True, False)
    ]
    verdicts = set()
    for con in itertools.chain(met, big, small):
        verdict = _interval_infeasible(con)
        assert verdict is _ref_interval_infeasible(con), con
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _as_ref_surd(s):
    p, q, r, d = s
    return QuadSurd(Fraction(p, r), Fraction(q, r), d)


def _as_ref_point(pt):
    x0, x1, y0, y1, r, d = pt
    return (Fraction(x0, r), Fraction(x1, r), Fraction(y0, r), Fraction(y1, r), d)


def _ref_point_xy(pt):
    xp, xq, yp, yq, d = pt
    return QuadSurd(xp, xq, d), QuadSurd(yp, yq, d)


_REF_HALF, _REF_NEG_HALF = QuadSurd(Fraction(1, 2)), QuadSurd(Fraction(-1, 2))


def test_arrangement_matches_reference_walkers(recorded_builds):
    _, _, _, open_exact, half_open_exact = recorded_builds
    for region in open_exact + random.Random(5).sample(half_open_exact, 12):
        criticals, points = geometry._arrangement(geometry._curves(region))
        ref_points = [_ref_point_xy(pt) for pt in _ref_candidate_points(region)]
        # the reference's points in its order, compared as values; the closed box keeps some
        assert [_ref_point_xy(_as_ref_point(pt)) for pt in points] == [
            xy for xy in ref_points if all(_REF_NEG_HALF <= v <= _REF_HALF for v in xy)
        ]
        criticals = [_as_ref_surd(x) for x in criticals]
        assert all(left < right for left, right in zip(criticals, criticals[1:]))
        # the reference also cut at the radical line of circles that never meet;
        # every cut kept is one of its cuts, and every cut dropped meets no point
        ref_criticals = _ref_critical_xs(region)
        assert all(x in ref_criticals for x in criticals)
        point_xs = [x for x, _ in ref_points]
        assert not any(x in point_xs for x in ref_criticals if x not in criticals)


def test_exact_emptiness_matches_reference(recorded_builds):
    _, _, _, open_exact, half_open_exact = recorded_builds
    # every open-build region that passes the interval bound reaches the exact path
    assert len(open_exact) == 247 and len(half_open_exact) > 1000
    sample = open_exact + random.Random(3).sample(half_open_exact, 80)
    verdicts = [_is_empty_exact(region) for region in sample]
    assert verdicts == [_ref_is_empty_exact(region) for region in sample]
    assert set(verdicts) == {True, False}
    # every slice the integer path takes, against the Fraction slice at the same x
    slices = 0
    for region in sample:
        criticals, _ = geometry._arrangement(geometry._curves(region))
        xs = [geometry._rational_between(left, right) for left, right in zip(criticals, criticals[1:])]
        for (u, w), left, right in zip(xs, criticals, criticals[1:]):
            assert _as_ref_surd(left) < QuadSurd(Fraction(u, w)) < _as_ref_surd(right)
        xs += [(p, r) for p, q, r, _ in criticals if q == 0]
        for u, w in xs:
            assert geometry._slice_nonempty(region, u, w) is ref._slice_nonempty(region, Fraction(u, w))
            slices += 1
    assert slices > 500


def test_exact_verdicts_of_both_builds_are_pinned(recorded_builds):
    # one character per region, open build first.  The 1 216 regions the builds
    # met while an edge test skipped some steps had a digest recorded with the
    # interval-algebra slices; they are among these 1 504, and the 288 others read 0
    _, _, _, open_exact, half_open_exact = recorded_builds
    assert (len(open_exact), len(half_open_exact)) == (247, 1257)
    verdicts = "".join("01"[_is_empty_exact(region)] for region in open_exact + half_open_exact)
    assert verdicts.count("1") == 117
    assert hashlib.sha256(verdicts.encode()).hexdigest() == (
        "c6f665909e984f0c924d123ff0ce58db82184479ff0f9c269b491c9c950f1c18"
    )


def test_every_exact_region_carries_the_horizontal_box_edges(recorded_builds):
    # _slice_nonempty takes y = -1/2 and 1/2 from these edges' roots and adds no samples of its own
    _, _, _, open_exact, half_open_exact = recorded_builds
    for box, regions in ((geometry._BOX_OPEN, open_exact), (geometry._BOX_HALF_OPEN, half_open_exact)):
        edges = {con.curve_key() for con in box if con.bim}
        assert len(edges) == 2
        for region in regions:
            assert edges <= {con.curve_key() for con in region.constraints}, region.constraints


def test_a_slice_through_a_single_point():
    # the closed disk of radius 1/4 about (0, 1/4) and the half-plane y <= 0 share (0, 0) alone,
    # so only the root y = 0 of the line x = 0 lies in the region
    disk = constraint(4, 0, -1, 0, -1, False)
    below = constraint(0, 0, 1, 0, -1, False)
    region = Region(geometry._BOX_OPEN + (disk, below))
    assert geometry._slice_nonempty(region, 0, 1)
    assert not geometry._slice_nonempty(region, 1, 8)
    assert not _is_empty_exact(region)
    assert _is_empty_exact(Region(geometry._BOX_OPEN + (disk, constraint(0, 0, 1, 0, -1, True))))  # y < 0


# ------------------------------------------- integer surds against Fractions

_surds = st.tuples(
    st.integers(-40, 40), st.integers(-40, 40), st.integers(-30, 30).filter(bool), st.integers(0, 50)
).map(lambda t: geometry._surd(*t))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_surds, _surds, st.integers(1, 5), st.integers(1, 4), st.integers(0, 12))
def test_integer_surd_order_matches_fraction_surds(s, t, k, m, bits):
    assert s[2] > 0 and (s[1] != 0) == (s[3] != 0)
    ref_s, ref_t = _as_ref_surd(s), _as_ref_surd(t)
    assert geometry._cmp(s, t) == ref_s.cmp(ref_t)
    # exact ties: the same value scaled through by k, and sqrt(d) written as sqrt(m^2 d) / m
    p, q, r, d = s
    for same in ((k * p, k * q, k * r, d), geometry._surd(m * p, q, m * r, m * m * d)):
        assert geometry._cmp(same, s) == 0 and _as_ref_surd(same) == ref_s
        assert geometry._cmp(same, t) == ref_s.cmp(ref_t)
    # a square radicand folds: (p - m + sqrt(m^2)) / r is the rational p / r
    assert geometry._surd(p - m, 1, r, m * m) == (p, 0, r, 0)
    f = geometry._floor_scaled(s, bits)
    assert QuadSurd(Fraction(f, 1 << bits)) <= ref_s < QuadSurd(Fraction(f + 1, 1 << bits))
    if ref_s < ref_t:
        u, w = geometry._rational_between(s, t)
        assert ref_s < QuadSurd(Fraction(u, w)) < ref_t


_curve_keys = st.tuples(
    st.integers(0, 3), st.integers(-6, 6), st.integers(-6, 6), st.integers(-12, 12)
).filter(lambda t: t[0] or t[1] or t[2]).map(lambda t: constraint(*t, 1, True).curve_key())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_curve_keys, _curve_keys, _curve_keys)
def test_meeting_points_and_point_predicate_match_fractions(c1, c2, c3):
    if c1 == c2:
        return
    points = geometry._pair_points(c1, c2)
    ref_points = _ref_pair_geometry(c1, c2)[1]
    assert [_ref_point_xy(_as_ref_point(pt)) for pt in points] == [_ref_point_xy(pt) for pt in ref_points]
    arrangement_points = geometry._arrangement(tuple(dict.fromkeys((c1, c2, c3))))[1]
    for pt in points + list(arrangement_points):
        for curve in (c1, c2, c3):
            for sense in (1, -1):
                for strict in (True, False):
                    con = Constraint(*curve, sense, strict)
                    verdict = geometry._point_satisfies(con, pt)
                    assert verdict is ref._point_satisfies(con, _as_ref_point(pt))
                    if pt in points and curve in (c1, c2):
                        assert verdict is not strict  # on the curve: a tie in either sense


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_curve_keys, st.sampled_from((1, -1)), st.booleans()), min_size=1, max_size=3),
    st.booleans(),
)
def test_exact_emptiness_matches_reference_on_random_regions(cons, half_open):
    box = geometry._BOX_HALF_OPEN if half_open else geometry._BOX_OPEN
    region = Region(box + tuple(Constraint(*curve, sense, strict) for curve, sense, strict in cons))
    assert _is_empty_exact(region) is _ref_is_empty_exact(region)


def test_square_radicands_fold_to_rationals():
    # t^2 - 4: the roots are the rationals -2 and 2, not 0 -+ sqrt(16)/2
    assert geometry._quad_roots(1, 0, -4) == [(-2, 0, 1, 0), (2, 0, 1, 0)]
    assert geometry._surd(0, 1, 1, 4) == (2, 0, 1, 0)
    # the circle |z|^2 = 1/4 touches the box edges x = -+1/2: rational criticals, so the
    # rational-critical slices see them
    criticals, points = geometry._arrangement(((4, 0, 0, -1),))
    assert criticals == ((-1, 0, 2, 0), (1, 0, 2, 0))
    assert all(pt[1] == pt[3] == pt[5] == 0 for pt in points) and len(points) == 5


def _verdict_words():
    """The desk-mix word pool under its 4 symmetries, then 400 random words.

    The pool is perfbench's (seed 20231018: 128 words of 2-4 digits with
    components up to |3|); the random words have 1-5 digits with components
    up to |7|.
    """
    small = tuple((re, im) for re in range(-3, 4) for im in range(-3, 4) if re * re + im * im >= 2)
    rng = random.Random(20231018)
    pool = [tuple(rng.choice(small) for _ in range(rng.randint(2, 4))) for _ in range(128)]
    words = [tuple((sr * re, si * im) for re, im in w) for sr, si in ((1, 1), (-1, -1), (1, -1), (-1, 1)) for w in pool]
    big = tuple((re, im) for re in range(-7, 8) for im in range(-7, 8) if re * re + im * im >= 2)
    rng = random.Random(912)
    return words + [tuple(rng.choice(big) for _ in range(rng.randint(1, 5))) for _ in range(400)]


def test_verdicts_of_the_912_word_set_are_pinned():
    # digest recorded with the Fraction-surd exact path: 795 Valid, 6 boundary-only, 111 Invalid
    words = _verdict_words()
    assert len(words) == 912
    lines = [f"{w}:{is_valid(tuple(GaussianInt(*d) for d in w)).value}" for w in words]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "717256acd538d91554217bb1752b3ff213ec7e1da5daf19625911186ff5c33eb"


def test_exact_emptiness_sees_a_disk_between_grid_points():
    # the open disk of radius 1/100 about (39/128, 1/128) holds no point of the
    # 1/64 grid, and only its leftmost and rightmost x values cut a slice through it
    scale = 128**2 * 100**2
    disk = constraint(scale, -39 * 128 * 100**2, -128 * 100**2, (39**2 + 1) * 100**2 - 128**2, -1, True)
    region = Region(geometry._BOX_OPEN + (disk,))
    # (kx/64, ky/64) lies in the disk when (2kx - 39)^2 + (2ky - 1)^2 < (128/100)^2
    assert not any(
        100**2 * ((2 * kx - 39) ** 2 + (2 * ky - 1) ** 2) < 128**2 for kx in range(-32, 33) for ky in range(-32, 33)
    )
    assert fingerprint(region) == 0
    assert not _is_empty_exact(region)
    assert _is_empty_exact(Region(region.constraints + (constraint(0, 1, 0, 0, -1, True),)))  # x < 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_curve_keys, st.sampled_from((1, -1)), st.booleans()), min_size=1, max_size=3),
    st.booleans(),
)
def test_fingerprint_bits_are_exact_grid_membership(cons, half_open):
    box = geometry._BOX_HALF_OPEN if half_open else geometry._BOX_OPEN
    region = Region(box + tuple(Constraint(*curve, sense, strict) for curve, sense, strict in cons))
    fp = fingerprint(region)
    for j, (kx, ky) in enumerate((kx, ky) for kx in range(-4, 5) for ky in range(-4, 5)):
        holds = all(  # v is 64 times the constraint's signed value at (kx/8, ky/8)
            (v := con.sense * (con.a * (kx * kx + ky * ky) + 16 * (con.bre * kx + con.bim * ky) + 64 * con.c)) > 0
            or (v == 0 and not con.strict)
            for con in region.constraints
        )
        assert (fp >> j) & 1 == holds
    assert fp >> 81 == 0
    # sense * (F + sense) > 0 follows from sense * F > 0: adding it leaves the set, hence the bits
    for con in region.constraints:
        if not con.is_constant:
            looser = constraint(con.a, con.bre, con.bim, con.c + con.sense, con.sense, con.strict)
            assert fingerprint(Region(region.constraints + (looser,))) == fp


def test_fingerprint_of_huge_coefficients():
    # a disk with coefficients past 2^40 that holds the grid point (1/8, 1/8) alone
    big = 1 << 44
    disk = constraint(64 * big, -8 * big, -8 * big, 2 * big - 1, -1, True)
    huge = Region(geometry._BOX_OPEN + (disk,))
    assert max(map(abs, disk[:4])) > 1 << 40 and not is_empty(huge)
    assert fingerprint(huge) == 1 << (5 * 9 + 5)


def test_automaton_state_tables_are_pinned(recorded_builds):
    # digests recorded before the grid filter and the old keys were removed
    _, half_open, *_ = recorded_builds
    open_table = export_state_table(get_automaton())
    half_open_table = export_state_table(half_open, 3)
    assert hashlib.sha256(open_table.encode()).hexdigest() == (
        "2a2664d8cb066133c1e688b486c44e5cd95f8140b0d8f7c0bb5522f51a896f83"
    )
    assert hashlib.sha256(half_open_table.encode()).hexdigest() == (
        "8574659126262dc9f889c9203c8e1f58d6cf68a3e2ec05714c2e51e63c36184f"
    )


def test_constraints_are_their_own_keys():
    con = constraint(1, -1, 0, 0, 1, True)
    assert con == (1, -1, 0, 0, 1, True) and hash(con) == hash((1, -1, 0, 0, 1, True))
    assert con.curve_key() == (1, -1, 0, 0)
    region = chain(g(2, 1))
    assert list(region.constraints) == sorted(region.constraints)
    assert is_empty(region) is geometry._EMPTY_MEMO[region.constraints]


def test_state_labels_are_unique(recorded_builds):
    opened, half_open, *_ = recorded_builds
    assert opened.state_count == 13 and half_open.state_count == 63
    for auto in (opened, half_open):
        labels = [state.label for state in auto.states]
        assert len(set(labels)) == len(labels)
    assert [s.label for s in opened.states] == [s.label for s in get_automaton().states]


def test_validity_three_way():
    assert is_valid((g(2, 2), g(2, 1), g(-3, 4))) is Validity.VALID
    assert is_valid((g(-1, 2), g(1, 1))) is Validity.INVALID
    assert is_valid((g(-2), g(1, -1))) is Validity.INVALID
    assert is_valid((g(-2), g(1, -2))) is Validity.VALID_BOUNDARY_ONLY
    assert is_valid(()) is Validity.VALID
    with pytest.raises(ValueError):
        is_valid((g(1),))


def test_validity_of_witnessed_word():
    # the expansion of a concrete fraction realises this word, so it is Valid
    word = (g(-2, 2), g(2, 1), g(-3, 4))
    witness = GaussianRational(g(-165, -191), g(601))
    exp = hcf_expand(witness)
    assert exp.integer_part == ZERO
    assert exp.digits == word
    assert is_valid(word) is Validity.VALID


def test_prototype_collapse_identities():
    assert region_equal(chain(g(2, 2), g(2, 1)), chain(g(2, 1)))
    assert region_equal(chain(g(-2, 1), g(2, 1)), chain(g(2)))
    assert not region_equal(chain(g(2, 1)), chain(g(2)))


def test_export_state_table_shape():
    auto = get_automaton()
    table = export_state_table(auto)
    lines = table.splitlines()
    assert lines[0] == "state,digit,successor"
    assert len(lines) == 629
    labels = {s.label for s in auto.states}
    for line in lines[1:]:
        # labels may contain commas, so match by prefix and suffix
        assert any(line.startswith(lab + ",") for lab in labels)
        assert any(line.endswith("," + lab) for lab in labels)
    assert table == export_state_table(auto)  # deterministic


def test_is_full():
    assert is_full(())
    assert is_full((g(2, -3), g(-1, -2), g(-3, 1)))
    assert not is_full((g(2, 1),))
    with pytest.raises(ValueError):
        is_full((g(-2), g(1, -1)))


def test_verify_folding_program_counts_words():
    seed = (g(2, -3), g(-1, -2), g(-3, 1))
    assert verify_folding_program(seed, middle=g(-2, 1), depth=1) == 3
    assert verify_folding_program(seed, middle=g(-2, 1), depth=2) == 7


def test_folding_program_refuses_an_over_budget_depth():
    seed = (g(2, -3), g(-1, -2), g(-3, 1))
    for depth in (12, 16, 10**6):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="work budget"):
            verify_folding_program(seed, middle=g(-2, 1), depth=depth)
        assert time.perf_counter() - start < 1.0
    assert verify_folding_program(seed, middle=g(-2, 1), depth=4) == 31


def test_geometry_refuses_bool_counts():
    # True == 1: these built a 5-state automaton and ran a depth-1 program
    seed = (g(2, -3), g(-1, -2), g(-3, 1))
    with pytest.raises(TypeError, match="bound must be int, not bool"):
        explore_automaton(bound=True)
    with pytest.raises(TypeError, match="depth must be int, not bool"):
        verify_folding_program(seed, middle=g(-2, 1), depth=True)
    assert explore_automaton(bound=1).state_count == 5
    assert verify_folding_program(seed, middle=g(-2, 1), depth=1) == 3


def test_folding_program_runs_the_automaton_once_per_word(monkeypatch):
    runs = []
    run = geometry.Automaton.run
    monkeypatch.setattr(geometry.Automaton, "run", lambda self, digits: runs.append(digits) or run(self, digits))
    seed = (g(2, -3), g(-1, -2), g(-3, 1))
    assert verify_folding_program(seed, middle=g(-2, 1), depth=4) == 31
    assert len(runs) == 62  # each word and its reversal


def test_folding_program_rejects_bad_seed():
    with pytest.raises(AssertionError):
        verify_folding_program((g(2, 1),), middle=g(-2, 1), depth=1)
