"""Prototype-set geometry, the successor automaton, and word validity."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzcf
from hurwitzcf import geometry
from hurwitzcf.gaussian import ZERO, GaussianInt, GaussianRational
from hurwitzcf.geometry import (
    Region,
    Validity,
    _edge_impossible,
    canonicalize,
    closed_cylinder_nonempty,
    cylinder_one,
    explore_automaton,
    export_state_table,
    frontier_digits,
    get_automaton,
    half_open_box_region,
    is_empty,
    is_full,
    is_valid,
    open_box_region,
    prototype_step,
    region_equal,
    region_subset,
    verify_folding_program,
)
from hurwitzcf.hcf import allowed_successors, hcf_expand


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


def test_half_open_automaton_closes_and_its_shortcuts_hold():
    box = geometry._BOX_HALF_OPEN
    auto = explore_automaton(3, box=box)
    assert auto.state_count == 63
    for state in auto.states:
        for d in frontier_digits(4):
            if _edge_impossible(state.region, d):
                assert is_empty(prototype_step(state.region, d, box))
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
        "assert geometry._HALF_OPEN_AUTOMATON is None",
    ])
    src = str(Path(hurwitzcf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "table.csv")], env=env, check=True)


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


def test_folding_program_rejects_bad_seed():
    with pytest.raises(AssertionError):
        verify_folding_program((g(2, 1),), middle=g(-2, 1), depth=1)
