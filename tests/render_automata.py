"""Render src/hurwitzcf/_automata.py, the recorded validity automata.

Run from the root of a checkout:

    PYTHONPATH=src python tests/render_automata.py

It rewrites the module from the breadth-first closures of the open and the
half-open box over frontier_digits(BOUND), both built by geometry._close.
test_geometry checks that the committed module is this script's output.
"""

from __future__ import annotations

import functools
from pathlib import Path

from hurwitzcf import geometry
from hurwitzcf.geometry import Automaton, explore_automaton, fingerprint, frontier_digits

BOUND = 4
MODULE = Path(__file__).resolve().parents[1] / "src" / "hurwitzcf" / "_automata.py"
COMMAND = "PYTHONPATH=src python tests/render_automata.py"

_HEADER = f'''"""The validity automata as data, for geometry.get_automaton and geometry._half_open_automaton.

Written by tests/render_automata.py; do not edit.  Regenerate it with

    {COMMAND}

OPEN_* and HALF_OPEN_* are geometry._close of the open box (explore_automaton())
and of the half-open box.  Each *_STATES line is one state, in index order: its
label, its fingerprint, and its sorted constraints joined by ';', each written
a,bre,bim,c,sense,strict with strict 0 or 1.  Each *_TRANSITIONS line is one
state's successors over frontier_digits(BOUND), in that order, with '-' where
the digit's cylinder is empty.
"""

BOUND = {BOUND}
'''


@functools.cache
def builds() -> tuple[Automaton, Automaton]:
    """The open and the half-open automaton the module records, built by exact geometry."""
    return explore_automaton(BOUND), geometry._close(geometry._BOX_HALF_OPEN, BOUND, 64)


def _table(name: str, auto: Automaton) -> str:
    states = [
        f"{state.label} {fingerprint(state.region)} "
        + ";".join(",".join(map(str, (*con[:5], int(con.strict)))) for con in state.region.constraints)
        for state in auto.states
    ]
    keys = [d.key() for d in frontier_digits(BOUND)]
    rows = [
        " ".join("-" if (target := auto._transitions[state.index, key]) is None else str(target) for key in keys)
        for state in auto.states
    ]
    return "".join(f'\n{name}_{part} = """\\\n' + "\n".join(lines) + '\n"""\n'
                   for part, lines in (("STATES", states), ("TRANSITIONS", rows)))


def render() -> str:
    """The text of src/hurwitzcf/_automata.py."""
    opened, half_open = builds()
    return _HEADER + _table("OPEN", opened) + _table("HALF_OPEN", half_open)


if __name__ == "__main__":
    MODULE.write_text(render(), encoding="utf-8")
    print(f"wrote {MODULE}")
