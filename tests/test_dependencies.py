"""Which library modules may import what."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hurwitzcf"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_the_oracle_imports_numpy():
    # the lockstep oracle vectorises its candidate scan; every other module is exact integer code
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [path.stem for path in modules if "numpy" in _imported_roots(path)] == ["zaremba"]
