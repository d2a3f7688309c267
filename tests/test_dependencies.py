"""Which library modules may import what, and the library names the benchmark and the README read."""

import ast
import importlib
import re
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


def test_the_library_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; syntax newer than that fails here
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (SRC.parent.parent / "pyproject.toml").read_text())
    assert floor is not None and floor.group(1) == "10"
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_only_the_oracle_imports_numpy():
    # the lockstep oracle vectorises its candidate scan; every other module is exact integer code
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [path.stem for path in modules if "numpy" in _imported_roots(path)] == ["zaremba"]


def _imported_siblings(path: Path) -> set[str]:
    """The hurwitzcf modules a module imports from: `from .m`, `from . import m` or `from hurwitzcf.m`."""
    siblings = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "hurwitzcf":
                continue
            parts = parts[1:]
        if parts and parts[0]:
            siblings.add(parts[0])
        else:
            siblings.update(alias.name for alias in node.names)
    return siblings


def test_no_pipeline_imports_the_expansion_module():
    # certify and build_xi decide whether a folded word is canonical by
    # geometry's automaton test; neither re-expands a folded word
    assert "cf" in _imported_siblings(SRC / "spectrum.py")
    assert [stem for stem in ("spectrum", "zaremba") if "hcf" in _imported_siblings(SRC / f"{stem}.py")] == []


def test_the_cli_imports_only_public_library_names():
    # the command line is a client of the library's public API, like any other caller
    private = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("hurwitzcf")):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            private += [name for name in parts if name.startswith("_")]
    assert private == []


PERFBENCH = SRC.parent.parent / "perfbench"


def _traced_targets() -> list[tuple[str, str]]:
    """The (module, function) pairs of perfbench/tracing.py's TARGETS, read from its source."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_the_names_perfbench_reads_resolve():
    # the benchmark rebinds these functions and reads these caches; a rename breaks it silently
    targets = _traced_targets()
    assert len(targets) >= 20
    names = targets + [("zaremba", "_CACHE"), ("zaremba", "_brute_scan_fast"),
                       ("geometry", "_EMPTY_MEMO"), ("geometry", "hcf_expand")]
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"hurwitzcf.{module}"), name)]
    assert missing == []


def test_the_names_the_readme_cites_resolve():
    # `module.name` or `module.name(...)` in README.md, module a hurwitzcf module;
    # a private name deleted or renamed without the docs fails here
    modules = "|".join(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
    text = (SRC.parent.parent / "README.md").read_text()
    cited = set(re.findall(rf"`(?:hurwitzcf\.)?({modules})\.(\w+)[`(]", text))
    assert len(cited) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"hurwitzcf.{module}"), name)]
    assert missing == []
