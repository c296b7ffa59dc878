"""No public name of the package exists only because a test imports it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "casimir_toy"
# Checked directly by the acceptance suite and nothing else: criterion 7
# (the free vacuum has <x1 x2> = 0) and criterion 4 (Bogoliubov
# normalization).
EXEMPT = {"free_vacuum_correlation", "bogoliubov_normalization"}


def public_definitions():
    """(path, line number, name) of each top-level public def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if definition and not node.name.startswith("_"):
                yield path, node.lineno, node.name


def non_test_lines():
    """(path, line number, text) of every line in src, scripts, perfbench and the README."""
    paths = [ROOT / "README.md"]
    for top in ("src", "scripts", "perfbench"):
        paths += sorted((ROOT / top).rglob("*.py"))
    for path in paths:
        for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path, number, text


def test_every_public_name_is_used_outside_tests():
    lines = list(non_test_lines())
    unused = []
    for path, def_line, name in public_definitions():
        if name in EXEMPT:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(text) and (p, n) != (path, def_line) for p, n, text in lines
        ):
            unused.append(f"{path.name}:{def_line} {name}")
    assert unused == []
