"""No public name of the package exists only because a test imports it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "casimir_toy"
# Named only as strings by the benchmark's tracer (its
# fock.build_hamiltonian and fock.ground_state_structure_checks metrics),
# which keeps them until those metrics go: build_hamiltonian, the dense audit
# view of the oracle's H, and ground_state_structure_checks, whose symmetry
# and parity read exactly 0 on a table unpacked from the sector.
EXEMPT = {"build_hamiltonian", "ground_state_structure_checks"}


def public_definitions():
    """(path, line number, name) of each top-level public def and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if definition and not node.name.startswith("_"):
                yield path, node.lineno, node.name


def readme_code():
    """The Python code blocks of the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def references():
    """(path, line number of the enclosing top-level statement, name) of every
    Name and Attribute in src, scripts, perfbench and the README's Python
    code; comments, docstrings and other strings are not references."""
    sources = [("README.md", code) for code in readme_code()]
    for top in ("src", "scripts", "perfbench"):
        sources += [(path, path.read_text(encoding="utf-8")) for path in sorted((ROOT / top).rglob("*.py"))]
    for path, code in sources:
        for statement in ast.parse(code).body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    yield path, statement.lineno, node.id
                elif isinstance(node, ast.Attribute):
                    yield path, statement.lineno, node.attr


def test_readme_has_python_code():
    assert readme_code()


def test_every_public_name_is_used_outside_tests():
    # a name used only inside its own definition (a recursive call) is unused
    used = {}
    for path, line, name in references():
        used.setdefault(name, set()).add((path, line))
    unused = [
        f"{path.name}:{line} {name}"
        for path, line, name in public_definitions()
        if name not in EXEMPT and not used.get(name, set()) - {(path, line)}
    ]
    assert unused == []
