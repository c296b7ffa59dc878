"""No public name of the package exists only because a test imports it, and
no field of a package dataclass only because a test reads it."""

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
# Fields no program path reads yet, each kept for a change still to come.
EXEMPT_FIELDS = {
    # fields of ground_state_structure_checks' report, which goes with the
    # tracer's metric on it (ROADMAP items 6 and 7)
    "StructureReport.symmetry_violation",
    "StructureReport.odd_parity_mass",
    # acceptance criterion 4 checks the minus branch of the Bogoliubov map
    "BogoliubovCoeffs.alpha_1m",
    # the single-branch expansion goes when the exact one replaces it
    # (ROADMAP item 1)
    "VacuumExpansion.tail",
}


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


def sources():
    """(path, code) of src, scripts, perfbench and the README's Python code."""
    found = [("README.md", code) for code in readme_code()]
    for top in ("src", "scripts", "perfbench"):
        found += [(path, path.read_text(encoding="utf-8")) for path in sorted((ROOT / top).rglob("*.py"))]
    return found


def references():
    """(path, line number of the enclosing top-level statement, name) of every
    Name and Attribute in sources(); comments, docstrings and other strings
    are not references."""
    for path, code in sources():
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


def dataclass_fields():
    """Each field of a dataclass defined in the package, as "Class.field"."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{node.name}.{item.target.id}"


def field_reads():
    """Every attribute read in sources(), and every string that is an
    identifier, as getattr(obj, name) takes one."""
    for _, code in sources():
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    yield node.value


def test_every_dataclass_field_is_read_outside_tests():
    reads = set(field_reads())
    unread = {name for name in dataclass_fields() if name.split(".")[1] not in reads}
    assert unread == EXEMPT_FIELDS
