"""Every public name in the package has a caller outside the unit tests.

A public function, class or method counts as called when its name appears
as a name, an attribute or an import in the package (outside __init__.py),
in the benchmark scripts or in the acceptance tests. A name that only unit
tests call is a second path to work a batched path already does: delete it
and point its tests at that path.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boxoverlap"

# Test fixtures kept in the package with no caller outside the unit tests.
ALLOWED = {
    "synth.SphereSurface": "drives the curved-surface normal test",
    "synth.ExpectedOverlap.contains": "the interval check for make_pair",
}


def is_public(node, kinds):
    return isinstance(node, kinds) and not node.name.startswith("_")


def public_names():
    """(qualified name, name) of each public module-level function or class
    and of each public method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not is_public(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if is_public(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def referenced_names():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    used = referenced_names()
    uncalled = sorted(qual for qual, name in public_names() if name not in used)
    assert uncalled == sorted(ALLOWED)
