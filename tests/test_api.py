"""Every public name in the package has a caller outside the unit tests.

A public function or class counts as called when its name appears as a
name, an attribute or an import in the package (outside __init__.py), in
the benchmark scripts or in the acceptance tests; a public method, when its
name appears there as an attribute, where `self.<name>` inside a class
counts only for that class's own member. A name that only unit
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
    """(qualified name, name, is_method) of each public module-level function
    or class and of each public method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not is_public(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if is_public(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def self_attributes(path, tree):
    """`self.<name>` attribute nodes inside each module-level class, by the
    qualified member name they refer to."""
    members = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    members[sub] = f"{path.stem}.{node.name}.{sub.attr}"
    return members


def references():
    """(names, attributes, members): bare names and imports, attribute names
    other than `self.<name>`, and the qualified members used as `self.<name>`.

    A method is reached only as an attribute, so a local variable of the same
    name does not call it, and a `self.<name>` inside class C refers to C's
    own member only, so it does not call another class's member either.
    """
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    names, attributes, members = set(), set(), set()
    for path in files:
        tree = ast.parse(path.read_text())
        own = self_attributes(path, tree)
        members.update(own.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node not in own:
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes, members


def test_every_public_name_has_a_caller():
    names, attributes, members = references()
    uncalled = sorted(
        qual for qual, name, is_method in public_names()
        if not (qual in members or name in attributes
                or (not is_method and name in names)))
    assert uncalled == sorted(ALLOWED)
