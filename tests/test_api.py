"""Every module-level name and every default in the package has a caller
outside the unit tests.

A module-level function or class, public or private, counts as called when
its name appears as a name, an attribute or an import in the package
(outside __init__.py), in the benchmark scripts or in the acceptance
tests, other than inside its own definition. A public property counts
when its name is read there as an attribute. Any other public method counts
only when it is called there as `x.<name>(...)`, referenced as
`<Class>.<name>`, or used as `self.<name>` inside its own class; an
attribute of the same name elsewhere (`intr.height` for a `height` method)
does not call it. A name that only unit tests call is a second path to
work a batched path already does: delete it and point its tests at that
path.

A module-level constant (any name a module-level assignment binds) counts
as read when it is loaded as a name or an attribute, or imported, in the
same files, other than inside its own assignment. A constant nothing reads,
a retired block size for instance, is a setting nobody uses: delete it.

A field of a public dataclass or `typing.NamedTuple` counts as read when
its name appears as an attribute, other than `self.<name>`, in the same
files. A field nothing reads is data nobody uses: delete it.

A default of a public function, method or record field counts as set
when a call in the same files, matched by name, passes its value by keyword
or by position. A default that no such call sets is an option nobody
chooses: make it a constant.

`cli.main` is the one place a CLI failure becomes an exit code: no `cmd_*`
function catches an error or silences numpy's warnings itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boxoverlap"

# Public names kept in the package with no caller outside the unit tests.
ALLOWED = {}

# Dataclass fields kept though no caller outside the unit tests reads them.
ALLOWED_FIELDS = dict.fromkeys(
    ["synth.ExpectedOverlap.xy", "synth.ExpectedOverlap.yx"],
    "only the synth unit tests read the expected intervals; acceptance 8 "
    "unpacks make_pair's 3-tuple")

# Defaults kept settable though no caller outside the unit tests sets them.
ALLOWED_DEFAULTS = {
    "synth.Placement.width": "larger views for a subsampled-view workload",
    "synth.Placement.height": "larger views for a subsampled-view workload",
}


def is_public(node, kinds):
    return isinstance(node, kinds) and not node.name.startswith("_")


def is_property(func):
    return any(ast.unparse(dec) == "property" for dec in func.decorator_list)


def public_names():
    """(qualified name, name, kind) of each public module-level function or
    class ("name") and of each public property ("property") or other method
    ("method") of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not is_public(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, "name"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if is_public(item, ast.FunctionDef):
                        kind = "property" if is_property(item) else "method"
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, kind


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


def caller_files():
    """The package outside __init__.py, the benchmark scripts and the
    acceptance tests."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def module_nodes(tree):
    """Every node of a module but those inside a module-level function or
    class that name it: a name's own definition does not call it."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if owner is None or owner not in (getattr(node, "id", None),
                                              getattr(node, "attr", None),
                                              getattr(node, "name", None)):
                yield node


def references():
    """(names, attributes, called, class_attributes, members): bare names and
    imports; attribute names other than `self.<name>`; those of them called
    as `x.<name>(...)`; `<Class>.<name>` for each attribute read off a name
    or attribute `<Class>`; and the qualified members used as `self.<name>`.

    A method is reached only as an attribute, so a local variable of the same
    name does not call it, and a `self.<name>` inside class C refers to C's
    own member only, so it does not call another class's member either.
    """
    names, attributes, called, class_attributes, members = set(), set(), set(), set(), set()
    for path in caller_files():
        tree = ast.parse(path.read_text())
        own = self_attributes(path, tree)
        members.update(own.values())
        for node in module_nodes(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node not in own:
                attributes.add(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                class_attributes.add(f"{owner}.{node.attr}")
            elif isinstance(node, ast.alias):
                names.add(node.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func not in own):
                called.add(node.func.attr)
    return names, attributes, called, class_attributes, members


def test_every_public_name_has_a_caller():
    names, attributes, called, class_attributes, members = references()

    def reached(qual, name, kind):
        if kind == "name":
            return name in names or name in attributes
        if kind == "property":
            return qual in members or name in attributes
        owner = qual.split(".")[1]
        return qual in members or name in called or f"{owner}.{name}" in class_attributes

    uncalled = sorted(qual for qual, name, kind in public_names()
                      if not reached(qual, name, kind))
    assert uncalled == sorted(ALLOWED)


def private_names():
    """Qualified name and name of each private module-level function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def test_every_private_name_has_a_caller():
    names, attributes = references()[:2]
    uncalled = sorted(qual for qual, name in private_names()
                      if name not in names and name not in attributes)
    assert uncalled == []


def module_constants(tree):
    """(name, assignment) of each name a module-level assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def test_every_module_constant_is_read():
    trees = {path: ast.parse(path.read_text())
             for path in {*PACKAGE.glob("*.py"), *caller_files()}}
    constants = [(f"{path.stem}.{name}", name, stmt) for path in sorted(PACKAGE.glob("*.py"))
                 for name, stmt in module_constants(trees[path])]
    # A constant's own assignment does not read it.
    own = {id(node) for _, name, stmt in constants for node in ast.walk(stmt)
           if isinstance(node, ast.Name) and node.id == name}
    read = set()
    for path in caller_files():
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if id(node) not in own:
                    read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(qual for qual, name, _ in constants if name not in read) == []


def is_record(node):
    """Whether a class is a dataclass or a typing.NamedTuple, whose annotated
    class attributes are its fields."""
    return (any(ast.unparse(dec).startswith("dataclass") for dec in node.decorator_list)
            or any(ast.unparse(base) in ("NamedTuple", "typing.NamedTuple")
                   for base in node.bases))


def dataclass_fields():
    """(qualified name, name) of each field of a public module-level dataclass
    or NamedTuple."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if is_public(node, ast.ClassDef) and is_record(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read():
    attributes = references()[1]
    unread = sorted(qual for qual, name in dataclass_fields() if name not in attributes)
    assert unread == sorted(ALLOWED_FIELDS)


def function_defaults(func, skip_first):
    """(position or None, name) of each defaulted parameter; keyword-only
    parameters have no position."""
    positional = (func.args.posonlyargs + func.args.args)[skip_first:]
    first = len(positional) - len(func.args.defaults)
    for pos, arg in enumerate(positional[first:], first):
        yield pos, arg.arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def field_defaults(cls):
    """(position, name) of each record field with a plain default, that
    is, one not made by field(default_factory=...)."""
    fields = [item for item in cls.body if isinstance(item, ast.AnnAssign)]
    for pos, item in enumerate(fields):
        if item.value is not None and not (isinstance(item.value, ast.Call)
                                           and ast.unparse(item.value.func) == "field"):
            yield pos, item.target.id


def defaults():
    """(qualified name, callee name, is_method, position, parameter) of each
    plain default of a public function, method (an __init__'s under its
    class name) or record field."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if is_public(node, ast.FunctionDef):
                for pos, arg in function_defaults(node, skip_first=False):
                    yield f"{path.stem}.{node.name}.{arg}", node.name, False, pos, arg
            if not is_public(node, ast.ClassDef):
                continue
            if is_record(node):
                for pos, arg in field_defaults(node):
                    yield f"{path.stem}.{node.name}.{arg}", node.name, False, pos, arg
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    for pos, arg in function_defaults(item, skip_first=True):
                        yield f"{path.stem}.{node.name}.{arg}", node.name, False, pos, arg
                elif is_public(item, ast.FunctionDef):
                    for pos, arg in function_defaults(item, skip_first=True):
                        yield (f"{path.stem}.{node.name}.{item.name}.{arg}", item.name,
                               True, pos, arg)


def passed_arguments():
    """(callee name, called as an attribute, keyword or position) of each
    argument that a call in the caller files passes. `**` mappings and the
    positions from a starred argument on are not counted."""
    passed = set()
    for path in caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, (ast.Name, ast.Attribute))):
                continue
            attribute = isinstance(node.func, ast.Attribute)
            callee = node.func.attr if attribute else node.func.id
            passed.update((callee, attribute, kw.arg) for kw in node.keywords
                          if kw.arg is not None)
            for pos, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((callee, attribute, pos))
    return passed


def test_every_default_is_set_by_a_caller():
    passed = passed_arguments()
    unset = sorted(
        qual for qual, callee, is_method, pos, arg in defaults()
        if not any((callee, attribute, key) in passed
                   for attribute in ((True,) if is_method else (False, True))
                   for key in (arg, pos) if key is not None))
    assert unset == sorted(ALLOWED_DEFAULTS)


def test_main_is_the_only_exit_path():
    # cli.main maps every failure to its exit code and holds the one
    # np.errstate; a command that caught or silenced an error itself would
    # make a second exit path.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 6
    for func in commands:
        assert not any(isinstance(node, ast.Try) for node in ast.walk(func)), func.name
        assert not any("errstate" in ast.unparse(dec) for dec in func.decorator_list), func.name
