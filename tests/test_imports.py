"""Every module of the dtnlab package uses each name it imports, and
every top-level function or class is reached from the package itself."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "dtnlab"


def unused_imports(source):
    """Imported names that the module neither references nor exports."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os as o\n"
                          "from a import b, c\nprint(o.sep, c)\n") \
        == ["b", "math"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# top-level definitions that no package code references, each with why
# it stays in the package; none today (cli.main, the console script of
# pyproject.toml, is also called by cli's __main__ guard)
ENTRY_POINTS = {}


def unreferenced_definitions(sources):
    """(module, name) of each top-level function or class that no code
    in sources (module name -> source) references outside its own
    definition, by name or as an attribute."""
    trees = {module: ast.parse(src) for module, src in sources.items()}
    names = {}                  # top-level statement -> names it uses
    for tree in trees.values():
        for stmt in tree.body:
            names[stmt] = {n.id if isinstance(n, ast.Name) else n.attr
                           for n in ast.walk(stmt)
                           if isinstance(n, (ast.Name, ast.Attribute))}
    uses = Counter(name for used in names.values() for name in used)
    return sorted(
        (module, stmt.name) for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        # used by no statement, or by its own only
        and uses[stmt.name] == int(stmt.name in names[stmt]))


def test_scan_finds_an_unreferenced_definition():
    assert unreferenced_definitions({
        "a": "def f():\n    return f()\nclass C:\n    pass\n",
        "b": "import a\ndef g():\n    return a.C()\n",
    }) == [("a", "f"), ("b", "g")]


def test_every_definition_is_reached_from_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_definitions(sources) == sorted(ENTRY_POINTS)


def unread_fields(sources, readers):
    """(module, class, field) of each annotated field of a class in
    sources (module name -> source) that no code in readers reads as an
    attribute."""
    read = {n.attr for src in readers for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(
        (module, cls.name, stmt.target.id)
        for module, src in sources.items()
        for cls in ast.walk(ast.parse(src)) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read)


def test_scan_finds_an_unread_field():
    record = "class R:\n    x: int\n    y: float = 0.0\n    z = 1\n"
    assert unread_fields({"a": record}, [
        record, "def f(r):\n    r.y = r.z\n    return R(x=1)\n",
    ]) == [("a", "R", "x"), ("a", "R", "y")]
    assert unread_fields({"a": record}, ["print(r.x, r.y)\n"]) == []


def test_every_record_field_is_read():
    root = SRC.parents[1]
    readers = [p.read_text() for folder in ("src", "tests", "bench", "tools")
               for p in (root / folder).rglob("*.py")]
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_fields(sources, readers) == []
