"""The import graph inside the package, pinned, and every imported name used.

Each module's imports of sibling modules are read from its ``from .x import``
and ``from . import x`` lines, at any depth (imports inside functions
included), and must be exactly the layering below. A new edge, such as
``surgery`` reaching for ``csscode``, then fails here instead of creeping in.
Each name a module other than ``__init__`` imports must be used in it, so a
routine that loses its last caller does not stay imported.
"""
import ast
from pathlib import Path

import chainsurg

PACKAGE = Path(chainsurg.__file__).resolve().parent

LAYERS = {
    "__init__": {"chaincomplex", "csscode", "errors", "f2linalg", "protocols", "simverify", "surgery"},
    "catalog": {"chaincomplex", "csscode", "errors", "f2linalg", "surgery"},
    "chaincomplex": {"errors", "f2linalg"},
    "cli": {"catalog", "chaincomplex", "csscode", "errors", "f2linalg", "jsontext", "protocols", "simverify", "surgery"},
    "csscode": {"chaincomplex", "errors", "f2linalg"},
    "errors": set(),
    "f2linalg": {"errors"},
    "jsontext": set(),
    "protocols": {"catalog", "chaincomplex", "csscode", "errors", "f2linalg", "jsontext", "simverify", "surgery"},
    "simverify": {"chaincomplex", "csscode", "errors", "f2linalg", "surgery"},
    # no csscode: the default coset representatives are f2linalg's free columns
    "surgery": {"chaincomplex", "errors", "f2linalg", "jsontext"},
}


def sibling_imports(source: str) -> set:
    """The sibling modules a module's source imports with relative imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_import_graph_is_pinned():
    graph = {path.stem: sibling_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert graph == LAYERS


def test_the_scan_sees_every_form():
    source = "from . import a, b\nfrom .c import d\ndef f():\n    from .e.g import h\nimport os\nfrom x import y\n"
    assert sibling_imports(source) == {"a", "b", "c", "e"}


# (module, name) imported for a reader outside the module: perfbench/test_perfbench.py
# checks that its tracer patches protocols.solve
KEPT_IMPORTS = {("protocols", "solve")}


def imported_names(tree: ast.AST) -> set:
    """The names a module's import statements bind, at any depth; ``__future__`` binds none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.AST) -> set:
    """The names a module reads, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # a function's return annotation, an argument's or an annotated assignment's
        for note in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            for inner in ast.walk(note) if note is not None else ():
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    names |= used_names(ast.parse(inner.value, mode="eval"))
    return names


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    return imported_names(tree) - used_names(tree)


def test_every_imported_name_is_used():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in unused_imports(path.read_text())
    }
    assert unused == KEPT_IMPORTS


def test_the_unused_import_scan_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom .a import b, c as d\n"
        "def f(x: \"Sequence[d]\") -> None:\n    from .e import g\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == {"os", "b", "g"}
