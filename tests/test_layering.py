"""The import graph inside the package, pinned.

Each module's imports of sibling modules are read from its ``from .x import``
and ``from . import x`` lines, at any depth (imports inside functions
included), and must be exactly the layering below. A new edge, such as
``surgery`` reaching for ``csscode``, then fails here instead of creeping in.
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
