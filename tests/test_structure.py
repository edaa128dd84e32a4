"""Package structure: no module imports another module's private name, and
every exported name resolves.

A private name is a module's own decision (the memory budget lives in
``linalg`` and is read only by ``linalg.admit``); a module that needs it
calls the public function that owns it.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schwarzjd"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_imported_from_a_sibling_module(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "schwarzjd")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "schwarzjd" if path.stem == "__init__" else f"schwarzjd.{path.stem}"
    module = importlib.import_module(name)
    missing = []
    for export in getattr(module, "__all__", []):
        if not hasattr(module, export):  # a submodule is bound once it is imported
            try:
                importlib.import_module(f"{name}.{export}")
            except ImportError:
                missing.append(export)
    assert missing == []


ROOT = PACKAGE.parent.parent
# The package __init__ re-exports, and exports cli, which only [project.scripts] reads.
SOURCES = sorted(path for folder in ("src", "tools", "perfbench")
                 for path in (ROOT / folder).rglob("*.py") if path != PACKAGE / "__init__.py")


def test_every_exported_name_is_used():
    """Each ``__all__`` entry of a module in src/, tools/ or perfbench/ appears as a
    name, an attribute or an imported name somewhere in those files."""
    exports, used = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exports[path.relative_to(ROOT).as_posix()] = ast.literal_eval(node.value)
    unused = [f"{module}: {name}" for module, names in exports.items()
              for name in names if name not in used]
    assert exports and unused == []
