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


# Read by the standard library, not by a name in the sources.
CALLED_BY_PYTHON = {"mesh.py: DomainShape._missing_"}  # Enum's lookup of an unknown value


def _defined_names(node):
    """The names a module-level statement binds by definition or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [leaf.id for target in targets for leaf in getattr(target, "elts", [target])
            if isinstance(leaf, ast.Name)]


def test_every_definition_is_used():
    """Each module-level function, class and assignment of a module in src/, and each
    method of such a class, is read somewhere in src/, tools/ or perfbench/: as a
    loaded name, an attribute or an imported name.  Dunders are exempt, as is
    ``CALLED_BY_PYTHON``; a definition that only tests read belongs in the tests."""
    defined, read = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rsplit(".", 1)[-1])
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            defined += [(path.name, name, name) for name in _defined_names(node)]
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{method.name}", method.name)
                            for method in node.body
                            if isinstance(method, ast.FunctionDef)]
    unread = [f"{module}: {qualified}" for module, qualified, name in defined
              if name not in read and not (name.startswith("__") and name.endswith("__"))]
    assert defined
    assert sorted(set(unread) - CALLED_BY_PYTHON) == []
