import ast
import pathlib

import pytest

SOURCES = sorted(path for path in (pathlib.Path(__file__).parents[1] / "src" / "dopplergeo")
                 .glob("*.py") if path.name != "__init__.py")


def unread_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never reads: a name bound by an import
    (the first part of a dotted `import a.b`) that no expression loads.
    __future__ imports bind no name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unread_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unread_imports(tree) == []


def test_unread_import_found():
    # the check itself: a name named only in a docstring is not read
    tree = ast.parse('from .terrain import VOID_ELEVATION, TerrainGrid\n'
                     'def f():\n    """VOID_ELEVATION"""\n    return TerrainGrid\n')
    assert unread_imports(tree) == ["line 1: VOID_ELEVATION"]
