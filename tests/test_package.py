"""The package's public surface: every name it exports is read by the package."""

import ast
from pathlib import Path

import critvar

PACKAGE = Path(critvar.__file__).resolve().parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports() -> dict[str, str]:
    """{name: module} for each name `__init__.py` imports from the package's
    own modules; a star import exports the module's public top-level names."""
    exports = {}
    for node in _tree(PACKAGE / "__init__.py").body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            if alias.name != "*":
                exports[alias.asname or alias.name] = node.module
                continue
            for stmt in _tree(PACKAGE / f"{node.module}.py").body:
                if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                else:
                    names = []
                exports.update((n, node.module) for n in names if not n.startswith("_"))
    return exports


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module loads, imports or reads as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_export_is_read_by_a_module():
    # a public name that no module of the package uses is surface only the
    # tests exercise: it belongs in the tests, or nowhere
    read = set().union(*(_names_read(_tree(path)) for path in PACKAGE.glob("*.py")
                         if path.name != "__init__.py"))
    exports = _exports()
    assert len(exports) > 40
    unread = sorted(f"{module}.{name}" for name, module in exports.items()
                    if name not in read)
    assert unread == []
