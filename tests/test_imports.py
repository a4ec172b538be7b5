"""Every name a module under src/gpqed imports is used in that module, and
every name the package exports exists."""

import ast
import pathlib

import pytest

import gpqed

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gpqed"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("name", gpqed.__all__)
def test_exported_name_resolves(name):
    assert hasattr(gpqed, name)
