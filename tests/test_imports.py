"""Every name a module under src/gpqed imports is used in that module, every
name the package exports exists, and no exception handler there catches
everything: an untyped handler would count a bug as an expected failure."""

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


def _loose_handlers(tree: ast.Module) -> list[str]:
    """Handlers that catch everything: a bare `except:` or `except
    Exception`, or `except BaseException` unless it ends by re-raising."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type
        names = ([] if caught is None
                 else [n.id for n in ast.walk(caught)
                       if isinstance(n, ast.Name)])
        reraises = (isinstance(node.body[-1], ast.Raise)
                    and node.body[-1].exc is None)
        if (caught is None or "Exception" in names
                or ("BaseException" in names and not reraises)):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_handler_catches_everything(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _loose_handlers(tree) == []


def test_loose_handlers_are_found():
    tree = ast.parse(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException:\n    raise\n"
        "try:\n    pass\nexcept BaseException:\n    raise\n    x = 1\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert _loose_handlers(tree) == ["line 3", "line 7", "line 15"]
