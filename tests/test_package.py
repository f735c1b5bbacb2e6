import ast
from pathlib import Path

import cifusion


def test_every_exported_name_resolves():
    missing = [name for name in cifusion.__all__ if not hasattr(cifusion, name)]
    assert missing == []
    assert len(set(cifusion.__all__)) == len(cifusion.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cifusion import *", namespace)
    assert set(cifusion.__all__) <= set(namespace)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads (``from __future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports only to re-export
    unused = {}
    for path in sorted(Path(cifusion.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
            if names:
                unused[path.name] = names
    assert unused == {}


def test_every_source_file_parses_as_python_3_10():
    """The package, its tests and the benchmark use no grammar newer than 3.10.

    This checks syntax only (``requires-python = ">=3.10"``), not the
    standard-library API: a call to a function added after 3.10 still passes.
    """
    root = Path(__file__).resolve().parents[1]
    paths = sorted(p for d in ("src", "tests", "bench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
