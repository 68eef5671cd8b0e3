"""Import lint that needs no third-party linter: every module-level import
in the package (its `__init__` re-exports aside), the scripts and the
tests is referenced somewhere in its own module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = sorted(
    [path for path in (ROOT / "src" / "fractile").glob("*.py")
     if path.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # name the import binds -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_every_module_level_import_is_referenced():
    assert MODULES
    assert [found for path in MODULES for found in unused_imports(path)] == []
