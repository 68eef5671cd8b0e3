"""Import lint that needs no third-party linter: every import in the
package, the scripts and the tests is referenced in its own scope.  A
module-level import must be referenced somewhere in its module, and an
import inside a function somewhere in that function."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = sorted(
    list((ROOT / "src" / "fractile").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str, filename: str) -> list[str]:
    tree = ast.parse(source, filename)
    scopes = [(tree, tree.body)] + [
        (node, list(ast.walk(node))) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for scope, statements in scopes:
        bound = {}  # name the import binds -> line
        for node in statements:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        found += [f"{filename}:{line}: {name}"
                  for name, line in bound.items() if name not in used]
    return found


def test_every_import_is_referenced_in_its_scope():
    assert MODULES
    assert [found for path in MODULES
            for found in unused_imports(path.read_text(),
                                        str(path.relative_to(ROOT)))] == []


def test_an_unused_function_local_import_is_caught():
    source = ("import numpy as np\n\n"
              "def used():\n    return np.zeros(1)\n\n"
              "def unused():\n    import numpy as np\n    return 1\n\n"
              "def nested():\n    import numpy as np\n\n"
              "    def inner():\n        return np.ones(1)\n"
              "    return inner\n")
    assert unused_imports(source, "m.py") == ["m.py:7: np"]
