import ast
import sys
from pathlib import Path

# pyproject.toml declares numpy as the package's one dependency.
DECLARED = {"numpy"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wtx"


def absolute_imports(path):
    """The top-level name of every module that the source at ``path``
    imports by absolute name, at any depth (a function's imports too)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library_and_numpy():
    imports = {path.name: set(absolute_imports(path)) for path in sorted(PACKAGE.glob("*.py"))}
    # The control: the walk sees a function's imports, such as those of
    # the sweep's process pool.
    assert {"multiprocessing", "concurrent", "numpy"} <= imports["runs.py"]
    stray = {name: sorted(found - sys.stdlib_module_names - DECLARED)
             for name, found in imports.items()}
    assert {name: found for name, found in stray.items() if found} == {}
