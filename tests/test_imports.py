"""Every top-level import in the library modules is used.

Stdlib only: each module under src/lgpk except the package's __init__ (whose
imports are its public re-exports) is parsed with `ast`, and every name a
top-level import binds must be read somewhere in that module, quoted
annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lgpk"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "GroupElement" or "Optional[Rows]"
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def test_modules_are_found():
    assert {"cryptanalysis.py", "matfield.py", "scheme.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert unused == [], f"{path.name} imports but never uses {unused}"
