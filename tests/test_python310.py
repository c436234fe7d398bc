"""The code under src/, bench/ and tests/ runs on Python 3.10, the oldest
version pyproject.toml accepts.

Stdlib only: each file is parsed with `ast` and searched for what Python 3.11
added: the `tomllib` module, `except*` and exception groups,
`BaseException.add_note`, `typing.Self`, `enum.StrEnum`, `datetime.UTC`,
`asyncio.TaskGroup` and `hashlib.file_digest`. On 3.10 a file with `except*`
fails to parse, which fails the test as well.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "bench", "tests") for path in (ROOT / top).rglob("*.py"))

NEW_MODULES = {"tomllib"}
NEW_MODULE_NAMES = {
    ("typing", "Self"), ("enum", "StrEnum"), ("datetime", "UTC"),
    ("asyncio", "TaskGroup"), ("hashlib", "file_digest"),
}
NEW_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
NEW_METHODS = {"add_note"}


def newer_features(tree):
    """A description of each use in tree of something Python 3.10 lacks."""
    modules = {}  # local name -> module, from `import module [as name]`
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (f"import {a.name}" for a in node.names if a.name in NEW_MODULES)
        elif isinstance(node, ast.ImportFrom):
            if node.module in NEW_MODULES:
                yield f"from {node.module} import"
            yield from (f"from {node.module} import {a.name}" for a in node.names
                        if (node.module, a.name) in NEW_MODULE_NAMES)
        elif isinstance(node, ast.Attribute):
            module = modules.get(getattr(node.value, "id", None))
            if (module, node.attr) in NEW_MODULE_NAMES:
                yield f"{module}.{node.attr}"
            elif node.attr in NEW_METHODS:
                yield f".{node.attr}"
        elif isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            yield node.id
        elif type(node).__name__ == "TryStar":
            yield "except*"


def test_files_are_found():
    tops = {path.relative_to(ROOT).parts[0] for path in FILES}
    assert tops == {"src", "bench", "tests"}
    assert ROOT / "bench" / "run.py" in FILES and Path(__file__).resolve() in FILES


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_feature_newer_than_python_3_10(path):
    found = sorted(set(newer_features(ast.parse(path.read_text(), filename=str(path)))))
    assert found == [], f"{path.relative_to(ROOT)} uses {found}"


@pytest.mark.parametrize("source", [
    "import tomllib",
    "from tomllib import loads",
    "import typing\nx: typing.Self",
    "from typing import Self",
    "import enum as e\nclass C(e.StrEnum): pass",
    "import datetime\ndatetime.UTC",
    "from datetime import UTC",
    "import asyncio\nasyncio.TaskGroup()",
    "import hashlib\nhashlib.file_digest",
    "raise ExceptionGroup('x', [ValueError()])",
    "try:\n    pass\nexcept BaseExceptionGroup:\n    pass",
    "error = ValueError()\nerror.add_note('x')",
    "try:\n    pass\nexcept* ValueError:\n    pass",
])
def test_each_newer_feature_is_caught(source):
    try:
        tree = ast.parse(source)
    except SyntaxError:  # Python 3.10 cannot parse except* at all
        assert sys.version_info < (3, 11) and "except*" in source
        return
    assert list(newer_features(tree))


def test_older_spellings_pass():
    source = ("import datetime\nimport hashlib\nfrom typing import Optional\n"
              "datetime.timezone.utc\nhashlib.sha256\nx: Optional[int] = None\n")
    assert list(newer_features(ast.parse(source))) == []
