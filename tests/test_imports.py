"""Every top-level import and every parameter in the library modules is used.

Stdlib only: each module under src/lgpk except the package's __init__ (whose
imports are its public re-exports) is parsed with `ast`. Every name a
top-level import binds must be read somewhere in that module, quoted
annotations included, and every parameter of a function or lambda except
`self` and `cls` must be read in its body. The package's `__all__` is exactly
the names its `__init__` imports, plus `__version__`. `bitstrings.trusted`,
which builds a value without its checks, is called only at the sites listed
in TRUSTED_CALL_SITES.
"""

import ast
from pathlib import Path

import pytest

import lgpk

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


def unread_parameters(tree):
    """`function(parameter)` for each parameter its function never reads; a
    nested function reading it counts."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            for param in params:
                if param is not None and param.arg not in ("self", "cls", *read):
                    yield f"{name}({param.arg})"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = list(unread_parameters(tree))
    assert unread == [], f"{path.name} never reads {unread}"


def test_all_is_exactly_the_re_exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [*imported_names(tree), "__version__"]
    assert sorted(lgpk.__all__) == sorted(exported)
    for name in lgpk.__all__:
        assert hasattr(lgpk, name), name


# (module, function) for each call of `trusted`, one entry per call: a new
# unchecked construction is added here on purpose, and test_trust_boundary.py
# runs every listed function under a validating `trusted`
TRUSTED_CALL_SITES = sorted([
    ("bitstrings", "BitStr.from_int"),
    ("bitstrings", "BitStr.__xor__"),
    ("hashsuite", "xof_bits"),
    ("matfield", "mat_mul"),
    ("matfield", "mat_inv"),
    ("matfield", "NilpotentMatrix.from_matrix"),
    ("matfield", "exp_scaled"),
    ("sampler", "make_params"),
])


def trusted_calls(node, scope=()):
    """The dotted class and function path of each call of `trusted` in node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from trusted_calls(child, (*scope, child.name))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if getattr(func, "id", None) == "trusted" or getattr(func, "attr", None) == "trusted":
                yield ".".join(scope)
        yield from trusted_calls(child, scope)


def test_trusted_is_called_only_at_the_listed_sites():
    sites = [(path.stem, site) for path in MODULES
             for site in trusted_calls(ast.parse(path.read_text(), filename=str(path)))]
    assert sorted(sites) == TRUSTED_CALL_SITES


SOLVER_NAMES = {"brute", "mitm", "naf_bruteforce", "naf_mitm"}
OUTSIDE_CRYPTANALYSIS = [path for path in sorted(PACKAGE.glob("*.py"))
                         if path.name != "cryptanalysis.py"]


def solver_mentions(tree):
    """Each solver name that tree imports, reads, or spells as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.name in SOLVER_NAMES)
        for value in (getattr(node, "id", None), getattr(node, "attr", None),
                      getattr(node, "value", None)):
            if isinstance(value, str) and value in SOLVER_NAMES:
                yield value


@pytest.mark.parametrize("path", OUTSIDE_CRYPTANALYSIS, ids=[p.stem for p in OUTSIDE_CRYPTANALYSIS])
def test_only_cryptanalysis_names_the_solvers(path):
    # every other module reads the table `cryptanalysis.solvers()`, so a new
    # solver is one function and one entry there
    found = sorted(set(solver_mentions(ast.parse(path.read_text(), filename=str(path)))))
    assert found == [], f"{path.name} names {found}"
