"""Source hygiene of the package, checked with the standard library's ast.

Every import of a module is used in it, in the package and in the tests;
every private name of the package (a module's functions, classes and
constants, a class's methods and cached properties) is referenced somewhere
in the package besides its definition, and every parameter of every function is read in its
body.  No `UnionFind` is defined or named in the package, whose edge classes
come from dart walks, and `augment` reads no `Face` objects.  The package
names no platform-dependent float type: its extended precision is
double-double, the same on every platform.  Every module of the package,
the tests and the benchmark parses at the oldest Python that pyproject.toml
declares.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "augcusp"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
TEST_MODULES = {
    f"tests/{path.name}": ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))
}


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in a module, the roots of attribute chains
    included, and the strings listed in its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts}
    return names


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in (MODULES | TEST_MODULES).items():
        used = used_names(tree)
        unused += [f"{name}:{line} {imp}" for imp, line in imported_names(tree) if imp not in used]
    assert not unused


def private_definitions(tree: ast.Module):
    """(line, name) of every private name a module defines: its functions,
    classes and assigned names, and the methods and cached properties of
    its classes.  Dunder names are left out."""
    nodes = list(tree.body)
    nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((node.lineno, name) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_function_is_referenced():
    """A private function, class, constant, method or cached property of the
    package is read somewhere in the package besides its definition."""
    referenced: set[str] = set()
    for tree in MODULES.values():
        referenced |= {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        referenced |= {
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    dead = [
        f"{name}:{line} {private}"
        for name, tree in MODULES.items()
        for line, private in private_definitions(tree)
        if private not in referenced
    ]
    assert not dead


def test_every_parameter_is_read():
    unread = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            label = getattr(node, "name", "<lambda>")
            unread += [f"{name}:{node.lineno} {label}({p})" for p in params if p not in read]
    assert not unread


def test_union_find_gains_no_users():
    found = [
        f"{name}:{n.lineno}"
        for name, tree in MODULES.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef) and n.name == "UnionFind"
        or isinstance(n, ast.Name) and n.id == "UnionFind"
        or isinstance(n, ast.Attribute) and n.attr == "UnionFind"
        or isinstance(n, ast.alias) and "UnionFind" in (n.name, n.asname)
    ]
    assert not found


def test_augment_reads_no_faces():
    """`augment` reads the corner walk: nothing in augment.py reads a face
    map or names `Face`, `FaceMap` or `compute_faces`."""
    tree = MODULES["augment.py"]
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"Face", "FaceMap", "compute_faces"}


def test_no_platform_dependent_float_types():
    """No `longdouble`, `clongdouble`, `float96`, `float128` or `finfo` in the
    package's source, code, comments and docstrings alike.  The tests may
    still use `longdouble` as a reference."""
    word = re.compile(r"\b(c?longdouble|float96|float128|finfo)\b")
    found = [
        f"{path.name}:{n} {m[0]}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for m in word.finditer(line)
    ]
    assert not found


def test_every_module_parses_at_the_oldest_declared_python():
    """`ast.parse` with `feature_version` at the floor of pyproject.toml's
    `requires-python` accepts every module in src/, tests/ and perfbench/.
    This covers syntax only (a `match` before 3.10, an `except*` before
    3.11, a `type` statement before 3.12), not library calls that an older
    Python lacks."""
    floor = re.search(
        r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M
    )
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(), str(path), feature_version=version)
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno} {exc.msg}")
    assert not refused
