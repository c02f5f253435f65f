"""Dead names and unbounded caches in the package source, found with the standard library's ast.

An import that is never referenced (re-exports in __init__.py and names in
__all__ excepted), a function-local name that is assigned but never read
(``_``-prefixed names excepted) and a module-level ``_``-prefixed function or
class that no module of the package reads, by name or as an attribute, fail
the test. So does a functools cache without a stated bound: ``functools.cache``,
or an ``lru_cache`` whose maxsize is not a positive integer literal (bare
``@lru_cache`` included, whose bound of 128 is implicit).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "series_prior"
MODULES = sorted(PACKAGE.glob("*.py"))


def _loaded(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(tree, is_init: bool) -> list[str]:
    if is_init:
        return []
    used = _loaded(tree) | _exported(tree)
    dead = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    dead.append(f"line {node.lineno}: import {name}")
    return dead


def _own_nodes(func):
    """The nodes of func's body, not descending into nested functions and classes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree) -> list[str]:
    dead = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shared = {
            name
            for node in _own_nodes(func)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        read = _loaded(func)  # nested functions reading a closure variable count
        for node in _own_nodes(func):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and not node.id.startswith("_")
                and node.id not in read | shared
            ):
                dead.append(f"line {node.lineno}: {func.name} assigns {node.id}, never read")
    return dead


def _reads(node) -> set[str]:
    attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return _loaded(node) | attrs


def unread_private_defs(trees: dict) -> list[str]:
    """Module-level _-prefixed functions and classes that no other statement reads, by name or as an attribute."""
    statements = [(name, node, _reads(node)) for name, tree in trees.items() for node in tree.body]
    return [
        f"{name} line {node.lineno}: {node.name} is never read"
        for name, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in read for _, other, read in statements if other is not node)
    ]


def _is_functools(node, name: str) -> bool:
    """node names functools' `name`: a bare name or functools.<name>."""
    if isinstance(node, ast.Name):
        return node.id == name
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def _bounded(call: ast.Call) -> bool:
    size = call.args[0] if call.args else next((k.value for k in call.keywords if k.arg == "maxsize"), None)
    return isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0


def unbounded_caches(tree) -> list[str]:
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad += [f"line {node.lineno}: imports functools.cache" for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and _is_functools(node, "cache"):
            bad.append(f"line {node.lineno}: functools.cache")
        elif isinstance(node, ast.Call) and _is_functools(node.func, "lru_cache"):
            if not _bounded(node):
                bad.append(f"line {node.lineno}: lru_cache without a positive integer maxsize")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bad += [
                f"line {d.lineno}: bare lru_cache" for d in node.decorator_list if _is_functools(d, "lru_cache")
            ]
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    dead = unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
    assert not dead, f"{path.name}: " + "; ".join(dead)


def test_check_finds_unbounded_caches():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(x):\n    pass\n"
        "@functools.lru_cache(None)\ndef b(x):\n    pass\n"
        "@lru_cache\ndef c(x):\n    pass\n"
        "@functools.cache\ndef d(x):\n    pass\n"
        "@lru_cache()\ndef e(x):\n    pass\n"
        "@lru_cache(maxsize=16)\ndef f(x):\n    pass\n"
        "@functools.lru_cache(32)\ndef g(x):\n    pass\n"
    )
    assert sorted(unbounded_caches(tree), key=lambda s: int(s.split()[1].rstrip(":"))) == [
        "line 2: imports functools.cache",
        "line 3: lru_cache without a positive integer maxsize",
        "line 6: lru_cache without a positive integer maxsize",
        "line 9: bare lru_cache",
        "line 12: functools.cache",
        "line 15: lru_cache without a positive integer maxsize",
    ]


def test_no_unread_private_defs():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    dead = unread_private_defs(trees)
    assert not dead, "; ".join(dead)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = unused_imports(tree, path.name == "__init__.py") + unread_locals(tree)
    assert not dead, f"{path.name}: " + "; ".join(dead)


def test_check_finds_dead_names():
    tree = ast.parse(
        "import os\nimport sys as system\nfrom math import pi, tau\n"
        "def f(x):\n    y = x\n    _z = 1\n    for a, b in x:\n        print(b)\n"
        "    def g():\n        return w\n    w = 2\n    return g, pi\n"
    )
    assert unused_imports(tree, False) == [
        "line 1: import os", "line 2: import system", "line 3: import tau",
    ]
    assert sorted(unread_locals(tree)) == [
        "line 5: f assigns y, never read", "line 7: f assigns a, never read",
    ]


def test_check_finds_unread_private_defs():
    trees = {
        "a.py": ast.parse(
            "def _used():\n    pass\ndef _dead():\n    pass\nclass _Gone:\n    pass\n"
            "def _by_attr():\n    pass\ndef __getattr__(name):\n    pass\ndef public():\n    return _used()\n"
        ),
        "b.py": ast.parse(
            "from . import a\nfrom .a import _dead\ndef _self_only():\n    return _self_only\n"
            "x = a._by_attr\n"
        ),
    }
    assert unread_private_defs(trees) == [
        "a.py line 3: _dead is never read", "a.py line 5: _Gone is never read",
        "b.py line 3: _self_only is never read",
    ]
