"""The package's code rules, checked on its source: no nested ``def``, no
``nonlocal``, no ``yield from``, and no function that calls itself, so
that every walk is an explicit loop whose depth no input can overflow.
``inventory.connected_graphs`` is the one exception: it recurses on n,
which is at most 9.  No module imports an underscore name from another
package module, so what a module keeps private stays its own.  No
module-level name is bound to ``lru_cache(...)(f)``: a memo sits on the
definition of what it remembers, not on a caller's copy of it."""

import ast
from pathlib import Path

import pytest

import searchorder

SOURCES = sorted(Path(searchorder.__file__).parent.glob("*.py"))
ALLOWED = {"inventory.connected_graphs calls itself"}


def _calls_itself(func, owners):
    """Does ``func`` call its own name, bare or through one of ``owners``
    (``self``, ``cls`` or its class)?"""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if owners:
            hit = (isinstance(callee, ast.Attribute)
                   and callee.attr == func.name
                   and isinstance(callee.value, ast.Name)
                   and callee.value.id in owners)
        else:
            hit = isinstance(callee, ast.Name) and callee.id == func.name
        if hit:
            return True
    return False


def _wraps_in_lru_cache(value):
    """Is ``value`` ``lru_cache(...)(f)``, bare or as ``functools.lru_cache``?"""
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Call)):
        return False
    maker = value.func.func
    return (isinstance(maker, ast.Name) and maker.id == "lru_cache"
            or isinstance(maker, ast.Attribute) and maker.attr == "lru_cache")


def violations(tree, module):
    """Each broken rule in a parsed module, as '<module>.<name> <what>' or
    '<module> imports <name> from <module>'."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                _wraps_in_lru_cache(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{module}.{target.id} wraps a function in lru_cache"
                      for target in targets if isinstance(target, ast.Name)]
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = "." * node.level + (node.module or "")
        if node.level or source.split(".")[0] == "searchorder":
            found += [f"{module} imports {alias.name} from {source}"
                      for alias in node.names if alias.name.startswith("_")]
    functions = [(node, ()) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(item, ("self", "cls", node.name))
                          for item in node.body
                          if isinstance(item, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))]
    for func, owners in functions:
        name = f"{module}.{func.name}"
        for inner in ast.walk(func):
            if inner is func:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(f"{name} nests def {inner.name}")
            elif isinstance(inner, ast.Nonlocal):
                found.append(f"{name} uses nonlocal")
            elif isinstance(inner, ast.YieldFrom):
                found.append(f"{name} uses yield from")
        if _calls_itself(func, owners):
            found.append(f"{name} calls itself")
    return found


def test_package_source_keeps_the_rules():
    found = []
    for path in SOURCES:
        found += violations(ast.parse(path.read_text(), str(path)), path.stem)
    assert set(found) == ALLOWED, found


@pytest.mark.parametrize("source, expected", [
    ("def f():\n    def g():\n        pass\n", "m.f nests def g"),
    ("def f():\n    x = 0\n    def g():\n        nonlocal x\n",
     "m.f uses nonlocal"),
    ("def f(xs):\n    yield from xs\n", "m.f uses yield from"),
    ("def f(n):\n    return f(n - 1) if n else 0\n", "m.f calls itself"),
    ("class C:\n    def f(self, n):\n        return self.f(n - 1)\n",
     "m.f calls itself"),
    ("class C:\n    @classmethod\n    def f(cls, n):\n        return C.f(n)\n",
     "m.f calls itself"),
    ("from .x import y, _z\n", "m imports _z from .x"),
    ("from . import _x\n", "m imports _x from ."),
    ("def f():\n    from searchorder.x import _y as y\n",
     "m imports _y from searchorder.x"),
    ("_f = lru_cache(maxsize=1)(f)\n", "m._f wraps a function in lru_cache"),
    ("f: object = functools.lru_cache(None)(g)\n",
     "m.f wraps a function in lru_cache"),
])
def test_each_rule_is_caught(source, expected):
    assert expected in violations(ast.parse(source), "m")


def test_calls_of_other_names_pass():
    source = ("def f(g):\n    return g.f() + g(1)\n"
              "class C:\n    def f(self):\n        return f(self)\n")
    assert violations(ast.parse(source), "m") == []


def test_memo_on_the_definition_passes():
    source = ("from functools import lru_cache\n"
              "@lru_cache(maxsize=1)\ndef f(g):\n    return g\n"
              "g = f(1)\n")
    assert violations(ast.parse(source), "m") == []


def test_public_and_outside_imports_pass():
    source = ("from __future__ import annotations\n"
              "from os import _exit\nfrom .x import y as _y\n")
    assert violations(ast.parse(source), "m") == []
