"""Every module-level import in src/weightcat is used by the module that makes it,
and names a module of the standard library or of the package itself; every
private function, method, property and class there is read somewhere in it,
and every parameter of a function or lambda by its body; each imports from the
package only modules of an earlier layer; `extcoh` reads the root action only
as store integers.

`__init__` is left out of the first check: its imports are the package's exports.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weightcat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of every module-level import but `__future__`."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def _used(tree):
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_an_unused_import_is_found():
    tree = ast.parse("from typing import Dict, List\nimport os.path\nx: 'Dict[int, int]' = {}\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["List", "os"]


# the package's layers, lowest first: a module imports only from earlier ones,
# so the root system stays below the modules whose stores it would read
LAYERS = [("linalg", "weylmod"), ("rootsys",), ("degonemod",), ("categorio", "extcoh", "inducemod"),
          ("paperlab",), ("cli",)]
LAYER = {name: depth for depth, names in enumerate(LAYERS) for name in names}


def _package_imports(tree):
    """(module name, line) of every relative import, at any depth of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from ((name.split(".")[0], node.lineno) for name in names)


def _layer_breaks(name, tree):
    """The package imports of module `name` that are not from an earlier layer."""
    return [f"{mod} (line {line})" for mod, line in _package_imports(tree)
            if LAYER.get(mod, len(LAYERS)) >= LAYER[name]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    assert path.stem in LAYER, f"{path.name} has no layer"
    breaks = _layer_breaks(path.stem, ast.parse(path.read_text()))
    assert not breaks, f"{path.name} imports from its own or a later layer: {', '.join(breaks)}"


def test_a_layer_break_is_found():
    tree = ast.parse("from . import linalg, degonemod\nfrom .weylmod import Lookup\n"
                     "def act():\n    from .extcoh import cocycle_space\n    from .rootsys import neg_root\n")
    assert _layer_breaks("rootsys", tree) == ["degonemod (line 1)", "extcoh (line 4)", "rootsys (line 5)"]
    assert _layer_breaks("extcoh", ast.parse("from .inducemod import induce\n")) == ["inducemod (line 1)"]


def _private_definitions(tree):
    """(name, line) of every function, method, property or class whose name has a
    leading underscore and is not a dunder."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node.name, node.lineno


def _read(tree):
    """Every name the code reads, and every attribute it reads."""
    return _used(tree) | {node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


PACKAGE_READS = set().union(*(_read(ast.parse(p.read_text())) for p in SRC.glob("*.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unread_private_definition(path):
    unread = [f"{name} (line {line})" for name, line in _private_definitions(ast.parse(path.read_text()))
              if name not in PACKAGE_READS]
    assert not unread, f"{path.name} defines but the package never reads: {', '.join(unread)}"


def test_an_unread_private_definition_is_found():
    tree = ast.parse("class _Box:\n    def __init__(self):\n        self._memo = self._fill()\n"
                     "    def _fill(self):\n        return {}\n    def _spare(self):\n        pass\n"
                     "    @property\n    def _size(self):\n        return 0\n"
                     "def _helper():\n    return _Box()._size\n"
                     "def _orphan():\n    pass\n"
                     "SIZE = _helper()\n")
    assert [name for name, _ in _private_definitions(tree) if name not in _read(tree)] == [
        "_orphan", "_spare"]


def _unread_parameters(tree):
    """(function name, parameter, line) of every parameter of a function or lambda,
    `self` and `cls` aside, that its body never reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a and a.arg not in ("self", "cls")]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from ((getattr(node, "name", "<lambda>"), p, node.lineno) for p in params if p not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unread_parameter(path):
    unread = [f"{name}'s {param} (line {line})"
              for name, param, line in _unread_parameters(ast.parse(path.read_text()))]
    assert not unread, f"{path.name} has parameters that their function never reads: {', '.join(unread)}"


def test_an_unread_parameter_is_found():
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n    b = a\n    return kw\n"
                     "class K:\n    def m(self, d, /, e):\n        def inner():\n            return d\n"
                     "        return inner\n"
                     "    @classmethod\n    def n(cls):\n        return 0\n"
                     "g = lambda x, y: x\n")
    assert sorted((name, p) for name, p, _ in _unread_parameters(tree)) == [
        ("<lambda>", "y"), ("f", "args"), ("f", "b"), ("f", "c"), ("m", "e")]


def _third_party(tree):
    """(top-level name, line) of every absolute module-level import outside the
    standard library; relative imports are the package's own."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((name.split(".")[0], node.lineno) for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_runtime_code_is_stdlib_only(path):
    found = [f"{name} (line {line})" for name, line in _third_party(ast.parse(path.read_text()))]
    assert not found, f"{path.name} imports outside the standard library: {', '.join(found)}"


def test_a_third_party_import_is_found():
    tree = ast.parse("import sympy\nimport os.path\nfrom fractions import Fraction\n"
                     "from . import linalg\nfrom hypothesis.strategies import integers\n")
    assert list(_third_party(tree)) == [("sympy", 1), ("hypothesis", 5)]


def _root_action_reads(tree):
    """(name, line) of every read of a root action, `act_*`, as an attribute or a name."""
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name and name.startswith("act_"):
            yield name, node.lineno


def test_extcoh_reads_the_root_action_as_store_integers():
    # the cocycle identities and coboundary rows are integer rows over the module
    # scales: extcoh reads act_root_num, never the Fraction act_root or act_word
    reads = [f"{name} (line {line})" for name, line in
             _root_action_reads(ast.parse((SRC / "extcoh.py").read_text())) if name != "act_root_num"]
    assert not reads, f"extcoh reads a Fraction root action: {', '.join(reads)}"


def test_a_fraction_root_action_read_is_found():
    tree = ast.parse("def row(m, k):\n    n, t = m.act_root_num(r, k)\n    c, t = m.act_root(r, t)\n"
                     "    return act_word, m.act_word\n")
    assert list(_root_action_reads(tree)) == [("act_root_num", 2), ("act_root", 3), ("act_word", 4),
                                              ("act_word", 4)]
