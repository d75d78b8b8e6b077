"""Every import in the package is used, and every private function,
class and method is read: a deletion that leaves an import or a helper
behind fails here.  Standard library only, reading the sources with ast.

The package's lazy exports (``_EXPORTS`` in ``__init__.py``) are module
and attribute names as strings, imported on first access, so they are
not imports that this check sees."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rotwalk"


def unused_imports(source):
    """The names a module imports and never reads, with their line numbers.

    ``from __future__`` imports are directives, not names.  A quoted
    annotation is read as the expression it holds.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from __future__ import annotations\n", []),
    ("from x import T\ndef f() -> 'T': pass\n", []),
    ("from x import T\nx: 'list[T]' = []\n", []),
    ("from x import T\n'T'\n", [(1, "T")]),
])
def test_checker(source, unused):
    assert unused_imports(source) == unused


def private_imports(source):
    """The underscore-prefixed names, dunders aside, that a module imports
    from the rotwalk package (a relative import, or one from ``rotwalk``),
    with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "rotwalk"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_cli_imports_no_private_name():
    # The CLI uses each layer through its documented names only.
    assert private_imports((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, private", [
    ("from .walk import _records, run\n", [(1, "_records")]),
    ("def f():\n    from .textio import _float_text\n", [(2, "_float_text")]),
    ("from rotwalk.graphs import _integers\n", [(1, "_integers")]),
    ("from . import _x\n", [(1, "_x")]),
    ("from .walk import run as _run\n", []),
    ("from .version import __version__\n", []),
    ("from numpy import _globals\n", []),
    ("from __future__ import annotations\n", []),
])
def test_private_import_checker(source, private):
    assert private_imports(source) == private


def _reads(tree):
    """How often each name is read in ``tree``: as a name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread_privates(source, package_sources):
    """The underscore-prefixed names, dunders aside, of the functions and
    classes that ``source`` defines at module level and of the methods of
    its module-level classes, that no source in ``package_sources`` reads
    outside their own definition, with their line numbers."""
    reads = sum((_reads(ast.parse(text)) for text in package_sources), Counter())
    definitions = []
    for node in ast.parse(source).body:
        definitions.append(node)
        if isinstance(node, ast.ClassDef):
            definitions += node.body
    return [
        (node.lineno, node.name) for node in definitions
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and reads[node.name] == _reads(node)[node.name]
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_private_definitions(module):
    # Reads from the tests do not count: a helper only a test calls is dead.
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unread_privates((PACKAGE / module).read_text(encoding="utf-8"), sources) == []


@pytest.mark.parametrize("source, others, unread", [
    ("def _f(): pass\n", [], [(1, "_f")]),
    ("def _f(): pass\n_f()\n", [], []),
    ("def _f(): pass\n", ["from .m import _f\n_f()\n"], []),
    ("def _f(): pass\n", ["from .m import _f\n"], [(1, "_f")]),
    ("def _f(n):\n    return _f(n - 1)\n", [], [(1, "_f")]),
    ("class _C:\n    def _m(self): pass\n    def run(self): self._m()\n", [], [(1, "_C")]),
    ("class C:\n    def _m(self): pass\n    def __len__(self): return 0\n", [], [(2, "_m")]),
    ("class C:\n    def _m(self): pass\n", ["C()._m()\n"], []),
    ("def f():\n    def _inner(): pass\n", [], []),
    ("def _f(): pass\nx._f = 1\n", [], [(1, "_f")]),
    ("def __getattr__(name): pass\n", [], []),
])
def test_unread_private_checker(source, others, unread):
    assert unread_privates(source, [source, *others]) == unread
