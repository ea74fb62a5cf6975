"""Every def in ``src`` has a reader in ``src``, or an allow-list line saying
why not.

A stdlib ``ast`` pass: the defs are each module's functions and each
class's methods and properties (dunder methods excepted, as Python calls
them); the readers are every ``Name`` and ``Attribute`` reference, every
imported name, and every string constant that is not a docstring.  A def is
dead when no reader names it and ``__init__`` does not export it.  Names are
matched by spelling, not by type, so a method is read when any attribute of
its name is.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "fanifolds")

# def -> why it stays with no reader in src
ALLOWED: dict[str, str] = {}


def _docstrings(tree):
    """The ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _defs(module, tree):
    """(qualified name, bare name) of each module function, method and
    property, dunder methods excepted."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def _readers(tree):
    """Every name this module reads: references, imports and strings."""
    docs = _docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.add(node.value)
    return out


def dead_names():
    defs, readers = [], set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            defs += _defs(name[:-3], tree)
            readers |= _readers(tree)
    return sorted(qual for qual, bare in defs if bare not in readers)


def test_every_src_def_has_a_src_reader_or_an_allow_list_line():
    assert dead_names() == sorted(ALLOWED)


def test_the_pass_finds_a_def_with_no_reader():
    """The pass is not vacuous: a module with one unread function and one
    read through an attribute names the first only."""
    tree = ast.parse('"""doc: unread"""\ndef unread():\n    """read"""\ndef read():\n    pass\nx.read\n')
    defs = list(_defs("m", tree))
    assert [q for q, bare in defs if bare not in _readers(tree)] == ["m.unread"]
