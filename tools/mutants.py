#!/usr/bin/env python3
"""Mutation audit: which one-site changes to a function the tests miss.

    python3 tools/mutants.py src/fanifolds/fanifold.py:Fanifold._star_map \
        src/fanifolds/cones.py:Cone.extremal_rays [--timeout 300] \
        [--tests tests/test_fanifold.py tests] [--list]

Each target is ``path:qualified.name`` of a function or method.  The tool
makes one mutant per site in its body, with the standard library's ``ast``:

- a comparison's first operator flipped (``==``/``!=``, ``<``/``>=``,
  ``>``/``<=``, ``in``/``not in``, ``is``/``is not``);
- ``+``/``-``, ``*``/``//`` and ``&``/``|`` swapped;
- ``and``/``or`` swapped;
- a ``not`` dropped;
- the two branches of an ``if`` expression swapped;
- an ``if`` statement's test, and a comprehension's filter, replaced by
  ``True`` and by ``False``, so that a guard no input reaches shows;
- an integer constant raised by one, labelled by the expression around it
  (past a sign), so that a label, and an allow-list line, names one site.

Annotations and docstrings are not mutated.  Each mutant is written into a
copy of the repository in a temporary directory, and the tests run
there with ``pytest -x`` under a per-mutant timeout; the repository itself
is never edited.  A mutant the tests pass is a survivor: the tool prints its
file, line and diff.  A survivor listed in ``ALLOWED`` (one line of reason
each: an equivalent mutant) is reported but does not fail the run.  Exits 1
when an unexplained survivor is left, 2 when the tests fail on the
unmutated copy, else 0.

Run it from the repository root.  It takes about as long per survivor as
the test run, so it is not a CI step.
"""

from __future__ import annotations

import argparse
import ast
import copy
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (target, "old -> new") -> why the mutant is equivalent to the original
ALLOWED: dict[tuple[str, str], str] = {
    ("cones.py:Cone.faces", "len(rays) + 1 -> len(rays) + 2"):
        "a simplicial cone has no ray subset larger than its rays",
    ("bmodel.py:_box_cuts", "g[0] < 0 -> g[0] < 1"):
        "a rank-1 gen is primitive and nonzero, so it is 1 or -1",
    ("files.py:_int_rows", "type(x) is not int -> True"):
        "_int repeats the exact type test; the guard only spares the call on a good entry",
    ("skeleton.py:_piece_group", "g is None -> True"):
        "the memo only spares work: a group computed again from its key is the same group",
}

_FLIP = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAP = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}


def _mutate(node: ast.AST) -> ast.AST | None:
    """The one operator or constant mutant of this site, or None when it
    is no such site."""
    if isinstance(node, ast.Compare) and type(node.ops[0]) in _FLIP:
        out = copy.deepcopy(node)
        out.ops[0] = _FLIP[type(node.ops[0])]()
        return out
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAP:
        out = copy.deepcopy(node)
        out.op = _SWAP[type(node.op)]()
        return out
    if isinstance(node, ast.BoolOp):
        out = copy.deepcopy(node)
        out.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        return out
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return copy.deepcopy(node.operand)
    if isinstance(node, ast.IfExp):
        return ast.IfExp(copy.deepcopy(node.test), copy.deepcopy(node.orelse), copy.deepcopy(node.body))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return ast.Constant(node.value + 1)
    return None


def _conditions(func: ast.FunctionDef) -> set[int]:
    """Ids of the ``if`` statement tests and comprehension filters."""
    out = set()
    for node in ast.walk(func):
        if isinstance(node, ast.If):
            out.add(id(node.test))
        elif isinstance(node, ast.comprehension):
            out.update(id(c) for c in node.ifs)
    return out


def _find(tree: ast.AST, qualname: str) -> ast.FunctionDef:
    scope = tree
    for part in qualname.split("."):
        scope = next(
            (
                n for n in ast.iter_child_nodes(scope)
                if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and n.name == part
            ),
            None,
        )
        if scope is None:
            raise SystemExit(f"no function {qualname!r}")
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise SystemExit(f"{qualname!r} is not a function")
    return scope


def _skipped(func: ast.FunctionDef) -> set[int]:
    """Ids of the nodes no mutant touches: annotations, decorators and the
    docstring."""
    roots: list[ast.AST] = list(func.decorator_list)
    if func.returns is not None:
        roots.append(func.returns)
    for node in ast.walk(func):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        roots.append(body[0])
    return {id(n) for r in roots for n in ast.walk(r)}


def _splice(source: str, node: ast.AST, text: str) -> str:
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    # ast offsets count UTF-8 bytes; the package sources are ASCII
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return source[:begin] + text + source[end:]


class Mutant(NamedTuple):
    target: str  # file name and qualified name, the allow-list's key
    path: str
    line: int
    label: str  # "old -> new"
    source: str  # the whole mutated module


def mutants(target: str) -> list[Mutant]:
    """Every mutant of one ``path:qualname`` target, in source order."""
    path, qualname = target.split(":", 1)
    source = open(os.path.join(ROOT, path), encoding="utf-8").read()
    tree = ast.parse(source)
    func = _find(tree, qualname)
    skip = _skipped(func)
    conditions = _conditions(func)
    parents = {id(c): n for n in ast.walk(func) for c in ast.iter_child_nodes(n)}
    out = []
    sites = [n for n in ast.walk(func) if id(n) not in skip and hasattr(n, "lineno")]
    sites.sort(key=lambda n: (n.lineno, n.col_offset))
    for node in sites:
        changes = [_mutate(node)]
        if id(node) in conditions:
            changes += [ast.Constant(True), ast.Constant(False)]
        for mutated in filter(None, changes):
            m = _mutant(path, qualname, source, node, mutated, parents)
            if m is not None:
                out.append(m)
    return out


def _mutant(
    path: str, qualname: str, source: str, node: ast.AST, mutated: ast.AST, parents: dict
) -> Mutant | None:
    """The mutant with ``node`` replaced by ``mutated``, or None when the
    source cannot be spliced to it."""
    # the function the mutant should parse to, to check the splice
    want_func = _find(ast.parse(source), qualname)
    twin = next(
        n for n in ast.walk(want_func)
        if ast.dump(n, include_attributes=True) == ast.dump(node, include_attributes=True)
    )
    _replace(want_func, twin, copy.deepcopy(mutated))
    want = ast.dump(want_func)
    old = ast.get_source_segment(source, node)
    new = ast.unparse(mutated)
    for text in (new, f"({new})"):
        candidate = _splice(source, node, text)
        if ast.dump(_find(ast.parse(candidate), qualname)) == want:
            break
    else:
        print(f"skipped {path}:{node.lineno}: cannot splice {new!r}", file=sys.stderr)
        return None
    if isinstance(node, ast.Constant):
        # a bare "0 -> 1" names no site: name the expression around it,
        # past a sign
        around, grown = node, mutated
        while around is node or isinstance(around, ast.UnaryOp):
            grown = _with_child(parents[id(around)], around, grown)
            around = parents[id(around)]
        old = ast.get_source_segment(source, around)
        new = ast.unparse(grown)
    label = f"{' '.join(old.split())} -> {new}"
    return Mutant(f"{os.path.basename(path)}:{qualname}", path, node.lineno, label, candidate)


def _with_child(parent: ast.AST, child: ast.AST, new: ast.AST) -> ast.AST:
    """A copy of ``parent`` with ``child`` replaced by ``new``."""
    out = copy.deepcopy(parent)
    for field, value in ast.iter_fields(parent):
        if value is child:
            setattr(out, field, new)
        elif isinstance(value, list) and any(v is child for v in value):
            getattr(out, field)[[i for i, v in enumerate(value) if v is child][0]] = new
    return out


def _replace(tree: ast.AST, old: ast.AST, new: ast.AST) -> None:
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, field, new)
                return
            if isinstance(value, list) and any(v is old for v in value):
                value[[i for i, v in enumerate(value) if v is old][0]] = new
                return
    raise AssertionError("site not found")


def _run_tests(work: str, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="path:qualified.name of a function")
    parser.add_argument("--timeout", type=float, default=300, help="seconds per mutant")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest paths, run in order")
    parser.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    args = parser.parse_args(argv)

    found = [m for t in args.targets for m in mutants(t)]
    if args.list:
        for m in found:
            print(f"{m.path}:{m.line}  {m.label}")
        return 0
    tmp = tempfile.mkdtemp(prefix="mutants-")
    work = os.path.join(tmp, "repo")
    try:
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks", "out"
        ))
        start = time.perf_counter()
        if _run_tests(work, args.tests, args.timeout) != "survived":
            print("the tests fail (or time out) on the unmutated copy", file=sys.stderr)
            return 2
        print(f"baseline passes in {time.perf_counter() - start:.1f} s; {len(found)} mutants")
        counts = {"killed": 0, "timeout": 0, "survived": 0, "allowed": 0}
        unexplained = []
        for m in found:
            dest = os.path.join(work, m.path)
            original = open(dest, encoding="utf-8").read()
            with open(dest, "w", encoding="utf-8") as f:
                f.write(m.source)
            try:
                outcome = _run_tests(work, args.tests, args.timeout)
            finally:
                with open(dest, "w", encoding="utf-8") as f:
                    f.write(original)
            reason = ALLOWED.get((m.target, m.label))
            if outcome == "survived" and reason is not None:
                outcome = "allowed"
            counts[outcome] += 1
            print(f"{outcome:8}  {m.path}:{m.line}  {m.target}  {m.label}", flush=True)
            if outcome == "allowed":
                print(f"          allowed: {reason}")
            elif outcome == "survived":
                unexplained.append(m)
                diff = difflib.unified_diff(
                    original.splitlines(keepends=True), m.source.splitlines(keepends=True),
                    f"a/{m.path}", f"b/{m.path}", n=1,
                )
                sys.stdout.writelines("          " + line for line in diff)
        print("summary: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        return 1 if unexplained else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
