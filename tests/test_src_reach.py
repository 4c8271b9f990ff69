"""Every top-level name in src/thrnn is used by the program.

A function, class or constant that nothing in src/, scripts/ or bench/
refers to is run only by the tests, or by no one. Reference
implementations that tests compare against belong in tests/oracles.py;
anything else unreferenced should go.

A reference is an identifier, an attribute name, an imported name or a
string literal equal to the name (bench/spans.py patches functions by
name). Comments and docstrings do not count, and neither does anything
inside the name's own definition. Dunder names such as __version__ are
exempt.
"""

from __future__ import annotations

import ast
import pathlib
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEARCHED = ("src", "scripts", "bench")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function, class and
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every identifier, attribute, imported name and
    string literal in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_src_name_is_referenced_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))}
    refs = defaultdict(list)
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs[name].append((path, line))

    unreached = []
    for path in sorted((ROOT / "src" / "thrnn").glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if not any(where != path or not first <= line <= last
                       for where, line in refs[name]):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, (
        f"{len(unreached)} names in src/thrnn have no reference in "
        f"{', '.join(SEARCHED)}: {unreached}")
