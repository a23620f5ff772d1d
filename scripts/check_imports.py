#!/usr/bin/env python
"""Unused-import check for ``src/``, run by CI.

Fails on any module-level import under ``src/`` whose bound name the module
never uses.  A name counts as used when the module reads it anywhere (code,
annotations, string annotations such as ``"SearchSpace"``) or lists it in
``__all__`` (a package re-export).  ``from __future__`` imports are exempt.
Imports inside functions and classes are not checked: they are local by
choice (lazy or cycle-breaking) and a stale one fails no worse than a
module-level one.

Stdlib ``ast`` only, since no linter is part of the toolchain.  Exits
non-zero with one ``path:line: name`` line per unused import::

    python scripts/check_imports.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` of every import outside functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


def _used_names(tree: ast.Module) -> set:
    """Names the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation ("Foo", "Optional[Foo]") names its types.
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(
                    e.value for e in node.value.elts if isinstance(e, ast.Constant)
                )
    return used


def unused_imports(root: Path) -> list:
    """``(path, line, name)`` of every unused module-level import under ``root``."""
    failures = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for name, line in _module_imports(tree):
            if name not in used:
                failures.append((path.relative_to(REPO_ROOT), line, name))
    return sorted(failures)


def main() -> int:
    failures = unused_imports(REPO_ROOT / "src")
    for path, line, name in failures:
        print(f"{path}:{line}: unused import {name!r}")
    if failures:
        print(f"{len(failures)} unused import(s)")
        return 1
    print("no unused imports under src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
