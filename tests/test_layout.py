"""Package layout: every top-level name in ``src/evprofiler`` has a caller.

Code reachable only from tests belongs in the tests. A name counts as used
when some package or benchmark module loads it, reads it as an attribute,
or imports it; a mention in a docstring or a call from a test does not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evprofiler"


def _parse(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in paths}


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_package_name_has_a_caller_outside_tests():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    callers = _parse(sorted((ROOT / "benchmarks").glob("*.py")))
    used = set().union(*map(used_names, (package | callers).values()))
    unused = sorted(f"{path.name}:{name}"
                    for path, tree in package.items()
                    for name in top_level_names(tree) - used)
    assert unused == []
