"""Package layout: every top-level name in ``src/evprofiler`` has a caller.

Code reachable only from tests belongs in the tests. A name counts as used
when some package or benchmark module loads it, reads it as an attribute,
or imports it; a mention in a docstring or a call from a test does not.
The benchmark tracer's ``tracer.wrap(module, "name", ...)`` counts too: it
reads that attribute by name and replaces it with a timing wrapper, so the
benchmark fails without it.
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
        elif _is_tracer_wrap(node):
            used.add(node.args[1].value)
    return used


def _is_tracer_wrap(node: ast.AST) -> bool:
    """``tracer.wrap(<module>, "<name>", ...)``, and no other call."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
            and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str))


def test_every_package_name_has_a_caller_outside_tests():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    callers = _parse(sorted((ROOT / "benchmarks").glob("*.py")))
    used = set().union(*map(used_names, (package | callers).values()))
    unused = sorted(f"{path.name}:{name}"
                    for path, tree in package.items()
                    for name in top_level_names(tree) - used)
    assert unused == []
