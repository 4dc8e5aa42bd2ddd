"""Every public function, class, method and property of the package runs.

A public name counts as used when another place names it as a Name, an
Attribute or an imported name: the package's modules, the fixed acceptance
gate or the benchmark scripts.  The benchmark's tracer names its targets in
strings, so there a string that is the name, or ends in ".<name>", counts
too; a docstring never does.  Uses in the other tests do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "bessarb").glob("*.py") if p.name != "__init__.py")
SOURCES = [(p, False) for p in MODULES] + [(ROOT / "tests" / "test_acceptance.py", False)] + [
    (p, True) for p in sorted((ROOT / "bench").glob("*.py"))]

# ROADMAP item 4 either calls these bridges from the CLI or deletes them.
ALLOWED = {"annualize_backtest_revenue", "CatalogBattery.to_battery_spec"}


def _public(tree: ast.Module):
    """Each public module-level def and class, and each public method or
    property of a public class: (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module, strings: bool):
    """(name, node id) of each place in the tree that names something."""
    docstrings = {id(n.body[0].value) for n in ast.walk(tree) if isinstance(
        n, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(n) is not None}
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            yield sub.id, id(sub)
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, id(sub)
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1], id(sub)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and id(sub) not in docstrings:
            yield sub.value.rsplit(".", 1)[-1], id(sub)


def test_every_public_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path, _ in SOURCES}
    used: dict[str, set[int]] = {}
    for path, strings in SOURCES:
        for name, where in _uses(trees[path], strings):
            used.setdefault(name, set()).add(where)
    unused = {
        qualname
        for path in MODULES
        for qualname, node in _public(trees[path])
        # a use inside the definition itself, such as recursion, does not count
        if not used.get(qualname.rsplit(".", 1)[-1], set()) - {id(n) for n in ast.walk(node)}
    }
    assert unused == ALLOWED
