"""Every module-level function and class in the package has a caller outside
the tests.

The scan reads source files and imports nothing.  A definition counts as used
when its name appears in ``src/germcalc`` or in perfbench's own code, outside
its own definition, as an identifier, an attribute or a string constant
(perfbench binds the functions it times with ``getattr``).
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "germcalc"
PERFBENCH = ROOT / "perfbench"

# Kept although only tests call them: the tests check the glued counts with them.
TEST_ONLY = {
    "h0": "test_glued_counts_by_sides checks glued_h0 against the per-side h0",
    "h1": "test_glued_counts_by_sides checks glued_h1 against the per-side h1",
    "glued_h1": "test_euler_characteristic_additivity checks glued_h0 through it",
}


def _names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    perfbench = [p for p in PERFBENCH.rglob("*.py")
                 if "tests" not in p.relative_to(PERFBENCH).parts]
    used: Counter = Counter()
    definitions = []
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(perfbench):
        tree = ast.parse(path.read_text(), str(path))
        used.update(_names(tree))
        if path.is_relative_to(PACKAGE):
            definitions += [(path, node) for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    unused = [f"{path.relative_to(ROOT)}: {node.name}" for path, node in definitions
              if node.name not in TEST_ONLY
              and used[node.name] == _names(node)[node.name]]
    assert not unused, "called only from tests: " + ", ".join(unused)
