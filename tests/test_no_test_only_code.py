"""Every module-level function and class in the package has a caller outside
the tests.

The scan reads ``src/germcalc`` and perfbench's own code as source and imports
nothing.  A reference to a definition counts only when it is one of these:

- a load of the bare name, in the defining module outside the definition, or
  in a module that imports the name from the defining module;
- an attribute on the defining module (``cyclic_quot.x``,
  ``layers.cyclic_quot.x``);
- a string under the defining module in ``perfbench/tracing.py`` ``LAYERS``
  (perfbench binds the functions it times with ``getattr``).

A local variable, a dict key or a string that happens to share the name does
not count.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "germcalc"
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# Kept although only tests call them: the tests check the glued counts with them.
TEST_ONLY = {
    "h0": "test_glued_counts_by_sides checks glued_h0 against the per-side h0",
    "h1": "test_glued_counts_by_sides checks glued_h1 against the per-side h1",
    "glued_h1": "test_euler_characteristic_additivity checks glued_h0 through it",
}


def _module(path: Path) -> str:
    """The dotted name of a package file relative to germcalc, such as
    "cli_corpus.corpus" or "cli_corpus.__init__"."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _layers() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def _imports(tree: ast.AST, own: str | None) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) for each name that ``tree`` imports from a
    germcalc module; ``own`` is the module ``tree`` is, None outside the package."""
    imports = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0:
            if not (node.module or "").startswith("germcalc."):
                continue
            module = node.module.removeprefix("germcalc.")
        else:
            package = own.split(".")[:-1]
            parts = package[:len(package) - node.level + 1] + [node.module or ""]
            module = ".".join(p for p in parts if p)
        for alias in node.names:
            imports[alias.asname or alias.name] = (module, alias.name)
    return imports


def _references(tree: ast.AST, own: str | None, imports: dict, stems: dict) -> Counter:
    """(module, name) -> the references in ``tree`` that count."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            key = imports.get(node.id, None if own is None else (own, node.id))
            if key is not None:
                refs[key] += 1
        elif isinstance(node, ast.Attribute):
            owner = node.value
            stem = (owner.id if isinstance(owner, ast.Name)
                    else owner.attr if isinstance(owner, ast.Attribute) else None)
            if stem in stems:
                refs[(stems[stem], node.attr)] += 1
    return refs


def test_every_definition_has_a_caller_outside_the_tests():
    package = {_module(p): ast.parse(p.read_text(), str(p))
               for p in sorted(PACKAGE.rglob("*.py"))}
    perfbench = [ast.parse(p.read_text(), str(p)) for p in sorted(PERFBENCH.rglob("*.py"))
                 if "tests" not in p.relative_to(PERFBENCH).parts]
    stems = {m.rsplit(".", 1)[-1]: m for m in package if not m.endswith("__init__")}
    assert len(stems) == len(package) - sum(m.endswith("__init__") for m in package)

    refs: Counter = Counter((module, name) for module, names in _layers().items()
                            for name in names)
    definitions = []
    for own, tree in package.items():
        imports = _imports(tree, own)
        refs.update(_references(tree, own, imports, stems))
        definitions += [
            (own, node.name, _references(node, own, imports, stems)[(own, node.name)])
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for tree in perfbench:
        refs.update(_references(tree, None, _imports(tree, None), stems))

    unused = [f"{own}: {name}" for own, name, inside in definitions
              if name not in TEST_ONLY and refs[(own, name)] == inside]
    assert not unused, "called only from tests: " + ", ".join(unused)
