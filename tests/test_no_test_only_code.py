"""Every module-level function and class in the package, and every method and
property of its classes, has a caller outside the tests.

The scan reads ``src/germcalc`` and perfbench's own code as source and imports
nothing.  A reference to a module-level definition counts only when it is one
of these:

- a load of the bare name, in the defining module outside the definition, or
  in a module that imports the name from the defining module;
- an attribute on the defining module (``cyclic_quot.x``,
  ``layers.cyclic_quot.x``);
- a string under the defining module in ``perfbench/tracing.py`` ``LAYERS``
  (perfbench binds the functions it times with ``getattr``).

A local variable, a dict key or a string that happens to share the name does
not count.

A method or property of a package class (any name but a dunder) counts as
reached when a load of ``.name`` appears in package code outside the member's
own body, or in perfbench's code outside its tests.  The scan does not know
the type of the object the attribute is read on, so any load of the same name
counts: ``.value`` on an Enum member would hide a ``value`` member of another
class, and ``.end`` on perfbench's tracer arrays an ``end`` member.  The member
check can therefore miss dead code, never report live code as dead.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "germcalc"
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# Members kept although only tests read them, as "module.Class.member": reason.
MEMBERS_ONLY_TESTS_READ = {
    "dual_graph.IntersectionMatrix.as_lists":
        "perfbench/tests reads it; perfbench changes only in a [benchmark] change",
}


def _module(path: Path) -> str:
    """The dotted name of a package file relative to germcalc, such as
    "cli_corpus.corpus" or "cli_corpus.__init__"."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _sources() -> tuple[dict[str, ast.Module], tuple[ast.Module, ...]]:
    """The package's modules by dotted name, and perfbench's modules outside its tests."""
    package = {_module(p): ast.parse(p.read_text(), str(p))
               for p in sorted(PACKAGE.rglob("*.py"))}
    perfbench = tuple(ast.parse(p.read_text(), str(p)) for p in sorted(PERFBENCH.rglob("*.py"))
                      if "tests" not in p.relative_to(PERFBENCH).parts)
    return package, perfbench


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


def _attribute_loads(tree: ast.AST) -> Counter:
    """Attribute name -> the loads of ``.name`` in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def test_every_definition_has_a_caller_outside_the_tests():
    package, perfbench = _sources()
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
              if refs[(own, name)] == inside]
    assert not unused, "called only from tests: " + ", ".join(unused)


def test_every_member_has_a_caller_outside_the_tests():
    package, perfbench = _sources()
    loads: Counter = Counter()
    for tree in (*package.values(), *perfbench):
        loads.update(_attribute_loads(tree))
    unused = {f"{own}.{cls.name}.{node.name}"
              for own, tree in package.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and loads[node.name] == _attribute_loads(node)[node.name]}
    assert unused <= MEMBERS_ONLY_TESTS_READ.keys(), (
        "read only from tests: " + ", ".join(sorted(unused - MEMBERS_ONLY_TESTS_READ.keys())))
    # an entry whose member is gone, or now has a caller, is stale
    assert unused == MEMBERS_ONLY_TESTS_READ.keys(), (
        "stale entries: " + ", ".join(sorted(MEMBERS_ONLY_TESTS_READ.keys() - unused)))
