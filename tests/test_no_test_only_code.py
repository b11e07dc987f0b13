"""The package keeps only what an entry point reaches.

The scan reads ``src/germcalc`` and perfbench as source and imports nothing.
It is rapid type analysis by name (Bacon and Sweeney 1996; Tip et al. 2002),
iterated to a fixpoint from ``cli.main``, each package module's module-level
code, perfbench's code outside its tests, and the names in its ``LAYERS``.
Functions and methods count whether ``def`` or ``async def``.

- A module-level function or class is reached when reached code loads its name
  where it resolves to it, or as an attribute of its module (``corpus.x``; no
  two modules may share a name).
- A method or property of a reached class is reached when reached code loads
  ``.name``; dunders come with the class.  Annotations count as loads.
- A dataclass field is read when reached code loads ``.name``, or hands
  ``asdict`` an instance made by a callee annotated to return the class.
  NamedTuple fields are exempt: unpacking reads them.
- A defaulted parameter is used when a reached call of its function's name
  passes it (by position, keyword or ``*``/``**``), or reached code loads a
  function (not a class: ``isinstance``) of that name as a value.
- Names, not types, are matched: a collision keeps dead code (any ``.value``
  load reads every ``value``), and a class called through a variable or a
  ``getattr`` by string is missed, so what it alone reaches is reported.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "germcalc"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITION = "function or class"  # the kind the first test checks; the second checks the rest

# kept though unreached, as "module.name", "module.Class.member" or "module.f(param)": why
ALLOWED = {
    "dual_graph.IntersectionMatrix.as_lists":
        "perfbench/tests reads it; perfbench changes only in a [benchmark] change",
    "exactlinalg.SymmetricForm.rows": "as_lists reads it, for perfbench/tests",
    "exactlinalg.Elimination.order": "test_exactlinalg's leading-minor oracle reads it",
    "exactlinalg.Elimination.pivot_pairs": "test_exactlinalg's leading-minor oracle reads it",
    "ell_calc.EllDivisor.__init__(weights)": "goes with the divisor calculus (ROADMAP item 3)",
    "ell_calc.thm812_check(kind)": "goes with thm812_check (ROADMAP item 3)",
}


def _name(node) -> str | None:
    """The name that a callee, an annotation or an attribute's owner ends in."""
    match node:
        case ast.Name(id=name) | ast.Attribute(attr=name) | ast.Constant(value=str(name)):
            return name
    return None


def _imports(tree: ast.AST, own: str) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) of what ``tree``, module ``own``, imports from the package."""
    imports = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            parts = [*own.split(".")[:-node.level], node.module or ""]
        elif (node.module or "").startswith("germcalc."):
            parts = [node.module.removeprefix("germcalc.")]
        else:
            continue
        for alias in node.names:
            imports[alias.asname or alias.name] = (".".join(p for p in parts if p), alias.name)
    return imports


class _Facts:
    """What a piece of code loads and calls, which is reached once the code is."""

    def __init__(self, nodes, own: str, imports: dict, stems: dict):
        self.defs = set()  # (module, name) of each module-level definition it loads
        self.attrs = set()  # each name it loads as ``.name``
        self.values = set()  # each name it loads other than to call it
        self.passed = set()  # (callee, position or keyword, or "*"/"**" for all) of each call
        self.serialised = set()  # each callee whose result it hands to ``asdict``
        every = [n for node in nodes for n in ast.walk(node)]
        callees = {id(n.func) for n in every if isinstance(n, ast.Call)}
        made_by = {}  # x -> f for each ``x = f(...)``, so that ``asdict(x)`` names f
        for n in every:
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call):
                made_by[_name(n.targets[0])] = _name(n.value.func)
        for n in every:
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                if id(n) not in callees:
                    self.values.add(_name(n))
                if isinstance(n, ast.Name):
                    self.defs.add(imports.get(n.id, (own, n.id)))
                else:
                    self.attrs.add(n.attr)
                    if _name(n.value) in stems:  # module.name
                        self.defs.add((stems[_name(n.value)], n.attr))
            elif isinstance(n, ast.Call):
                callee = _name(n.func)
                for position, arg in enumerate(n.args):
                    self.passed.add((callee, "*" if isinstance(arg, ast.Starred) else position))
                self.passed |= {(callee, k.arg or "**") for k in n.keywords}
                if callee == "asdict" and n.args:  # asdict(f()), or x = f(); asdict(x)
                    arg = n.args[0]
                    made = _name(arg.func) if isinstance(arg, ast.Call) else made_by.get(_name(arg))
                    self.serialised.add(made)


def _defaulted(node, skip: int):
    """(parameter, position at the call or None) of each of ``node``'s parameters with a
    default; the call does not pass the first ``skip`` positions (``self``)."""
    positional = [a.arg for a in [*node.args.posonlyargs, *node.args.args]]
    first = len(positional) - len(node.args.defaults)
    for position, param in enumerate(positional[first:], first - skip):
        yield param, position
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _scan(package: Path, entries, outside=(), allowed=()) -> list[tuple[str, str]]:
    """(kind, what) of each definition in ``package`` that no entry point reaches and
    ``allowed`` does not name, then of each stale entry.  The entry points are
    ``entries``, (module, name) pairs, and the ``outside`` sources whole."""
    trees = {".".join(p.relative_to(package).with_suffix("").parts):
             ast.parse(p.read_text(), str(p)) for p in sorted(package.rglob("*.py"))}
    modules = [m for m in trees if not m.endswith("__init__")]
    stems = {m.rsplit(".", 1)[-1]: m for m in modules}
    assert len(stems) == len(modules), "two modules share a name, so module.x is ambiguous"
    bodies = {}  # (module, name) or (module, Class, member) -> _Facts of its code
    fields = []  # (module, Class, field) of each dataclass field
    functions = []  # (body key, what, name its calls use, positions its calls skip, node)
    pending = []
    for source in outside:
        tree = ast.parse(source)
        pending.append(_Facts([tree], "", _imports(tree, ""), stems))
    for own, tree in trees.items():
        facts = functools.partial(_Facts, own=own, imports=_imports(tree, own), stems=stems)
        defs = [n for n in tree.body if isinstance(n, (*FUNCTION, ast.ClassDef))]
        pending.append(facts([n for n in tree.body if n not in defs]))
        for node in defs:
            key = (own, node.name)
            if isinstance(node, FUNCTION):
                bodies[key] = facts([node])
                functions.append((key, f"{own}.{node.name}", node.name, 0, node))
                continue
            methods = [s for s in node.body if isinstance(s, FUNCTION)]
            dunders = [s for s in methods if s.name.startswith("__") and s.name.endswith("__")]
            bodies[key] = facts([*node.bases, *node.decorator_list,
                                 *[s for s in node.body if s not in methods or s in dunders]])
            if any(_name(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list):
                fields += [(*key, s.target.id) for s in node.body if isinstance(s, ast.AnnAssign)]
            for s in methods:
                member = key if s in dunders else (*key, s.name)
                if s not in dunders:  # a property's getter and setter are one member
                    bodies[member] = facts([t for t in methods if t.name == s.name])
                called = node.name if s.name == "__init__" else s.name
                functions.append((member, f"{own}.{node.name}.{s.name}", called, 1, s))
    reached = set(entries)
    pending += [bodies[key] for key in entries]
    attrs, values, serialised, passed = set(), set(), set(), set()
    while pending:
        new = set()
        for facts in pending:
            attrs |= facts.attrs
            values |= facts.values
            serialised |= facts.serialised
            passed |= facts.passed
            new |= facts.defs & bodies.keys()
        new |= {k for k in bodies if len(k) == 3 and k[:2] in reached and k[2] in attrs}
        pending = [bodies[k] for k in new - reached]
        reached |= new
    found = {}  # what -> kind
    for key in bodies.keys() - reached:
        if len(key) == 2:
            found[".".join(key)] = DEFINITION
        elif key[:2] in reached:  # a dead class's members go with it
            found[".".join(key)] = "member"
    dumped = {_name(node.returns) for *_, called, _, node in functions if called in serialised}
    for own, cls, field in fields:
        if (own, cls) in reached and cls not in dumped and field not in attrs:
            found[f"{own}.{cls}.{field}"] = "dataclass field"
    for key, what, called, skip, node in functions:
        if key in reached and (called not in values or node.name == "__init__"):
            for param, position in _defaulted(node, skip):
                ways = [param, "**"] if position is None else [param, "**", position, "*"]
                if not any((called, way) in passed for way in ways):
                    found[f"{what}({param})"] = "parameter"
    report = [(kind, what) for what, kind in sorted(found.items()) if what not in allowed]
    return report + [("stale allow-list entry", what) for what in sorted(set(allowed) - found.keys())]


@functools.cache
def _report() -> tuple[tuple[str, str], ...]:
    """The package's scan, from ``cli.main``, perfbench's code outside its tests and ``LAYERS``."""
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    layers = next(ast.literal_eval(n.value) for n in tracing.body
                  if isinstance(n, ast.Assign) and _name(n.targets[0]) == "LAYERS")
    outside = [p.read_text() for p in PERFBENCH.rglob("*.py") if p.parent.name != "tests"]
    entries = {("cli_corpus.cli", "main"), *((m, f) for m, fs in layers.items() for f in fs)}
    return tuple(_scan(PACKAGE, entries, outside, ALLOWED))


def test_every_definition_has_a_caller_outside_the_tests():
    assert [what for kind, what in _report() if kind == DEFINITION] == []


def test_every_member_has_a_caller_outside_the_tests():
    """Members, dataclass fields and defaulted parameters, and the allow-list of them."""
    assert [(kind, what) for kind, what in _report() if kind != DEFINITION] == []


TOY = """
from dataclasses import asdict, dataclass
@dataclass
class Shown:
    read: int
    unread: int
@dataclass
class Dumped:
    field: int
class Tool:
    def used(self): return 1
    async def only_dead_code_awaits(self): return 2
def make() -> Dumped: return Dumped(1)
def dead(tool): return tool.only_dead_code_awaits()
async def never_awaited(): return 3
def main(verbose=False, only_tests_pass=None):
    dumped = make()
    return Shown(Tool().used(), 0).read, asdict(dumped), verbose
main(True)
"""


def test_the_scan_reports_what_no_entry_point_reaches(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    assert _scan(tmp_path, {("toy", "main")}, allowed={"toy.gone": ""}) == [
        ("dataclass field", "toy.Shown.unread"),
        ("member", "toy.Tool.only_dead_code_awaits"),
        (DEFINITION, "toy.dead"),
        ("parameter", "toy.main(only_tests_pass)"),
        (DEFINITION, "toy.never_awaited"),
        ("stale allow-list entry", "toy.gone")]


def test_the_scan_refuses_two_modules_of_one_name(tmp_path):
    for package in ("a", "b"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "same.py").write_text("")
    with pytest.raises(AssertionError, match="share a name"):
        _scan(tmp_path, set())
