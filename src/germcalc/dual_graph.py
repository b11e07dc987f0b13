"""Weighted dual graphs of curve configurations.

A configuration graph records the curves on a smooth surface that matter for
contracting a neighbourhood of a reducible fiber: exceptional vertices are the
curves of a minimal resolution (self-intersection at most -2) and component
vertices are the fiber components themselves, always (-1)-curves here.

Graphs are read from a small line-oriented text format::

    # comment
    vertex <id> kind=exc|comp self=<integer>
    edge <id> <id>

with ids matching ``[A-Za-z0-9_]+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .exactlinalg import SymmetricForm, eliminate

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class GraphError(ValueError):
    """Invalid graph input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class VertexKind(Enum):
    EXCEPTIONAL = "exc"
    COMPONENT = "comp"


class ClusterShape(Enum):
    CHAIN = "chain"
    FORK = "fork"
    OTHER = "other"


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: VertexKind
    self_int: int


@dataclass(frozen=True)
class Cluster:
    """A connected piece of the exceptional-only subgraph.

    For chains the ids are listed in path order starting from the endpoint
    that appears first in the input; otherwise ids keep input order.
    """

    ids: tuple[str, ...]
    shape: ClusterShape


class IntersectionMatrix:
    """The intersection form over ``ids``; immutable.

    ``form`` holds it in the sparse layout elimination reads.  Built from the
    dense ``rows`` alone, the form is derived from them; built from a form,
    the rows are derived from it on first read, since the analysis never
    reads them.
    """

    def __init__(self, ids: tuple[str, ...], rows: tuple[tuple[int, ...], ...] | None = None,
                 form: SymmetricForm | None = None):
        if form is None:
            form = SymmetricForm.from_rows(rows)
        if rows is not None:
            self.__dict__["rows"] = rows
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "form", form)

    def __setattr__(self, *_):
        raise AttributeError("IntersectionMatrix is immutable")

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.form.rows()

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntersectionMatrix):
            return NotImplemented
        return (self.ids, self.rows) == (other.ids, other.rows)

    def __hash__(self):
        return hash((self.ids, self.rows))

    def __repr__(self):
        return f"IntersectionMatrix(ids={self.ids!r}, rows={self.rows!r})"

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


class ConfigGraph:
    """Validated, immutable configuration graph."""

    def __init__(self, vertices: list[Vertex], edges: list[tuple[str, str]]):
        self._validate(vertices, edges)
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        # a list, not a generator: tuple(<genexpr>) leaks RSS per call on CPython 3.11
        self.edges: tuple[tuple[str, str], ...] = tuple(
            [tuple(sorted(e)) for e in edges]  # type: ignore[misc]
        )
        self.by_id = {v.id: v for v in self.vertices}
        adj: dict[str, list[str]] = {v.id: [] for v in self.vertices}
        order = {v.id: i for i, v in enumerate(self.vertices)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        # neighbour lists in input order, for reproducible reports
        self.adjacency = {k: tuple(sorted(vs, key=order.__getitem__)) for k, vs in adj.items()}
        stack = [vertices[0].id]
        reached = {vertices[0].id}
        while stack:
            for nb in self.adjacency[stack.pop()]:
                if nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if len(reached) != len(vertices):
            missing = sorted(set(self.by_id) - reached)
            raise GraphError(f"graph is disconnected (unreached: {', '.join(missing)})")

    @staticmethod
    def _validate(vertices: list[Vertex], edges: list[tuple[str, str]]) -> None:
        """Run on each vertex and edge the checks parse_graph runs per line."""
        if not vertices:
            raise GraphError("graph has no vertices")
        seen: set[str] = set()
        for v in vertices:
            _add_vertex(v, seen)
        pairs: set[tuple[str, str]] = set()
        for a, b in edges:
            _add_edge(a, b, seen, pairs)

    def exceptional_ids(self) -> list[str]:
        return [v.id for v in self.vertices if v.kind is VertexKind.EXCEPTIONAL]

    def component_ids(self) -> list[str]:
        return [v.id for v in self.vertices if v.kind is VertexKind.COMPONENT]


def _add_vertex(v: Vertex, seen: set[str]) -> None:
    """Check ``v`` against the ids in ``seen`` and its kind, then record its id."""
    if v.id in seen:
        raise GraphError(f"duplicate vertex id {v.id!r}")
    if v.kind is VertexKind.EXCEPTIONAL and v.self_int > -2:
        raise GraphError(
            f"exceptional vertex {v.id!r} needs self-intersection <= -2, got {v.self_int}"
        )
    if v.kind is VertexKind.COMPONENT and v.self_int != -1:
        raise GraphError(
            f"component vertex {v.id!r} needs self-intersection -1, got {v.self_int}"
        )
    seen.add(v.id)


def _add_edge(a: str, b: str, seen: set[str], pairs: set[tuple[str, str]]) -> None:
    """Check the edge a-b against the vertex ids in ``seen`` and the edges in
    ``pairs``, then record it there."""
    for x in (a, b):
        if x not in seen:
            raise GraphError(f"edge references unknown vertex {x!r}")
    if a == b:
        raise GraphError(f"loop at vertex {a!r}")
    key = (a, b) if a < b else (b, a)
    if key in pairs:
        raise GraphError(f"multi-edge between {key[0]!r} and {key[1]!r}")
    pairs.add(key)


def parse_graph(text: str) -> ConfigGraph:
    """Parse the line format above into a validated ConfigGraph.

    Each line is checked as it is read, by the checks ConfigGraph runs, so an
    error names its line; an edge may only name vertices declared above it.
    """
    vertices: list[Vertex] = []
    edges: list[tuple[str, str]] = []
    declared: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "vertex":
                vertices.append(_parse_vertex(tokens))
                _add_vertex(vertices[-1], declared)
            elif tokens[0] == "edge":
                edges.append(_parse_edge(tokens))
                _add_edge(*edges[-1], declared, pairs)
            else:
                raise GraphError(f"unknown keyword {tokens[0]!r}")
        except GraphError as err:
            raise GraphError(str(err), lineno) from None
    return ConfigGraph(vertices, edges)


def _parse_vertex(tokens: list[str]) -> Vertex:
    if len(tokens) != 4:
        raise GraphError("vertex line needs: vertex <id> kind=exc|comp self=<int>")
    vid = tokens[1]
    if not _ID_RE.match(vid):
        raise GraphError(f"bad vertex id {vid!r}")
    fields = dict(t.split("=", 1) for t in tokens[2:] if "=" in t)
    if set(fields) != {"kind", "self"}:
        raise GraphError("vertex line needs kind= and self= fields")
    try:
        kind = VertexKind(fields["kind"])
    except ValueError:
        raise GraphError(f"unknown kind {fields['kind']!r}") from None
    try:
        self_int = int(fields["self"])
    except ValueError:
        raise GraphError(f"bad self-intersection {fields['self']!r}") from None
    return Vertex(vid, kind, self_int)


def _parse_edge(tokens: list[str]) -> tuple[str, str]:
    if len(tokens) != 3:
        raise GraphError("edge line needs: edge <id> <id>")
    return (tokens[1], tokens[2])


def is_tree(g: ConfigGraph) -> bool:
    """True iff the (connected) graph is acyclic."""
    return len(g.edges) == len(g.vertices) - 1


def exceptional_clusters(g: ConfigGraph) -> list[Cluster]:
    """Connected components of the exceptional-only subgraph, with shapes."""
    exc = set(g.exceptional_ids())
    order = {v.id: i for i, v in enumerate(g.vertices)}
    seen: set[str] = set()
    clusters: list[Cluster] = []
    for vid in g.exceptional_ids():
        if vid in seen:
            continue
        comp = {vid}
        stack = [vid]
        while stack:
            for nb in g.adjacency[stack.pop()]:
                if nb in exc and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        clusters.append(_shape_cluster(g, comp, order))
    return clusters


def _shape_cluster(g: ConfigGraph, comp: set[str], order: dict[str, int]) -> Cluster:
    deg = {v: sum(1 for nb in g.adjacency[v] if nb in comp) for v in comp}
    n_edges = sum(deg.values()) // 2
    acyclic = n_edges == len(comp) - 1
    degrees = sorted(deg.values(), reverse=True)
    if acyclic and (not degrees or degrees[0] <= 2):
        ids = _path_order(g, comp, deg, order)
        return Cluster(tuple(ids), ClusterShape.CHAIN)
    if acyclic and degrees[0] == 3 and (len(degrees) == 1 or degrees[1] <= 2):
        ids = sorted(comp, key=order.__getitem__)
        return Cluster(tuple(ids), ClusterShape.FORK)
    ids = sorted(comp, key=order.__getitem__)
    return Cluster(tuple(ids), ClusterShape.OTHER)


def _path_order(
    g: ConfigGraph, comp: set[str], deg: dict[str, int], order: dict[str, int]
) -> list[str]:
    if len(comp) == 1:
        return list(comp)
    ends = sorted((v for v in comp if deg[v] == 1), key=order.__getitem__)
    path = [ends[0]]
    prev = None
    while len(path) < len(comp):
        nxt = next(nb for nb in g.adjacency[path[-1]] if nb in comp and nb != prev)
        prev = path[-1]
        path.append(nxt)
    return path


def intersection_matrix(g: ConfigGraph, subset: list[str] | tuple[str, ...]) -> IntersectionMatrix:
    """Intersection form over the given vertices, in the given order."""
    pos: dict[str, int] = {}
    for i, vid in enumerate(subset):
        if vid not in g.by_id:
            raise GraphError(f"unknown vertex id {vid!r}")
        if vid in pos:
            raise GraphError(f"vertex id {vid!r} listed twice")
        pos[vid] = i
    form = SymmetricForm(
        tuple([g.by_id[vid].self_int for vid in subset]),
        tuple([tuple([(pos[nb], 1) for nb in g.adjacency[vid] if nb in pos])
               for vid in subset]),
    )
    return IntersectionMatrix(tuple(subset), form=form)


def is_negative_definite(m: IntersectionMatrix) -> bool:
    """Sylvester's law of inertia: every pivot of a symmetric elimination is negative."""
    return eliminate(m.form).negative_definite
