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


@dataclass(frozen=True)
class IntersectionMatrix:
    """The intersection form over ``ids``.

    ``form`` holds it in the sparse layout elimination reads; the dense
    ``rows`` are derived from it on first read, since the analysis never
    reads them.
    """

    ids: tuple[str, ...]
    form: SymmetricForm

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.form.rows()

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


class ConfigGraph:
    """Validated, immutable configuration graph.

    The constructor and ``parse_graph`` build it by the same steps:
    ``_add_vertex`` and ``_add_edge`` check one item and record it, and
    ``_finish`` runs the checks that need the whole graph.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]
    by_id: dict[str, Vertex]
    adjacency: dict[str, tuple[str, ...]]

    def __init__(self, vertices: list[Vertex], edges: list[tuple[str, str]]):
        self._begin()
        for v in vertices:
            self._add_vertex(v)
        for a, b in edges:
            self._add_edge(a, b)
        self._finish()

    def _begin(self) -> None:
        # lists and sets while building; _finish freezes them
        self.vertices, self.edges, self.by_id, self.adjacency = [], [], {}, {}

    def _add_vertex(self, v: Vertex) -> None:
        if v.id in self.by_id:
            raise GraphError(f"duplicate vertex id {v.id!r}")
        if v.kind is VertexKind.EXCEPTIONAL and v.self_int > -2:
            raise GraphError(
                f"exceptional vertex {v.id!r} needs self-intersection <= -2, got {v.self_int}"
            )
        if v.kind is VertexKind.COMPONENT and v.self_int != -1:
            raise GraphError(
                f"component vertex {v.id!r} needs self-intersection -1, got {v.self_int}"
            )
        self.vertices.append(v)
        self.by_id[v.id] = v
        self.adjacency[v.id] = set()

    def _add_edge(self, a: str, b: str) -> None:
        """Edges may only name vertices added before them."""
        for x in (a, b):
            if x not in self.by_id:
                raise GraphError(f"edge references unknown vertex {x!r}")
        if a == b:
            raise GraphError(f"loop at vertex {a!r}")
        key = (a, b) if a < b else (b, a)
        if b in self.adjacency[a]:
            raise GraphError(f"multi-edge between {key[0]!r} and {key[1]!r}")
        self.edges.append(key)
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)

    def _finish(self) -> None:
        if not self.vertices:
            raise GraphError("graph has no vertices")
        self.vertices = tuple(self.vertices)
        self.edges = tuple(self.edges)
        order = {vid: i for i, vid in enumerate(self.by_id)}
        # neighbour lists in input order, for reproducible reports
        self.adjacency = {k: tuple(sorted(vs, key=order.__getitem__))
                          for k, vs in self.adjacency.items()}
        reached = _reach(self.adjacency, self.vertices[0].id, self.by_id)
        if len(reached) != len(self.vertices):
            missing = sorted(set(self.by_id) - reached)
            raise GraphError(f"graph is disconnected (unreached: {', '.join(missing)})")

    def exceptional_ids(self) -> list[str]:
        return [v.id for v in self.vertices if v.kind is VertexKind.EXCEPTIONAL]

    def component_ids(self) -> list[str]:
        return [v.id for v in self.vertices if v.kind is VertexKind.COMPONENT]


def _reach(adjacency: dict[str, tuple[str, ...]], start: str, allowed) -> set[str]:
    """The vertices reachable from ``start`` through vertices in ``allowed``."""
    reached = {start}
    stack = [start]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb in allowed and nb not in reached:
                reached.add(nb)
                stack.append(nb)
    return reached


def parse_graph(text: str) -> ConfigGraph:
    """Parse the line format above into a validated ConfigGraph.

    Each line is checked as it is read, by the steps the ConfigGraph
    constructor runs, so an error names its line; an edge may only name
    vertices declared above it.
    """
    g = ConfigGraph.__new__(ConfigGraph)
    g._begin()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "vertex":
                g._add_vertex(_parse_vertex(tokens))
            elif tokens[0] == "edge":
                if len(tokens) != 3:
                    raise GraphError("edge line needs: edge <id> <id>")
                g._add_edge(tokens[1], tokens[2])
            else:
                raise GraphError(f"unknown keyword {tokens[0]!r}")
        except GraphError as err:
            raise GraphError(str(err), lineno) from None
    g._finish()
    return g


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
        comp = _reach(g.adjacency, vid, exc)
        seen |= comp
        clusters.append(_shape_cluster(g, sorted(comp, key=order.__getitem__)))
    return clusters


def _shape_cluster(g: ConfigGraph, ids: list[str]) -> Cluster:
    """Shape of the cluster on ``ids``, given in input order."""
    members = set(ids)
    deg = {v: sum(1 for nb in g.adjacency[v] if nb in members) for v in ids}
    acyclic = sum(deg.values()) // 2 == len(ids) - 1
    degrees = sorted(deg.values(), reverse=True) + [0]
    if acyclic and degrees[0] <= 2:
        return Cluster(tuple(_path_order(g, ids, deg)), ClusterShape.CHAIN)
    if acyclic and degrees[0] == 3 and degrees[1] <= 2:
        return Cluster(tuple(ids), ClusterShape.FORK)
    return Cluster(tuple(ids), ClusterShape.OTHER)


def _path_order(g: ConfigGraph, ids: list[str], deg: dict[str, int]) -> list[str]:
    path = [next(v for v in ids if deg[v] <= 1)]
    prev = None
    while len(path) < len(ids):
        nxt = next(nb for nb in g.adjacency[path[-1]] if nb in deg and nb != prev)
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
    # links in ascending column order, as SymmetricForm.from_rows gives them
    form = SymmetricForm(
        tuple([g.by_id[vid].self_int for vid in subset]),
        tuple([tuple(sorted([(pos[nb], 1) for nb in g.adjacency[vid] if nb in pos]))
               for vid in subset]),
    )
    return IntersectionMatrix(tuple(subset), form)


def is_negative_definite(m: IntersectionMatrix) -> bool:
    """Sylvester's law of inertia: every pivot of a symmetric elimination is negative."""
    return eliminate(m.form).negative_definite
