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
from typing import NamedTuple

from .exactlinalg import SymmetricForm, digit_limit_problem, eliminate, excerpt

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


# a dict read, where VertexKind(text) is an Enum call
_KINDS = {kind.value: kind for kind in VertexKind}


class ClusterShape(Enum):
    CHAIN = "chain"
    FORK = "fork"
    OTHER = "other"


class Vertex(NamedTuple):
    """A named tuple, since a parse builds one per line, about twice as fast
    as a frozen dataclass."""

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

    ``form`` holds it in the sparse layout elimination reads; ``as_lists``
    builds the dense rows, which the analysis never reads.
    """

    ids: tuple[str, ...]
    form: SymmetricForm

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.form.rows()]


class ConfigGraph:
    """Validated, immutable configuration graph.

    The constructor and ``parse_graph`` build it by the same steps:
    ``_add_vertex`` and ``_add_edge`` check one item and record it, and
    ``_finish`` runs the checks that need the whole graph.  Besides the
    vertices and edges it holds, once, what every analysis reads: the
    exceptional and the component ids in input order, and each vertex's
    neighbours in input order.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[str, str], ...]
    by_id: dict[str, Vertex]
    adjacency: dict[str, tuple[str, ...]]
    exceptional: tuple[str, ...]
    components: tuple[str, ...]

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
        self.exceptional, self.components = [], []

    def _add_vertex(self, v: Vertex) -> None:
        vid, kind, self_int = v
        if vid in self.by_id:
            raise GraphError(f"duplicate vertex id {excerpt(vid)}")
        if kind is VertexKind.EXCEPTIONAL:
            if self_int > -2:
                raise GraphError(f"exceptional vertex {excerpt(vid)} needs self-intersection "
                                 f"<= -2, got {self_int}")
            self.exceptional.append(vid)
        elif kind is VertexKind.COMPONENT:
            if self_int != -1:
                raise GraphError(
                    f"component vertex {excerpt(vid)} needs self-intersection -1, got {self_int}")
            self.components.append(vid)
        self.vertices.append(v)
        self.by_id[vid] = v
        self.adjacency[vid] = set()

    def _add_edge(self, a: str, b: str) -> None:
        """Edges may only name vertices added before them."""
        adjacency = self.adjacency
        for x in (a, b):
            if x not in adjacency:
                raise GraphError(f"edge references unknown vertex {excerpt(x)}")
        if a == b:
            raise GraphError(f"loop at vertex {excerpt(a)}")
        key = (a, b) if a < b else (b, a)
        if b in adjacency[a]:
            raise GraphError(f"multi-edge between {excerpt(key[0])} and {excerpt(key[1])}")
        self.edges.append(key)
        adjacency[a].add(b)
        adjacency[b].add(a)

    def _finish(self) -> None:
        if not self.vertices:
            raise GraphError("graph has no vertices")
        self.vertices = tuple(self.vertices)
        self.edges = tuple(self.edges)
        self.exceptional = tuple(self.exceptional)
        self.components = tuple(self.components)
        # neighbour lists in input order, for reproducible reports: visiting
        # the vertices in input order appends each to its neighbours' lists
        ordered: dict[str, list[str]] = {vid: [] for vid in self.adjacency}
        for vid, nbs in self.adjacency.items():
            for nb in nbs:
                ordered[nb].append(vid)
        self.adjacency = {vid: tuple(nbs) for vid, nbs in ordered.items()}
        reached = _reach(self.adjacency, self.vertices[0].id)
        if len(reached) != len(self.vertices):
            missing = sorted(set(self.by_id) - reached)
            listed = ", ".join(missing)
            if len(listed) > 120:  # the first three, cut short, and a count of the rest
                more = len(missing) - 3
                listed = ", ".join(map(excerpt, missing[:3])) + (
                    f" and {more} more" if more > 0 else "")
            raise GraphError(f"graph is disconnected (unreached: {listed})")


def _reach(adjacency: dict[str, tuple[str, ...] | list[str]], start: str) -> set[str]:
    """The vertices reachable from ``start``."""
    reached = {start}
    stack = [start]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in reached:
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
    add_vertex, add_edge = g._add_vertex, g._add_edge
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            if tokens[0] == "vertex":
                add_vertex(_parse_vertex(tokens))
            elif tokens[0] == "edge":
                if len(tokens) != 3:
                    raise GraphError("edge line needs: edge <id> <id>")
                add_edge(tokens[1], tokens[2])
            else:
                raise GraphError(f"unknown keyword {excerpt(tokens[0])}")
        except GraphError as err:
            raise GraphError(str(err), lineno) from None
    g._finish()
    return g


def _parse_vertex(tokens: list[str]) -> Vertex:
    if len(tokens) != 4:
        raise GraphError("vertex line needs: vertex <id> kind=exc|comp self=<int>")
    _, vid, first, second = tokens
    if not _ID_RE.match(vid):
        raise GraphError(f"bad vertex id {excerpt(vid)}")
    # the two fields, in either order, each split at its first "="
    if first[:5] == "kind=" and second[:5] == "self=":
        kind_text, self_text = first[5:], second[5:]
    elif first[:5] == "self=" and second[:5] == "kind=":
        kind_text, self_text = second[5:], first[5:]
    else:
        raise GraphError("vertex line needs kind= and self= fields")
    kind = _KINDS.get(kind_text)
    if kind is None:
        raise GraphError(f"unknown kind {excerpt(kind_text)}")
    try:
        self_int = int(self_text)
    except ValueError:
        raise GraphError(digit_limit_problem("self-intersection", self_text)
                         or f"bad self-intersection {excerpt(self_text)}") from None
    return Vertex(vid, kind, self_int)


def is_tree(g: ConfigGraph) -> bool:
    """True iff the (connected) graph is acyclic."""
    return len(g.edges) == len(g.vertices) - 1


def exceptional_clusters(g: ConfigGraph) -> list[Cluster]:
    """Connected components of the exceptional-only subgraph, with shapes."""
    adjacency = g.adjacency
    # each exceptional vertex's exceptional neighbours, in input order: the
    # one filter that the search, the shapes and the path order all read
    inner: dict[str, list[str]] = dict.fromkeys(g.exceptional)
    for vid in inner:
        inner[vid] = [nb for nb in adjacency[vid] if nb in inner]
    members: dict[str, list[str]] = {}  # vertex -> its cluster's ids, filled in input order
    clusters: list[list[str]] = []
    for vid in g.exceptional:
        if vid not in members:
            clusters.append([])
            members.update(dict.fromkeys(_reach(inner, vid), clusters[-1]))
        members[vid].append(vid)
    return [_shape_cluster(ids, inner) for ids in clusters]


def _shape_cluster(ids: list[str], inner: dict[str, list[str]]) -> Cluster:
    """Shape of the cluster on ``ids``, given in input order."""
    degrees = [len(inner[v]) for v in ids]
    acyclic = sum(degrees) == 2 * (len(ids) - 1)
    top = max(degrees)
    if acyclic and top <= 2:
        return Cluster(_path_order(ids, inner), ClusterShape.CHAIN)
    if acyclic and top == 3 and degrees.count(3) == 1:
        return Cluster(tuple(ids), ClusterShape.FORK)
    return Cluster(tuple(ids), ClusterShape.OTHER)


def _path_order(ids: list[str], inner: dict[str, list[str]]) -> tuple[str, ...]:
    v = next(v for v in ids if len(inner[v]) <= 1)
    path, prev = [v], None
    for _ in range(len(ids) - 1):
        nbs = inner[v]
        v, prev = nbs[0] if nbs[0] != prev else nbs[1], v
        path.append(v)
    return tuple(path)


def intersection_matrix(g: ConfigGraph, subset: list[str] | tuple[str, ...]) -> IntersectionMatrix:
    """Intersection form over the given vertices, in the given order."""
    pos: dict[str, int] = {}
    for i, vid in enumerate(subset):
        if vid not in g.by_id:
            raise GraphError(f"unknown vertex id {excerpt(vid)}")
        if vid in pos:
            raise GraphError(f"vertex id {excerpt(vid)} listed twice")
        pos[vid] = i
    # links in ascending column order, as a dense row lists them
    form = SymmetricForm(
        tuple([g.by_id[vid].self_int for vid in subset]),
        tuple([tuple(sorted([(pos[nb], 1) for nb in g.adjacency[vid] if nb in pos]))
               for vid in subset]),
    )
    return IntersectionMatrix(tuple(subset), form)


def is_negative_definite(m: IntersectionMatrix) -> bool:
    """Sylvester's law of inertia: every pivot of a symmetric elimination is negative."""
    return eliminate(m.form).negative_definite
