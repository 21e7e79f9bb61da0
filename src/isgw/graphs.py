"""Directed graphs, the path conditions (L), (K), (M), hereditary vertex
sets, quotient graphs, and truncated graph inverse semigroups.

Paths follow the composition convention: a path is written with its
range-end edge first, and a path alpha*beta is alpha appended with beta on
the source side.  Walking a path therefore means traversing its edge tuple
from right to left.
"""

from __future__ import annotations

from .errors import DanglingEndpoint, NotHereditary, ParseError
from .util import (
    Decision,
    Record,
    is_cyclic,
    json_int,
    reachable,
    set_field,
    strongly_connected_components,
    unions,
)


class Edge(Record):
    __slots__ = ("eid", "src", "rng")

    def __init__(self, eid: str, src: int, rng: int):
        set_field(self, "eid", eid)
        set_field(self, "src", src)
        set_field(self, "rng", rng)


class DirectedGraph(Record):
    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: tuple, edges: tuple):
        set_field(self, "vertices", vertices)  # vertex ids, not necessarily dense after quotients
        set_field(self, "edges", edges)  # Edge values; edge indices are positions in this tuple
        vs = frozenset(vertices)
        for e in edges:
            if e.src not in vs or e.rng not in vs:
                raise DanglingEndpoint(f"edge {e.eid} touches a missing vertex")
        if len({e.eid for e in edges}) != len(edges):
            raise ParseError("duplicate edge ids")

    def edges_into(self, v: int) -> tuple:
        return tuple(i for i, e in enumerate(self.edges) if e.rng == v)

    def edges_out(self, v: int) -> tuple:
        return tuple(i for i, e in enumerate(self.edges) if e.src == v)

    def in_degree(self, v: int) -> int:
        return len(self.edges_into(v))

    def successors(self) -> dict:
        """Each vertex mapped to the ranges of its out-edges, one per edge."""
        succ = {v: [] for v in self.vertices}
        for e in self.edges:
            succ[e.src].append(e.rng)
        return succ

    def is_acyclic(self) -> bool:
        succ = self.successors()
        return not any(is_cyclic(c, succ) for c in strongly_connected_components(succ))

    def longest_path_length(self) -> int:
        """Edge count of the longest directed path; only valid when acyclic
        (0 on a graph with a cycle).  Read off the components sinks first,
        each a single vertex when the graph is acyclic."""
        succ = self.successors()
        best = {}
        for component in strongly_connected_components(succ):
            if is_cyclic(component, succ):
                return 0
            v = component[0]
            best[v] = max((best[w] + 1 for w in succ[v]), default=0)
        return max(best.values(), default=0)


def parse_graph(obj: dict) -> DirectedGraph:
    if not isinstance(obj, dict):
        raise ParseError("graph document must be an object")
    edge_docs = obj.get("edges", [])
    if not isinstance(edge_docs, list) or not all(isinstance(e, dict) for e in edge_docs):
        raise ParseError("edges must be a list of objects")
    try:
        n = json_int(obj["vertices"], "vertices")
        edges = tuple(Edge(str(e["id"]), json_int(e["src"], "an edge's src"),
                           json_int(e["rng"], "an edge's rng")) for e in edge_docs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph document: {exc}") from exc
    if n < 0:
        raise ParseError("negative vertex count")
    return DirectedGraph(tuple(range(n)), edges)


class GraphPath(Record, compare=("edges", "src")):
    """Edge tuple in composition order (range-end edge first); a bare vertex
    is the length-zero path at that vertex.  Equality and hash leave the
    graph out."""

    __slots__ = ("graph", "edges", "src")

    def __init__(self, graph: DirectedGraph, edges: tuple = (), src: int = 0):
        set_field(self, "graph", graph)
        set_field(self, "edges", edges)
        set_field(self, "src", src)
        if src not in graph.vertices:
            raise DanglingEndpoint(f"no vertex {src}")
        g_edges = graph.edges
        for i, j in zip(edges, edges[1:]):
            if g_edges[i].src != g_edges[j].rng:
                raise ParseError("edges do not compose")
        if edges and g_edges[edges[-1]].src != src:
            raise ParseError("source vertex disagrees with the last edge")

    @property
    def rng(self) -> int:
        return self.graph.edges[self.edges[0]].rng if self.edges else self.src

    @property
    def length(self) -> int:
        return len(self.edges)

    def extend(self, edge_index: int) -> "GraphPath":
        e = self.graph.edges[edge_index]
        if e.rng != self.src:
            raise ParseError("edge does not extend the path at its source")
        return GraphPath(self.graph, self.edges + (edge_index,), e.src)

    def describe(self) -> str:
        if not self.edges:
            return f"v{self.src}"
        ids = [self.graph.edges[i].eid for i in self.edges]
        return "".join(ids) if all(len(x) == 1 for x in ids) else ".".join(ids)

    def sort_key(self):
        return (self.length, self.edges, self.src)


def vertex_path(g: DirectedGraph, v: int) -> GraphPath:
    return GraphPath(g, (), v)


def paths_up_to(g: DirectedGraph, depth: int) -> list:
    """All paths of length at most depth, vertices included."""
    current = [vertex_path(g, v) for v in g.vertices]
    out = list(current)
    for _ in range(depth):
        current = [p.extend(i) for p in current for i in range(len(g.edges))
                   if g.edges[i].rng == p.src]
        out.extend(current)
    return sorted(out, key=GraphPath.sort_key)


# -- the three conditions -----------------------------------------------------

def _bare_cycles(g: DirectedGraph) -> list:
    """The strongly connected components of g with as many edges inside as
    vertices (bare cycles), each as (vertex set, entered), entered when an
    edge from outside ends in it.  A vertex bases exactly one first-return
    path iff its component is a bare cycle: every closed walk at it stays in
    the component and is a product of first returns, so if p is the only
    one, p is simple (pumping a repeated vertex would give another) and
    every vertex and edge inside the component lies on p."""
    components = strongly_connected_components(g.successors())
    where = {v: k for k, component in enumerate(components) for v in component}
    inside, entered = [0] * len(components), [False] * len(components)
    for e in g.edges:
        k = where[e.rng]
        if where[e.src] == k:
            inside[k] += 1
        else:
            entered[k] = True
    return [(frozenset(component), entered[k]) for k, component in enumerate(components)
            if inside[k] == len(component)]


class GraphConditions(Record):
    __slots__ = ("condition_l", "condition_k", "condition_m")

    def __init__(self, condition_l: Decision, condition_k: Decision, condition_m: Decision):
        set_field(self, "condition_l", condition_l)
        set_field(self, "condition_k", condition_k)
        set_field(self, "condition_m", condition_m)


def condition_l_graph(g: DirectedGraph) -> Decision:
    """Every vertex-simple cycle passes a vertex of in-degree at least two.
    A cycle whose vertices all have in-degree one is a whole bare-cycle
    component that no edge enters; the witness is the one with the least
    vertex, its edges walked from that vertex."""
    closed = [cycle for cycle, entered in _bare_cycles(g) if not entered]
    if not closed:
        return Decision(True)
    cycle = min(closed, key=min)
    out = {e.src: e for e in g.edges if e.src in cycle and e.rng in cycle}
    v, walk = min(cycle), []
    for _ in cycle:  # one edge per vertex of a bare cycle
        walk.append(out[v].eid)
        v = out[v].rng
    return Decision(False, tuple(walk))


def condition_k_graph(g: DirectedGraph) -> Decision:
    """No vertex is the base of exactly one first-return path, that is, no
    vertex lies in a bare-cycle component; the witness is the first such
    vertex of ``g.vertices``."""
    on_bare = frozenset().union(*(cycle for cycle, _ in _bare_cycles(g)))
    for v in g.vertices:
        if v in on_bare:
            return Decision(False, v)
    return Decision(True)


def condition_m_graph(g: DirectedGraph, orbits: dict | None = None) -> Decision:
    """Every edge e admits a nontrivial return path from the orbit of s_e to
    r_e whose range-end edge differs from e; decided by exact reachability.

    orbits maps each vertex to its orbit under a group acting on g; without
    it every orbit is a single vertex.  An edge with a competitor from its
    own source orbit passes at once, so the scan needs no orbit filter."""
    succ = g.successors()
    for idx, e in enumerate(g.edges):
        reach = reachable(succ, orbits[e.src] if orbits is not None else (e.src,))
        ok = any(f.src in reach for j, f in enumerate(g.edges)
                 if j != idx and f.rng == e.rng)
        if not ok:
            return Decision(False, e.eid)
    return Decision(True)


def graph_conditions(g: DirectedGraph) -> GraphConditions:
    """(L) and (K) from the strongly connected components, (M) by
    reachability over one adjacency map; no size limit."""
    return GraphConditions(
        condition_l=condition_l_graph(g),
        condition_k=condition_k_graph(g),
        condition_m=condition_m_graph(g),
    )


# -- hereditary sets and quotients ---------------------------------------------

class HereditarySet(Record):
    __slots__ = ("vertices", "saturated")

    def __init__(self, vertices: frozenset, saturated: bool):
        set_field(self, "vertices", vertices)
        set_field(self, "saturated", saturated)


def is_hereditary(g: DirectedGraph, h) -> bool:
    hs = frozenset(h)
    return all(e.src in hs for e in g.edges if e.rng in hs)


def _is_saturated_vertex_set(g: DirectedGraph, h: frozenset) -> bool:
    for v in g.vertices:
        if v in h:
            continue
        incoming = g.edges_into(v)
        if incoming and all(g.edges[i].src in h for i in incoming):
            return False
    return True


def hereditary_sets(g: DirectedGraph) -> list:
    """All hereditary vertex sets with their saturation flags, smallest
    first.  A set is hereditary when it holds every vertex with a path into
    one of its members, so the hereditary sets are the unions of the
    vertices' predecessor sets."""
    succ = g.successors()
    reach = {w: reachable(succ, (w,)) for w in g.vertices}
    preds = [frozenset(w for w in g.vertices if v in reach[w]) for v in g.vertices]
    found = sorted(unions(preds, frozenset()), key=lambda h: (len(h), tuple(sorted(h))))
    return [HereditarySet(h, _is_saturated_vertex_set(g, h)) for h in found]


def quotient_graph(g: DirectedGraph, v_set) -> DirectedGraph:
    """Remove a hereditary vertex set and all edges touching it; original
    vertex ids are kept."""
    removed = frozenset(v_set)
    if not is_hereditary(g, removed):
        raise NotHereditary(f"{sorted(removed)} is not hereditary")
    vertices = tuple(v for v in g.vertices if v not in removed)
    edges = tuple(e for e in g.edges if e.src not in removed and e.rng not in removed)
    return DirectedGraph(vertices, edges)


# -- the graph inverse semigroup -----------------------------------------------

def graph_semigroup(g: DirectedGraph, depth: int):
    """Path pairs (alpha, beta) with a common source and lengths at most
    depth, plus zero: the triple semigroup of the trivial group acting on g,
    whose triples (alpha, 1, beta) are labelled (alpha,beta)."""
    if depth < 1:
        raise ParseError("depth must be at least 1")
    from .selfsimilar import ss_semigroup, trivial_action

    return ss_semigroup(trivial_action(g), depth)


# -- fixture graphs -----------------------------------------------------------

def single_loop() -> DirectedGraph:
    return DirectedGraph((0,), (Edge("e", 0, 0),))


def two_loops() -> DirectedGraph:
    return DirectedGraph((0,), (Edge("a", 0, 0), Edge("b", 0, 0)))


def single_arrow() -> DirectedGraph:
    # u = 0, v = 1, one edge x from u to v
    return DirectedGraph((0, 1), (Edge("x", 0, 1),))
