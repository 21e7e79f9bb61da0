"""Self-similar graph actions: a finite group acting on a finite directed
graph together with a restriction cocycle.

The cocycle tells how a group element keeps acting after passing through an
edge: g sends the path e*beta to (g e) * (phi(g, e) beta).  All structural
notions (faithfulness, condition (M), the triple semigroup) are computed
exactly from the tables; the action on paths is one table over path ids,
built by that one defining rule (``_path_tables``).
"""

from __future__ import annotations

import functools

from .core import DEFAULT_CLOSURE_CAP, InverseSemigroup, _labels
from .errors import (
    AxiomViolation,
    CapExceeded,
    InternalContract,
    NotInvariant,
    Overflow,
    ParseError,
)
from .graphs import (
    DirectedGraph,
    Edge,
    GraphPath,
    condition_m_graph,
    hereditary_sets,
    is_hereditary,
    parse_graph,
    paths_up_to,
    quotient_graph,
    two_loops,
)
from .util import (
    Decision,
    Record,
    is_cyclic,
    json_int,
    reachable,
    set_field,
    strongly_connected_components,
)

VALIDATION_DEPTH = 4
MAX_FIXED_PATH_WITNESSES = 200


class FiniteGroup(Record):
    """A group table with its identity and labels; ``inv`` is computed."""

    __slots__ = ("mul", "identity", "labels", "inv")

    def __init__(self, mul: tuple, identity: int, labels: tuple):
        set_field(self, "mul", mul)
        set_field(self, "identity", identity)
        set_field(self, "labels", labels)
        n = len(mul)
        if any(len(row) != n for row in mul):
            raise ParseError("group table is not square")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise ParseError("group table is not associative")
        e = identity
        if any(mul[e][a] != a or mul[a][e] != a for a in range(n)):
            raise ParseError("identity element is wrong")
        inv = []
        for a in range(n):
            cands = [b for b in range(n) if mul[a][b] == e and mul[b][a] == e]
            if len(cands) != 1:
                raise ParseError(f"element {a} lacks a unique inverse")
            inv.append(cands[0])
        set_field(self, "inv", tuple(inv))
        if len(labels) != n:
            raise ParseError("group label count mismatch")

    @property
    def size(self) -> int:
        return len(self.mul)

    def product(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),), 0, ("1",))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        labels = tuple("1" if a == 0 else f"t{a}" if a > 1 else "t" for a in range(n))
        return cls(mul, 0, labels)


class SelfSimilarAction(Record):
    __slots__ = ("group", "graph", "vertex_action", "edge_action", "cocycle", "__dict__")

    def __init__(self, group: FiniteGroup, graph: DirectedGraph, vertex_action: dict,
                 edge_action: dict, cocycle: dict):
        set_field(self, "group", group)
        set_field(self, "graph", graph)
        set_field(self, "vertex_action", vertex_action)  # (g, vertex) -> vertex
        set_field(self, "edge_action", edge_action)  # (g, eid) -> eid
        set_field(self, "cocycle", cocycle)  # (g, eid) -> group element

    def act_vertex(self, g: int, v: int) -> int:
        return self.vertex_action[(g, v)]

    def act_edge(self, g: int, eid: str) -> str:
        return self.edge_action[(g, eid)]

    def restrict(self, g: int, eid: str) -> int:
        return self.cocycle[(g, eid)]

    @functools.cached_property
    def _edge_positions(self) -> dict:
        return {e.eid: i for i, e in enumerate(self.graph.edges)}

    @functools.cached_property
    def _validation(self) -> dict:
        return _validation_stats(self, VALIDATION_DEPTH)

    @functools.cached_property
    def _faithfulness(self) -> "FaithfulnessReport":
        return _faithfulness_report(self)

    @functools.cached_property
    def _strongly_fixed(self) -> dict:
        return _strongly_fixed_decisions(self)

    def edge_index(self, eid: str) -> int:
        try:
            return self._edge_positions[eid]
        except KeyError:
            raise ParseError(f"no edge {eid}") from None


def validate_action(action: SelfSimilarAction, depth: int = VALIDATION_DEPTH) -> dict:
    """Exhaustively check the defining axioms on paths up to the given depth.

    The identities beyond single edges are forced by the recursive definition
    of the path action, so checking them on short paths certifies the tables;
    any violation raises AxiomViolation with the witnessing tuple.  The path
    checks read the action table of ``_path_tables``, which is built once the
    single-edge checks have passed.  The stats at the default depth are kept
    on the action, so parsing, ``analyze`` and ``verify`` validate it once; a
    call that raises keeps nothing.
    """
    if depth == VALIDATION_DEPTH:
        return dict(action._validation)
    return _validation_stats(action, depth)


def _validation_stats(action: SelfSimilarAction, depth: int) -> dict:
    grp, graph = action.group, action.graph
    gs = range(grp.size)
    one = grp.identity

    for g in gs:
        for v in graph.vertices:
            if (g, v) not in action.vertex_action:
                raise AxiomViolation("tables", (g, v))
        for e in graph.edges:
            if (g, e.eid) not in action.edge_action or (g, e.eid) not in action.cocycle:
                raise AxiomViolation("tables", (g, e.eid))

    for v in graph.vertices:
        if action.act_vertex(one, v) != v:
            raise AxiomViolation("identity", v)
    for e in graph.edges:
        if action.act_edge(one, e.eid) != e.eid:
            raise AxiomViolation("identity", e.eid)
        if action.restrict(one, e.eid) != one:
            raise AxiomViolation("identity", ("cocycle", e.eid))

    # E4/E5: the edge action is equivariant on endpoints (so images are edges)
    for g in gs:
        for i, e in enumerate(graph.edges):
            img = action.act_edge(g, e.eid)
            j = action.edge_index(img)
            if graph.edges[j].rng != action.act_vertex(g, e.rng):
                raise AxiomViolation("E4", (g, e.eid))
            if graph.edges[j].src != action.act_vertex(g, e.src):
                raise AxiomViolation("E5", (g, e.eid))

    # E6: the restricted element moves vertices exactly like the original
    for g in gs:
        for e in graph.edges:
            h = action.restrict(g, e.eid)
            for x in graph.vertices:
                if action.act_vertex(h, x) != action.act_vertex(g, x):
                    raise AxiomViolation("E6", (g, e.eid, x))

    # bijectivity per group element
    for g in gs:
        if len({action.act_vertex(g, v) for v in graph.vertices}) != len(graph.vertices):
            raise AxiomViolation("E1", ("vertex bijection", g))
        if len({action.act_edge(g, e.eid) for e in graph.edges}) != len(graph.edges):
            raise AxiomViolation("E1", ("edge bijection", g))

    paths = tuple(paths_up_to(graph, depth))
    tab = _path_tables(action, paths)
    act = tab.act
    checked = 0
    for g in gs:
        for h in gs:
            gh = grp.product(g, h)
            for p in range(len(paths)):
                hp, hc = act[h][p]
                ghp_direct, ghc_direct = act[gh][p]
                g_hp, g_hc = act[g][hp]
                if ghp_direct != g_hp:
                    raise AxiomViolation("E1", (g, h, paths[p].describe()))
                if ghc_direct != grp.product(g_hc, hc):
                    raise AxiomViolation("E2", (g, h, paths[p].describe()))
                checked += 1
    for g in gs:
        for p in range(len(paths)):
            img, coc = act[g][p]
            if tab.length[img] != tab.length[p]:
                raise AxiomViolation("E7", ("length", g, paths[p].describe()))
            if tab.rng[img] != action.act_vertex(g, tab.rng[p]):
                raise AxiomViolation("E4", (g, paths[p].describe()))
            if tab.src[img] != action.act_vertex(g, tab.src[p]):
                raise AxiomViolation("E5", (g, paths[p].describe()))
            for x in graph.vertices:
                if action.act_vertex(coc, x) != action.act_vertex(g, x):
                    raise AxiomViolation("E6", (g, paths[p].describe(), x))
            # every split alpha*beta must satisfy the extension identities
            for cut, (alpha, beta) in enumerate(tab.splits[p]):
                ga, ca = act[g][alpha]
                gb, cb = act[ca][beta]
                if tab.concat.get((ga, gb)) != img:
                    raise AxiomViolation("E7", (g, paths[p].describe(), cut))
                if cb != coc:
                    raise AxiomViolation("E8", (g, paths[p].describe(), cut))
                checked += 1
    return {"paths": len(paths), "checks": checked, "depth": depth}


# -- the triple semigroup -------------------------------------------------------

ZERO = "0"


class PathTables(Record):
    """Every table a triple product and ``validate_action`` read, over the
    ids of a tuple of paths: ``splits[q]`` lists the pairs (p, t) with
    q = p t by the edge count of p, ``strip[(p, q)]`` is that t and
    ``concat[(p, t)]`` is q (so a composable pair missing from ``concat`` is
    longer than the paths); ``act[g][p]`` is the image id and cocycle of g
    on p."""

    __slots__ = ("src", "rng", "length", "splits", "strip", "concat", "act")

    def __init__(self, src: tuple, rng: tuple, length: tuple, splits: tuple, strip: dict,
                 concat: dict, act: tuple):
        set_field(self, "src", src)  # path id -> source vertex
        set_field(self, "rng", rng)  # path id -> range vertex
        set_field(self, "length", length)
        set_field(self, "splits", splits)
        set_field(self, "strip", strip)
        set_field(self, "concat", concat)
        set_field(self, "act", act)


def _path_tables(action: SelfSimilarAction, paths: tuple) -> PathTables:
    """The tables over ``paths``, a ``paths_up_to`` tuple, in O(|paths| *
    depth + |G| * |paths|) steps.  The action follows its defining rule: g
    sends a vertex to its image with cocycle g, and e*beta to (g e) *
    (phi(g, e) beta), whose tail is read in the row of phi(g, e) at beta,
    which is shorter and so earlier in the path order.  Every lookup
    succeeds when the single-edge axioms hold; an image missing from the
    paths (an action not validated) raises InternalContract."""
    graph = action.graph
    ids = {(p.edges, p.src): k for k, p in enumerate(paths)}
    splits, strip, concat = [], {}, {}
    for k, p in enumerate(paths):
        cuts = []
        for cut in range(p.length + 1):
            head_src = graph.edges[p.edges[cut - 1]].src if cut else p.rng
            head = ids[(p.edges[:cut], head_src)]
            tail = ids[(p.edges[cut:], p.src)]
            strip[(head, k)] = tail
            concat[(head, tail)] = k
            cuts.append((head, tail))
        splits.append(tuple(cuts))
    gs = range(action.group.size)
    act = [[None] * len(paths) for _ in gs]
    for k, p in enumerate(paths):
        for g in gs:
            if p.edges:  # p = e beta, cut after its first edge
                e = graph.edges[p.edges[0]]
                _, beta = splits[k][1]
                tail, cocycle = act[action.restrict(g, e.eid)][beta]
                j = action.edge_index(action.act_edge(g, e.eid))
                image = concat.get((ids[((j,), graph.edges[j].src)], tail))
            else:
                image, cocycle = ids.get(((), action.act_vertex(g, p.src))), g
            if image is None:
                raise InternalContract("the path action left the paths of the model")
            act[g][k] = (image, cocycle)
    return PathTables(
        src=tuple(p.src for p in paths),
        rng=tuple(p.rng for p in paths),
        length=tuple(p.length for p in paths),
        splits=tuple(splits),
        strip=strip,
        concat=concat,
        act=tuple(map(tuple, act)),
    )


class TruncatedActionSemigroup(Record):
    """Triples with both path lengths bounded by the depth, plus zero; exact
    when the graph is acyclic and shallow enough.  ``paths`` is
    ``paths_up_to(graph, depth)`` and a path's id is its position there;
    ``elements`` is ZERO and then the id triples (alpha, g, beta) with
    source(alpha) = g * source(beta), in the order of their ids."""

    __slots__ = ("action", "depth", "paths", "elements", "exact", "__dict__")

    def __init__(self, action: SelfSimilarAction, depth: int, paths: tuple, elements: tuple,
                 exact: bool):
        set_field(self, "action", action)
        set_field(self, "depth", depth)
        set_field(self, "paths", paths)
        set_field(self, "elements", elements)
        set_field(self, "exact", exact)

    @functools.cached_property
    def index(self) -> dict:
        """Each element, zero and the id triples, mapped to its position."""
        return {x: i for i, x in enumerate(self.elements)}

    @property
    def act(self) -> tuple:
        """``act[g][p]``: the image id and cocycle of g on path p."""
        return self._tables.act

    def describe(self, i: int) -> str:
        """ZERO, or (alpha,g,beta); over the trivial group, the graph label
        (alpha,beta)."""
        if i == 0:
            return ZERO
        alpha, g, beta = self.elements[i]
        alpha, beta = self.paths[alpha].describe(), self.paths[beta].describe()
        if self.action.group.size == 1:
            return f"({alpha},{beta})"
        return f"({alpha},{self.action.group.labels[g]},{beta})"

    @functools.cached_property
    def _tables(self) -> PathTables:
        """The tables of the model, built once."""
        return _path_tables(self.action, self.paths)

    def _join(self, p: int, q: int) -> int:
        """Id of the path p q; raises Overflow when it is longer than the
        depth."""
        tab = self._tables
        out = tab.concat.get((p, q))
        if out is None:
            if tab.src[p] != tab.rng[q]:
                raise ParseError("paths do not compose")
            raise Overflow(f"product path length {tab.length[p] + tab.length[q]} "
                           f"> depth {self.depth}")
        return out

    def product(self, i: int, j: int) -> int:
        """The product of elements i and j by table lookups; the oracle
        ``triple_multiply`` of tests/oracles.py computes it on triples."""
        if i == 0 or j == 0:
            return 0
        tab = self._tables
        grp = self.action.group
        alpha, g, beta = self.elements[i]
        gamma, h, nu = self.elements[j]
        tail = tab.strip.get((beta, gamma))
        if tail is not None:  # gamma = beta tail
            image, cocycle = tab.act[g][tail]
            alpha, g, beta = self._join(alpha, image), grp.mul[cocycle][h], nu
        else:
            tail = tab.strip.get((gamma, beta))
            if tail is None:
                return 0
            # beta = gamma tail
            image, cocycle = tab.act[grp.inv[h]][tail]
            beta, g = self._join(nu, image), grp.mul[g][grp.inv[cocycle]]
        if tab.src[alpha] != self.action.act_vertex(g, tab.src[beta]):
            raise InternalContract("triple product broke the membership condition")
        return self.index[(alpha, g, beta)]

    def involution(self, i: int) -> int:
        if i == 0:
            return 0
        alpha, g, beta = self.elements[i]
        return self.index[(beta, self.action.group.inverse(g), alpha)]

    def to_inverse_semigroup(self) -> InverseSemigroup:
        """The exact model as a semigroup, built once per model."""
        return self._semigroup

    @functools.cached_property
    def _semigroup(self) -> InverseSemigroup:
        if not self.exact:
            raise Overflow(
                "truncated model: the graph has paths beyond the depth bound, "
                "products are not total")
        # (alpha, g, beta)(gamma, h, nu) is zero unless one of beta and gamma
        # is a prefix of the other, so only those pairs are multiplied
        tab = self._tables
        elements = self.elements
        n = len(elements)
        by_alpha = {}
        for j in range(1, n):
            by_alpha.setdefault(elements[j][0], []).append(j)
        partners = {}
        mul = [(0,) * n]  # each row becomes a tuple at once: one table is alive
        for i in range(1, n):
            beta = elements[i][2]
            if beta not in partners:
                partners[beta] = [j for gamma, js in by_alpha.items()
                                  if (beta, gamma) in tab.strip or (gamma, beta) in tab.strip
                                  for j in js]
            row = [0] * n
            for j in partners[beta]:
                row[j] = self.product(i, j)
            mul.append(tuple(row))
        inv = [self.involution(i) for i in range(n)]
        labels = [self.describe(i) for i in range(n)]
        # The triples with |alpha| + |beta| <= 1, vertices before edges, generate
        # the model; Light's test scans them first.
        size = [0] + [tab.length[alpha] + tab.length[beta] for alpha, _, beta in elements[1:]]
        hint = [i for short in (0, 1) for i in range(1, n) if size[i] == short]
        return InverseSemigroup(mul, inv, 0, labels=labels, hint=hint)


def ss_semigroup(action: SelfSimilarAction, depth: int) -> TruncatedActionSemigroup:
    """The triples whose paths have at most ``depth`` edges, plus zero.  One
    over ``core.DEFAULT_CLOSURE_CAP`` raises CapExceeded before any triple is
    built.  With P_k(v) the paths of at most k edges starting at v, P_0 = 1
    and P_{k+1}(v) = 1 + the sum of P_k(r(e)) over the edges e out of v; the
    model has the sum over g and v of P_depth(g.v) P_depth(v) triples.  The
    paths come in ``GraphPath.sort_key`` order, so the loops over their ids
    list the triples in (alpha, g, beta) key order."""
    if depth < 0:
        raise ParseError("depth must be nonnegative")
    graph = action.graph
    succ = graph.successors()
    count = dict.fromkeys(graph.vertices, 1)
    for _ in range(depth):
        longer = {v: 1 + sum(count[w] for w in succ[v]) for v in graph.vertices}
        if longer == count:  # no path is longer: a depth past it adds nothing
            break
        count = longer
    size = 1 + sum(count[action.act_vertex(g, v)] * count[v]
                   for g in range(action.group.size) for v in graph.vertices)
    if size > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(f"the depth-{depth} model has {size} elements, "
                          f"more than {DEFAULT_CLOSURE_CAP}")
    paths = tuple(paths_up_to(graph, depth))
    src = [p.src for p in paths]
    triples = [ZERO]
    for alpha in range(len(paths)):
        for g in range(action.group.size):
            for beta in range(len(paths)):
                if src[alpha] == action.act_vertex(g, src[beta]):
                    triples.append((alpha, g, beta))
    exact = graph.is_acyclic() and graph.longest_path_length() <= depth
    return TruncatedActionSemigroup(action, depth, paths, tuple(triples), exact)


def exact_model(action: SelfSimilarAction) -> TruncatedActionSemigroup | None:
    """The triple semigroup of an acyclic action at depth max(1, longest
    path), which holds every triple; None when the graph has a cycle.  The
    model of a graph is that of its trivial action.  ``ss_semigroup``
    refuses a model over the closure cap before building it."""
    if action.graph.is_acyclic():
        return ss_semigroup(action, max(1, action.graph.longest_path_length()))
    return None


# -- conditions on the action ----------------------------------------------------

def vertex_orbits(action: SelfSimilarAction) -> dict:
    """Map each vertex to its orbit (as a frozenset)."""
    orbits = {}
    for v in action.graph.vertices:
        orbits[v] = frozenset(action.act_vertex(g, v) for g in range(action.group.size))
    return orbits


def g_independent_edges(action: SelfSimilarAction) -> tuple:
    """Edges whose competitors into the same range vertex all come from a
    different vertex orbit."""
    orbits = vertex_orbits(action)
    out = []
    for i, e in enumerate(action.graph.edges):
        competitors = [f for j, f in enumerate(action.graph.edges)
                       if j != i and f.rng == e.rng]
        if all(orbits[f.src] != orbits[e.src] for f in competitors):
            out.append(e.eid)
    return tuple(out)


def condition_M_ss(action: SelfSimilarAction) -> Decision:
    """Every orbit-independent edge admits an alternative nontrivial return
    path starting in the orbit of its source, not factoring through it."""
    return condition_m_graph(action.graph, vertex_orbits(action))


def hereditary_invariant_sets(action: SelfSimilarAction) -> list:
    """All vertex sets closed downward along edges and under the group."""
    gs = range(action.group.size)
    return [h.vertices for h in hereditary_sets(action.graph)
            if all(action.act_vertex(g, v) in h.vertices for v in h.vertices for g in gs)]


def quotient_action(action: SelfSimilarAction, v_set) -> SelfSimilarAction:
    """Restrict the action to the graph minus a hereditary invariant set."""
    removed = frozenset(v_set)
    if not is_hereditary(action.graph, removed):
        raise NotInvariant(f"{sorted(removed)} is not hereditary")
    if any(action.act_vertex(g, v) not in removed
           for v in removed for g in range(action.group.size)):
        raise NotInvariant(f"{sorted(removed)} is not closed under the group")
    graph = quotient_graph(action.graph, removed)
    kept_eids = {e.eid for e in graph.edges}
    sub = SelfSimilarAction(
        group=action.group,
        graph=graph,
        vertex_action={(g, v): action.act_vertex(g, v)
                       for g in range(action.group.size) for v in graph.vertices},
        edge_action={(g, eid): action.act_edge(g, eid)
                     for g in range(action.group.size) for eid in kept_eids},
        cocycle={(g, eid): action.restrict(g, eid)
                 for g in range(action.group.size) for eid in kept_eids},
    )
    validate_action(sub, depth=2)
    return sub


class FaithfulnessReport(Record):
    __slots__ = ("faithful", "strongly_faithful", "trivial_pairs", "hypothesis")

    def __init__(self, faithful: bool, strongly_faithful: bool, trivial_pairs: frozenset,
                 hypothesis: str):
        set_field(self, "faithful", faithful)
        set_field(self, "strongly_faithful", strongly_faithful)
        # the pairs (g, v) where g acts trivially on every path into v: the
        # greatest fixed point of the one-step closure
        set_field(self, "trivial_pairs", trivial_pairs)
        # "met" unless some vertex has no incoming or outgoing edge
        set_field(self, "hypothesis", hypothesis)


def _trivial_pairs(action: SelfSimilarAction) -> frozenset:
    grp, graph = action.group, action.graph
    current = {(g, v) for g in range(grp.size) for v in graph.vertices
               if action.act_vertex(g, v) == v}
    changed = True
    while changed:
        changed = False
        for g, v in sorted(current):
            ok = True
            for i in graph.edges_into(v):
                e = graph.edges[i]
                if action.act_edge(g, e.eid) != e.eid or \
                        (action.restrict(g, e.eid), e.src) not in current:
                    ok = False
                    break
            if not ok:
                current.discard((g, v))
                changed = True
    return frozenset(current)


def faithfulness(action: SelfSimilarAction) -> FaithfulnessReport:
    """Computed once per action and kept on it."""
    return action._faithfulness


def _faithfulness_report(action: SelfSimilarAction) -> FaithfulnessReport:
    grp, graph = action.group, action.graph
    pairs = _trivial_pairs(action)
    identity_pairs = {(grp.identity, v) for v in graph.vertices}
    faithful = pairs == frozenset(identity_pairs)

    # the quotient by no vertex is the action itself
    strongly = faithful
    for h in filter(None, hereditary_invariant_sets(action)):
        if not strongly:
            break
        sub = quotient_action(action, h)
        sub_identity = {(grp.identity, v) for v in sub.graph.vertices}
        strongly = _trivial_pairs(sub) == frozenset(sub_identity)

    no_source_or_sink = all(
        graph.edges_into(v) and graph.edges_out(v) for v in graph.vertices
    )
    return FaithfulnessReport(
        faithful=faithful,
        strongly_faithful=strongly,
        trivial_pairs=pairs,
        hypothesis="met" if no_source_or_sink else "unmet-recorded",
    )


def strongly_fixed_finite(action: SelfSimilarAction, g: int) -> Decision:
    """Is the set of paths strongly fixed by g (fixed pointwise with trivial
    restriction) finite?  Decided once per action for every g and kept on
    it (``_strongly_fixed_decisions``)."""
    return action._strongly_fixed[g]


def _strongly_fixed_decisions(action: SelfSimilarAction) -> dict:
    """``strongly_fixed_finite`` for each group element, over one successor
    map of the states and one set of the states that reach acceptance.

    States are (group element, next range vertex); an edge is enabled when
    the current element fixes it; a walk accepts when the element has been
    restricted down to the identity.  The path set is infinite exactly when
    some state on an enabled cycle lies on an accepting walk.
    """
    grp, graph = action.group, action.graph
    nodes = [(h, v) for h in range(grp.size) for v in graph.vertices]
    succ = {node: [] for node in nodes}
    pred = {node: [] for node in nodes}
    for h in range(grp.size):
        for i, e in enumerate(graph.edges):
            if action.act_edge(h, e.eid) == e.eid:
                nxt = (action.restrict(h, e.eid), e.src)
                succ[(h, e.rng)].append((nxt, i))
                pred[nxt].append((h, e.rng))
    targets = {node: [nxt for nxt, _ in out] for node, out in succ.items()}
    backward = reachable(pred, [(h, v) for h, v in nodes if h == grp.identity])
    return {g: _strongly_fixed_finite(action, g, succ, targets, backward)
            for g in range(grp.size)}


def _strongly_fixed_finite(action: SelfSimilarAction, g: int, succ: dict, targets: dict,
                           backward: set) -> Decision:
    """Infinite, witnessed by the least state of the core (reached from g,
    reaching acceptance) that reaches a cyclic component of it; else finite."""
    graph = action.graph
    core = reachable(targets, [(g, v) for v in graph.vertices]) & backward
    inner = {node: [nxt for nxt in targets[node] if nxt in core] for node in core}
    to_cycle = set()
    for component in strongly_connected_components(inner):
        if is_cyclic(component, inner) or any(
                nxt in to_cycle for node in component for nxt in inner[node]):
            to_cycle.update(component)
    if to_cycle:
        return Decision(False, min(to_cycle))

    # finite: the witnesses are the first strongly fixed paths, up to the cap
    witnesses = []
    stack = [((g, v), ()) for v in sorted(graph.vertices, reverse=True) if (g, v) in core]
    while stack and len(witnesses) < MAX_FIXED_PATH_WITNESSES:
        node, walk = stack.pop()
        if node[0] == action.group.identity:
            path = GraphPath(graph, walk, graph.edges[walk[-1]].src if walk else node[1])
            witnesses.append(path.describe())
        for nxt, i in succ[node]:
            if nxt in core:
                stack.append((nxt, walk + (i,)))
    return Decision(True, tuple(sorted(set(witnesses))))


def hausdorff_certificate(action: SelfSimilarAction) -> Decision:
    """Sufficient certificate: every non-identity group element has finitely
    many strongly fixed paths (the identity fixes everything, so it is
    exempt; its minimal fixed paths are just the vertices)."""
    for g in range(action.group.size):
        if g == action.group.identity:
            continue
        d = strongly_fixed_finite(action, g)
        if not d.value:
            return Decision(False, (action.group.labels[g], d.witness))
    return Decision(True)


def all_rees_ss(action: SelfSimilarAction) -> Decision:
    """Strong faithfulness together with condition (M)."""
    rep = faithfulness(action)
    if not rep.strongly_faithful:
        return Decision(False, "not strongly faithful")
    m = condition_M_ss(action)
    if not m.value:
        return Decision(False, ("condition_m", m.witness))
    return Decision(True)


# -- fixtures and parsing --------------------------------------------------------

def trivial_action(graph: DirectedGraph) -> SelfSimilarAction:
    grp = FiniteGroup.trivial()
    return SelfSimilarAction(
        group=grp,
        graph=graph,
        vertex_action={(0, v): v for v in graph.vertices},
        edge_action={(0, e.eid): e.eid for e in graph.edges},
        cocycle={(0, e.eid): 0 for e in graph.edges},
    )


def mirror_action() -> SelfSimilarAction:
    """Z/2 swapping the two loops of the rose with two petals, restricting to
    itself through either edge."""
    grp = FiniteGroup.cyclic(2)
    graph = two_loops()
    return SelfSimilarAction(
        group=grp,
        graph=graph,
        vertex_action={(0, 0): 0, (1, 0): 0},
        edge_action={(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"},
        cocycle={(0, "a"): 0, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1},
    )


def edge_swap_action() -> SelfSimilarAction:
    """Z/2 swapping two parallel edges of an acyclic doubled arrow; the
    cocycle collapses to the identity after one step.  Exact at depth 1."""
    grp = FiniteGroup.cyclic(2)
    graph = DirectedGraph((0, 1), (Edge("a", 0, 1), Edge("b", 0, 1)))
    return SelfSimilarAction(
        group=grp,
        graph=graph,
        vertex_action={(g, v): v for g in (0, 1) for v in (0, 1)},
        edge_action={(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"},
        cocycle={(g, e): 0 for g in (0, 1) for e in ("a", "b")},
    )


def vertex_swap_action() -> SelfSimilarAction:
    """Z/2 swapping the two sources of an acyclic join and the two edges with
    them; faithful, but the quotient killing the sources leaves a fixed
    isolated vertex, so not strongly faithful."""
    grp = FiniteGroup.cyclic(2)
    graph = DirectedGraph((0, 1, 2), (Edge("a", 0, 2), Edge("b", 1, 2)))
    return SelfSimilarAction(
        group=grp,
        graph=graph,
        vertex_action={(0, 0): 0, (0, 1): 1, (0, 2): 2,
                       (1, 0): 1, (1, 1): 0, (1, 2): 2},
        edge_action={(0, "a"): "a", (0, "b"): "b", (1, "a"): "b", (1, "b"): "a"},
        cocycle={(0, "a"): 0, (0, "b"): 0, (1, "a"): 1, (1, "b"): 1},
    )


def lazy_z2_action() -> SelfSimilarAction:
    """Z/2 acting trivially on the two-petal rose with trivial cocycle; valid
    but unfaithful."""
    grp = FiniteGroup.cyclic(2)
    graph = two_loops()
    return SelfSimilarAction(
        group=grp,
        graph=graph,
        vertex_action={(0, 0): 0, (1, 0): 0},
        edge_action={(0, "a"): "a", (0, "b"): "b", (1, "a"): "a", (1, "b"): "b"},
        cocycle={(0, "a"): 0, (0, "b"): 0, (1, "a"): 0, (1, "b"): 0},
    )


def action_from_json(obj: dict) -> SelfSimilarAction:
    if not isinstance(obj, dict):
        raise ParseError("action document must be an object")
    try:
        group = obj["group"]
        mul = tuple(tuple(json_int(x, "a group table entry") for x in row)
                    for row in group["mul"])
        identity = json_int(group["identity"], "the group identity")
        labels = _labels(group)
        grp = FiniteGroup(mul, identity, tuple(map(str, range(len(mul)))) if labels is None
                          else tuple(labels))
        graph = parse_graph(obj["graph"])
        n_vertices, n_edges = len(graph.vertices), len(graph.edges)

        def entry(table: str, g: int, i: int, bound: int) -> int:
            x = json_int(obj[table][g][i], f"{table}[{g}][{i}]")
            if not 0 <= x < bound:
                raise ParseError(f"bad action document: {table}[{g}][{i}] = {x} "
                                 f"is not in range({bound})")
            return x

        va = {(g, v): entry("vertex_action", g, v, n_vertices)
              for g in range(grp.size) for v in graph.vertices}
        ea = {(g, graph.edges[i].eid): graph.edges[entry("edge_action", g, i, n_edges)].eid
              for g in range(grp.size) for i in range(n_edges)}
        coc = {(g, graph.edges[i].eid): entry("cocycle", g, i, grp.size)
               for g in range(grp.size) for i in range(n_edges)}
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad action document: {exc}") from exc
    action = SelfSimilarAction(grp, graph, va, ea, coc)
    validate_action(action)
    return action
