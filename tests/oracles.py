"""Brute-force or superseded versions of library routines, kept as test
oracles: the all-pairs closure of partial bijections, the n^3 associativity
loop, the any()-scan natural order, the down-set of an element by a scan of
S, and table validation with the direct scan for a second inverse
(``isgw.core``); the path-pair product of the
graph inverse semigroup, the condition (M) scans for graphs and for
actions with reachability by passes over the edges, conditions (L) and (K)
by listing simple cycles and counting first-return paths, acyclicity and
the longest path by recursion, the cycle of the strongly fixed path
automaton by a recursive search, the axioms of an action checked on path
objects (``validate_action_by_paths``), and the mask loops over hereditary vertex
sets and hereditary invariant vertex sets (``isgw.graphs``,
``isgw.selfsimilar``); the
elements of a triple model as ``SSTriple`` records of path objects sorted by
their path keys, and its product table by ``triple_multiply`` on them (``isgw.selfsimilar``);
principal ideals of every element,
SXS and the ideal test of the Rees congruence over all products, and the
least saturated ideal over given idempotents (``isgw.ideals_filters``,
``isgw.congruences``); the order ideals of E, invariance, saturation, hull,
kernel, basic sets, ultrafilters and tight filters by ``leq`` loops instead
of bitsets (``isgw.ideals_filters``, ``isgw.verify``); mu by the conjugation of every idempotent and
the homomorphism test over all pairs of elements (``isgw.relations``); the
D-classes of E by a union-find of a*a with aa*, the filter orbits by the
conjugation of every filter, and the unit orbits of a groupoid by a
union-find over its arrows (``isgw.ideals_filters``, ``isgw.groupoid``); the double arrow by down-set intersections, the
compatibility test over all products and the congruence closure saturated
by all elements, the congruence lattice by joins of whole congruences, and
the flags of a congruence read off its classes (``isgw.congruences``); the
classes of a class map by grouping and sorting (``isgw.relations``); the
closure of a groupoid's arrows over all pairs and strong effectiveness by one reduction per union of unit orbits
(``isgw.groupoid``); every downset of a poset by recursion and every
subset of a collection by masks, where the library takes unions of a
generating family (``isgw.util``); covers, the 0-disjunctive property,
atoms, orthogonality and the trapping condition by ``leq`` and ``meet``
loops over the carrier instead of bitsets (``isgw.semilattice``); the census of small
semilattices that builds and canonicalizes a semigroup for every intersection-closed family
(``isgw.corpus``); and three loops of the verify checks: the
hull-kernel statements over every family of filters as frozensets, the
mu-path criterion over all ordered pairs of triples, and the quotient-action
match with a rebuilt model for every vertex set and its product test over
all pairs (``isgw.verify``).

The first section holds operations that only the tests use, kept here so
that ``src/isgw`` holds only what the command line reaches
(``tests/test_reach.py``): the natural order by its definition (``leq``),
grouping into classes (``group_by``), the product, emptiness and label of partial
bijections (``compose``, ``is_empty``, ``describe``), the prefix test,
tail, one-edge path and concatenation of graph paths (``has_prefix``,
``strip_prefix``, ``edge_path``, ``concat``), the action of a group element
on path objects by recursion on its defining rule (``act_on_path``, the
oracle of the action table ``_path_tables``), triples of path
objects (``SSTriple``), read off a model's id triples (``triple_at``,
``triple_index``), with their product and inverse (``triple_multiply``,
``triple_inverse``), the least saturated order ideal over a set
(``saturate``), the unit orbits of a groupoid as the D-classes inside
its units (``unit_orbits``), and the dict of a report (``report_dict``),
whose ``dumps`` is the oracle of ``Report.to_json``.  ``is_groupoid_by_definition`` checks the groupoid axioms,
which ``FiniteGroupoid`` leaves unchecked because its groupoids are ones by
construction.
"""

import itertools

from isgw import congruences as cg
from isgw import ideals_filters as ifl
from isgw import selfsimilar as ss
from isgw.congruences import congruence_closure, make_congruence
from isgw.core import PartialBijection, from_tables
from isgw.errors import (
    AxiomViolation,
    CapExceeded,
    InternalContract,
    NotAssociative,
    NotInverse,
    Overflow,
    ParseError,
)
from isgw.graphs import (
    GraphPath,
    HereditarySet,
    _is_saturated_vertex_set,
    is_hereditary,
    paths_up_to,
    vertex_path,
)
from isgw.groupoid import reduction
from isgw.ideals_filters import ideal_generated, ideal_trace
from isgw.report import SCHEMA_VERSION, jsonable
from isgw.selfsimilar import ZERO, g_independent_edges, vertex_orbits
from isgw.semilattice import Semilattice
from isgw.util import Decision, Record, UnionFind, set_field


# -- operations that only the tests use ----------------------------------------

def leq(s, x, y) -> bool:
    """The natural order by its definition: x = y*e for some idempotent e."""
    return any(s.product(y, e) == x for e in s.idempotents)


def group_by(items, key) -> list:
    """Classes of items with equal key, as frozensets sorted by least member."""
    buckets = {}
    for a in items:
        buckets.setdefault(key(a), set()).add(a)
    return sorted((frozenset(c) for c in buckets.values()), key=min)


def compose(f, g):
    """The product f*g of two partial bijections: (f*g)(x) = f(g(x))."""
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    return PartialBijection(f.degree, tuple(None if y is None else f.image[y] for y in g.image))


def is_empty(p) -> bool:
    return all(y is None for y in p.image)


def describe(p) -> str:
    """The label the closure gives an unnamed partial bijection: "0" for the
    empty map, else "[x>y,...]" over the points where it is defined."""
    if is_empty(p):
        return "0"
    return "[" + ",".join(f"{x}>{y}" for x, y in enumerate(p.image) if y is not None) + "]"


def has_prefix(path, other) -> bool:
    """True when path = other * tail (other sits at the range end)."""
    k = len(other.edges)
    if k == 0:
        return path.rng == other.src
    return path.edges[:k] == other.edges


def strip_prefix(path, other):
    """The tail t of path = other * t."""
    if not has_prefix(path, other):
        raise ParseError("not a prefix")
    return GraphPath(path.graph, path.edges[other.length:], path.src)


def edge_path(graph, i):
    """The path of edge i alone."""
    return GraphPath(graph, (i,), graph.edges[i].src)


def concat(path, other):
    """The path path * other (other on the source side)."""
    if path.src != other.rng:
        raise ParseError("paths do not compose")
    return GraphPath(path.graph, path.edges + other.edges, other.src)


def act_on_path(action, g, path) -> tuple:
    """Image path and restriction cocycle of g along the whole path, by
    recursion on path objects.

    A vertex goes to its image vertex with cocycle g itself; a path e*beta
    goes to (g e) * (phi(g, e) beta) with the cocycle restricted through e
    first and then along beta.  The identity fixes every path with cocycle
    itself.
    """
    if g == action.group.identity:
        return path, g
    if path.length == 0:
        return vertex_path(action.graph, action.act_vertex(g, path.src)), g
    top = action.graph.edges[path.edges[0]]
    ge = action.act_edge(g, top.eid)
    h = action.restrict(g, top.eid)
    rest = GraphPath(action.graph, path.edges[1:], path.src)
    image_rest, final = act_on_path(action, h, rest)
    return concat(edge_path(action.graph, action.edge_index(ge)), image_rest), final


class SSTriple(Record):
    """(alpha, g, beta) with source(alpha) = g * source(beta), on path
    objects."""

    __slots__ = ("alpha", "g", "beta")

    def __init__(self, alpha: GraphPath, g: int, beta: GraphPath):
        set_field(self, "alpha", alpha)
        set_field(self, "g", g)
        set_field(self, "beta", beta)

    def sort_key(self):
        return (self.alpha.sort_key(), self.g, self.beta.sort_key())

    def describe(self, action) -> str:
        """(alpha,g,beta); over the trivial group, the graph label (alpha,beta)."""
        if action.group.size == 1:
            return f"({self.alpha.describe()},{self.beta.describe()})"
        return f"({self.alpha.describe()},{action.group.labels[self.g]},{self.beta.describe()})"


def triples_by_sorting(action, depth) -> list:
    """The nonzero elements of the depth-``depth`` triple model: every
    ``SSTriple`` over ``paths_up_to`` that meets the source condition,
    sorted by its path keys."""
    paths = paths_up_to(action.graph, depth)
    triples = [SSTriple(alpha, g, beta) for alpha in paths for g in range(action.group.size)
               for beta in paths if alpha.src == action.act_vertex(g, beta.src)]
    return sorted(triples, key=SSTriple.sort_key)


def triple_at(model, i):
    """Element i of a triple model on path objects: ZERO, or the SSTriple
    of its id triple."""
    if i == 0:
        return ZERO
    alpha, g, beta = model.elements[i]
    return SSTriple(model.paths[alpha], g, model.paths[beta])


def triple_index(model, t) -> int:
    """The position in a triple model of the SSTriple t."""
    return model.index[(model.paths.index(t.alpha), t.g, model.paths.index(t.beta))]


def triple_inverse(action, t):
    return SSTriple(t.beta, action.group.inverse(t.g), t.alpha)


def triple_multiply(action, t1, t2, depth=None):
    """Product of two triples on the path objects; None encodes zero.  With
    a depth bound, a product needing a longer path raises Overflow instead
    of truncating."""
    grp = action.group
    alpha, g, beta = t1.alpha, t1.g, t1.beta
    gamma, h, nu = t2.alpha, t2.g, t2.beta
    if has_prefix(gamma, beta):
        g_tail, coc = act_on_path(action, g, strip_prefix(gamma, beta))
        new_alpha = concat(alpha, g_tail)
        if depth is not None and new_alpha.length > depth:
            raise Overflow(f"product path length {new_alpha.length} > depth {depth}")
        out = SSTriple(new_alpha, grp.product(coc, h), nu)
    elif has_prefix(beta, gamma):
        h_tail, coc = act_on_path(action, grp.inverse(h), strip_prefix(beta, gamma))
        new_beta = concat(nu, h_tail)
        if depth is not None and new_beta.length > depth:
            raise Overflow(f"product path length {new_beta.length} > depth {depth}")
        out = SSTriple(alpha, grp.product(g, grp.inverse(coc)), new_beta)
    else:
        return None
    if out.alpha.src != action.act_vertex(out.g, out.beta.src):
        raise InternalContract("triple product broke the membership condition")
    return out


def saturate(lattice, x) -> frozenset:
    """Least saturated order ideal containing x, on the library's masks."""
    return frozenset(lattice.members(ifl._saturated_mask(lattice, lattice.mask(x))))


def unit_orbits(g) -> tuple:
    """The D-classes inside the units of g: every arrow u of S with source
    u*u among them is an arrow of g, so the orbits are whole classes."""
    return tuple(c for c in ifl.d_classes(g.s) if c <= frozenset(g.units))


def downsets(elements: list, leq, cap: int = 1_000_000):
    """Yield every downward-closed subset of a finite poset.

    Elements are processed in an order compatible with ``leq`` (fewer elements
    below first), so a candidate may be included exactly when everything
    strictly below it is already in.  Only valid downsets are generated, the
    empty set included.
    """
    order = sorted(elements, key=lambda x: sum(1 for y in elements if leq(y, x)))
    below = {x: [y for y in order if y != x and leq(y, x)] for x in order}
    count = 0

    def rec(i: int, current: set):
        nonlocal count
        if i == len(order):
            count += 1
            if count > cap:
                raise CapExceeded(f"more than {cap} downsets")
            yield frozenset(current)
            return
        x = order[i]
        yield from rec(i + 1, current)
        if all(y in current for y in below[x]):
            current.add(x)
            yield from rec(i + 1, current)
            current.remove(x)

    yield from rec(0, set())


def subsets(items: list):
    """All subsets of a small collection, in a deterministic order."""
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def all_pairs_closure(generators, labels=None):
    """(mul, inv, zero, labels) of the closure, as the semigroup core built
    it with validated PartialBijection products: each round multiplies
    every known element a by every element b found in the previous round,
    a*b before b*a."""
    gens = list(generators)
    name_of = {}
    for g, name in zip(gens, labels or ()):
        name_of.setdefault(g, name)
    order = []
    index = {}

    def add(p):
        if p in index:
            return False
        index[p] = len(order)
        order.append(p)
        return True

    for g in gens:
        for h in (g, g.inverse()):
            add(h)
    frontier = list(order)
    while frontier:
        fresh = []
        for a in order[:]:
            for b in frontier:
                for p in (compose(a, b), compose(b, a)):
                    if add(p):
                        fresh.append(p)
        frontier = fresh
    empty = PartialBijection.empty(gens[0].degree)
    add(empty)
    n = len(order)
    mul = tuple(tuple(index[compose(order[a], order[b])] for b in range(n)) for a in range(n))
    inv = tuple(index[p.inverse()] for p in order)
    return mul, inv, index[empty], tuple(name_of.get(p, describe(p)) for p in order)


def cubic_associativity_failure(mul):
    """First (a, b, c) in lexicographic order with (a*b)*c != a*(b*c), or None."""
    n = len(mul)
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return a, b, c
    return None


def any_scan_order(mul, idempotents):
    """leq[s][t] is True iff s = t*e for some idempotent e."""
    n = len(mul)
    return tuple(tuple(any(mul[t][e] == s for e in idempotents) for t in range(n))
                 for s in range(n))


def down_by_scan(order, s: int) -> tuple:
    """The t <= s of a NaturalOrder, ascending, by a scan of every element:
    t <= s iff s*dom(t) = t."""
    row = order.mul[s]
    return tuple(t for t, d in enumerate(order.dom) if row[d] == t)


def validate_by_scans(mul, inv, zero):
    """The semigroup core's invariant checks, in its order, by brute force;
    the table must be square with entries in range.  Raises what the core
    raises, with the same message except for NotAssociative, whose witness
    triple may differ."""
    n = len(mul)
    for s in range(n):
        if mul[zero][s] != zero or mul[s][zero] != zero:
            raise NotInverse(f"designated zero is not absorbing at {s}")
    bad = cubic_associativity_failure(mul)
    if bad is not None:
        raise NotAssociative("({}*{})*{} != {}*({}*{})".format(*bad, *bad))
    for s in range(n):
        t = inv[s]
        if mul[mul[s][t]][s] != s or mul[mul[t][s]][t] != t:
            raise NotInverse(f"inv table wrong at element {s}")
        if inv[t] != s:
            raise NotInverse(f"involution not self-inverse at {s}")
    for s in range(n):
        candidates = [t for t in range(n)
                      if mul[mul[s][t]][s] == s and mul[mul[t][s]][t] == t]
        if len(candidates) != 1:
            raise NotInverse(f"element {s} has {len(candidates)} generalized inverses")
        if candidates[0] != inv[s]:
            raise NotInverse(f"inv table disagrees with the unique inverse at {s}")
    idems = [e for e in range(n) if mul[e][e] == e]
    for e, f in itertools.combinations(idems, 2):
        if mul[e][f] != mul[f][e]:
            raise NotInverse(f"idempotents {e} and {f} do not commute")


def graph_pair_semigroup(g, depth):
    """(mul, inv, labels) of the truncated graph inverse semigroup, built on
    path pairs (alpha, beta) with a common source: zero first, then the pairs
    in (alpha, beta) path order.  Raises Overflow when a product needs a
    path longer than the depth."""
    paths = paths_up_to(g, depth)
    pairs = sorted(((a, b) for a in paths for b in paths if a.src == b.src),
                   key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
    elements = ["0"] + pairs
    index = {x: i for i, x in enumerate(elements)}

    def product(i, j):
        if i == 0 or j == 0:
            return 0
        (alpha, beta), (gamma, nu) = elements[i], elements[j]
        if has_prefix(gamma, beta):
            new_alpha = concat(alpha, strip_prefix(gamma, beta))
            if new_alpha.length > depth:
                raise Overflow(f"product needs a path of length {new_alpha.length}")
            return index[(new_alpha, nu)]
        if has_prefix(beta, gamma):
            new_beta = concat(nu, strip_prefix(beta, gamma))
            if new_beta.length > depth:
                raise Overflow(f"product needs a path of length {new_beta.length}")
            return index[(alpha, new_beta)]
        return 0

    n = len(elements)
    mul = [[product(i, j) for j in range(n)] for i in range(n)]
    inv = [0] + [index[(b, a)] for a, b in pairs]
    labels = ["0"] + [f"({a.describe()},{b.describe()})" for a, b in pairs]
    return mul, inv, labels


def triple_table_by_objects(truncated):
    """Rows of the product table of a triple model, every entry by
    ``triple_multiply`` on the triple objects: an element index, 0 for
    zero, or None where the product needs a path longer than the depth."""
    elements = [triple_at(truncated, i) for i in range(len(truncated.elements))]
    index = {x: i for i, x in enumerate(elements)}
    rows = []
    for i, t1 in enumerate(elements):
        row = []
        for j, t2 in enumerate(elements):
            if i == 0 or j == 0:
                row.append(0)
                continue
            try:
                out = triple_multiply(truncated.action, t1, t2, depth=truncated.depth)
            except Overflow:
                row.append(None)
                continue
            row.append(0 if out is None else index[out])
        rows.append(tuple(row))
    return tuple(rows)


def _closure_by_passes(starts, arrows) -> set:
    """The nodes reached from starts along the (tail, head) pairs, by
    passes over every pair until one adds nothing."""
    seen = set(starts)
    grown = True
    while grown:
        grown = False
        for tail, head in arrows:
            if tail in seen and head not in seen:
                seen.add(head)
                grown = True
    return seen


def _reachable_by_passes(g, starts, forbidden=frozenset()) -> set:
    """Vertices reached from starts by walks that enter no forbidden vertex."""
    return _closure_by_passes(starts, [(e.src, e.rng) for e in g.edges
                                       if e.rng not in forbidden])


def _condition_m_scan(graph, edge_ids, starts_of):
    for eid in edge_ids:
        i = next(k for k, e in enumerate(graph.edges) if e.eid == eid)
        e = graph.edges[i]
        reach = _reachable_by_passes(graph, starts_of(e.src))
        if not any(f.src in reach for j, f in enumerate(graph.edges)
                   if j != i and f.rng == e.rng):
            return False, eid
    return True, None


def is_acyclic_by_recursion(g):
    """Depth-first search with three colours, one recursive call per vertex."""
    color = {v: 0 for v in g.vertices}

    def dfs(v):
        color[v] = 1
        for i in g.edges_out(v):
            w = g.edges[i].rng
            if color[w] == 1 or (color[w] == 0 and not dfs(w)):
                return False
        color[v] = 2
        return True

    return all(color[v] or dfs(v) for v in g.vertices)


def longest_path_length_by_recursion(g):
    """Edge count of the longest path of an acyclic graph, memoised per
    vertex, one recursive call per vertex."""
    memo = {}

    def best(v):
        if v not in memo:
            memo[v] = max((1 + best(g.edges[i].rng) for i in g.edges_out(v)), default=0)
        return memo[v]

    return max((best(v) for v in g.vertices), default=0)


def _simple_cycles(g) -> list:
    """Vertex-simple directed cycles as edge-index tuples in walk order,
    enumerated from the least vertex of each cycle."""
    out = []
    for base in sorted(g.vertices):
        stack = [(base, ())]
        while stack:
            v, walk = stack.pop()
            for i in g.edges_out(v):
                e = g.edges[i]
                if e.rng == base:
                    out.append(walk + (i,))
                elif e.rng > base and all(g.edges[j].rng != e.rng for j in walk):
                    stack.append((e.rng, walk + (i,)))
    return out


def condition_l_by_simple_cycles(g):
    """(value, witness) of graph condition (L) by listing every simple
    cycle: the first one whose vertices all have in-degree below two fails."""
    for cycle in _simple_cycles(g):
        if all(g.in_degree(g.edges[i].rng) < 2 for i in cycle):
            return False, tuple(g.edges[i].eid for i in cycle)
    return True, None


def _on_cycle_avoiding(g, w, avoid) -> bool:
    """Does w lie on a directed cycle that never visits the vertex avoid?"""
    for i in g.edges_out(w):
        e = g.edges[i]
        if e.rng == avoid:
            continue
        if e.rng == w or w in _reachable_by_passes(g, {e.rng}, forbidden={avoid}):
            return True
    return False


def _first_return_count(g, v) -> int:
    """Number of return paths at v that avoid v in between; 2 stands for
    'two or more' (pumping an inner cycle yields infinitely many)."""
    simple = []
    stack = [(v, ())]
    while stack:
        u, walk = stack.pop()
        for i in g.edges_out(u):
            e = g.edges[i]
            if e.rng == v:
                simple.append(walk + (i,))
                if len(simple) >= 2:
                    return 2
            elif all(g.edges[j].rng != e.rng for j in walk):
                stack.append((e.rng, walk + (i,)))
    if not simple:
        return 0
    walk = simple[0]
    interior = {g.edges[i].rng for i in walk[:-1]} | {g.edges[i].src for i in walk}
    interior.discard(v)
    return 2 if any(_on_cycle_avoiding(g, w, v) for w in interior) else 1


def condition_k_by_first_returns(g):
    """(value, witness) of graph condition (K) by counting the first-return
    paths at each vertex, in the order of ``g.vertices``."""
    for v in g.vertices:
        if _first_return_count(g, v) == 1:
            return False, v
    return True, None


def strongly_fixed_by_recursion(action, g):
    """(value, witness) of ``strongly_fixed_finite`` when the path set is
    infinite, and (True, None) when it is finite: the core of the state
    automaton by passes over its arrows, and its cycles by a recursive
    three-colour search from each state of the core in sorted order."""
    grp, graph = action.group, action.graph
    arrows = [((h, e.rng), (action.restrict(h, e.eid), e.src))
              for h in range(grp.size) for e in graph.edges
              if action.act_edge(h, e.eid) == e.eid]
    forward = _closure_by_passes({(g, v) for v in graph.vertices}, arrows)
    backward = _closure_by_passes({(grp.identity, v) for v in graph.vertices},
                                  [(head, tail) for tail, head in arrows])
    core = forward & backward
    color = {}

    def has_cycle(node):
        color[node] = 1
        for tail, head in arrows:
            if tail != node or head not in core:
                continue
            if color.get(head) == 1 or (color.get(head) is None and has_cycle(head)):
                return True
        color[node] = 2
        return False

    for node in sorted(core):
        if color.get(node) is None and has_cycle(node):
            return False, node
    return True, None


def condition_m_graph_scan(g):
    """(value, witness) of condition (M) on a bare graph, edge by edge."""
    return _condition_m_scan(g, [e.eid for e in g.edges], lambda v: (v,))


def condition_m_action_scan(action):
    """(value, witness) of condition (M) for an action, scanning only the
    orbit-independent edges."""
    orbits = vertex_orbits(action)
    return _condition_m_scan(action.graph, g_independent_edges(action),
                             orbits.__getitem__)


def hereditary_sets_by_masks(g):
    """All hereditary vertex sets with their saturation flags, smallest
    first, by a test of every one of the 2^|V| vertex subsets."""
    out = []
    vs = sorted(g.vertices)
    for mask in range(1 << len(vs)):
        h = frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
        if is_hereditary(g, h):
            out.append(HereditarySet(h, _is_saturated_vertex_set(g, h)))
    return sorted(out, key=lambda h: (len(h.vertices), tuple(sorted(h.vertices))))


def hereditary_invariant_masks(action):
    """Hereditary group-invariant vertex sets, by a loop over all subsets."""
    graph = action.graph
    vs = sorted(graph.vertices)
    out = []
    for mask in range(1 << len(vs)):
        h = frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
        if not is_hereditary(graph, h):
            continue
        if any(action.act_vertex(g, v) not in h for v in h for g in range(action.group.size)):
            continue
        out.append(h)
    return sorted(out, key=lambda h: (len(h), tuple(sorted(h))))


def principal_ideal_by_products(s, a):
    """SaS, as the set of all products x*a*y (row y of the table of x*a)."""
    return frozenset().union(*(s.mul[s.product(x, a)] for x in s.elements()))


def sxs_by_products(s, x):
    """SXS, as the set of all products a*e*b with e in X."""
    return frozenset().union(*(s.mul[s.product(a, e)] for e in x for a in s.elements()))


def principal_ideals_by_products(s):
    """The distinct principal ideals SaS over all elements a."""
    return {principal_ideal_by_products(s, a) for a in s.elements()}


def ideals_by_unions(s):
    """Every ideal of S: the zero ideal and all unions of principal ideals."""
    principals = principal_ideals_by_products(s)
    found = {frozenset({s.zero})}
    frontier = list(found)
    while frontier:
        fresh = []
        for ideal in frontier:
            for p in principals:
                u = ideal | p
                if u not in found:
                    found.add(u)
                    fresh.append(u)
        frontier = fresh
    return found


def finite_cover_witnesses_by_leq(s):
    """Each ideal's set of idempotents mapped to its minimal nonzero
    members, ascending, by ``leq`` loops."""
    out = {}
    for ideal in ideals_by_unions(s):
        x = [e for e in s.idempotents if e in ideal and e != s.zero]
        out[frozenset(x) | {s.zero}] = tuple(
            e for e in x if not any(f != e and leq(s, f, e) for f in x))
    return out


def saturated_ideal_generated(s, seed):
    """Least saturated ideal of S containing the given idempotents: alternate
    two-sided ideal generation with semilattice saturation to a fixed point."""
    lattice = Semilattice.from_semigroup(s)
    x = frozenset(seed) | {s.zero}
    while True:
        members = ideal_generated(s, x)
        trace = ideal_trace(s, members)
        x2 = saturate_by_leq(lattice, trace)
        if x2 == trace:
            assert saturate_by_leq(lattice, x2) == x2, "saturation failed to be idempotent"
            return members
        x = x2


# -- the idempotent semilattice by leq loops ----------------------------------

def below(lattice, e):
    """The f <= e in the carrier (zero included), ascending, by ``leq``."""
    return [f for f in lattice.elements if leq(lattice.parent, f, e)]


def is_cover_by_leq(lattice, e, members, *, require_below=False):
    """e -> C by a scan of the carrier: every nonzero x <= e meets some
    member; with require_below, every member is <= e as well.  The witness
    is the first failure in the order of the carrier and of the members."""
    members = [c for c in members if c != lattice.zero]
    if require_below and any(not leq(lattice.parent, c, e) for c in members):
        bad = next(c for c in members if not leq(lattice.parent, c, e))
        return Decision(False, ("member_not_below", bad))
    for x in below(lattice, e):
        if x == lattice.zero:
            continue
        if all(lattice.parent.product(x, c) == lattice.zero for c in members):
            return Decision(False, x)
    return Decision(True)


def _under(lattice, e):
    return [f for f in below(lattice, e) if f != e and f != lattice.zero]


def is_0_disjunctive_by_leq(lattice):
    """Between any 0 < e < f sits a nonzero e' < f orthogonal to e; the
    witness is the first failing pair (e, f) in the order of the carrier."""
    for f in lattice.nonzero():
        for e in _under(lattice, f):
            found = any(
                ep != lattice.zero and ep != f and lattice.parent.product(ep, e) == lattice.zero
                for ep in below(lattice, f)
            )
            if not found:
                return Decision(False, (e, f))
    return Decision(True)


def atoms_by_leq(lattice):
    """The nonzero elements with nothing nonzero strictly below them."""
    return tuple(e for e in lattice.nonzero() if not _under(lattice, e))


def orthogonals_by_leq(lattice):
    """f -> the elements of the carrier whose meet with f is the zero."""
    return {f: frozenset(e for e in lattice.elements if lattice.parent.product(e, f) == lattice.zero)
            for f in lattice.elements}


def trapping_by_leq(lattice):
    """The definition: each nonzero f < e has a finite set D of nonzero
    x <= e orthogonal to f with e -> D + {f}.  Covers only grow with their
    members and the carrier is finite, so D may be taken to be every such x;
    the witness is the first failing pair (f, e) in the order of the
    carrier."""
    for e in lattice.nonzero():
        for f in _under(lattice, e):
            d = [x for x in below(lattice, e)
                 if x != lattice.zero and lattice.parent.product(x, f) == lattice.zero]
            if not is_cover_by_leq(lattice, e, d + [f]).value:
                return Decision(False, (f, e))
    return Decision(True)


def tight_filters_separate_by_leq(lattice):
    """The separating element: each tight filter (an ultrafilter) of the
    basic set of e and C, the filters holding e and no member of C, holds
    an x <= e orthogonal to every member of C.  The filter of m is in that
    basic set iff m <= e and m <= c for no c in C, and x only gets harder to
    find as C grows, so C may be taken to be every c above which m does not
    lie.  The witness is the first failing pair (m, e) in the order of E."""
    tight = [m for m in lattice.nonzero() if is_ultra_by_leq(lattice, m)]
    for e in lattice.nonzero():
        for m in tight:
            if not leq(lattice.parent, m, e):
                continue
            excluded = [c for c in lattice.elements if not leq(lattice.parent, m, c)]
            if not any(leq(lattice.parent, m, x) and leq(lattice.parent, x, e)
                       and all(lattice.parent.product(x, c) == lattice.zero for c in excluded)
                       for x in lattice.elements):
                return Decision(False, (m, e))
    return Decision(True)


def order_ideals_by_leq(lattice):
    """All nonempty downward-closed subsets of the carrier (each contains
    0), smallest first, by the downset recursion over ``leq``."""
    s = lattice.parent
    out = [x | {lattice.zero}
           for x in downsets(list(lattice.nonzero()), lambda x, y: leq(s, x, y))]
    return sorted({frozenset(x) for x in out}, key=lambda x: (len(x), tuple(sorted(x))))


def is_invariant_order_ideal_by_products(s, x):
    """aa* in X forces a*a in X, over every element a."""
    for a in s.elements():
        if s.product(a, s.star(a)) in x and s.product(s.star(a), a) not in x:
            return False
    return True


def saturate_by_leq(lattice, x):
    """Least saturated order ideal containing x: keep adding every element
    whose down-set is covered from inside the set, by ``is_cover_by_leq`` calls."""
    current = set(x) | {lattice.zero}
    changed = True
    while changed:
        changed = False
        for e in lattice.nonzero():
            if e in current:
                continue
            members = [c for c in below(lattice, e) if c in current and c != lattice.zero]
            if members and is_cover_by_leq(lattice, e, members, require_below=True).value:
                current.add(e)
                changed = True
    return frozenset(current)


def hull_by_leq(lattice, x):
    """Minima of the filters disjoint from x, ascending."""
    return tuple(m for m in sorted(lattice.nonzero())
                 if not any(leq(lattice.parent, m, e) for e in x))


def kernel_by_leq(lattice, filter_mins):
    """Idempotents missed by every filter in the family."""
    return frozenset(e for e in lattice.elements
                     if not any(leq(lattice.parent, m, e) for m in filter_mins))


def basic_set_by_leq(lattice, e, excluded=()):
    """Filter minima m with m <= e and m <= x for no excluded x."""
    return tuple(m for m in sorted(lattice.nonzero())
                 if leq(lattice.parent, m, e) and not any(leq(lattice.parent, m, x) for x in excluded))


def is_ultra_by_leq(lattice, m):
    """No nonzero f outside the filter of m meets every member of it."""
    members = [e for e in lattice.elements if leq(lattice.parent, m, e)]
    for f in lattice.nonzero():
        if leq(lattice.parent, m, f):
            continue
        if all(lattice.parent.product(f, e) != lattice.zero for e in members):
            return False
    return True


def tight_by_is_cover(lattice, m):
    """No cover of a member of the filter of m avoids the filter."""
    for e in lattice.elements:
        if not leq(lattice.parent, m, e):
            continue
        outside = [x for x in below(lattice, e)
                   if x != lattice.zero and not leq(lattice.parent, m, x)]
        if outside and is_cover_by_leq(lattice, e, outside, require_below=True).value:
            return False
    return True


def mu_by_conjugation(s):
    """Partition of mu: a ~ b iff a e a* = b e b* for every idempotent e,
    each conjugate formed by two products."""
    def key(a):
        sa = s.star(a)
        return tuple(s.product(s.product(a, e), sa) for e in s.idempotents)

    return tuple(group_by(s.elements(), key))


def is_homomorphism_by_all_pairs(source, target, m):
    """Whether the map is a homomorphism of inverse semigroups with zero:
    in range, m(ab) = m(a)m(b) for all n^2 pairs, m(0) = 0 and m(a*) =
    m(a)*."""
    if len(m) != source.n or any(not 0 <= x < target.n for x in m):
        return False
    elements = source.elements()
    if any(m[source.product(a, b)] != target.product(m[a], m[b])
           for a in elements for b in elements):
        return False
    return m[source.zero] == target.zero and all(
        m[source.star(a)] == target.star(m[a]) for a in elements)


def is_ideal_by_products(s, members):
    """Whether the Rees congruence accepts the set: it contains the zero and
    a*i*b stays inside for every a, b in S and i in the set."""
    members = frozenset(members)
    if s.zero not in members:
        return False
    return all(members.issuperset(s.mul[s.product(a, i)])
               for a in s.elements() for i in members)


def double_arrow_by_intersections(s):
    """Partition of the double-arrow relation, with a -> b iff every nonzero
    x below a has a nonzero common lower bound with b; n^2 set intersections.
    Raises AssertionError if the relation is not transitive."""
    order = s.order()
    down = [set(order.down(a)) - {s.zero} for a in s.elements()]

    def arrow(a, b):
        return all(down[x] & down[b] for x in down[a])

    n = s.n
    related = [[arrow(a, b) and arrow(b, a) for b in range(n)] for a in range(n)]
    dsu = UnionFind(n)
    for a in range(n):
        for b in range(a + 1, n):
            if related[a][b]:
                dsu.union(a, b)
    for a in range(n):
        for b in range(n):
            assert (dsu.find(a) == dsu.find(b)) == related[a][b], (a, b)
    return frozenset(group_by(range(n), dsu.find))


def is_compatible_by_products(s, index):
    """Whether a ~ b (equal ``index``) implies c*a ~ c*b and a*c ~ b*c for
    every c in S: O(n^3) products."""
    for a in s.elements():
        for b in s.elements():
            if index[a] != index[b]:
                continue
            for c in s.elements():
                if index[s.product(c, a)] != index[s.product(c, b)]:
                    return False
                if index[s.product(a, c)] != index[s.product(b, c)]:
                    return False
    return True


def congruence_closure_by_saturation(s, pairs):
    """Partition of the least congruence containing the pairs: union-find
    saturated by multiplying every class by every element until nothing
    changes."""
    dsu = UnionFind(s.n)
    for a, b in pairs:
        dsu.union(a, b)
    changed = True
    while changed:
        changed = False
        buckets = {}
        for a in s.elements():
            buckets.setdefault(dsu.find(a), []).append(a)
        for members in buckets.values():
            base = members[0]
            for b in members[1:]:
                for c in s.elements():
                    if dsu.union(s.product(c, base), s.product(c, b)):
                        changed = True
                    if dsu.union(s.product(base, c), s.product(b, c)):
                        changed = True
    return frozenset(group_by(range(s.n), dsu.find))


def strong_effectiveness_by_all_unions(g):
    """Strong effectiveness of a groupoid by one reduction per union of unit
    orbits, in order of size and then of orbits: the first union whose
    reduction has a unit with nontrivial isotropy, with that unit and
    arrow, fails it."""
    orbits = unit_orbits_by_arrows(g)
    for k in range(len(orbits) + 1):
        for combo in itertools.combinations(orbits, k):
            subset = frozenset().union(*combo) if combo else frozenset()
            h = reduction(g, subset)
            for m in h.units:
                for u in h.isotropy(m):
                    if u != m:
                        return Decision(False, (subset, (m, u)))
    return Decision(True)


def unit_orbits_by_arrows(g):
    """The unit orbits of a groupoid by one union-find over every arrow u,
    joining its source u*u with its range uu*, both formed by products."""
    s = g.s
    dsu = UnionFind(s.n)
    for u in g.arrows:
        dsu.union(s.product(s.star(u), u), s.product(u, s.star(u)))
    return tuple(group_by(g.units, dsu.find))


def d_class_minima_by_union_find(s):
    """The least idempotent of each D-class, ascending: a*a D a D aa*, so
    one union-find pass joining a*a with aa* for every element a."""
    dsu = UnionFind(s.n)
    for a in s.elements():
        dsu.union(s.product(s.star(a), a), s.product(a, s.star(a)))
    return tuple(min(c) for c in group_by(s.idempotents, dsu.find))


def filter_orbits_by_conjugation(s):
    """The orbits of the conjugation action on the filters, by their minima:
    m joined with a m a* for every element a and every nonzero idempotent
    m <= a*a, O(n*|E|) products."""
    mins = [e for e in s.idempotents if e != s.zero]
    dsu = UnionFind(s.n)
    for a in s.elements():
        dom = s.product(s.star(a), a)
        for m in mins:
            if s.product(dom, m) == m:
                dsu.union(m, s.product(s.product(a, m), s.star(a)))
    return group_by(mins, dsu.find)


def is_closed_by_all_pairs(g):
    """Whether v*u is an arrow of the groupoid for every pair of arrows with
    the source of v equal to the range of u."""
    arrows = set(g.arrows)
    return all(g.s.product(v, u) in arrows
               for u in g.arrows for v in g.arrows if g.source(v) == g.range(u))


def is_groupoid_by_definition(g) -> bool:
    """Whether the units and arrows of g form a groupoid inside its
    semigroup: the units are nonzero idempotents, each its own identity
    arrow; no arrow is zero, each has source u*u and range uu* among the
    units, and its inverse is an arrow; and the arrows are closed under
    composition over all pairs."""
    s = g.s
    units, arrows = set(g.units), set(g.arrows)

    def is_arrow(u) -> bool:
        source, range_ = s.product(s.star(u), u), s.product(u, s.star(u))
        return (u != s.zero and g.source(u) == source and g.range(u) == range_
                and source in units and range_ in units and s.star(u) in arrows)

    return (all(s.is_idempotent(m) and m != s.zero and m in arrows for m in units)
            and all(map(is_arrow, arrows)) and is_closed_by_all_pairs(g))


def _join(s, rho, sigma):
    """Join in the congruence lattice; for semigroup congruences the
    transitive closure of the union is already compatible."""
    dsu = UnionFind(s.n)
    for c in rho.classes + sigma.classes:
        first = min(c)
        for b in c:
            dsu.union(first, b)
    return make_congruence(s, dsu.find)


def classes_by_grouping(n, rep_of):
    """(classes, class_index) of a class map by grouping 0..n-1 on the key
    and sorting the classes by least member."""
    classes = tuple(group_by(range(n), rep_of))
    index = [0] * n
    for i, c in enumerate(classes):
        for a in c:
            index[a] = i
    return classes, tuple(index)


def congruence_flags_by_definition(s, classes):
    """(Rees, 0-restricted, idempotent-separating) read off the classes:
    every class without 0 is a singleton; the class of 0 is {0}; no class
    holds two idempotents."""
    zero_class = next(c for c in classes if s.zero in c)
    return (all(len(c) == 1 for c in classes if c is not zero_class),
            zero_class == {s.zero},
            all(sum(map(s.is_idempotent, c)) <= 1 for c in classes))


def congruence_lattice_by_joins(s):
    """The congruence lattice as all joins of principal congruences, each
    join a new union-find over the classes of both sides, sorted by
    decreasing class count and then by class index."""
    principals = []
    seen_p = set()
    for a, b in itertools.combinations(range(s.n), 2):
        p = make_congruence(s, congruence_closure(s, [(a, b)]).__getitem__)
        if p.class_index not in seen_p:
            seen_p.add(p.class_index)
            principals.append(p)

    equality = make_congruence(s, lambda a: a)
    found = {equality.class_index: equality}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for rho in frontier:
            for p in principals:
                j = _join(s, rho, p)
                if j.class_index not in found:
                    found[j.class_index] = j
                    fresh.append(j)
        frontier = fresh
    return sorted(found.values(), key=lambda r: (-len(r.classes), r.class_index))


def _family_semigroup(sets):
    ordered = sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))
    idx = {s: i for i, s in enumerate(ordered)}
    mul = [[idx[a & b] for b in ordered] for a in ordered]
    labels = ["0" if not s else "{" + "".join(map(str, sorted(s))) + "}" for s in ordered]
    return from_tables(mul, list(range(len(ordered))), 0, labels=labels)


def _canonical_table(s):
    """The least relabelled table over all permutations that send the zero
    to 0."""
    n = s.n
    best = None
    for perm in itertools.permutations(range(n)):
        if perm[s.zero] != 0:
            continue
        table = tuple(
            tuple(perm[s.mul[a][b]] for b in sorted(range(n), key=perm.__getitem__))
            for a in sorted(range(n), key=perm.__getitem__)
        )
        if best is None or table < best:
            best = table
    return best


def small_semilattices_by_semigroups(max_size=5):
    """The census of small semilattices, building, validating and
    canonicalizing a semigroup for every intersection-closed family."""
    points = (0, 1, 2, 3)
    nonempty = [frozenset(c)
                for k in range(1, 5)
                for c in itertools.combinations(points, k)]
    out = {}
    for k in range(0, max_size):
        for combo in itertools.combinations(nonempty, k):
            family = frozenset(combo) | {frozenset()}
            if all(a & b in family for a in family for b in family):
                s = _family_semigroup(tuple(family))
                key = _canonical_table(s)
                if key not in out:
                    out[key] = s
    return [out[k] for k in sorted(out)]


def hull_kernel_pool_by_sets(s, rng):
    """The counterexamples of ``hull_kernel_expansion`` and
    ``kernel_of_tight_family_is_saturated`` (None where a statement holds),
    by one hull and kernel of frozensets per family of the pool.  The pool
    is every family of filters when there are at most 10 minima, else 30
    drawn from rng as the verify check draws them."""
    lattice = Semilattice.from_semigroup(s)
    space = ifl.filter_space(lattice)
    mins = list(space.mins)
    pool = list(subsets(mins)) if len(mins) <= 10 else [
        frozenset(rng.sample(mins, rng.randint(0, len(mins)))) for _ in range(30)]
    expansion = next((a for a in pool if not frozenset(a) <= frozenset(
        ifl.hull(lattice, ifl.kernel(lattice, a)))), None)
    saturated = next((a & space.tight for a in pool if not ifl.is_saturated_order_ideal(
        lattice, ifl.kernel(lattice, a & space.tight))), None)
    return expansion, saturated


def validate_action_by_paths(action, depth=ss.VALIDATION_DEPTH) -> dict:
    """``validate_action`` on path objects: the same checks in the same
    order, with every image computed anew by ``act_on_path`` and every split
    of a path built again as two path objects."""
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

    for g in gs:
        for e in graph.edges:
            j = action.edge_index(action.act_edge(g, e.eid))
            if graph.edges[j].rng != action.act_vertex(g, e.rng):
                raise AxiomViolation("E4", (g, e.eid))
            if graph.edges[j].src != action.act_vertex(g, e.src):
                raise AxiomViolation("E5", (g, e.eid))

    for g in gs:
        for e in graph.edges:
            h = action.restrict(g, e.eid)
            for x in graph.vertices:
                if action.act_vertex(h, x) != action.act_vertex(g, x):
                    raise AxiomViolation("E6", (g, e.eid, x))

    for g in gs:
        if len({action.act_vertex(g, v) for v in graph.vertices}) != len(graph.vertices):
            raise AxiomViolation("E1", ("vertex bijection", g))
        if len({action.act_edge(g, e.eid) for e in graph.edges}) != len(graph.edges):
            raise AxiomViolation("E1", ("edge bijection", g))

    paths = paths_up_to(graph, depth)
    checked = 0
    for g in gs:
        for h in gs:
            gh = grp.product(g, h)
            for p in paths:
                hp, hc = act_on_path(action, h, p)
                ghp_direct, ghc_direct = act_on_path(action, gh, p)
                g_hp, g_hc = act_on_path(action, g, hp)
                if ghp_direct != g_hp:
                    raise AxiomViolation("E1", (g, h, p.describe()))
                if ghc_direct != grp.product(g_hc, hc):
                    raise AxiomViolation("E2", (g, h, p.describe()))
                checked += 1
    for g in gs:
        for p in paths:
            img, coc = act_on_path(action, g, p)
            if img.length != p.length:
                raise AxiomViolation("E7", ("length", g, p.describe()))
            if img.rng != action.act_vertex(g, p.rng):
                raise AxiomViolation("E4", (g, p.describe()))
            if img.src != action.act_vertex(g, p.src):
                raise AxiomViolation("E5", (g, p.describe()))
            for x in graph.vertices:
                if action.act_vertex(coc, x) != action.act_vertex(g, x):
                    raise AxiomViolation("E6", (g, p.describe(), x))
            for k in range(p.length + 1):
                alpha = GraphPath(graph, p.edges[:k],
                                  graph.edges[p.edges[k - 1]].src if k else p.rng)
                beta = GraphPath(graph, p.edges[k:], p.src)
                ga, ca = act_on_path(action, g, alpha)
                gb, cb = act_on_path(action, ca, beta)
                if concat(ga, gb) != img:
                    raise AxiomViolation("E7", (g, p.describe(), k))
                if cb != coc:
                    raise AxiomViolation("E8", (g, p.describe(), k))
                checked += 1
    return {"paths": len(paths), "checks": checked, "depth": depth}


def mu_path_failure_by_all_pairs(action, truncated, mu):
    """The first ordered pair of nonzero triples with equal alpha and beta
    on which mu disagrees with "g and h act alike on every path into the
    source of beta", described; or None.  Visits all ordered pairs and acts
    on the paths anew for each."""
    paths_to = {}
    for p in paths_up_to(action.graph, action.graph.longest_path_length()):
        paths_to.setdefault(p.rng, []).append(p)
    elements = [triple_at(truncated, i) for i in range(len(truncated.elements))]
    for i in range(1, len(elements)):
        for j in range(1, len(elements)):
            t1, t2 = elements[i], elements[j]
            if t1.alpha != t2.alpha or t1.beta != t2.beta:
                continue
            agree = all(
                act_on_path(action, t1.g, gamma)[0] == act_on_path(action, t2.g, gamma)[0]
                for gamma in paths_to.get(t1.beta.src, ()))
            if mu.same(i, j) != agree:
                return t1.describe(action), t2.describe(action)
    return None


def quotient_action_failure_by_all_pairs(action, truncated, s, ideals):
    """The first vertex set, sorted, whose Rees quotient by its ideal does
    not match the model of the quotient action, rebuilt for every set, the
    empty one included; the map is tested on all pairs of elements."""
    for v_set, ideal in ideals.items():
        q = cg.rees_quotient(s, ideal)
        sub_action = ss.quotient_action(action, v_set)
        sub_trunc = ss.ss_semigroup(sub_action, truncated.depth)
        if not _rees_quotient_matches_by_all_pairs(truncated, q, sub_action, sub_trunc,
                                                   sub_trunc.to_inverse_semigroup(), v_set):
            return sorted(v_set)
    return None


def _rees_quotient_matches_by_all_pairs(truncated, q, sub_action, sub_trunc, sub_s, v_set):
    if q.quotient.n != sub_s.n:
        return False
    elements = [triple_at(truncated, i) for i in range(len(truncated.elements))]
    index_of = {e.eid: i for i, e in enumerate(sub_action.graph.edges)}

    def transplant(path):
        eids = (path.graph.edges[i].eid for i in path.edges)
        return GraphPath(sub_action.graph, tuple(index_of[x] for x in eids), path.src)

    def project(i):
        if i == 0 or elements[i].alpha.src in v_set:
            return 0
        t = elements[i]
        return triple_index(sub_trunc, SSTriple(transplant(t.alpha), t.g, transplant(t.beta)))

    mapping = {}
    for i in range(len(elements)):
        qi, pi = q.projection[i], project(i)
        if qi in mapping and mapping[qi] != pi:
            return False
        mapping[qi] = pi
    if sorted(mapping) != list(range(q.quotient.n)):
        return False
    if sorted(set(mapping.values())) != list(range(sub_s.n)):
        return False
    return all(mapping[q.quotient.product(x, y)] == sub_s.product(mapping[x], mapping[y])
               for x in range(q.quotient.n) for y in range(q.quotient.n))


def report_dict(report) -> dict:
    """The dict of a report, field by field, that ``Report.to_json`` writes
    through ``dumps`` without building it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": report.instance,
        "properties": {
            k: {"value": p.value, "witness": p.witness, "hypothesis": p.hypothesis}
            for k, p in sorted(report.properties.items())
        },
        "theorems": {
            k: {
                "status": t.status,
                "hypothesis": t.hypothesis,
                "detail": t.detail,
                "counterexample": jsonable(t.counterexample),
            }
            for k, t in sorted(report.theorems.items())
        },
    }
