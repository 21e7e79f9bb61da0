import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from isgw.core import InverseSemigroup, _check_associative
from isgw.corpus import builtin_corpus, fixture_actions, fixture_graphs
from isgw import selfsimilar as ss
from isgw.errors import AxiomViolation, CapExceeded, NotAssociative, NotInvariant, Overflow
from isgw.graphs import (
    DirectedGraph,
    Edge,
    GraphPath,
    condition_k_graph,
    condition_l_graph,
    condition_m_graph,
    graph_conditions,
    graph_semigroup,
    hereditary_sets,
    paths_up_to,
    quotient_graph,
    single_arrow,
    single_loop,
    two_loops,
    vertex_path,
)
from isgw.selfsimilar import (
    MAX_FIXED_PATH_WITNESSES,
    FiniteGroup,
    SelfSimilarAction,
    action_from_json,
    all_rees_ss,
    condition_M_ss,
    edge_swap_action,
    exact_model,
    faithfulness,
    g_independent_edges,
    hausdorff_certificate,
    hereditary_invariant_sets,
    lazy_z2_action,
    mirror_action,
    quotient_action,
    ss_semigroup,
    strongly_fixed_finite,
    _validation_stats,
    trivial_action,
    validate_action,
    vertex_swap_action,
)

from oracles import (
    SSTriple,
    act_on_path,
    condition_k_by_first_returns,
    condition_l_by_simple_cycles,
    condition_m_action_scan,
    condition_m_graph_scan,
    graph_pair_semigroup,
    hereditary_invariant_masks,
    hereditary_sets_by_masks,
    is_acyclic_by_recursion,
    longest_path_length_by_recursion,
    strongly_fixed_by_recursion,
    triple_at,
    triple_index,
    triple_inverse,
    triple_multiply,
    triples_by_sorting,
    validate_action_by_paths,
)
from test_cli import SWAP_LADDER_DOC


@pytest.fixture(scope="module")
def mirror():
    return mirror_action()


def test_mirror_validates_to_depth_four(mirror):
    stats = validate_action(mirror)
    assert stats["depth"] == 4
    assert stats["checks"] > 0


def test_trivial_actions_validate():
    for g in (single_loop(), two_loops(), single_arrow()):
        validate_action(trivial_action(g))


def test_broken_cocycle_raises():
    bad = mirror_action()
    cocycle = dict(bad.cocycle)
    cocycle[(1, "b")] = 0  # restriction through b forgets the twist
    bad = SelfSimilarAction(bad.group, bad.graph, bad.vertex_action,
                            bad.edge_action, cocycle)
    with pytest.raises(AxiomViolation) as err:
        validate_action(bad)
    assert err.value.axiom in ("E1", "E2")


def test_act_on_path_mirror(mirror):
    g = mirror.graph
    ab = GraphPath(g, (0, 1), 0)  # a on top of b
    img, coc = act_on_path(mirror, 1, ab)
    assert img.describe() == "ba"
    assert coc == 1  # restriction is still the swap
    img0, coc0 = act_on_path(mirror, 0, ab)
    assert img0 == ab and coc0 == 0
    v = vertex_path(g, 0)
    imgv, cocv = act_on_path(mirror, 1, v)
    assert imgv == v and cocv == 1


def test_triple_multiply_mirror(mirror):
    g = mirror.graph
    v = vertex_path(g, 0)
    a = GraphPath(g, (0,), 0)
    b = GraphPath(g, (1,), 0)
    t_vv = SSTriple(v, 1, v)
    one_av = SSTriple(a, 0, v)
    out = triple_multiply(mirror, t_vv, one_av)
    assert out == SSTriple(b, 1, v)
    # idempotent vertex triple is neutral on itself
    e_vv = SSTriple(v, 0, v)
    assert triple_multiply(mirror, e_vv, e_vv) == e_vv


def test_triple_multiply_disjoint_is_zero():
    a2 = trivial_action(single_arrow())
    g = a2.graph
    u, v = vertex_path(g, 0), vertex_path(g, 1)
    assert triple_multiply(a2, SSTriple(u, 0, u), SSTriple(v, 0, v)) is None


def test_triple_multiply_second_branch(mirror):
    g = mirror.graph
    v = vertex_path(g, 0)
    a = GraphPath(g, (0,), 0)
    # (v,t,a)(v,1,v): beta = a extends gamma = v, so the second case fires
    t1 = SSTriple(v, 1, a)
    t2 = SSTriple(v, 0, v)
    out = triple_multiply(mirror, t1, t2)
    assert out == t1
    # and the involution identity (xy)* = y*x* holds on this product

    lhs = triple_inverse(mirror, out)
    rhs = triple_multiply(mirror, triple_inverse(mirror, t2),
                          triple_inverse(mirror, t1))
    assert lhs == rhs


def test_ss_semigroup_counts(mirror):
    assert len(ss_semigroup(mirror, 0).elements) == 3  # zero + (v,1,v) + (v,t,v)
    depth1 = ss_semigroup(mirror, 1)
    # all 3 paths share the lone vertex, every (alpha, g, beta) qualifies
    assert len(depth1.elements) == 1 + 3 * 2 * 3
    assert not depth1.exact


def _graph(n, pairs):
    return DirectedGraph(tuple(range(n)),
                         tuple(Edge(f"e{k}", a, b) for k, (a, b) in enumerate(pairs)))


@st.composite
def graphs(draw, max_vertices=5, max_edges=7, acyclic=False):
    """Small multigraphs with loops; acyclic ones orient every edge upward."""
    n = draw(st.integers(1, max_vertices))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=max_edges))
    if acyclic:
        pairs = [(a, b) for a, b in pairs if a < b]
    return _graph(n, pairs)


def swap_double(n, pairs):
    """Z/2 swapping v and v + n on 2n vertices.  Each drawn edge (a, b) comes
    with its image under the swap, and the cocycle is the group element
    itself, so the group acts by graph automorphisms."""
    flip = lambda v: (v + n) % (2 * n)  # noqa: E731
    edges = [Edge(f"e{k}", a, b) for k, (a, b) in enumerate(pairs)]
    edges += [Edge(f"f{k}", flip(a), flip(b)) for k, (a, b) in enumerate(pairs)]
    k = len(pairs)
    twin = {e.eid: f.eid for e, f in zip(edges, edges[k:] + edges[:k])}
    graph = DirectedGraph(tuple(range(2 * n)), tuple(edges))
    return SelfSimilarAction(
        group=FiniteGroup.cyclic(2),
        graph=graph,
        vertex_action={(t, v): flip(v) if t else v for t in (0, 1) for v in graph.vertices},
        edge_action={(t, e.eid): twin[e.eid] if t else e.eid for t in (0, 1) for e in edges},
        cocycle={(t, e.eid): t for t in (0, 1) for e in edges},
    )


@st.composite
def doubled_actions(draw):
    n = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, 2 * n - 1), st.integers(0, 2 * n - 1)),
                          max_size=4))
    return swap_double(n, pairs)


def _assert_table_matches_recursion(action, depth):
    """``act[g][p]`` of the action table is the image id and cocycle that
    the recursion ``act_on_path`` gives on path objects, for every g and p."""
    paths = tuple(paths_up_to(action.graph, depth))
    ids = {p: k for k, p in enumerate(paths)}
    act = ss._path_tables(action, paths).act
    assert len(act) == action.group.size
    for g in range(action.group.size):
        image_ids = [(ids[image], cocycle) for image, cocycle in
                     (act_on_path(action, g, p) for p in paths)]
        assert list(act[g]) == image_ids, (g, depth)


def test_action_table_matches_recursion_on_fixture_actions():
    actions = fixture_actions()
    assert len(actions) == 7
    for _, action in actions:
        for depth in range(5):
            _assert_table_matches_recursion(action, depth)


@settings(max_examples=60, deadline=None)
@given(graphs(), doubled_actions())
def test_action_table_matches_recursion_on_random_actions(g, a):
    for action in (trivial_action(g), a):
        for depth in range(5):
            _assert_table_matches_recursion(action, depth)


def _validation_outcome(validate, action, depth):
    try:
        return validate(action, depth)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=4, max_edges=5), doubled_actions(), st.integers(0, 4), st.data())
def test_validation_matches_path_object_oracle_on_one_entry_mutations(g, a, depth, data):
    """One entry of one table moved to any value in its range: the table
    validation returns the oracle's stats, or fails the same axiom at the
    same witness."""
    action = data.draw(st.sampled_from(
        [trivial_action(g), a] + [x for _, x in fixture_actions()]))
    table = data.draw(st.sampled_from(["vertex_action", "edge_action", "cocycle"]))
    entries = dict(getattr(action, table))
    if entries:
        values = {"vertex_action": action.graph.vertices,
                  "edge_action": [e.eid for e in action.graph.edges],
                  "cocycle": range(action.group.size)}[table]
        entries[data.draw(st.sampled_from(sorted(entries)))] = data.draw(st.sampled_from(values))
    tables = {"vertex_action": action.vertex_action, "edge_action": action.edge_action,
              "cocycle": action.cocycle, table: entries}
    mutated = SelfSimilarAction(action.group, action.graph, **tables)
    assert (_validation_outcome(_validation_stats, mutated, depth)
            == _validation_outcome(validate_action_by_paths, mutated, depth))


def _assert_matches_pair_oracle(g):
    depth = max(1, g.longest_path_length())
    s = graph_semigroup(g, depth).to_inverse_semigroup()
    mul, inv, labels = graph_pair_semigroup(g, depth)
    assert [list(row) for row in s.mul] == mul
    assert list(s.inv) == inv
    assert list(s.labels) == labels


def test_ss_semigroup_trivial_matches_graph():
    acyclic = [g for _, g in fixture_graphs() if g.is_acyclic()]
    assert len(acyclic) == 4
    for g in acyclic:
        _assert_matches_pair_oracle(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=4, max_edges=5, acyclic=True))
def test_graph_semigroup_matches_pair_oracle_on_random_graphs(g):
    _assert_matches_pair_oracle(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=6, max_edges=9), graphs(max_vertices=6, max_edges=9, acyclic=True))
def test_topological_pass_matches_recursive_oracles_on_random_graphs(g, dag):
    for h in (g, dag):
        acyclic = is_acyclic_by_recursion(h)
        assert h.is_acyclic() == acyclic
        if acyclic:
            assert h.longest_path_length() == longest_path_length_by_recursion(h)
    assert dag.is_acyclic()


def _assert_cap_counts_the_model(action, depth=None):
    """The count checked against the cap is the size of the model (the
    exact one, or the one at the given depth): with the cap lowered to 0
    the refusal names it."""
    def build():
        return exact_model(action) if depth is None else ss_semigroup(action, depth)

    model = build()
    if model is None:
        return
    with mock.patch.object(ss, "DEFAULT_CLOSURE_CAP", 0):
        with pytest.raises(CapExceeded, match=f"has {len(model.elements)} elements,"):
            build()


def test_exact_model_cap_counts_the_fixture_models():
    for _, g in fixture_graphs():
        _assert_cap_counts_the_model(trivial_action(g))
    for _, a in fixture_actions():
        _assert_cap_counts_the_model(a)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=4, max_edges=5, acyclic=True), doubled_actions())
def test_exact_model_cap_counts_random_models(g, a):
    _assert_cap_counts_the_model(trivial_action(g))
    _assert_cap_counts_the_model(a)


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=4, max_edges=4), doubled_actions(), st.integers(1, 3))
def test_truncated_model_cap_counts_random_cyclic_models(g, a, depth):
    """Every drawn model is under the cap, so it is built: four edges at
    depth 3 give at most 1 + 85^2 triples (all loops at one vertex), and a
    doubled action at depth 2 at most 1 + 4 * 21^2."""
    _assert_cap_counts_the_model(trivial_action(g), depth)
    _assert_cap_counts_the_model(a, min(depth, 2))


def _assert_cycle_conditions_match(g):
    l, k = condition_l_graph(g), condition_k_graph(g)
    assert (l.value, l.witness) == condition_l_by_simple_cycles(g)
    assert (k.value, k.witness) == condition_k_by_first_returns(g)


def _assert_strongly_fixed_matches(action):
    for g in range(action.group.size):
        d = strongly_fixed_finite(action, g)
        assert (d.value, None if d.value else d.witness) == strongly_fixed_by_recursion(action, g)


def test_cycle_questions_match_oracles_on_fixtures():
    for _, g in fixture_graphs():
        _assert_cycle_conditions_match(g)
        _assert_strongly_fixed_matches(trivial_action(g))
    for _, a in fixture_actions():
        _assert_strongly_fixed_matches(a)


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=7, max_edges=10))
def test_cycle_conditions_match_enumeration_oracles_on_random_graphs(g):
    """(L) and (K) with their witnesses, on g and on its quotient graphs,
    whose vertex ids are not dense."""
    _assert_cycle_conditions_match(g)
    for h in hereditary_sets(g):
        _assert_cycle_conditions_match(quotient_graph(g, h.vertices))


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=6, max_edges=9), doubled_actions())
def test_strongly_fixed_matches_recursive_oracle_on_random_actions(g, a):
    _assert_strongly_fixed_matches(trivial_action(g))
    _assert_strongly_fixed_matches(a)


def _assert_model_matches_sorted_triples(action, depth):
    """The id triples of the depth-``depth`` model, read as path objects,
    are the old construction's sorted ``SSTriple`` list; ``describe`` gives
    its labels and ``index`` inverts ``elements``."""
    model = ss_semigroup(action, depth)
    triples = triples_by_sorting(action, depth)
    n = len(model.elements)
    assert [triple_at(model, i) for i in range(1, n)] == triples
    assert [model.describe(i) for i in range(n)] == ["0"] + [t.describe(action) for t in triples]
    assert len(model.index) == n and all(model.index[x] == i for i, x in enumerate(model.elements))


@settings(max_examples=100, deadline=None)
@given(graphs(), doubled_actions())
def test_model_elements_match_sorted_triples_on_random_actions(g, a):
    for action in (trivial_action(g), a):
        for depth in range(4):
            try:
                _assert_model_matches_sorted_triples(action, depth)
            except CapExceeded:  # a deeper model is no smaller
                break


def test_model_elements_match_sorted_triples_on_exact_builtin_models():
    models = [inst.meta["exact"] for inst in builtin_corpus()
              if inst.kind in ("graph", "action") and inst.meta.get("exact") is not None]
    assert len(models) >= 6
    for model in models:
        _assert_model_matches_sorted_triples(model.action, model.depth)


def _chain_model(k):
    return exact_model(trivial_action(_graph(k + 1, [(i, i + 1) for i in range(k)])))


def _size(model, i):
    """|alpha| + |beta| for element i of a triple model."""
    alpha, _, beta = model.elements[i]
    return model.paths[alpha].length + model.paths[beta].length


def _short_triples(model):
    """The triples with |alpha| + |beta| <= 1, vertices before edges, each
    part in index order: the hint a model gives Light's test."""
    size = {i: _size(model, i) for i in range(1, len(model.elements))}
    return [i for short in (0, 1) for i in size if size[i] == short]


def _generated(mul, gens):
    """Every product g1*g2*...*gk of the generators, by a search of the
    right Cayley graph."""
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        frontier = [y for x in frontier for y in (mul[x][g] for g in gens) if y not in seen]
        seen.update(frontier)
    return seen


def _ladder_model():
    return exact_model(action_from_json(SWAP_LADDER_DOC))


@pytest.mark.parametrize("build, count", [
    (lambda: _chain_model(5), 16), (lambda: _chain_model(10), 31), (_ladder_model, 10)],
    ids=["chain5", "chain10", "swap-ladder"])
def test_model_generators_are_short_triples(build, count):
    """Light's test runs over the vertices and edges of an exact model: the
    3k + 1 of them for a k-edge chain, where a scan in index order keeps 27
    and 77 elements at k = 5 and 10, and 10 of them for the edge-swap ladder
    (17 by index)."""
    model = build()
    s = model.to_inverse_semigroup()
    hint = _short_triples(model)
    assert len(s.generators) == count
    assert list(s.generators) == [i for i in hint if i in s.generators]
    if model.action.group.size == 1:
        assert list(s.generators) == hint


@pytest.mark.parametrize("mutate", [
    lambda model, hint: [i for i in hint if _size(model, i) == 1],
    lambda model, hint: hint[::-1],
    lambda model, hint: [next(i for i in range(1, len(model.elements)) if i not in hint)] + hint,
], ids=["edges-only", "reversed", "non-hint-first"])
def test_any_hint_keeps_light_test_sound(mutate):
    """Whatever indices the hint holds, the scan still visits every element:
    the table validates, the generators generate it, and a table with one
    entry changed gets the verdict of the unhinted test."""
    rng = random.Random(0)
    for model in (_chain_model(5), _ladder_model()):
        s = model.to_inverse_semigroup()
        hint = mutate(model, _short_triples(model))
        t = InverseSemigroup(s.mul, s.inv, s.zero, labels=s.labels, hint=hint)
        assert t.generators[0] == hint[0]
        assert _generated(t.mul, t.generators) == set(range(s.n))
        for _ in range(20):
            rows = [list(row) for row in s.mul]
            a, b, c = (rng.randrange(s.n) for _ in range(3))
            rows[a][b] = c
            mul = tuple(map(tuple, rows))
            assert _associative(mul, hint) == _associative(mul)


def _associative(mul, hint=()):
    try:
        _check_associative(mul, hint)
    except NotAssociative:
        return False
    return True


def test_model_keeps_one_table_alive_at_a_time():
    """Building the 286-element model of an 8-edge chain allocates little
    beyond what it keeps: each row becomes a tuple as it is filled, so no
    second n x n table is alive at once."""
    _chain_model(8).to_inverse_semigroup()  # first call outside the trace
    tracemalloc.start()
    try:
        s = _chain_model(8).to_inverse_semigroup()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = sys.getsizeof(s.mul) + sum(map(sys.getsizeof, s.mul))
    assert s.n == 286
    assert peak - retained <= 0.25 * table


def test_long_chains_and_cycles_need_no_recursion():
    """Every cycle question is answered without recursion: a chain of 1,500
    edges and a cycle of 1,500 vertices are past the interpreter's default
    recursion limit of 1,000 frames."""
    n = 1500
    chain = _graph(n + 1, [(i, i + 1) for i in range(n)])
    cycle = _graph(n, [(i, (i + 1) % n) for i in range(n)])
    c = graph_conditions(chain)
    assert (c.condition_l.value, c.condition_k.value, c.condition_m.witness) == (True, True, "e0")
    assert chain.is_acyclic() and chain.longest_path_length() == n
    d = strongly_fixed_finite(trivial_action(chain), 0)
    assert d.value and len(d.witness) == MAX_FIXED_PATH_WITNESSES
    c = graph_conditions(cycle)
    assert c.condition_l.witness == tuple(f"e{i}" for i in range(n))
    assert (c.condition_k.value, c.condition_k.witness) == (False, 0)
    assert not cycle.is_acyclic() and cycle.longest_path_length() == 0
    d = strongly_fixed_finite(trivial_action(cycle), 0)
    assert (d.value, d.witness) == (False, (0, 0))


def test_condition_m_and_hereditary_sets_match_oracles_on_fixtures():
    actions = [a for _, a in fixture_actions()] + [trivial_action(g) for _, g in fixture_graphs()]
    for a in actions:
        d = condition_M_ss(a)
        assert (d.value, d.witness) == condition_m_action_scan(a)
        assert hereditary_invariant_sets(a) == hereditary_invariant_masks(a)
    for _, g in fixture_graphs():
        d = condition_m_graph(g)
        assert (d.value, d.witness) == condition_m_graph_scan(g)
        assert hereditary_sets(g) == hereditary_sets_by_masks(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=7, max_edges=10))
def test_hereditary_sets_match_mask_oracle_on_random_graphs(g):
    assert hereditary_sets(g) == hereditary_sets_by_masks(g)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_condition_m_matches_oracles_on_random_graphs(g):
    d = condition_m_graph(g)
    assert (d.value, d.witness) == condition_m_graph_scan(g)
    a = trivial_action(g)
    m = condition_M_ss(a)
    assert (m.value, m.witness) == condition_m_action_scan(a) == (d.value, d.witness)
    assert hereditary_invariant_sets(a) == hereditary_invariant_masks(a)


@settings(max_examples=100, deadline=None)
@given(doubled_actions())
def test_condition_m_matches_oracles_on_random_actions(a):
    _validation_stats(a, 2)
    d = condition_M_ss(a)
    assert (d.value, d.witness) == condition_m_action_scan(a)
    assert hereditary_invariant_sets(a) == hereditary_invariant_masks(a)


def test_ss_semigroup_overflow(mirror):
    trunc = ss_semigroup(mirror, 1)
    g = mirror.graph
    a = GraphPath(g, (0,), 0)
    v = vertex_path(g, 0)
    i = triple_index(trunc, SSTriple(a, 0, v))
    with pytest.raises(Overflow):
        trunc.product(i, i)
    with pytest.raises(Overflow):
        trunc.to_inverse_semigroup()


def test_condition_m(mirror):
    assert condition_M_ss(mirror).value  # no independent edges, vacuous
    assert g_independent_edges(mirror) == ()
    l1 = trivial_action(single_loop())
    d = condition_M_ss(l1)
    assert not d.value and d.witness == "e"
    r2 = trivial_action(two_loops())
    assert condition_M_ss(r2).value


def test_hereditary_invariant_sets(mirror):
    assert hereditary_invariant_sets(mirror) == [frozenset(), frozenset({0})]
    a2 = trivial_action(single_arrow())
    assert hereditary_invariant_sets(a2) == [
        frozenset(), frozenset({0}), frozenset({0, 1})]


def test_quotient_action(mirror):
    full = quotient_action(mirror, set())
    assert full.graph.edges == mirror.graph.edges
    empty = quotient_action(mirror, {0})
    assert empty.graph.vertices == ()
    a2 = trivial_action(single_arrow())
    smaller = quotient_action(a2, {0})
    assert smaller.graph.vertices == (1,)
    with pytest.raises(NotInvariant):
        quotient_action(a2, {1})


def test_faithfulness(mirror):
    rep = faithfulness(mirror)
    assert rep.faithful and rep.strongly_faithful
    assert rep.trivial_pairs == {(0, 0)}
    assert rep.hypothesis == "met"

    triv = faithfulness(trivial_action(two_loops()))
    assert triv.faithful  # the trivial group is vacuously faithful

    lazy = faithfulness(lazy_z2_action())
    assert not lazy.faithful
    assert (1, 0) in lazy.trivial_pairs


def test_every_quotient_that_faithfulness_forms_is_a_valid_action(monkeypatch):
    """``quotient_action`` does not validate what it forms: the quotient
    of a valid action by a hereditary invariant set restricts its tables.
    Every quotient that ``faithfulness`` forms on the actions of the builtin
    corpus, SWAP-LADDER2 and the vertex-swap action passes validation."""
    formed = []
    monkeypatch.setattr(ss, "quotient_action", lambda a, v_set: (
        formed.append((a, v_set, quotient_action(a, v_set))) or formed[-1][2]))
    actions = [inst.action for inst in builtin_corpus(0) if inst.kind == "action"]
    for a in actions + [action_from_json(SWAP_LADDER_DOC), vertex_swap_action()]:
        validate_action(a)
        faithfulness(a)
    assert len(formed) == 7
    for a, v_set, sub in formed:
        assert validate_action(sub)["depth"] == 4, (a, v_set)


def test_faithfulness_with_source_vertex():
    rep = faithfulness(edge_swap_action())
    assert rep.hypothesis == "unmet-recorded"  # vertex 0 receives no edge
    assert not rep.faithful  # the swap fixes every path into the source


def test_strongly_fixed(mirror):
    assert strongly_fixed_finite(mirror, 1).value  # no strongly fixed paths
    d = strongly_fixed_finite(mirror, 0)
    assert not d.value  # the identity fixes the infinite path space
    assert hausdorff_certificate(mirror).value
    lazy = lazy_z2_action()
    # t fixes every edge and restricts to the identity at once, so every
    # nontrivial path is strongly fixed and the loops pump forever
    assert not strongly_fixed_finite(lazy, 1).value
    assert not hausdorff_certificate(lazy).value
    a2 = trivial_action(single_arrow())
    d = strongly_fixed_finite(a2, 0)
    assert d.value and set(d.witness) == {"v0", "v1", "x"}


def test_strongly_fixed_witnesses_stop_at_the_cap():
    """The identity strongly fixes every path of a chain of 40 diamonds,
    more than 2^40 of them, and none lies on a cycle: the walk stops at the
    cap instead of visiting them all."""
    pairs = []
    for i in range(40):
        top, left, right, bottom = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        pairs += [(top, left), (top, right), (left, bottom), (right, bottom)]
    d = strongly_fixed_finite(trivial_action(_graph(121, pairs)), 0)
    assert d.value and len(d.witness) == MAX_FIXED_PATH_WITNESSES == 200


def test_all_rees(mirror):
    assert all_rees_ss(mirror).value
    assert not all_rees_ss(trivial_action(single_loop())).value
    assert not all_rees_ss(trivial_action(single_arrow())).value
    assert not all_rees_ss(edge_swap_action()).value  # not strongly faithful


def test_group_validation():
    with pytest.raises(Exception):
        FiniteGroup(((0, 1), (1, 1)), 0, ("1", "t"))
    g = FiniteGroup.cyclic(3)
    assert g.inverse(1) == 2


def test_truncated_products_associative_where_defined(mirror):
    # depth 1 already exercises both product branches with nontrivial cocycle
    trunc = ss_semigroup(mirror, 1)
    n = len(trunc.elements)

    def safe(i, j):
        try:
            return trunc.product(i, j)
        except Overflow:
            return None

    import itertools

    for x, y, z in itertools.product(range(n), repeat=3):
        xy = safe(x, y)
        yz = safe(y, z)
        if xy is None or yz is None:
            continue
        left = safe(xy, z)
        right = safe(x, yz)
        if left is not None and right is not None:
            assert left == right, (x, y, z)


def test_truncated_involution_antihomomorphism(mirror):
    trunc = ss_semigroup(mirror, 2)
    n = len(trunc.elements)
    for x in range(n):
        assert trunc.involution(trunc.involution(x)) == x
    for x in range(n):
        for y in range(n):
            try:
                xy = trunc.product(x, y)
            except Overflow:
                continue
            assert trunc.involution(xy) == trunc.product(
                trunc.involution(y), trunc.involution(x))
