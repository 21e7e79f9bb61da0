import pytest

from isgw.corpus import fixture_graphs
from isgw.errors import DanglingEndpoint, NotHereditary, Overflow, ParseError
from isgw.graphs import (
    DirectedGraph,
    Edge,
    GraphPath,
    graph_conditions,
    graph_semigroup,
    hereditary_sets,
    parse_graph,
    paths_up_to,
    quotient_graph,
    single_arrow,
    single_loop,
    two_loops,
    vertex_path,
)
from oracles import (
    SSTriple,
    concat,
    edge_path,
    has_prefix,
    strip_prefix,
    triple_at,
    triple_index,
)


def test_parse_graph():
    g = parse_graph({"vertices": 2, "edges": [{"id": "x", "src": 0, "rng": 1}]})
    assert g.vertices == (0, 1)
    assert g.in_degree(1) == 1
    with pytest.raises(ParseError):
        parse_graph({"edges": []})
    with pytest.raises(DanglingEndpoint):
        parse_graph({"vertices": 1, "edges": [{"id": "x", "src": 0, "rng": 3}]})
    with pytest.raises(ParseError):
        parse_graph({"vertices": 1, "edges": [
            {"id": "x", "src": 0, "rng": 0}, {"id": "x", "src": 0, "rng": 0}]})


def test_path_machinery():
    g = parse_graph({"vertices": 3, "edges": [
        {"id": "x", "src": 0, "rng": 1}, {"id": "y", "src": 1, "rng": 2}]})
    yx = GraphPath(g, (1, 0), 0)  # y after x: range 2, source 0
    assert yx.rng == 2 and yx.src == 0 and yx.length == 2
    y = edge_path(g, 1)
    x = edge_path(g, 0)
    assert concat(y, x) == yx
    assert has_prefix(yx, y)
    assert strip_prefix(yx, y) == x
    assert has_prefix(yx, vertex_path(g, 2))
    assert strip_prefix(yx, vertex_path(g, 2)) == yx
    assert not has_prefix(yx, x)
    with pytest.raises(ParseError):
        concat(x, y)  # wrong way round
    assert yx.describe() == "yx"


def test_paths_up_to():
    g = single_loop()
    assert [p.describe() for p in paths_up_to(g, 3)] == ["v0", "e", "ee", "eee"]
    a2 = single_arrow()
    assert sorted(p.describe() for p in paths_up_to(a2, 2)) == ["v0", "v1", "x"]


EXPECTED_CONDITIONS = {
    "L1": (False, False, False),
    "R2": (True, True, True),
    "A2": (True, True, False),
    "C2": (False, False, False),
    "C2E": (True, False, False),
    "D2": (True, True, True),
    "CH3": (True, True, False),
    "T2": (True, True, False),
    "F8": (True, True, False),
}


def test_fixture_graph_conditions():
    for name, g in fixture_graphs():
        c = graph_conditions(g)
        got = (c.condition_l.value, c.condition_k.value, c.condition_m.value)
        assert got == EXPECTED_CONDITIONS[name], name


def test_condition_witnesses():
    c = graph_conditions(single_loop())
    assert c.condition_l.witness == ("e",)
    assert c.condition_k.witness == 0
    assert c.condition_m.witness == "e"


def test_hereditary_sets_a2():
    out = hereditary_sets(single_arrow())
    as_pairs = [(sorted(h.vertices), h.saturated) for h in out]
    assert as_pairs == [([], True), ([0], False), ([0, 1], True)]


def test_hereditary_sets_trivial():
    assert [sorted(h.vertices) for h in hereditary_sets(two_loops())] == [[], [0]]


def test_quotient_graph():
    a2 = single_arrow()
    q = quotient_graph(a2, {0})
    assert q.vertices == (1,) and q.edges == ()
    assert quotient_graph(a2, set()).edges == a2.edges
    with pytest.raises(NotHereditary):
        quotient_graph(a2, {1})


def test_graph_semigroup_a2_exact():
    ts = graph_semigroup(single_arrow(), 1)
    assert ts.exact
    assert len(ts.elements) == 6
    s = ts.to_inverse_semigroup()
    # (x, v0)(v0, x) = (x, x) and (v0, x)(x, v0) = (v0, v0)
    paths = {p.describe(): p for p in paths_up_to(single_arrow(), 1)}
    i_xu = triple_index(ts, SSTriple(paths["x"], 0, paths["v0"]))
    i_ux = triple_index(ts, SSTriple(paths["v0"], 0, paths["x"]))
    assert s.product(i_xu, i_ux) == triple_index(ts, SSTriple(paths["x"], 0, paths["x"]))
    assert s.product(i_ux, i_xu) == triple_index(ts, SSTriple(paths["v0"], 0, paths["v0"]))
    assert s.star(i_xu) == i_ux
    # disjoint sources annihilate
    i_vv = triple_index(ts, SSTriple(paths["v1"], 0, paths["v1"]))
    assert s.product(i_vv, triple_index(ts, SSTriple(paths["v0"], 0, paths["v0"]))) == s.zero


def test_graph_semigroup_single_vertex():
    g = DirectedGraph((0,), ())
    ts = graph_semigroup(g, 1)
    assert len(ts.elements) == 2  # zero and (v, v)
    assert ts.to_inverse_semigroup().n == 2


def test_truncated_overflow():
    ts = graph_semigroup(single_loop(), 2)
    assert not ts.exact
    paths = {p.describe(): p for p in paths_up_to(single_loop(), 2)}
    ev = triple_index(ts, SSTriple(paths["e"], 0, paths["v0"]))
    eev = ts.product(ev, ev)
    assert triple_at(ts, eev).alpha.describe() == "ee"
    with pytest.raises(Overflow):
        ts.product(eev, ev)
    with pytest.raises(Overflow):
        ts.to_inverse_semigroup()


def test_exact_semigroup_idempotents_are_path_pairs():
    ts = graph_semigroup(single_arrow(), 1)
    s = ts.to_inverse_semigroup()
    idems = {s.labels[e] for e in s.idempotents}
    assert idems == {"0", "(v0,v0)", "(v1,v1)", "(x,x)"}


def test_theta_graph_conditions():
    # two cycles sharing a vertex through a middle vertex each way
    g = DirectedGraph((0, 1, 2), (
        Edge("p", 0, 1), Edge("q", 1, 0), Edge("r", 1, 2), Edge("s", 2, 1)))
    c = graph_conditions(g)
    # every base vertex has at least two return paths (pumping the other cycle)
    assert c.condition_k.value
    assert c.condition_l.value  # vertex 1 has in-degree 2


def test_feeding_cycle_does_not_give_second_return():
    # loop at 0, loop at 1, edge from 1 into 0: the loop at 0 is still the
    # unique first-return path at 0, and the loop at 1 has no entrance
    g = DirectedGraph((0, 1), (
        Edge("a", 0, 0), Edge("b", 1, 1), Edge("c", 1, 0)))
    c = graph_conditions(g)
    assert not c.condition_k.value and c.condition_k.witness in (0, 1)
    assert not c.condition_l.value
    assert c.condition_l.witness == ("b",)


def test_parallel_loops_counted_separately():
    c = graph_conditions(two_loops())
    assert c.condition_k.value  # two distinct one-edge returns
