"""Triple semigroups over integer path tables against ``triple_multiply``
on the triple objects (tests/oracles.py, through ``triple_at``): every
exact builtin graph and action, the Z/2 edge-swap ladder and each of its
quotient actions, and truncated models, where a product may overflow the
depth."""

import pytest

from isgw.corpus import builtin_corpus
from isgw.errors import InternalContract, Overflow
from isgw.graphs import DirectedGraph, graph_semigroup, single_loop, vertex_path
from isgw.selfsimilar import (
    FiniteGroup,
    SelfSimilarAction,
    action_from_json,
    hereditary_invariant_sets,
    mirror_action,
    quotient_action,
    ss_semigroup,
)

from oracles import (
    SSTriple,
    triple_at,
    triple_index,
    triple_inverse,
    triple_multiply,
    triple_table_by_objects,
)
from test_cli import SWAP_LADDER_DOC


def _exact_models():
    out = [(inst.uid, inst.meta["exact"]) for inst in builtin_corpus()
           if inst.kind in ("graph", "action") and inst.meta.get("exact") is not None]
    ladder = action_from_json(SWAP_LADDER_DOC)
    out.append(("SWAP-LADDER2", ss_semigroup(ladder, 2)))
    for v_set in hereditary_invariant_sets(ladder):
        out.append((f"SWAP-LADDER2/{sorted(v_set)}",
                    ss_semigroup(quotient_action(ladder, v_set), 2)))
    return out


@pytest.fixture(scope="module")
def exact_models():
    return _exact_models()


def test_exact_tables_match_triple_multiply(exact_models):
    for uid, model in exact_models:
        s = model.to_inverse_semigroup()
        assert s.mul == triple_table_by_objects(model), uid
        assert s.inv == (0,) + tuple(
            triple_index(model, triple_inverse(model.action, triple_at(model, i)))
            for i in range(1, len(model.elements))), uid


def test_exact_models_cover_the_ladder_quotients(exact_models):
    uids = [uid for uid, _ in exact_models]
    # S and its quotients by the hereditary sets {}, {2}, {1, 2} and {0, 1, 2}
    assert sum(uid.startswith("SWAP-LADDER2") for uid in uids) == 5
    assert {"G-A2", "G-D2", "G-CH3", "G-T2", "ACT-SWAP-D2", "ACT-SWAP-T2"} <= set(uids)


@pytest.mark.parametrize("model", [ss_semigroup(mirror_action(), 1),
                                   ss_semigroup(mirror_action(), 2),
                                   graph_semigroup(single_loop(), 2)],
                         ids=["mirror-1", "mirror-2", "loop-2"])
def test_truncated_products_match_triple_multiply(model):
    expected = triple_table_by_objects(model)
    n = len(model.elements)
    for i in range(n):
        for j in range(n):
            try:
                got = model.product(i, j)
            except Overflow:
                got = None
            assert got == expected[i][j], (i, j)


def test_broken_membership_is_refused():
    """Z/3 moving two vertices by a map that is not a group action: t and
    t^2 both swap them.  (v0, t, v1)(v1, t, v0) = (v0, t^2, v0) leaves the
    model, and both products refuse it."""
    grp = FiniteGroup.cyclic(3)
    graph = DirectedGraph((0, 1), ())
    swap = {0: 1, 1: 0}
    broken = SelfSimilarAction(
        group=grp, graph=graph,
        vertex_action={(g, v): v if g == 0 else swap[v] for g in range(3) for v in (0, 1)},
        edge_action={}, cocycle={})
    v0, v1 = vertex_path(graph, 0), vertex_path(graph, 1)
    with pytest.raises(InternalContract):
        triple_multiply(broken, SSTriple(v0, 1, v1), SSTriple(v1, 1, v0))
    model = ss_semigroup(broken, 0)
    with pytest.raises(InternalContract):
        model.product(triple_index(model, SSTriple(v0, 1, v1)),
                      triple_index(model, SSTriple(v1, 1, v0)))
    with pytest.raises(InternalContract):
        model.to_inverse_semigroup()
