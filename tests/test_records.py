"""The value records (``util.Record``): equality, hash, repr, immutability,
defaults and constructor validation, as a frozen dataclass would give them."""

import copy
import pickle

import pytest

from isgw.congruences import Congruence
from isgw.core import PartialBijection, from_partial_bijections
from isgw.corpus import CorpusInstance
from isgw.errors import DanglingEndpoint, NotHomomorphism, ParseError
from isgw.graphs import DirectedGraph, Edge, GraphPath
from isgw.relations import EquivalenceRelation, SemigroupHomomorphism
from isgw.report import Report, TheoremEntry, jsonable
from isgw.selfsimilar import FiniteGroup, ss_semigroup, trivial_action
from isgw.semilattice import Semilattice
from isgw.util import Decision

CLASSES = (frozenset({0}), frozenset({1, 2}))
LOOP = DirectedGraph((0,), (Edge("e", 0, 0),))


def test_equality_is_class_sensitive_and_hash_covers_the_fields():
    rel = EquivalenceRelation(3, CLASSES, (0, 1, 1))
    rho = Congruence(3, CLASSES, (0, 1, 1), False, True, True)
    assert rho == Congruence(3, CLASSES, (0, 1, 1), False, True, True)
    assert rho != Congruence(3, CLASSES, (0, 1, 1), False, True, False)
    assert rel != rho and rho != rel
    assert hash(rho) == hash((3, CLASSES, (0, 1, 1), False, True, True))
    s = from_partial_bijections([PartialBijection(1, (0,))])
    assert hash(Semilattice.from_semigroup(s)) == hash((s,))  # one compared field
    assert Decision(True, 1) == Decision(True, 1) != (True, 1)


def test_graph_path_equality_and_hash_leave_the_graph_out():
    other = DirectedGraph((0, 1), (Edge("e", 0, 0),))
    assert GraphPath(LOOP, (0,), 0) == GraphPath(other, (0,), 0)
    assert hash(GraphPath(LOOP, (0,), 0)) == hash(((0,), 0))
    assert GraphPath(LOOP) == GraphPath(LOOP, (), 0)  # the defaults


def test_frozen_records_reject_assignment_and_deletion():
    d = Decision(False, "w")
    with pytest.raises(AttributeError):
        d.value = True
    with pytest.raises(AttributeError):
        del d.witness
    with pytest.raises(AttributeError):
        d.extra = 1


def test_mutable_records_take_defaults_and_assignment_and_are_unhashable():
    report = Report("x")
    assert (report.properties, report.theorems) == ({}, {})
    assert Report("y").properties is not report.properties
    inst = CorpusInstance("u", "graph")
    assert (inst.semigroup, inst.graph, inst.action, inst.meta) == (None, None, None, {})
    entry = TheoremEntry("t", "pass")
    entry.status = "fail"
    assert entry.failed and entry == TheoremEntry("t", "fail")
    with pytest.raises(TypeError):
        hash(entry)


def test_repr_and_json_read_the_fields_in_order():
    assert repr(Decision(True, (1, "a"))) == "Decision(value=True, witness=(1, 'a'))"
    assert repr(Edge("e", 0, 1)) == "Edge(eid='e', src=0, rng=1)"
    assert jsonable(GraphPath(LOOP, (0,), 0)) == {
        "edges": [0], "src": 0,
        "graph": {"vertices": [0], "edges": [{"eid": "e", "src": 0, "rng": 0}]}}


def test_constructors_keep_their_validation():
    with pytest.raises(ValueError, match="not injective"):
        PartialBijection(2, (0, 0))
    with pytest.raises(DanglingEndpoint):
        DirectedGraph((0,), (Edge("e", 0, 1),))
    with pytest.raises(ParseError, match="compose"):
        GraphPath(DirectedGraph((0, 1), (Edge("a", 0, 1), Edge("b", 0, 1))), (0, 1), 0)
    with pytest.raises(ParseError, match="inverse"):
        FiniteGroup(((0, 1), (1, 1)), 0, ("1", "t"))
    assert FiniteGroup.cyclic(3).inv == (0, 2, 1)
    s = from_partial_bijections([PartialBijection(2, (1, 0))])
    with pytest.raises(NotHomomorphism, match="length"):
        SemigroupHomomorphism(s, s, (0,) * (s.n - 1))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda r: pickle.loads(pickle.dumps(r))])
def test_records_copy_and_pickle(copier):
    group = FiniteGroup.cyclic(3)
    assert copier(group) == group and copier(group).inv == (0, 2, 1)
    entry = TheoremEntry("t", "fail", counterexample=(Decision(False, 1),))
    assert copier(entry) == entry
    assert copier(GraphPath(LOOP, (0,), 0)).graph == LOOP


def test_cached_properties_work_on_records():
    action = trivial_action(LOOP)
    truncated = ss_semigroup(action, 2)
    assert truncated.index is truncated.index
    assert action.edge_index("e") == 0
