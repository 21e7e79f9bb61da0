"""The congruence layer over the generators against its brute-force oracles
(tests/oracles.py): the double arrow by down-set bitsets, the compatibility
test, the congruence closure by pair orbits, the congruence lattice from
kernel-trace pairs by incremental joins, and the composition closure of a
groupoid checked on composable pairs only."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from isgw.congruences import (
    check_compatible,
    congruence_closure,
    double_arrow,
    enumerate_congruences,
    rees_congruence,
    rees_quotient,
)
from isgw.core import from_partial_bijections
from isgw.corpus import builtin_corpus
from isgw.errors import CapExceeded, InternalContract, NotCongruence
from isgw.groupoid import FiniteGroupoid, build_groupoids
from isgw.ideals_filters import enumerate_ideals
from isgw.relations import EquivalenceRelation, h_and_mu
from isgw.util import group_by

from oracles import (
    congruence_closure_by_saturation,
    congruence_lattice_by_joins,
    double_arrow_by_intersections,
    is_closed_by_all_pairs,
    is_compatible_by_products,
)
from test_core_oracles import generator_sets


def _accepts(s, index):
    try:
        check_compatible(s, index)
    except NotCongruence:
        return False
    return True


def assert_double_arrow_matches(s):
    """On S and on every Rees quotient of S."""
    for t in [s] + [rees_quotient(s, i.elements).quotient for i in enumerate_ideals(s)]:
        assert double_arrow(t).partition() == double_arrow_by_intersections(t)


def _perturbations(s, classes):
    """Every merge of two neighbouring classes, and every nonzero element
    split off a class of two or more."""
    classes = list(classes)
    for i in range(len(classes) - 1):
        yield classes[:i] + [classes[i] | classes[i + 1]] + classes[i + 2:]
    for i, c in enumerate(classes):
        if len(c) > 1:
            for a in sorted(c - {s.zero}):
                yield classes[:i] + [c - {a}, frozenset({a})] + classes[i + 1:]


def compatibility_candidates(s):
    """Class indices of the double arrow, mu, every Rees congruence, every
    principal congruence, Green's L and R relations (a right and a left
    congruence, so each is caught by one side only), and the perturbations
    of each."""
    bases = [double_arrow(s).classes, h_and_mu(s).mu.classes]
    bases += [group_by(s.elements(), lambda a: s.product(s.star(a), a)),
              group_by(s.elements(), lambda a: s.product(a, s.star(a)))]
    bases += [rees_congruence(s, i.elements).classes for i in enumerate_ideals(s)]
    bases += [congruence_closure(s, [p]).classes
              for p in itertools.combinations(range(s.n), 2)]
    indices = {}
    for classes in bases:
        for candidate in [classes, *_perturbations(s, classes)]:
            rep = {a: min(c) for c in candidate for a in c}
            indices.setdefault(EquivalenceRelation.from_class_map(s.n, rep.get).class_index)
    return list(indices)


def assert_compatibility_matches(s):
    decisions = set()
    for index in compatibility_candidates(s):
        accepted = _accepts(s, index)
        assert accepted == is_compatible_by_products(s, index), index
        decisions.add(accepted)
    return decisions


def assert_lattice_matches(s):
    """Same members in the same order; Congruence equality compares the
    partition and the Rees, 0-restricted and idempotent-separating flags."""
    assert list(enumerate_congruences(s)) == congruence_lattice_by_joins(s)


def _closed(g):
    try:
        FiniteGroupoid(g.s, g.units, g.arrows)
    except InternalContract as exc:
        assert str(exc) == "arrows not closed under composition"
        return False
    return True


def assert_groupoid_closure_matches(s):
    """On the universal and tight groupoids, and on each with one non-unit
    arrow and its inverse removed."""
    decisions = set()
    pair = build_groupoids(s)
    for g in (pair.universal, pair.tight):
        candidates = [g]
        for u in g.arrows:
            if u not in g.units:
                kept = [v for v in g.arrows if v not in (u, s.star(u))]
                candidates.append(FiniteGroupoid._derived(s, g.units, kept))
        for h in candidates:
            closed = _closed(h)
            assert closed == is_closed_by_all_pairs(h), h.arrows
            decisions.add(closed)
    return decisions


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_double_arrow_matches_oracle_on_random_closures(gens):
    assert_double_arrow_matches(from_partial_bijections(gens))


@settings(max_examples=60, deadline=None)
@given(generator_sets(max_degree=3))
def test_compatibility_matches_oracle_on_random_closures(gens):
    assert_compatibility_matches(from_partial_bijections(gens))


@settings(max_examples=100, deadline=None)
@given(generator_sets(), st.data())
def test_congruence_closure_matches_oracle_on_random_pairs(gens, data):
    s = from_partial_bijections(gens)
    element = st.integers(0, s.n - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=4))
    assert congruence_closure(s, pairs).partition() == congruence_closure_by_saturation(s, pairs)


@settings(max_examples=60, deadline=None)
@given(generator_sets(max_degree=3))
def test_congruence_lattice_matches_oracle_on_random_closures(gens):
    try:
        s = from_partial_bijections(gens, max_elements=30)
    except CapExceeded:
        s = None
    assume(s is not None)
    assert_lattice_matches(s)


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_groupoid_closure_matches_oracle_on_random_closures(gens):
    assert_groupoid_closure_matches(from_partial_bijections(gens))


@pytest.fixture(scope="module")
def corpus_semigroups():
    return [inst.semigroup for inst in builtin_corpus() if inst.kind == "semigroup"]


def test_double_arrow_matches_oracle_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        assert_double_arrow_matches(s)


def test_compatibility_matches_oracle_on_builtin_corpus(corpus_semigroups):
    decisions = set()
    for s in corpus_semigroups:
        decisions |= assert_compatibility_matches(s)
    assert decisions == {True, False}


def test_congruence_closure_matches_oracle_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        for p in itertools.combinations(range(s.n), 2):
            oracle = congruence_closure_by_saturation(s, [p])
            assert congruence_closure(s, [p]).partition() == oracle, p


def test_congruence_lattice_matches_oracle_on_builtin_corpus(corpus_semigroups):
    assert max(s.n for s in corpus_semigroups) == 21
    for s in corpus_semigroups:
        assert_lattice_matches(s)


def test_groupoid_closure_matches_oracle_on_builtin_corpus(corpus_semigroups):
    decisions = set()
    for s in corpus_semigroups:
        decisions |= assert_groupoid_closure_matches(s)
    assert decisions == {True, False}
