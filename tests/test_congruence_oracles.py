"""The congruence layer over the generators against its brute-force oracles
(tests/oracles.py): the double arrow by down-set bitsets, the compatibility
test, the congruence closure by pair orbits, the congruence lattice from
covering pairs of E and kernel pairs by partition joins, the flags of each
congruence, the classes of a class map, and the groupoids built by
construction against the definition of a groupoid."""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from isgw.congruences import (
    check_compatible,
    double_arrow,
    enumerate_congruences,
    rees_congruence,
    rees_quotient,
)
from isgw.core import PartialBijection, from_partial_bijections
from isgw.corpus import builtin_corpus
from isgw.errors import CapExceeded, NotCongruence
from isgw.groupoid import build_groupoids, reduction
from isgw.ideals_filters import enumerate_ideals
from isgw.relations import EquivalenceRelation, h_and_mu

from conftest import closure_congruence
from oracles import (
    classes_by_grouping,
    congruence_closure_by_saturation,
    congruence_flags_by_definition,
    congruence_lattice_by_joins,
    double_arrow_by_intersections,
    group_by,
    is_compatible_by_products,
    is_groupoid_by_definition,
    unit_orbits,
)
from test_core_oracles import generator_sets
from test_semilattice import closed_family, family_to_semigroup


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
    bases += [closure_congruence(s, [p]).classes
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
    partition and the Rees, 0-restricted and idempotent-separating flags.
    Both sides set the flags through ``make_congruence``, so each member's
    flags are also read off its classes."""
    lattice = enumerate_congruences(s)
    assert list(lattice) == congruence_lattice_by_joins(s)
    for rho in lattice:
        flags = (rho.is_rees, rho.is_zero_restricted, rho.is_idempotent_separating)
        assert flags == congruence_flags_by_definition(s, rho.classes), rho.classes


def assert_groupoid_closure_matches(s):
    """The universal and tight groupoids and their reductions to each unit
    orbit satisfy the definition.  Returns the decisions of the definition
    on each of the two with one non-unit arrow and its inverse removed, so
    that a caller can see it fail on some of them; a ``FiniteGroupoid``
    takes every arrow over its units, so the broken one is a stand-in with
    the same fields."""
    decisions = set()
    pair = build_groupoids(s)
    for g in (pair.universal, pair.tight):
        for h in [g] + [reduction(g, orbit) for orbit in unit_orbits(g)]:
            assert is_groupoid_by_definition(h), h.arrows
        for u in g.arrows:
            if u not in g.units:
                kept = [v for v in g.arrows if v not in (u, s.star(u))]
                broken = SimpleNamespace(s=s, units=g.units, arrows=kept,
                                         source=g.source, range=g.range)
                decisions.add(is_groupoid_by_definition(broken))
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
    assert closure_congruence(s, pairs).partition() == congruence_closure_by_saturation(s, pairs)


@st.composite
def wide_generator_sets(draw, degree=4):
    """One to three partial bijections of the given degree, each defined on
    at least degree - 2 points.  About a third of the examples that stay
    within 30 elements have 11-30 (``generator_sets`` of degree at most 3:
    3-7 of 60)."""
    def wide_map(k, dom, img):
        image = [None] * degree
        for x, y in zip(dom[:k], img[:k]):
            image[x] = y
        return PartialBijection(degree, tuple(image))

    points = st.permutations(range(degree))
    wide = st.builds(wide_map, st.integers(degree - 2, degree), points, points)
    return draw(st.lists(wide, min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(wide_generator_sets())
def test_congruence_lattice_matches_oracle_on_random_closures(gens):
    try:
        s = from_partial_bijections(gens, max_elements=30)
    except CapExceeded:
        s = None
    assume(s is not None)
    assert_lattice_matches(s)


@settings(max_examples=40, deadline=None)
@given(closed_family())
def test_congruence_lattice_matches_oracle_on_random_semilattices(family):
    """On a semilattice every candidate pair is a covering pair of E."""
    assert_lattice_matches(family_to_semigroup(family))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 5), min_size=1, max_size=30))
def test_class_map_matches_grouping_on_random_keys(keys):
    rel = EquivalenceRelation.from_class_map(len(keys), keys.__getitem__)
    assert (rel.classes, rel.class_index) == classes_by_grouping(len(keys), keys.__getitem__)


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
            assert closure_congruence(s, [p]).partition() == oracle, p


def test_congruence_lattice_matches_oracle_on_builtin_corpus(corpus_semigroups):
    assert max(s.n for s in corpus_semigroups) == 21
    for s in corpus_semigroups:
        assert_lattice_matches(s)


def test_groupoid_closure_matches_oracle_on_builtin_corpus(corpus_semigroups):
    decisions = set()
    for s in corpus_semigroups:
        decisions |= assert_groupoid_closure_matches(s)
    assert decisions == {True, False}
