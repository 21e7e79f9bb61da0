"""Ideals by generator search against their all-products oracles
(tests/oracles.py): principal ideals, one per D-class, the ideal
enumeration, and the ideal test of the Rees congruence; the SXS round
trip of the verify check ``ideal_correspondence`` on the same semigroups;
and the D-classes of E against the three computations they replaced."""

import pytest
from hypothesis import given, settings

from isgw.congruences import rees_congruence
from isgw.core import from_partial_bijections
from isgw.corpus import builtin_corpus
from isgw.errors import NotIdeal
from isgw.groupoid import build_groupoids, reduction
from isgw.ideals_filters import (
    d_classes,
    enumerate_ideals,
    ideal_generated,
    invariant_subsets,
    is_invariant_order_ideal,
    order_ideals,
    principal_ideal,
)
from isgw.semilattice import Semilattice
from isgw.verify import _ideal_round_trip_failure

from oracles import (
    d_class_minima_by_union_find,
    filter_orbits_by_conjugation,
    ideals_by_unions,
    is_ideal_by_products,
    principal_ideal_by_products,
    principal_ideals_by_products,
    sxs_by_products,
    unit_orbits,
    unit_orbits_by_arrows,
)
from test_core_oracles import generator_sets


def _accepts(s, members):
    try:
        rees_congruence(s, members)
    except NotIdeal:
        return False
    return True


def assert_ideals_match(s):
    for a in s.elements():
        assert principal_ideal(s, a) == principal_ideal_by_products(s, a), a
    lattice = Semilattice.from_semigroup(s)
    for x in order_ideals(lattice):
        if is_invariant_order_ideal(s, x):
            assert ideal_generated(s, x) == sxs_by_products(s, x), sorted(x)
    # J = D: one distinct principal ideal per D-class, from its least idempotent
    reps = [min(c) for c in d_classes(s)]
    by_class = [principal_ideal(s, e) for e in reps]
    assert len(set(by_class)) == len(reps)
    assert set(by_class) == principal_ideals_by_products(s)
    ideals = enumerate_ideals(s)
    assert {i.elements for i in ideals} == ideals_by_unions(s)
    assert _ideal_round_trip_failure(s, ideals) is None


def assert_traces_are_the_invariant_order_ideals(s):
    """The library reads the invariant order ideals of E as the traces of
    the ideals of S; the scan of all order ideals is the oracle."""
    scan = [x for x in order_ideals(Semilattice.from_semigroup(s))
            if is_invariant_order_ideal(s, x)]
    assert {i.trace for i in enumerate_ideals(s)} == set(scan)


def assert_d_classes_match(s):
    """``d_classes`` against (a) the union-find of a*a with aa*, by class
    minima, (b) {0} and the conjugation orbits of the filters, and (c) the
    arrow union-find orbits of the universal and tight groupoids and of
    each reduction of them to one orbit."""
    classes = d_classes(s)
    assert tuple(min(c) for c in classes) == d_class_minima_by_union_find(s)
    zero = frozenset({s.zero})
    assert classes == tuple(sorted([zero] + filter_orbits_by_conjugation(s), key=min))
    assert invariant_subsets(s).orbits == tuple(c for c in classes if c != zero)
    pair = build_groupoids(s)
    for g in (pair.universal, pair.tight):
        inside = unit_orbits(g)
        assert inside == unit_orbits_by_arrows(g)
        for orbit in inside:
            h = reduction(g, orbit)
            assert unit_orbits(h) == unit_orbits_by_arrows(h) == (orbit,)


def assert_rees_test_matches(s):
    """On every ideal, every ideal plus one outside element and every ideal
    minus one nonzero element."""
    for ideal in enumerate_ideals(s):
        members = ideal.elements
        candidates = [members]
        candidates += [members | {x} for x in s.elements() if x not in members]
        candidates += [members - {i} for i in members if i != s.zero]
        for c in candidates:
            assert _accepts(s, c) == is_ideal_by_products(s, c), sorted(c)


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_ideals_match_oracles_on_random_closures(gens):
    assert_ideals_match(from_partial_bijections(gens))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_ideal_traces_match_invariance_scan_on_random_closures(gens):
    assert_traces_are_the_invariant_order_ideals(from_partial_bijections(gens))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_d_classes_match_oracles_on_random_closures(gens):
    assert_d_classes_match(from_partial_bijections(gens))


@settings(max_examples=200, deadline=None)
@given(generator_sets())
def test_rees_test_matches_oracle_on_random_closures(gens):
    assert_rees_test_matches(from_partial_bijections(gens))


@pytest.fixture(scope="module")
def corpus_semigroups():
    return [inst.semigroup for inst in builtin_corpus() if inst.kind == "semigroup"]


def test_ideals_match_oracles_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        assert_ideals_match(s)


def test_d_classes_match_oracles_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        assert_d_classes_match(s)


def test_rees_test_matches_oracle_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        assert_rees_test_matches(s)


def test_ideal_traces_match_invariance_scan_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        assert_traces_are_the_invariant_order_ideals(s)
