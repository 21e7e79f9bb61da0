"""Corpus-wide structural invariants, driven through the same instances the
verification harness uses plus hypothesis-generated subsemigroups."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from isgw.congruences import double_arrow, quotient
from isgw.core import PartialBijection, from_partial_bijections
from isgw.corpus import builtin_corpus, small_semilattices
from isgw.ideals_filters import filter_space, hull, kernel, order_ideals
from isgw.relations import h_and_mu
from isgw.semilattice import Semilattice, atoms, is_0_disjunctive

from isgw.verify import _double_arrow_failure, _tight_by_covers

from oracles import small_semilattices_by_semigroups


@pytest.fixture(scope="module")
def corpus():
    return builtin_corpus()


def semigroup_instances(corpus):
    return [inst for inst in corpus if inst.kind == "semigroup"]


def test_corpus_semilattices_unique_up_to_iso():
    sls = small_semilattices()
    assert [s.n for s in sls].count(1) == 1
    # the census of meet semilattices with zero: 1, 1, 2, 5, 15
    from collections import Counter

    counts = Counter(s.n for s in sls)
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 15}


def test_small_semilattices_match_the_per_family_census():
    fast = small_semilattices()
    oracle = small_semilattices_by_semigroups()
    assert len(fast) == len(oracle) == 24
    for s, t in zip(fast, oracle):
        assert (s.mul, s.inv, s.zero, s.labels) == (t.mul, t.inv, t.zero, t.labels)


def test_mu_inside_h_corpus(corpus):
    for inst in semigroup_instances(corpus):
        rep = h_and_mu(inst.semigroup)
        for cls in rep.mu.classes:
            for a in cls:
                for b in cls:
                    assert rep.h.same(a, b), inst.uid


def test_double_arrow_quotient_idempotent(corpus):
    # collapsing twice changes nothing: the quotient is already 0-disjunctive
    for inst in semigroup_instances(corpus):
        s = inst.semigroup
        q = quotient(s, double_arrow(s)).quotient
        assert double_arrow(q).is_equality(), inst.uid


def test_kernel_hull_roundtrip_corpus(corpus):
    for inst in semigroup_instances(corpus):
        lattice = Semilattice.from_semigroup(inst.semigroup)
        for x in order_ideals(lattice):
            assert kernel(lattice, hull(lattice, x)) == x, inst.uid


def test_tight_filters_are_atom_filters_corpus(corpus):
    for inst in semigroup_instances(corpus):
        lattice = Semilattice.from_semigroup(inst.semigroup)
        space = filter_space(lattice)
        by_covers = frozenset(m for m in space.mins if _tight_by_covers(lattice, m))
        assert space.tight == by_covers == frozenset(atoms(lattice)), inst.uid


PMAPS3 = [img for img in itertools.product((None, 0, 1, 2), repeat=3)
          if len([y for y in img if y is not None])
          == len({y for y in img if y is not None})]


@st.composite
def small_inverse_semigroup(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    idx = draw(st.lists(st.sampled_from(range(len(PMAPS3))), min_size=k, max_size=k))
    gens = [PartialBijection(3, PMAPS3[i]) for i in idx]
    return from_partial_bijections(gens, max_elements=300)


@settings(max_examples=30, deadline=None)
@given(small_inverse_semigroup())
def test_random_double_arrow_is_zero_restricted(s):
    rho = double_arrow(s)
    assert rho.is_zero_restricted
    assert _double_arrow_failure(s, rho) is None  # transitive, compatible, 0-restricted


@settings(max_examples=30, deadline=None)
@given(small_inverse_semigroup())
def test_random_collapse_zero_disjunctive(s):
    q = quotient(s, double_arrow(s)).quotient
    assert is_0_disjunctive(Semilattice.from_semigroup(q)).value


@settings(max_examples=30, deadline=None)
@given(small_inverse_semigroup())
def test_random_mu_inside_h(s):
    rep = h_and_mu(s)
    for cls in rep.mu.classes:
        first = min(cls)
        for b in cls:
            assert rep.h.same(first, b)
