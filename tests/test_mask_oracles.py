"""The bitset view of E against the leq loops of tests/oracles.py: order
ideals, invariance, saturation, hull, kernel, basic sets, ultrafilters,
tight filters, covers, the 0-disjunctive property, atoms and orthogonality
and the finite cover witnesses, on random closures, on random semilattices
and on the builtin corpus.  The trapping condition holds on every finite E,
and so does the separating element of each tight filter of a basic set, so
the library decides neither; their oracles assert them on every E visited."""

import itertools
import random

import pytest
from hypothesis import given, settings

from isgw.core import from_partial_bijections
from isgw.corpus import builtin_corpus
from isgw.errors import DomainViolation
from isgw.ideals_filters import (
    filter_space,
    finite_cover_witnesses,
    hull,
    is_invariant_order_ideal,
    is_saturated_order_ideal,
    kernel,
    order_ideals,
)
from isgw.semilattice import (
    Semilattice,
    atoms,
    atoms_and_orthogonals,
    is_0_disjunctive,
    is_cover,
)
from isgw.verify import _tight_by_covers

from oracles import (
    atoms_by_leq,
    basic_set_by_leq,
    finite_cover_witnesses_by_leq,
    hull_by_leq,
    is_0_disjunctive_by_leq,
    is_cover_by_leq,
    is_invariant_order_ideal_by_products,
    is_ultra_by_leq,
    kernel_by_leq,
    order_ideals_by_leq,
    orthogonals_by_leq,
    saturate,
    saturate_by_leq,
    tight_by_is_cover,
    tight_filters_separate_by_leq,
    trapping_by_leq,
)
from test_core_oracles import generator_sets
from test_semilattice import closed_family, family_to_semigroup


def _families(items, rng, limit=64):
    """Every subset of a small collection, or a seeded sample of them."""
    if len(items) <= 6:
        return [frozenset(c) for k in range(len(items) + 1)
                for c in itertools.combinations(items, k)]
    return [frozenset(rng.sample(items, rng.randint(0, len(items)))) for _ in range(limit)]


def assert_semilattice_matches(lattice):
    """Values and witnesses.  The leq loops scan E in ascending order and
    the masks give the least witness."""
    assert is_0_disjunctive(lattice) == is_0_disjunctive_by_leq(lattice)
    assert trapping_by_leq(lattice).value
    assert tight_filters_separate_by_leq(lattice).value
    ats, perp = atoms_and_orthogonals(lattice)
    assert ats == atoms(lattice) == atoms_by_leq(lattice)
    assert perp == orthogonals_by_leq(lattice)
    rng = random.Random(len(lattice.elements))
    for e in lattice.elements:
        for c in _families(list(lattice.nonzero()), rng, limit=16):
            for below in (False, True):
                assert (is_cover(lattice, e, sorted(c), require_below=below)
                        == is_cover_by_leq(lattice, e, sorted(c), require_below=below)), (e, c)


def assert_carrier_matches(lattice):
    assert_semilattice_matches(lattice)
    rng = random.Random(len(lattice.elements))
    ideals = order_ideals(lattice)
    assert ideals == tuple(order_ideals_by_leq(lattice))
    for x in ideals:
        h = hull(lattice, x)
        assert h == hull_by_leq(lattice, x), sorted(x)
        assert kernel(lattice, h) == kernel_by_leq(lattice, h), sorted(x)
        assert saturate(lattice, x) == saturate_by_leq(lattice, x), sorted(x)
        assert is_saturated_order_ideal(lattice, x) == (saturate_by_leq(lattice, x) == x)
    # arbitrary subsets: families of filter minima, which are rarely order ideals
    for a in _families(sorted(lattice.nonzero()), rng):
        assert kernel(lattice, a) == kernel_by_leq(lattice, a), sorted(a)
        assert hull(lattice, a) == hull_by_leq(lattice, a), sorted(a)
        assert saturate(lattice, a) == saturate_by_leq(lattice, a), sorted(a)
    space = filter_space(lattice)
    for e in lattice.elements:
        for excluded in _families(list(lattice.members(lattice.down[e])), rng, limit=8):
            assert space.basic_set(e, excluded) == basic_set_by_leq(lattice, e, excluded)
    return ideals


def assert_masks_match(s):
    lattice = Semilattice.from_semigroup(s)
    ideals = assert_carrier_matches(lattice)
    for x in ideals:
        assert is_invariant_order_ideal(s, x) == is_invariant_order_ideal_by_products(s, x)
    space = filter_space(lattice)
    for m in space.mins:
        assert (m in space.tight) == is_ultra_by_leq(lattice, m), m
        assert _tight_by_covers(lattice, m) == tight_by_is_cover(lattice, m), m
    assert finite_cover_witnesses(s) == finite_cover_witnesses_by_leq(s)


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_masks_match_leq_oracles_on_random_closures(gens):
    assert_masks_match(from_partial_bijections(gens))


@pytest.fixture(scope="module")
def corpus_semigroups():
    return [inst.semigroup for inst in builtin_corpus() if inst.kind == "semigroup"]


def test_masks_match_leq_oracles_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        assert_masks_match(s)


@settings(max_examples=60, deadline=None)
@given(closed_family())
def test_semilattice_masks_match_leq_oracles_on_random_semilattices(family):
    assert_carrier_matches(Semilattice.from_semigroup(family_to_semigroup(family)))


def test_order_ideals_and_masks_are_cached_per_carrier(i2):
    lattice = Semilattice.from_semigroup(i2)
    assert order_ideals(lattice) is order_ideals(Semilattice.from_semigroup(i2))
    assert lattice is Semilattice.from_semigroup(i2)
    assert isinstance(order_ideals(lattice), tuple)


def test_masks_read_the_order(e4, e4n):
    view = Semilattice.from_semigroup(e4)
    bit = {name: 1 << view.index(e) for name, e in e4n.items()}
    g = view.index(e4n["g"])
    assert view.up[g] == bit["g"]
    assert view.down[g] == bit["0"] | bit["f"] | bit["g"]
    assert view.meets[g] == bit["f"] | bit["g"]  # e is orthogonal to g
    assert view.meets[view.index(e4n["0"])] == 0
    assert view.members(view.down[g]) == tuple(sorted((e4n["0"], e4n["f"], e4n["g"])))


def test_elements_outside_the_carrier_are_refused(i2, i2n):
    lattice = Semilattice.from_semigroup(i2)
    with pytest.raises(DomainViolation):
        hull(lattice, {i2n["X"]})  # X is not an idempotent
    with pytest.raises(DomainViolation):
        kernel(lattice, {i2n["E21"]})
    with pytest.raises(DomainViolation):
        is_cover(lattice, i2n["X"], ())
    with pytest.raises(DomainViolation):
        hull(lattice, {i2.n})  # not an element at all
    # off E every mask is empty
    x = i2n["X"]
    assert lattice.up[x] == lattice.down[x] == lattice.meets[x] == 0
