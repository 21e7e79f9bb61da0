import itertools
import random

import pytest

from isgw.core import PartialBijection, from_partial_bijections, from_tables, semigroup_from_json
from isgw.corpus import builtin_corpus
from isgw.errors import DomainViolation
from isgw.ideals_filters import (
    beta_act,
    d_classes,
    enumerate_ideals,
    filter_space,
    hull,
    hull_tight,
    invariant_subsets,
    is_invariant_order_ideal,
    kernel,
    order_ideals,
    principal_ideal,
    s_level_saturated,
)
from isgw.semilattice import Semilattice
from isgw.verify import check_hull_kernel

from conftest import make_chain
from test_cli import brandt_doc
from oracles import saturate, saturated_ideal_generated, subsets


@pytest.fixture(scope="module")
def le4(e4):
    return Semilattice.from_semigroup(e4)


@pytest.fixture(scope="module")
def li2(i2):
    return Semilattice.from_semigroup(i2)


def brute_force_filters(s):
    """Independent oracle: scan all subsets of E(S) for the filter axioms."""
    idems = s.idempotents
    found = []
    for k in range(1, len(idems) + 1):
        for combo in itertools.combinations(idems, k):
            f = set(combo)
            if s.zero in f:
                continue
            meet_closed = all(s.product(a, b) in f for a in f for b in f)
            up_closed = all(e in f
                            for x in f for e in idems if s.order().holds(x, e))
            if meet_closed and up_closed:
                found.append(frozenset(f))
    return found


@pytest.mark.parametrize("maker", ["i2", "e4", "z2z"])
def test_filter_space_matches_brute_force(maker, request):
    s = request.getfixturevalue(maker)
    lattice = Semilattice.from_semigroup(s)
    space = filter_space(lattice)
    oracle = brute_force_filters(s)
    from_library = [frozenset(lattice.members(lattice.up[m])) for m in space.mins]
    assert sorted(map(sorted, from_library)) == sorted(map(sorted, oracle))


def test_filter_space_e4(le4, e4n):
    space = filter_space(le4)
    assert set(space.mins) == {e4n["e"], e4n["f"], e4n["g"]}
    assert space.tight == {e4n["e"], e4n["f"]}
    assert set(le4.members(le4.up[e4n["f"]])) == {e4n["f"], e4n["g"]}


def test_filter_space_two_chain():
    two = from_tables([[0, 0], [0, 1]], [0, 1], 0)
    space = filter_space(Semilattice.from_semigroup(two))
    assert space.mins == (1,)
    assert space.tight == {1}


def test_filter_space_i2(li2, i2n):
    space = filter_space(li2)
    assert set(space.mins) == {i2n["E11"], i2n["E22"], i2n["I"]}
    assert space.tight == {i2n["E11"], i2n["E22"]}


def test_basic_sets(le4, e4n):
    space = filter_space(le4)
    assert set(space.basic_set(e4n["g"])) == {e4n["f"], e4n["g"]}
    assert set(space.basic_set(e4n["g"], excluded=[e4n["f"]])) == {e4n["g"]}
    assert space.tight_basic_set(e4n["g"], excluded=[e4n["f"]]) == ()


def test_kernel_hull_pinned_values(le4, e4n):
    # k(N^f) = {e, 0} and h(k(N^f)) = N_e = {f-up, g-up}, strictly above N^f
    n_f = (e4n["f"],)
    k = kernel(le4, n_f)
    assert k == {e4n["e"], e4n["0"]}
    h = hull(le4, k)
    assert set(h) == {e4n["f"], e4n["g"]}
    assert set(n_f) < set(h)


def test_kernel_trivial_cases(le4, e4n):
    space = filter_space(le4)
    assert kernel(le4, space.mins) == {e4n["0"]}
    assert kernel(le4, ()) == set(le4.elements)


def test_hull_cases(le4, li2, e4n, i2n):
    assert set(hull(le4, {e4n["0"]})) == {e4n["e"], e4n["f"], e4n["g"]}
    assert set(hull(le4, {e4n["0"], e4n["e"]})) == {e4n["f"], e4n["g"]}
    assert set(hull(li2, {i2n["0"], i2n["E11"]})) == {i2n["E22"], i2n["I"]}


def test_saturate(li2, le4, i2n, e4n):
    assert saturate(li2, {i2n["0"], i2n["E11"], i2n["E22"]}) == \
        {i2n["0"], i2n["E11"], i2n["E22"], i2n["I"]}
    assert saturate(li2, {i2n["0"]}) == {i2n["0"]}
    assert saturate(le4, {e4n["0"], e4n["e"], e4n["f"]}) == \
        {e4n["0"], e4n["e"], e4n["f"], e4n["g"]}


def test_enumerate_ideals_i2(i2, i2n):
    ideals = enumerate_ideals(i2)
    sets = [i.elements for i in ideals]
    j = frozenset({i2n["0"], i2n["E11"], i2n["E12"], i2n["E21"], i2n["E22"]})
    assert sets == [frozenset({i2n["0"]}), j, frozenset(i2.elements())]
    flags = {frozenset(i.elements): i.saturated for i in ideals}
    assert flags[frozenset({i2n["0"]})] is True
    assert flags[j] is False
    assert flags[frozenset(i2.elements())] is True


def test_enumerate_ideals_semilattice(e4):
    # in a semilattice the ideals are exactly the order ideals
    ideals = enumerate_ideals(e4)
    lattice = Semilattice.from_semigroup(e4)
    assert {i.elements for i in ideals} == set(order_ideals(lattice))


def test_enumerate_ideals_zero():
    z = from_tables([[0]], [0], 0)
    ideals = enumerate_ideals(z)
    assert len(ideals) == 1 and ideals[0].is_zero_only


def test_enumerate_ideals_matches_all_unions_of_principal_ideals():
    # oracle: the union of every subset of the principal ideals
    for inst in builtin_corpus(0):
        if inst.kind != "semigroup":
            continue
        s = inst.semigroup
        principals = list({principal_ideal(s, a) for a in s.elements()})
        unions = {frozenset({s.zero}).union(*chosen) for chosen in subsets(principals)}
        assert {i.elements for i in enumerate_ideals(s)} == unions, inst.uid


def test_s_level_saturation_matches(i2, e4, z2z):
    for s in (i2, e4, z2z):
        lattice = Semilattice.from_semigroup(s)
        for ideal in enumerate_ideals(s):
            assert ideal.saturated == s_level_saturated(s, ideal.elements)


def test_saturated_ideal_generated(i2, i2n):
    gen = saturated_ideal_generated(i2, {i2n["E11"], i2n["E22"]})
    assert gen == frozenset(i2.elements())  # saturation pulls in I, hence X
    gen0 = saturated_ideal_generated(i2, set())
    assert gen0 == frozenset({i2n["0"]})


def test_beta_action(i2, i2n):
    assert beta_act(i2, i2n["E21"], i2n["E11"]) == i2n["E22"]
    assert beta_act(i2, i2n["X"], i2n["E11"]) == i2n["E22"]
    assert beta_act(i2, i2n["E11"], i2n["E11"]) == i2n["E11"]
    with pytest.raises(DomainViolation):
        beta_act(i2, i2n["E21"], i2n["E22"])  # E21*E21 = E11 is not above E22


def test_invariant_subsets_i2(i2, i2n):
    rep = invariant_subsets(i2)
    assert rep.invariant_tight_subsets == (
        frozenset(), frozenset({i2n["E11"], i2n["E22"]}))
    # the hull transfer and the tight correspondence are verify checks
    entries = {e.name: e for e in check_hull_kernel(i2, random.Random(0))}
    assert entries["hull_invariance_transfer"].status == "pass"
    assert entries["tight_ideal_correspondence"].status == "pass"
    assert entries["tight_ideal_correspondence"].hypothesis == "met"


def test_invariant_subsets_semilattice(e4):
    rep = invariant_subsets(e4)
    # no non-idempotent elements: every filter is its own orbit
    space = filter_space(Semilattice.from_semigroup(e4))
    assert len(rep.orbits) == len(space.mins)


def test_invariant_order_ideals_i2(i2, i2n):
    lattice = Semilattice.from_semigroup(i2)
    invariant = [x for x in order_ideals(lattice)
                 if is_invariant_order_ideal(i2, x)]
    assert invariant == [
        frozenset({i2n["0"]}),
        frozenset({i2n["0"], i2n["E11"], i2n["E22"]}),
        frozenset({i2n["0"], i2n["E11"], i2n["E22"], i2n["I"]}),
    ]


def test_kernel_hull_identity_over_all_order_ideals(i2, e4, z2z):
    for s in (i2, e4, z2z, make_chain(4)):
        lattice = Semilattice.from_semigroup(s)
        for x in order_ideals(lattice):
            assert kernel(lattice, hull(lattice, x)) == x


def test_hull_tight_i2(i2, i2n):
    lattice = Semilattice.from_semigroup(i2)
    space = filter_space(lattice)
    assert hull_tight(space, {i2n["0"]}) == (i2n["E11"], i2n["E22"])
    assert hull_tight(space, set(lattice.elements)) == ()


def test_finite_cover_witnesses(i2, i2n):
    from isgw.ideals_filters import finite_cover_witnesses

    covers = finite_cover_witnesses(i2)
    full = frozenset(i2.idempotents)
    assert set(covers[full]) == {i2n["E11"], i2n["E22"]}
    assert covers[frozenset({i2n["0"]})] == ()


def symmetric_inverse_monoid(n):
    """I_n from the transposition (0 1), the n-cycle and the partial
    identity that misses point n-1."""
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((x + 1) % n for x in range(n))
    partial = tuple(range(n - 1)) + (None,)
    return from_partial_bijections([PartialBijection(n, g) for g in (swap, cycle, partial)])


@pytest.mark.parametrize("n, sizes", [(2, [1, 5, 7]), (3, [1, 10, 28, 34]),
                                      (4, [1, 17, 89, 185, 209])])
def test_ideals_of_symmetric_inverse_monoids_are_the_rank_ideals(n, sizes):
    """I_n has one D-class per rank 0..n, and its ideals are the n + 1 rank
    ideals, a chain; the one of rank <= k has sum_{j<=k} C(n,j)^2 j!
    elements (Lawson, *Inverse Semigroups*, 1998)."""
    s = symmetric_inverse_monoid(n)
    assert len(d_classes(s)) == n + 1
    ideals = [i.elements for i in enumerate_ideals(s)]
    assert [len(i) for i in ideals] == sizes
    assert all(a < b for a, b in zip(ideals, ideals[1:]))


def test_brandt_b3_is_0_simple():
    """B3, the 3 x 3 matrix units with zero, is 0-simple: two D-classes and
    exactly the ideals {0} and B3."""
    units = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        image = [None] * 3
        image[j] = i
        units.append(PartialBijection(3, tuple(image)))
    s = from_partial_bijections(units)
    assert s.n == 10
    assert len(d_classes(s)) == 2
    assert [i.elements for i in enumerate_ideals(s)] == [frozenset({s.zero}),
                                                        frozenset(s.elements())]


@pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (2, 5)])
def test_brandt_semigroups_have_two_d_classes(k, n):
    """B(Z/k, n) is 0-simple: its D-classes are {0} and the n idempotents
    (i, 0, i) (Howie, *Fundamentals of Semigroup Theory*, 1995, section
    5.1)."""
    s = semigroup_from_json(brandt_doc(k, n))
    assert d_classes(s) == (frozenset({s.zero}),
                            frozenset(e for e in s.idempotents if e != s.zero))
    assert len(d_classes(s)[1]) == n
