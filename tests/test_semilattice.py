import itertools

import pytest
from hypothesis import given, settings, strategies as st

from isgw.core import from_tables
from isgw.semilattice import (
    Semilattice,
    atoms_and_orthogonals,
    is_0_disjunctive,
    is_cover,
)

from conftest import make_chain
from oracles import trapping_by_leq


@pytest.fixture(scope="module")
def le4(e4):
    return Semilattice.from_semigroup(e4)


@pytest.fixture(scope="module")
def li2(i2):
    return Semilattice.from_semigroup(i2)


def cover_oracle(lattice, e, members):
    """Exhaustive scan straight from the definition."""
    for x in lattice.elements:
        if x == lattice.zero or not lattice.parent.order().holds(x, e):
            continue
        if all(lattice.parent.product(x, c) == lattice.zero for c in members):
            return False
    return True


def test_cover_e4(le4, e4n):
    # {f} covers g-down: the nonzero elements below g are f and g, both meet f
    assert is_cover(le4, e4n["g"], [e4n["f"]]).value
    assert cover_oracle(le4, e4n["g"], [e4n["f"]])
    # {e} does not cover g-down, witness f (or g); the witness must be valid
    d = is_cover(le4, e4n["g"], [e4n["e"]])
    assert not d.value
    assert le4.parent.order().holds(d.witness, e4n["g"]) and d.witness != le4.zero
    assert le4.parent.product(d.witness, e4n["e"]) == le4.zero


def test_cover_reflexive(le4, li2):
    for lattice in (le4, li2):
        for e in lattice.nonzero():
            assert is_cover(lattice, e, [e]).value


def test_cover_i2_atoms(li2, i2n):
    assert is_cover(li2, i2n["I"], [i2n["E11"], i2n["E22"]]).value


def test_cover_monotone(li2, le4):
    for lattice in (li2, le4):
        for e in lattice.nonzero():
            below = [x for x in lattice.members(lattice.down[e]) if x != lattice.zero]
            for k in range(1, len(below) + 1):
                for c in itertools.combinations(below, k):
                    if is_cover(lattice, e, c).value:
                        assert is_cover(lattice, e, below).value


def test_0_disjunctive(le4, li2, e4n):
    d = is_0_disjunctive(le4)
    assert not d.value
    assert d.witness == (e4n["f"], e4n["g"])
    assert is_0_disjunctive(li2).value
    two = Semilattice.from_semigroup(from_tables([[0, 0], [0, 1]], [0, 1], 0))
    assert is_0_disjunctive(two).value


def test_trapping_condition(le4, li2):
    assert trapping_by_leq(le4).value
    assert trapping_by_leq(li2).value
    chain = Semilattice.from_semigroup(make_chain(3))
    assert trapping_by_leq(chain).value


def test_atoms_and_orthogonals_e4(le4, e4n):
    ats, perp = atoms_and_orthogonals(le4)
    assert set(ats) == {e4n["e"], e4n["f"]}
    assert perp[e4n["e"]] == {e4n["0"], e4n["f"], e4n["g"]}


def test_atoms_and_orthogonals_i2(li2, i2n):
    ats, perp = atoms_and_orthogonals(li2)
    assert set(ats) == {i2n["E11"], i2n["E22"]}
    assert perp[i2n["E11"]] == {i2n["0"], i2n["E22"]}


def test_atoms_zero_only():
    z = from_tables([[0]], [0], 0)
    ats, perp = atoms_and_orthogonals(Semilattice.from_semigroup(z))
    assert ats == ()


# -- random semilattices via intersection-closed families --------------------

def family_to_semigroup(family):
    """Meet table of an intersection-closed family of subsets (with empty set)."""
    sets = sorted(family, key=lambda s: (len(s), tuple(sorted(s))))
    idx = {s: i for i, s in enumerate(sets)}
    mul = [[idx[a & b] for b in sets] for a in sets]
    inv = list(range(len(sets)))
    return from_tables(mul, inv, idx[frozenset()])


@st.composite
def closed_family(draw):
    base = draw(st.lists(st.sets(st.integers(0, 3), max_size=4).map(frozenset),
                         min_size=1, max_size=5))
    family = {frozenset()}
    for s in base:
        family.add(s)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(family), 2):
            if a & b not in family:
                family.add(a & b)
                changed = True
    return family


@settings(max_examples=40, deadline=None)
@given(closed_family())
def test_random_semilattice_cover_monotonicity(family):
    lattice = Semilattice.from_semigroup(family_to_semigroup(family))
    for e in lattice.nonzero():
        below = [x for x in lattice.members(lattice.down[e]) if x != lattice.zero]
        # find some cover, then any superset within e-down still covers
        for k in range(1, min(3, len(below)) + 1):
            for c in itertools.combinations(below, k):
                if is_cover(lattice, e, c).value:
                    bigger = set(c) | {below[0]}
                    assert is_cover(lattice, e, bigger).value


@settings(max_examples=40, deadline=None)
@given(closed_family())
def test_random_semilattice_trapping_always_holds_finite(family):
    # in a finite semilattice the full orthogonal complement always traps
    lattice = Semilattice.from_semigroup(family_to_semigroup(family))
    assert trapping_by_leq(lattice).value

