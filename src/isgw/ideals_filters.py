"""Ideals of S, order ideals of E, the filter space with its tight part,
the conjugation action on filters, and the hull/kernel correspondence.

For a finite semilattice every filter is the up-set of its minimum, so
filters are carried around as their minimum element; all the set-level
operations reduce to mask tests on the bitset view of E
(``semilattice.Semilattice``), in which bit e stands for element e.
"""

from __future__ import annotations

from .core import InverseSemigroup, cayley_graphs, nonzero_down, per_semigroup
from .errors import DomainViolation, InternalContract
from .semilattice import Semilattice, atoms, positions
from .util import Record, set_field, unions


# -- order ideals of E --------------------------------------------------------

class IdealOfS(Record):
    __slots__ = ("elements", "trace", "saturated", "is_zero_only")

    def __init__(self, elements: frozenset, trace: frozenset, saturated: bool,
                 is_zero_only: bool):
        set_field(self, "elements", elements)
        set_field(self, "trace", trace)  # the idempotents of the ideal
        set_field(self, "saturated", saturated)
        set_field(self, "is_zero_only", is_zero_only)


def order_ideals(lattice: Semilattice) -> tuple:
    """All nonempty downward-closed subsets of E (each contains 0), smallest
    first; enumerated once per semigroup."""
    return _order_ideals(lattice.parent)


@per_semigroup
def _order_ideals(s: InverseSemigroup) -> tuple:
    lattice = Semilattice.from_semigroup(s)
    # every order ideal is the union of the down-sets of its members
    ideals = unions(map(lattice.down.__getitem__, lattice.elements), 1 << lattice.zero)
    ordered = sorted((lattice.members(m) for m in ideals), key=lambda x: (len(x), x))
    return tuple(frozenset(x) for x in ordered)


def is_invariant_order_ideal(s: InverseSemigroup, x: frozenset) -> bool:
    """X is invariant when a*a lies in X whenever aa* does, that is, when X
    is a union of D-classes: |X| mask tests."""
    members = Semilattice.from_semigroup(s).mask(x)
    classes = d_class_masks(s)
    return all(not classes[e] & ~members for e in x)


# -- D-classes of E -------------------------------------------------------------

@per_semigroup
def d_class_masks(s: InverseSemigroup) -> tuple:
    """Each idempotent e mapped to the mask of its D-class (0 off E).  In an
    inverse semigroup e D f iff e = aa* and f = a*a for some a (Lawson,
    *Inverse Semigroups*, 1998, chapter 3), so one pass over the domain and
    range tables sets bit a*a in the mask of aa*: O(n) lookups."""
    order = s.order()
    out = [0] * s.n
    for d, r in zip(order.dom, order.ran):
        out[r] |= 1 << d
    return tuple(out)


@per_semigroup
def d_classes(s: InverseSemigroup) -> tuple:
    """The D-classes of E, {0} included, as frozensets ordered by least
    member.  They are the ideals' principal generators, the orbits of the
    conjugation action on filters and the unit orbits of every groupoid."""
    masks = d_class_masks(s)
    return tuple(frozenset(positions(masks[e])) for e in s.idempotents
                 if masks[e] & -masks[e] == 1 << e)


def _saturated_mask(lattice: Semilattice, current: int) -> int:
    """Least saturated order ideal over a mask: keep adding every element
    whose down-set is covered from inside the mask."""
    current |= 1 << lattice.zero
    changed = True
    while changed:
        changed = False
        for e in lattice.elements:
            b = 1 << e
            if not current & b and lattice.covers(e, current & lattice.down[e]):
                current |= b
                changed = True
    return current


def is_saturated_order_ideal(lattice: Semilattice, x: frozenset) -> bool:
    members = lattice.mask(x) | 1 << lattice.zero
    return _saturated_mask(lattice, members) == members


# -- ideals of S --------------------------------------------------------------

def ideal_generated(s: InverseSemigroup, seed) -> frozenset:
    """The ideal S^1 X S^1 generated by the seed X: its closure under left and
    right multiplication by the generators of S, O(|ideal|*|G|) lookups.  In
    an inverse semigroup x = x x* x, so this is also SXS."""
    right, left = cayley_graphs(s)
    members = set(seed)
    frontier = members
    while frontier:
        step = set()
        for x in frontier:
            step.update(right[x])
            step.update(left[x])
        frontier = step - members
        members |= frontier
    return frozenset(members)


def principal_ideal(s: InverseSemigroup, a: int) -> frozenset:
    return ideal_generated(s, (a,))


def ideal_trace(s: InverseSemigroup, members: frozenset) -> frozenset:
    """The idempotents of a set of elements."""
    return frozenset(e for e in members if s.is_idempotent(e))


def s_level_saturated(s: InverseSemigroup, members: frozenset) -> bool:
    """Saturation tested with down-sets in all of S rather than in E: no
    element outside the set is covered from inside it."""
    z = s.zero
    down = nonzero_down(s)
    for a in s.elements():
        if a in members or a == z:
            continue
        cover = [c for c in down[a] if c in members]
        if not cover:
            continue
        if all(any(down[x] & down[c] for c in cover) for x in down[a]):
            return False  # a is covered from inside the set but missing
    return True


@per_semigroup
def enumerate_ideals(s: InverseSemigroup) -> tuple:
    """All ideals of S, smallest first.

    Every ideal is the union of the principal ideals inside it, and with
    the zero ideal every union of principal ideals is an ideal.  In a
    finite inverse semigroup J = D and SaS = S(a*a)S, so one principal
    ideal is formed per D-class, from its least idempotent
    (``d_classes``; Howie, *Fundamentals of Semigroup Theory*,
    1995, section 5.1).  The verify check ``ideal_correspondence`` compares
    the result with the bijection with invariant order ideals of E (X maps
    to SXS, an ideal to its idempotents)."""
    lattice = Semilattice.from_semigroup(s)

    principals = [principal_ideal(s, min(c)) for c in d_classes(s)]
    ideal_sets = unions(principals, frozenset({s.zero}))

    out = []
    for members in sorted(ideal_sets, key=lambda m: (len(m), tuple(sorted(m)))):
        trace = ideal_trace(s, members)
        out.append(IdealOfS(
            elements=members,
            trace=trace,
            saturated=is_saturated_order_ideal(lattice, trace),
            is_zero_only=(members == frozenset({s.zero})),
        ))
    return tuple(out)


def finite_cover_witnesses(s: InverseSemigroup) -> dict:
    """A finite cover for every invariant order ideal of E, the traces of
    the ideals of S.

    Finiteness is automatic here; the witness returned for each ideal is its
    atom set, which meets every nonzero member from below.  An order ideal
    holds everything below its members, so its minimal nonzero members are
    the atoms of E inside it."""
    lattice = Semilattice.from_semigroup(s)
    atom_mask = lattice.mask(atoms(lattice))
    out = {}
    for x in (i.trace for i in enumerate_ideals(s)):
        witness = atom_mask & lattice.mask(x)
        if any(not lattice.meets[f] & witness for f in x if f != lattice.zero):
            raise InternalContract("atom set failed to cover an ideal")
        out[x] = lattice.members(witness)
    return out


# -- filters ------------------------------------------------------------------

class FilterSpace(Record):
    """The filters of E by their minima, and the minima of the tight ones,
    which on a finite E are exactly the ultrafilters."""

    __slots__ = ("lattice", "mins", "tight")

    def __init__(self, lattice: Semilattice, mins: tuple, tight: frozenset):
        set_field(self, "lattice", lattice)
        set_field(self, "mins", mins)  # one per filter, sorted
        set_field(self, "tight", tight)

    def basic_set(self, e: int, excluded=()) -> tuple:
        """Filter minima for: e in F while none of the excluded elements is."""
        lattice = self.lattice
        allowed = lattice.down[lattice.index(e)] & ~(1 << lattice.zero)
        for x in excluded:
            allowed &= ~lattice.down[lattice.index(x)]
        return lattice.members(allowed)

    def tight_basic_set(self, e: int, excluded=()) -> tuple:
        return tuple(m for m in self.basic_set(e, excluded) if m in self.tight)


def _is_ultra(lattice: Semilattice, m: int) -> bool:
    """No nonzero f outside the filter up[m] meets every member of it."""
    members = lattice.up[m]
    return all(members & ~lattice.meets[f]
               for f in positions(lattice.full & ~members & ~(1 << lattice.zero)))


def filter_space(lattice: Semilattice) -> FilterSpace:
    """Enumerate all filters (up-sets of nonzero minima) and classify the
    ultrafilters.  The tight filters are the closure of the ultrafilters,
    and a finite space is discrete, so they are the ultrafilters.  The
    verify check ``tight_equals_ultra_equals_atoms`` compares them with the
    filters that no cover avoids and with the atom filters."""
    mins = lattice.nonzero()
    tight = frozenset(m for m in mins if _is_ultra(lattice, m))
    return FilterSpace(lattice, mins, tight)


def hull(lattice: Semilattice, x) -> tuple:
    """Minima of the filters disjoint from x: the nonzero m with
    up[m] & X == 0, ascending."""
    members = lattice.mask(x)
    up = lattice.up
    return tuple(m for m in lattice.nonzero() if not up[m] & members)


def hull_tight(space: FilterSpace, x) -> tuple:
    return tuple(m for m in hull(space.lattice, x) if m in space.tight)


def kernel(lattice: Semilattice, filter_mins) -> frozenset:
    """Idempotents missed by every filter in the family: E minus the OR of
    up[m] over the family; always an order ideal."""
    hit = 0
    for m in filter_mins:
        hit |= lattice.up[lattice.index(m)]
    return frozenset(lattice.members(kernel_mask(lattice, hit)))


def kernel_mask(lattice: Semilattice, hit: int) -> int:
    """The kernel as a mask: E minus ``hit``, the OR of the up-sets of a
    family of filters; checked to be an order ideal."""
    ker = lattice.full & ~hit
    if any(lattice.down[e] & ~ker for e in positions(ker)):
        raise InternalContract("kernel failed to be downward closed")
    return ker


def beta_act(s: InverseSemigroup, a: int, filter_min: int) -> int:
    """Image minimum a m a* of the filter with minimum m under conjugation
    by a; the domain constraint a*a in F is enforced.  The verify check
    ``conjugation_action_is_invertible`` compares the up-closure of a F a*
    with the up-set of the image."""
    m = filter_min
    order = s.order()
    if not order.holds(m, order.dom[a]):
        raise DomainViolation("filter does not contain a*a")
    return s.product(s.product(a, m), s.star(a))


# -- invariant subsets of the filter spaces ----------------------------------

class InvariantSubsetsReport(Record):
    __slots__ = ("orbits", "invariant_tight_subsets")

    def __init__(self, orbits: tuple, invariant_tight_subsets: tuple):
        set_field(self, "orbits", orbits)  # frozensets of filter minima
        set_field(self, "invariant_tight_subsets", invariant_tight_subsets)


def invariant_subsets(s: InverseSemigroup) -> InvariantSubsetsReport:
    """The orbits of the conjugation action on the filter space, and the
    invariant subsets of its tight part.  The verify checks
    ``hull_invariance_transfer`` and ``tight_ideal_correspondence`` compare
    them with the invariant order ideals of E through hull and kernel.

    The filter with minimum m <= a*a goes to the one with minimum a m a*,
    and m D a m a* by way of am, so the orbits are the D-classes of the
    nonzero idempotents."""
    space = filter_space(Semilattice.from_semigroup(s))
    orbits = [c for c in d_classes(s) if s.zero not in c]
    for orbit in orbits:
        kinds = {m in space.tight for m in orbit}
        if len(kinds) > 1:
            raise InternalContract("an orbit mixes tight and non-tight filters")
    tight = unions([o for o in orbits if o <= space.tight], frozenset())
    return InvariantSubsetsReport(
        tuple(orbits), tuple(sorted(tight, key=lambda x: (len(x), tuple(sorted(x))))))
