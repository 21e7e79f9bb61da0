"""Ideals of S, order ideals of E, the filter space with its tight part,
the conjugation action on filters, and the hull/kernel correspondence.

For a finite semilattice every filter is the up-set of its minimum, so
filters are carried around as their minimum element; all the set-level
operations reduce to order lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InverseSemigroup, per_semigroup
from .errors import CapExceeded, DomainViolation, InternalContract
from .semilattice import Semilattice, is_cover, has_trapping_condition, atoms
from .util import Decision, UnionFind, downsets, group_by, subsets

MAX_ORBITS = 16


# -- order ideals of E --------------------------------------------------------

@dataclass(frozen=True)
class OrderIdealOfE:
    elements: frozenset
    invariant: bool
    saturated: bool


@dataclass(frozen=True)
class IdealOfS:
    elements: frozenset
    trace: frozenset  # the idempotents of the ideal
    saturated: bool
    is_zero_only: bool


def order_ideals(lattice: Semilattice, cap: int = 1 << 20) -> list:
    """All nonempty downward-closed subsets of the carrier (each contains 0)."""
    out = [x | {lattice.zero} for x in downsets(list(lattice.nonzero()), lattice.leq, cap=cap)]
    return sorted({frozenset(x) for x in out}, key=lambda x: (len(x), tuple(sorted(x))))


def is_invariant_order_ideal(s: InverseSemigroup, x: frozenset) -> bool:
    for a in s.elements():
        if s.product(a, s.star(a)) in x and s.product(s.star(a), a) not in x:
            return False
    return True


def saturate(lattice: Semilattice, x) -> frozenset:
    """Least saturated order ideal containing x: keep adding every element
    whose down-set is covered from inside x."""
    current = set(x) | {lattice.zero}
    changed = True
    while changed:
        changed = False
        for e in lattice.nonzero():
            if e in current:
                continue
            members = [c for c in lattice.below(e) if c in current and c != lattice.zero]
            if members and is_cover(lattice, e, members, require_below=True).value:
                current.add(e)
                changed = True
    return frozenset(current)


def is_saturated_order_ideal(lattice: Semilattice, x: frozenset) -> bool:
    return saturate(lattice, x) == frozenset(x) | {lattice.zero}


def classify_order_ideal(s: InverseSemigroup, lattice: Semilattice, x: frozenset) -> OrderIdealOfE:
    return OrderIdealOfE(
        elements=x,
        invariant=is_invariant_order_ideal(s, x),
        saturated=is_saturated_order_ideal(lattice, x),
    )


# -- ideals of S --------------------------------------------------------------

def principal_ideal(s: InverseSemigroup, a: int) -> frozenset:
    return frozenset(s.product(s.product(x, a), y) for x in s.elements() for y in s.elements())


def _ideal_trace(s: InverseSemigroup, members: frozenset) -> frozenset:
    return frozenset(e for e in members if s.is_idempotent(e))


def s_level_saturated(s: InverseSemigroup, members: frozenset) -> bool:
    """Saturation tested with down-sets in all of S rather than in E: no
    element outside the set is covered from inside it."""
    order = s.order()
    z = s.zero
    down = [set(order.down(a)) - {z} for a in s.elements()]
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
    """All ideals of S, cross-checked against the bijection with invariant
    order ideals of E (X maps to SXS, an ideal maps to its idempotents).

    Every ideal is the union of the principal ideals inside it, which form a
    downset of the inclusion order on principal ideals, and each such
    downset gives a different ideal."""
    lattice = Semilattice.from_semigroup(s)

    principals = list({principal_ideal(s, a): None for a in s.elements()})
    ideal_sets = {frozenset({s.zero}).union(*d)
                  for d in downsets(principals, frozenset.issubset)}

    invariant_xs = sorted(
        (x for x in order_ideals(lattice) if is_invariant_order_ideal(s, x)),
        key=lambda x: (len(x), tuple(sorted(x))),
    )
    from_xs = {}
    for x in invariant_xs:
        sxs = frozenset(
            s.product(s.product(a, e), b)
            for e in x for a in s.elements() for b in s.elements()
        )
        from_xs[x] = sxs
        if _ideal_trace(s, sxs) != x:
            raise InternalContract("SXS does not trace back to X")
    if set(from_xs.values()) != ideal_sets:
        raise InternalContract("ideal enumeration and invariant order ideals disagree")
    for members in ideal_sets:
        trace = _ideal_trace(s, members)
        if from_xs.get(trace) != members:
            raise InternalContract("ideal does not round-trip through its trace")

    out = []
    for members in sorted(ideal_sets, key=lambda m: (len(m), tuple(sorted(m)))):
        trace = _ideal_trace(s, members)
        out.append(IdealOfS(
            elements=members,
            trace=trace,
            saturated=is_saturated_order_ideal(lattice, trace),
            is_zero_only=(members == frozenset({s.zero})),
        ))
    return tuple(out)


def finite_cover_witnesses(s: InverseSemigroup) -> dict:
    """A finite cover for every invariant order ideal of E.

    Finiteness is automatic here; the witness returned for each ideal is its
    atom set, which meets every nonzero member from below."""
    from .semilattice import atoms

    lattice = Semilattice.from_semigroup(s)
    out = {}
    for x in order_ideals(lattice):
        if not is_invariant_order_ideal(s, x):
            continue
        sub = Semilattice(lattice.parent, tuple(sorted(x)), lattice.zero)
        witness = atoms(sub)
        for f in x:
            if f != lattice.zero and not any(
                    lattice.meet(c, f) != lattice.zero for c in witness):
                raise InternalContract("atom set failed to cover an ideal")
        out[x] = witness
    return out


def saturated_ideal_generated(s: InverseSemigroup, seed) -> frozenset:
    """Least saturated ideal of S containing the given idempotents: alternate
    two-sided ideal generation with semilattice saturation to a fixed point."""
    lattice = Semilattice.from_semigroup(s)
    x = frozenset(seed) | {s.zero}
    while True:
        members = frozenset(
            s.product(s.product(a, e), b)
            for e in x for a in s.elements() for b in s.elements()
        )
        x2 = saturate(lattice, _ideal_trace(s, members))
        if x2 == _ideal_trace(s, members):
            once_more = saturate(lattice, x2)
            if once_more != x2:
                raise InternalContract("saturation failed to be idempotent")
            return members
        x = x2


# -- filters ------------------------------------------------------------------

@dataclass(frozen=True)
class Filter:
    lattice: Semilattice
    min_element: int
    is_ultra: bool
    is_tight: bool

    @property
    def kind(self) -> str:
        return "ultra" if self.is_ultra else "plain"

    def contains(self, e: int) -> bool:
        return self.lattice.leq(self.min_element, e)

    def members(self) -> tuple:
        return tuple(e for e in self.lattice.elements if self.contains(e))


@dataclass(frozen=True)
class FilterSpace:
    lattice: Semilattice
    mins: tuple  # one per filter, sorted
    ultra: frozenset
    tight: frozenset

    def filter(self, m: int) -> Filter:
        if m not in self.mins:
            raise DomainViolation(f"{m} is not a filter minimum")
        return Filter(self.lattice, m, m in self.ultra, m in self.tight)

    def filters(self) -> tuple:
        return tuple(self.filter(m) for m in self.mins)

    def basic_set(self, e: int, excluded=()) -> tuple:
        """Filter minima for: e in F while none of the excluded elements is."""
        out = []
        for m in self.mins:
            if self.lattice.leq(m, e) and not any(self.lattice.leq(m, x) for x in excluded):
                out.append(m)
        return tuple(out)

    def tight_basic_set(self, e: int, excluded=()) -> tuple:
        return tuple(m for m in self.basic_set(e, excluded) if m in self.tight)


def _is_ultra(lattice: Semilattice, m: int) -> bool:
    members = [e for e in lattice.elements if lattice.leq(m, e)]
    for f in lattice.nonzero():
        if lattice.leq(m, f):
            continue
        if all(lattice.meet(f, e) != lattice.zero for e in members):
            return False
    return True


def _is_tight_by_covers(lattice: Semilattice, m: int) -> bool:
    for e in lattice.elements:
        if not lattice.leq(m, e):
            continue
        outside = [x for x in lattice.below(e)
                   if x != lattice.zero and not lattice.leq(m, x)]
        if outside and is_cover(lattice, e, outside, require_below=True).value:
            return False  # a cover of e-down avoids the filter entirely
    return True


def filter_space(lattice: Semilattice) -> FilterSpace:
    """Enumerate all filters (up-sets of nonzero minima), classifying the
    ultrafilters and tight filters by two independent routes."""
    mins = tuple(sorted(lattice.nonzero()))
    ultra = frozenset(m for m in mins if _is_ultra(lattice, m))
    tight_by_covers = frozenset(m for m in mins if _is_tight_by_covers(lattice, m))
    # finite discrete space: the closure of the ultrafilter set is itself
    tight_by_closure = ultra
    if tight_by_covers != tight_by_closure:
        raise InternalContract("tight filter classifications disagree")
    atom_principal = frozenset(atoms(lattice))
    if ultra != atom_principal:
        raise InternalContract("ultrafilters are not exactly the atom filters")
    return FilterSpace(lattice, mins, ultra, tight_by_covers)


def hull(lattice: Semilattice, x) -> tuple:
    """Minima of the filters disjoint from x."""
    members = frozenset(x)
    space_mins = sorted(lattice.nonzero())
    return tuple(m for m in space_mins
                 if not any(lattice.leq(m, e) for e in members))


def hull_tight(space: FilterSpace, x) -> tuple:
    return tuple(m for m in hull(space.lattice, x) if m in space.tight)


def kernel(lattice: Semilattice, filter_mins) -> frozenset:
    """Idempotents missed by every filter in the family; always an order ideal."""
    ker = frozenset(
        e for e in lattice.elements
        if not any(lattice.leq(m, e) for m in filter_mins)
    )
    for e in ker:
        for f in lattice.elements:
            if lattice.leq(f, e) and f not in ker:
                raise InternalContract("kernel failed to be downward closed")
    return ker


def beta_act(s: InverseSemigroup, a: int, filter_min: int) -> int:
    """Image minimum of the filter under conjugation by a; the domain
    constraint a*a in F is enforced."""
    m = filter_min
    dom = s.product(s.star(a), a)
    if not s.leq(m, dom):
        raise DomainViolation("filter does not contain a*a")
    new_min = s.product(s.product(a, m), s.star(a))
    if new_min == s.zero:
        raise InternalContract("conjugated filter minimum vanished")
    # sanity: the up-closure of a F a* is exactly the up-set of the new minimum
    image = {s.product(s.product(a, f), s.star(a))
             for f in s.idempotents if s.leq(m, f)}
    closure = {e for e in s.idempotents if any(s.leq(i, e) for i in image)}
    expected = {e for e in s.idempotents if s.leq(new_min, e)}
    if closure != expected:
        raise InternalContract("conjugated filter is not the predicted up-set")
    return new_min


# -- invariant subsets of the filter spaces ----------------------------------

def _unions(orbits) -> tuple:
    """Every union of the given orbits, smallest first."""
    if len(orbits) > MAX_ORBITS:
        raise CapExceeded(f"{len(orbits)} filter orbits")
    unions = {frozenset().union(*chosen) for chosen in subsets(list(orbits))}
    return tuple(sorted(unions, key=lambda x: (len(x), tuple(sorted(x)))))


@dataclass(frozen=True)
class InvariantSubsetsReport:
    orbits: tuple  # frozensets of filter minima
    invariant_tight_subsets: tuple
    hull_invariance: Decision  # X invariant iff h(X) invariant, over all order ideals
    tight_correspondence: Decision  # saturated invariant ideals <-> invariant tight sets
    trapping: Decision
    hypothesis: str  # "met" or "unmet-recorded"

    @property
    def invariant_subsets(self) -> tuple:
        """Invariant subsets of the full filter space: the unions of orbits."""
        return _unions(self.orbits)


def _filter_orbits(s: InverseSemigroup, mins) -> list:
    dsu = UnionFind(s.n)
    for a in s.elements():
        dom = s.product(s.star(a), a)
        for m in mins:
            if s.leq(m, dom):
                dsu.union(m, s.product(s.product(a, m), s.star(a)))
    return group_by(mins, dsu.find)


def invariant_subsets(s: InverseSemigroup) -> InvariantSubsetsReport:
    """Invariant subsets of the filter space and of its tight part, together
    with the hull-invariance transfer and the saturated-ideal correspondence."""
    lattice = Semilattice.from_semigroup(s)
    space = filter_space(lattice)
    orbits = _filter_orbits(s, space.mins)
    for orbit in orbits:
        kinds = {m in space.tight for m in orbit}
        if len(kinds) > 1:
            raise InternalContract("an orbit mixes tight and non-tight filters")

    tight_subsets = _unions([o for o in orbits if o <= space.tight])

    hull_inv = Decision(True)
    for x in order_ideals(lattice):
        hx = frozenset(hull(lattice, x))
        inv_x = is_invariant_order_ideal(s, x)
        inv_hx = all(o <= hx or not o & hx for o in orbits)  # a union of orbits
        if inv_x != inv_hx:
            hull_inv = Decision(False, (x, hx))
            break

    trapping = has_trapping_condition(lattice)
    hypothesis = "met" if trapping.value else "unmet-recorded"

    correspondence = Decision(True)
    saturated_invariant = [
        x for x in order_ideals(lattice)
        if is_invariant_order_ideal(s, x) and is_saturated_order_ideal(lattice, x)
    ]
    for x in saturated_invariant:
        ht = frozenset(hull_tight(space, x))
        if kernel(lattice, ht) != x:
            correspondence = Decision(False, ("kernel_of_hull", x))
            break
    if correspondence.value:
        for a in tight_subsets:
            if frozenset(hull_tight(space, kernel(lattice, a))) != a:
                correspondence = Decision(False, ("hull_of_kernel", a))
                break

    return InvariantSubsetsReport(
        orbits=tuple(orbits),
        invariant_tight_subsets=tight_subsets,
        hull_invariance=hull_inv,
        tight_correspondence=correspondence,
        trapping=trapping,
        hypothesis=hypothesis,
    )
