"""Germ groupoids of finite inverse semigroups.

For finite S every filter is principal, so the germ [s, F] at F with minimum
m has the canonical representative s*m, and the arrows of the universal
groupoid are exactly the nonzero elements of S (an element u sits at the
domain filter generated by u*u).  The tight groupoid is the reduction to the
atom filters.  Both carry the discrete topology, so a map between two of
them is a homeomorphism of unit spaces exactly when it is a bijection.

On a discrete groupoid strong effectiveness is effectiveness: each arrow is
an open slice, so the groupoid is effective exactly when no unit has an
isotropy arrow other than itself; a reduction to an invariant set of units
keeps the isotropy of each unit it holds, so every reduction of an effective
groupoid is effective, and the reduction to all units is the groupoid
itself.
"""

from __future__ import annotations

from .congruences import condition_L, rees_quotient
from .core import InverseSemigroup, per_semigroup
from .errors import DomainViolation, InternalContract, NotInvariant
from .ideals_filters import enumerate_ideals
from .semilattice import Semilattice, atoms, is_cover
from .util import Decision, Record, set_field


class Germ(Record):
    """Canonical germ: representative element and the minimum of its domain
    filter.  The representative always satisfies rep* rep = source."""

    __slots__ = ("rep", "source")

    def __init__(self, rep: int, source: int):
        set_field(self, "rep", rep)
        set_field(self, "source", source)


def germ_of(s: InverseSemigroup, a: int, filter_min: int) -> Germ:
    """Canonicalize the germ of (a, F) where F is the filter with the given
    minimum; requires a*a in F."""
    m = filter_min
    order = s.order()
    if not order.holds(m, order.dom[a]):
        raise DomainViolation("element is not defined on that filter")
    rep = s.product(a, m)
    if rep == s.zero:
        raise InternalContract("canonical germ representative vanished")
    return Germ(rep, m)


class FiniteGroupoid:
    """Discrete groupoid whose arrows are semigroup elements in canonical
    germ form; composition is the restricted product.  It is given by its
    units, and its arrows are all the u of S with u*u among them.

    The units are not validated: the universal and tight groupoids of S and
    their reductions to invariant unit sets are groupoids by construction.
    In an inverse semigroup v*v = uu* gives (vu)*(vu) = u*u, so composites
    of nonzero arrows are nonzero; e -> ueu* maps the idempotents below u*u
    onto those below uu* in order, so uu* is an atom when u*u is one; and a
    reduction to an invariant set of units keeps closure under products and
    inverses.  The unit set of each is a union of D-classes.  A tier-1 test
    property (``tests/test_per_semigroup.py``) checks every groupoid that a
    verify run builds against the definition."""

    def __init__(self, s: InverseSemigroup, units):
        self.s = s
        # d and r in the groupoid sense, as filter minima: source(u) = u*u
        # and range(u) = uu*, read from tables built once per semigroup
        order = s.order()
        self.source = order.dom.__getitem__
        self.range = order.ran.__getitem__
        self.units = tuple(sorted(units))
        self.unit_set = frozenset(self.units)
        # the zero is never a unit, so it is never an arrow
        self.arrows = tuple(u for u, m in enumerate(order.dom) if m in self.unit_set)

    def composable_pairs(self):
        """Every composable pair (v, u): u in arrow order and, for each u,
        the arrows v whose source is the range of u, in arrow order."""
        by_source = {}
        for v in self.arrows:
            by_source.setdefault(self.source(v), []).append(v)
        for u in self.arrows:
            for v in by_source.get(self.range(u), ()):
                yield v, u

    def inverse(self, u: int) -> int:
        return self.s.star(u)

    def isotropy(self, m: int) -> tuple:
        return tuple(u for u in self.arrows if self.source(u) == m and self.range(u) == m)

    def n_units(self) -> int:
        return len(self.units)

    def n_arrows(self) -> int:
        return len(self.arrows)


class GroupoidPair(Record):
    __slots__ = ("universal", "tight")

    def __init__(self, universal: FiniteGroupoid, tight: FiniteGroupoid):
        set_field(self, "universal", universal)
        set_field(self, "tight", tight)


@per_semigroup
def build_groupoids(s: InverseSemigroup) -> GroupoidPair:
    """Universal groupoid over all filters and its reduction to the tight
    (atom) filters."""
    universal = FiniteGroupoid(s, [e for e in s.idempotents if e != s.zero])
    tight = FiniteGroupoid(s, atoms(Semilattice.from_semigroup(s)))
    return GroupoidPair(universal, tight)


def reduction(g: FiniteGroupoid, unit_subset) -> FiniteGroupoid:
    """Subgroupoid over an invariant set of units."""
    a = frozenset(unit_subset)
    if not a <= g.unit_set:
        raise NotInvariant("not a subset of the unit space")
    for u in g.arrows:
        if (g.source(u) in a) != (g.range(u) in a):
            raise NotInvariant(f"arrow {u} crosses the boundary")
    return FiniteGroupoid(g.s, a)


def effectiveness(g: FiniteGroupoid) -> Decision:
    """Whether no unit has an isotropy arrow other than itself; the witness
    of a failure is the first such (unit, arrow).  On this discrete
    groupoid the value is also strong effectiveness (module docstring)."""
    for m in g.units:
        for u in g.isotropy(m):
            if u != m:
                return Decision(False, (m, u))
    return Decision(True)


# -- conditions ----------------------------------------------------------------

@per_semigroup
def condition_K(s: InverseSemigroup) -> bool:
    """Every Rees quotient by a saturated ideal satisfies condition (L).  The
    verify check ``strong_effectiveness_iff_condition_k`` compares the value
    with strong effectiveness of the tight groupoid, which is its
    effectiveness (module docstring).  The paper's trapping
    hypothesis on E holds on every finite E."""
    value = True
    for ideal in enumerate_ideals(s):
        if ideal.saturated:
            value = condition_L(rees_quotient(s, ideal.elements).quotient) and value
    return value


def weakly_fixed_criterion(s: InverseSemigroup) -> Decision:
    """For every element a and every idempotent e <= a*a weakly fixed under a
    (a f a* f is nonzero for all nonzero f <= e), search a cover of e by
    fixed idempotents; the witness of a failure is (a, e).  The verify check
    ``effectiveness_chain`` links it with effectiveness and the fundamental
    quotient."""
    lattice = Semilattice.from_semigroup(s)
    order = s.order()
    below = {e: [f for f in lattice.members(lattice.down[e]) if f != s.zero]
             for e in lattice.nonzero()}
    for a in s.nonzero():
        dom = order.dom[a]
        for e in below:
            if not order.holds(e, dom):
                continue
            weakly_fixed = all(
                s.product(s.product(s.product(a, f), s.star(a)), f) != s.zero
                for f in below[e]
            )
            if not weakly_fixed:
                continue
            fixed = [f for f in below[e] if s.product(a, f) == f]
            if not (fixed and is_cover(lattice, e, fixed, require_below=True).value):
                return Decision(False, (a, e))
    return Decision(True)
