"""Germ groupoids of finite inverse semigroups.

For finite S every filter is principal, so the germ [s, F] at F with minimum
m has the canonical representative s*m, and the arrows of the universal
groupoid are exactly the nonzero elements of S (an element u sits at the
domain filter generated by u*u).  The tight groupoid is the reduction to the
atom filters.  Both carry the discrete topology, so the topological content
of the structure theorems collapses to bijectivity of the explicit maps.

On a discrete groupoid strong effectiveness is effectiveness: each arrow is
an open slice, so the groupoid is effective exactly when no unit has an
isotropy arrow other than itself; a reduction to an invariant set of units
keeps the isotropy of each unit it holds, so every reduction of an effective
groupoid is effective, and the reduction to all units is the groupoid
itself.
"""

from __future__ import annotations

from .congruences import QuotientSemigroup, condition_L, double_arrow, quotient, rees_quotient
from .core import InverseSemigroup, per_semigroup
from .errors import DomainViolation, InternalContract, NotInvariant
from .ideals_filters import enumerate_ideals
from .report import TheoremEntry
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
        self._unit_set = frozenset(self.units)
        # the zero is never a unit, so it is never an arrow
        self.arrows = tuple(u for u, m in enumerate(order.dom) if m in self._unit_set)

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
    if not a <= g._unit_set:
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


# -- structure-theorem verification -------------------------------------------

def _check_functor(src: FiniteGroupoid, dst: FiniteGroupoid, f, name: str) -> TheoremEntry:
    """Verify that the element map f, restricted to the units and to the
    arrows of src, is a functor onto dst that is bijective on units and on
    arrows; any failure is reported with the offending germ.  A map into a
    finite set is a bijection onto it when its images cover it and the two
    sets have one size."""
    for m in src.units:
        if f[m] not in dst._unit_set:
            return TheoremEntry(name, "fail", detail="unit map escapes target",
                                counterexample=m)
    if not len(src.units) == len({f[m] for m in src.units}) == len(dst.units):
        return TheoremEntry(name, "fail", detail="unit map is not a bijection")
    for u in src.arrows:
        v = f[u]
        # v is an arrow of dst exactly when its source is a unit there
        if dst.source(v) not in dst._unit_set:
            return TheoremEntry(name, "fail", detail="arrow map escapes target",
                                counterexample=u)
        if dst.source(v) != f[src.source(u)] or dst.range(v) != f[src.range(u)]:
            return TheoremEntry(name, "fail", detail="source/range not preserved",
                                counterexample=u)
        if f[src.inverse(u)] != dst.inverse(v):
            return TheoremEntry(name, "fail", detail="inverse not preserved",
                                counterexample=u)
    images = len({f[u] for u in src.arrows})
    if not len(src.arrows) == images == len(dst.arrows):
        return TheoremEntry(name, "fail", detail="arrow map is not a bijection",
                            counterexample=(len(src.arrows), images, len(dst.arrows)))
    # endpoints are preserved, so the images of a composable pair compose
    src_mul, dst_mul = src.s.mul, dst.s.mul
    for v, u in src.composable_pairs():
        if f[src_mul[v][u]] != dst_mul[f[v]][f[u]]:
            return TheoremEntry(name, "fail", detail="composition not preserved",
                                counterexample=(v, u))
    return TheoremEntry(name, "pass")


def _bijects(f, units, targets) -> bool:
    """f restricted to the units is a bijection onto the targets."""
    images = {f[m] for m in units}
    return images == set(targets) and len(images) == len(units)


def _labelled(entry: TheoremEntry, label: str) -> TheoremEntry:
    entry.detail = (entry.detail + " " + label).strip()
    return entry


def _formula_independence(s: InverseSemigroup, inner: FiniteGroupoid, x: frozenset,
                          sub: InverseSemigroup, to_sub: dict, label: str) -> list:
    """A failure entry for each arrow of the reduction to the ideal whose
    stated formula depends on the choice of e in F cap I."""
    out = []
    mul = s.mul
    for u in inner.arrows:
        m = inner.source(u)
        for e in x:
            if e != s.zero and mul[e][m] == m:  # m <= e, both idempotent
                g = germ_of(sub, to_sub[s.product(u, e)], to_sub[m])
                if g.rep != to_sub[u]:
                    out.append(TheoremEntry(
                        "universal_reduction_to_ideal", "fail",
                        detail=f"formula depends on the chosen idempotent {label}",
                        counterexample=(u, e)))
                    break
    return out


def _ideal_entries(s: InverseSemigroup, level: str, ideal, sub: InverseSemigroup,
                   to_sub: dict, q_rees: QuotientSemigroup) -> list:
    """The statements for one ideal at one groupoid level, "universal" (all
    nonzero idempotents as units) or "tight" (the atoms): restriction to the
    ideal and the Rees projection biject the units inside and outside it
    onto the units of the ideal's and the quotient's groupoids, and induce
    isomorphisms from the two reductions of S's groupoid onto them."""
    g = getattr(build_groupoids(s), level)
    sub_g = getattr(build_groupoids(sub), level)
    rees_g = getattr(build_groupoids(q_rees.quotient), level)
    x = ideal.trace
    label = f"ideal:{sorted(x)}"
    inside = [m for m in g.units if m in x]
    outside = [m for m in g.units if m not in x]
    prefix = "" if level == "universal" else "tight_"

    failed = ("restriction" if not _bijects(to_sub, inside, sub_g.units)
              else "quotient" if not _bijects(q_rees.projection, outside, rees_g.units)
              else None)
    entries = [TheoremEntry(prefix + "filter_restriction_homeos",
                            "fail" if failed else "pass", detail=label,
                            counterexample=failed)]

    inner = reduction(g, inside)
    entries.append(_labelled(_check_functor(inner, sub_g, to_sub,
                                            f"{level}_reduction_to_ideal"), label))
    if level == "universal":
        entries.extend(_formula_independence(s, inner, x, sub, to_sub, label))

    outer = reduction(g, outside)
    entries.append(_labelled(_check_functor(outer, rees_g, q_rees.projection,
                                            f"{level}_reduction_to_quotient"), label))
    if level == "tight":
        counts = (rees_g.n_arrows(), outer.n_arrows())
        same = counts[0] == counts[1]
        entries.append(TheoremEntry("tight_reduction_arrow_count",
                                    "pass" if same else "fail", detail=label,
                                    counterexample=None if same else counts))
    return entries


def verify_structure_theorems(s: InverseSemigroup) -> list:
    """Run every groupoid-level structure statement on one semigroup:

    - the double-arrow collapse induces a bijection of tight filter spaces
      and an isomorphism of tight groupoids (built from the explicit maps);
    - for every ideal, restriction and the Rees projection biject the
      filters inside and outside it onto the filters of the ideal and of the
      Rees quotient, and induce isomorphisms between reductions of the
      universal groupoid and the groupoids of the two;
    - for every saturated ideal, the same holds at the tight level.

    Both levels run ``_ideal_entries``; the Rees quotients are the ones
    ``quotient`` caches, shared with ``condition_K`` and the other callers.
    Returns a list of TheoremEntry values; a "fail" entry is a falsification.
    """
    entries = []
    tight = build_groupoids(s).tight

    # collapse by the double-arrow congruence
    q = quotient(s, double_arrow(s))
    tq = q.quotient
    tight_q = build_groupoids(tq).tight
    if _bijects(q.projection, tight.units, tight_q.units):
        entries.append(TheoremEntry("tight_spectrum_collapse_homeo", "pass"))
    else:
        entries.append(TheoremEntry("tight_spectrum_collapse_homeo", "fail",
                                    detail="atom filters do not correspond",
                                    counterexample=sorted((m, q.projection[m])
                                                          for m in tight.units)))

    entries.append(_check_functor(tight, tight_q, q.projection,
                                  "tight_groupoid_collapse_isomorphism"))
    # the collapse map formula holds on non-canonical germ presentations too
    bad = None
    order = s.order()
    for a in s.nonzero():
        dom = order.dom[a]
        for m in tight.units:
            if order.holds(m, dom):
                lhs = germ_of(tq, q.projection[a], q.projection[m])
                rhs = germ_of(tq, q.projection[s.product(a, m)], q.projection[m])
                if lhs != rhs:
                    bad = (a, m)
                    break
        if bad:
            break
    if bad:
        entries.append(TheoremEntry(
            "tight_groupoid_collapse_isomorphism", "fail",
            detail="map not constant on a germ class", counterexample=bad))

    for ideal in enumerate_ideals(s):
        sub, to_sub = s.restrict(ideal.elements)
        q_rees = rees_quotient(s, ideal.elements)
        for level in ("universal", "tight") if ideal.saturated else ("universal",):
            entries.extend(_ideal_entries(s, level, ideal, sub, to_sub, q_rees))
    return entries


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
