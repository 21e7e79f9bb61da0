"""Congruence machinery: closures, the congruence lattice, the double-arrow
collapse, Rees congruences and quotients, and the derived conditions
(condition L, all-congruences-Rees, congruence-freeness)."""

from __future__ import annotations

import itertools

from .core import InverseSemigroup, cayley_graphs, nonzero_down, per_semigroup
from .errors import NotCongruence, NotIdeal
from .relations import EquivalenceRelation, SemigroupHomomorphism, h_and_mu
from .semilattice import Semilattice, is_0_disjunctive, positions
from .util import Decision, Record, UnionFind, set_field


class Congruence(EquivalenceRelation):
    __slots__ = ("is_rees", "is_zero_restricted", "is_idempotent_separating")

    def __init__(self, n: int, classes: tuple, class_index: tuple, is_rees: bool,
                 is_zero_restricted: bool, is_idempotent_separating: bool):
        EquivalenceRelation.__init__(self, n, classes, class_index)
        set_field(self, "is_rees", is_rees)
        set_field(self, "is_zero_restricted", is_zero_restricted)
        set_field(self, "is_idempotent_separating", is_idempotent_separating)


def make_congruence(s: InverseSemigroup, rep_of) -> Congruence:
    """Package a class map into a Congruence, computing the standard flags
    from the class index: Rees when every class but that of 0 is a
    singleton, so that there are n - |class(0)| + 1 classes; 0-restricted
    when the class of 0 is {0}; idempotent-separating when the idempotents
    lie in distinct classes.  Compatibility is not tested here; see
    ``check_compatible``."""
    rel = EquivalenceRelation.from_class_map(s.n, rep_of)
    index = rel.class_index
    zero_class = len(rel.class_of(s.zero))
    return Congruence(
        rel.n, rel.classes, index,
        is_rees=(len(rel.classes) == s.n - zero_class + 1),
        is_zero_restricted=(zero_class == 1),
        is_idempotent_separating=(len({index[e] for e in s.idempotents})
                                  == len(s.idempotents)),
    )


def check_compatible(s: InverseSemigroup, index) -> None:
    """Raise NotCongruence unless the classes of ``index`` are stable under
    multiplication by every generator on either side.  Each element is
    compared with the least member of its class: O(n*|G|) lookups.  This is
    enough because the relation is an equivalence and G generates S, so the
    translates by a product of generators follow one generator at a time."""
    right, left = cayley_graphs(s)
    rep_of = {}
    for a in s.elements():
        r = rep_of.setdefault(index[a], a)
        if r == a:
            continue
        for g, ga, gr, ag, rg in zip(s.generators, left[a], left[r], right[a], right[r]):
            if index[ga] != index[gr]:
                raise NotCongruence(f"left product by {g} separates {r} ~ {a}")
            if index[ag] != index[rg]:
                raise NotCongruence(f"right product by {g} separates {r} ~ {a}")


def congruence_closure(s: InverseSemigroup, pairs) -> tuple:
    """Least congruence containing the given pairs, as the union-find root
    of every element, each class rooted at its least member (wrap it with
    ``make_congruence(s, roots.__getitem__)`` for a Congruence).  Closed by
    pair orbits (Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008): each union that merges two classes pushes the
    pair's translates by every generator on either side, so at most n - 1
    unions push 2|G| pairs each."""
    right, left = cayley_graphs(s)
    dsu = UnionFind(s.n)
    stack = list(pairs)
    while stack:
        a, b = stack.pop()
        if dsu.union(a, b):
            stack.extend(zip(right[a], right[b]))
            stack.extend(zip(left[a], left[b]))
    return dsu.roots()


@per_semigroup
def enumerate_congruences(s: InverseSemigroup) -> tuple:
    """Every congruence of S, computed once per semigroup, sorted by
    decreasing class count and then by class index: all joins of the
    principal congruences of the kernel-trace pairs.  They suffice because
    a rho b iff a*a rho b*b and ab* lies in the kernel of rho, which holds x
    iff x rho xx* (Howie, *Fundamentals of Semigroup Theory*, 1995, section
    5.3).  Fewer pairs generate the same joins:

    - the covering pairs (e, f) of E, f < e with nothing in between, read
      off the bitset view of E: for incomparable e and f,
      Cg(e, f) = Cg(e, ef) v Cg(f, ef), and for g < f < e, e rho g gives
      f = fe rho fg = g, so Cg(e, g) is the join along a chain of covers;
    - (x, xx*) for the x that are not idempotent and have x <= x* as
      indices: x rho xx* gives x* rho xx* and so x*x rho xx*x = x, hence
      Cg(x, xx*) = Cg(x*, x*x); a self-inverse x stays.

    Each principal congruence is closed by ``congruence_closure``; one pair
    is kept per distinct principal, with the pairs (y, root) that rebuild
    it.  A congruence is held as the tuple of its union-find roots, each
    class rooted at its least member.  Con S is a sublattice of the partition
    lattice (Burris & Sankappanavar, *A Course in Universal Algebra*, 1981,
    section II.5), so rho v Cg(a, b) is rho's partition with the classes of
    Cg(a, b) merged in: at most n unions and no orbit pushes.  It is rho
    itself when a rho b."""
    n = s.n

    def merge(roots: tuple, pairs) -> tuple:
        dsu = UnionFind(n)
        dsu.parent[:] = roots  # each element points at its root
        for a, b in pairs:
            dsu.union(a, b)
        return dsu.roots()

    lattice = Semilattice.from_semigroup(s)
    covers = ((e, f)  # [f, e] holds just f and e
              for e in lattice.elements
              for f in positions(lattice.down[e] & ~(1 << e))
              if (lattice.down[e] & lattice.up[f]).bit_count() == 2)
    candidates = itertools.chain(
        covers,
        ((x, s.product(x, s.star(x))) for x in range(n)
         if not s.is_idempotent(x) and x <= s.star(x)))
    equality = tuple(range(n))
    generators = {}  # principal roots -> (a, b, its pairs (y, root))
    for a, b in candidates:
        p = congruence_closure(s, [(a, b)])
        if p not in generators:
            generators[p] = (a, b, [(y, r) for y, r in enumerate(p) if y != r])

    found = {equality}
    frontier = [equality]
    while frontier:
        fresh = []
        for rho in frontier:
            for a, b, pairs in generators.values():
                if rho[a] == rho[b]:
                    continue
                j = merge(rho, pairs)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    lattice = [make_congruence(s, roots.__getitem__) for roots in found]
    return tuple(sorted(lattice, key=lambda r: (-len(r.classes), r.class_index)))


@per_semigroup
def double_arrow_rows(s: InverseSemigroup) -> tuple:
    """The double-arrow relation as int bitsets, computed once per
    semigroup: bit b of row a is set when each nonzero element below a has
    a nonzero common lower bound with b, and each nonzero element below b
    one with a.

    With D(a) the nonzero elements below a (``nonzero_down``), ``meets[x]``
    is the set of y whose D(y) meets D(x), and a -> b holds iff b lies in
    ``meets[x]`` for every x in D(a)."""
    n = s.n
    down = nonzero_down(s)
    up_bits = [0] * n  # up_bits[x]: the a with x in D(a)
    for a, below in enumerate(down):
        bit = 1 << a
        for x in below:
            up_bits[x] |= bit
    meets = [0] * n
    for x, below in enumerate(down):
        m = 0
        for y in below:
            m |= up_bits[y]
        meets[x] = m
    everything = (1 << n) - 1
    arrow = []  # arrow[a]: the b with a -> b
    for below in down:
        m = everything
        for x in below:
            m &= meets[x]
        arrow.append(m)
    related = [0] * n  # related[a]: the b with a -> b and b -> a
    for a in range(n):
        for b in positions(arrow[a]):
            if arrow[b] >> a & 1:
                related[a] |= 1 << b
    return tuple(related)


@per_semigroup
def double_arrow(s: InverseSemigroup) -> Congruence:
    """The union-find classes of the double-arrow relation
    (``double_arrow_rows``).  The paper proves the relation a 0-restricted
    congruence; the verify check ``double_arrow_is_zero_restricted_congruence``
    tests that it is transitive, compatible and 0-restricted."""
    dsu = UnionFind(s.n)
    for a, row in enumerate(double_arrow_rows(s)):
        for b in positions(row):
            dsu.union(a, b)
    return make_congruence(s, dsu.find)


class QuotientSemigroup(Record):
    __slots__ = ("source", "quotient", "projection")

    def __init__(self, source: InverseSemigroup, quotient: InverseSemigroup,
                 projection: tuple):
        set_field(self, "source", source)
        set_field(self, "quotient", quotient)
        set_field(self, "projection", projection)  # source element -> quotient element

    def as_homomorphism(self) -> SemigroupHomomorphism:
        return SemigroupHomomorphism(self.source, self.quotient, self.projection)


@per_semigroup
def quotient(s: InverseSemigroup, rho: Congruence) -> QuotientSemigroup:
    """Quotient semigroup on the classes; the class of 0 is the new zero.

    Raises NotCongruence unless rho is compatible (``check_compatible``,
    O(n*|G|)); the product of two classes is then read from their least
    members.  A homomorphic image of an inverse semigroup is inverse, so the
    quotient is built by ``InverseSemigroup._derived`` and not validated
    again, and its elements are labelled by class index: a pooled quotient
    serves semigroups whose labels differ.  Built once per semigroup and
    partition: equal congruences share one quotient, and with it the
    quotient's own cached structures.

    The quotient by the equality is S itself, with the identity projection:
    the classes are the singletons in element order, so the table built from
    them would be S's own.  S then shares its caches with every caller of
    that quotient, such as the Rees quotient by {0}."""
    index = rho.class_index
    check_compatible(s, index)
    if rho.is_equality():
        return QuotientSemigroup(source=s, quotient=s, projection=index)
    reps = [min(c) for c in rho.classes]
    mul = [[index[row[rb]] for rb in reps] for row in (s.mul[ra] for ra in reps)]
    inv = [index[s.star(r)] for r in reps]
    q = InverseSemigroup._derived(mul, inv, index[s.zero], None)
    return QuotientSemigroup(source=s, quotient=q, projection=index)


def rees_congruence(s: InverseSemigroup, ideal) -> Congruence:
    """Collapse an ideal to zero, leave everything else alone.  A set is an
    ideal iff it is closed under multiplication by the generators on either
    side: O(|I|*|G|) lookups."""
    members = frozenset(ideal)
    if not members or s.zero not in members:
        raise NotIdeal("an ideal must contain the zero")
    foreign = [i for i in members if not isinstance(i, int) or not 0 <= i < s.n]
    if foreign:
        raise NotIdeal(f"{foreign[0]!r} is not an element")
    right, left = cayley_graphs(s)
    for i in sorted(members):
        if members.issuperset(right[i]) and members.issuperset(left[i]):
            continue
        for g, ig, gi in zip(s.generators, right[i], left[i]):
            if ig not in members:
                raise NotIdeal(f"{i}*{g} escapes the set")
            if gi not in members:
                raise NotIdeal(f"{g}*{i} escapes the set")
    return make_congruence(s, lambda a: -1 if a in members else a)


def rees_quotient(s: InverseSemigroup, ideal) -> QuotientSemigroup:
    """S/I, built once per semigroup and ideal: a set and a frozenset of the
    same members share one quotient."""
    return _rees_quotient(s, frozenset(ideal))


@per_semigroup
def _rees_quotient(s: InverseSemigroup, members: frozenset) -> QuotientSemigroup:
    return quotient(s, rees_congruence(s, members))


def all_congruences_rees(s: InverseSemigroup) -> Decision:
    """Whether every congruence of S is a Rees congruence: S/I is fundamental
    with a 0-disjunctive semilattice for every ideal I.  A negative decision
    names how the first failing ideal fails, and its elements in ascending
    order.  The verify check ``all_rees_characterization`` compares it with a
    scan of the congruence lattice for a non-Rees member."""
    from .ideals_filters import enumerate_ideals

    for ideal in enumerate_ideals(s):
        q = rees_quotient(s, ideal.elements).quotient
        if not h_and_mu(q).fundamental:
            return Decision(False, ("quotient_not_fundamental", tuple(sorted(ideal.elements))))
        if not is_0_disjunctive(Semilattice.from_semigroup(q)).value:
            return Decision(False, ("quotient_not_0_disjunctive", tuple(sorted(ideal.elements))))
    return Decision(True)


def is_0_simple(s: InverseSemigroup) -> bool:
    """Has a zero, a nonzero element, and no proper nonzero ideals."""
    from .ideals_filters import enumerate_ideals

    if s.n < 2:
        return False
    ideal_sets = {i.elements for i in enumerate_ideals(s)}
    return ideal_sets == {frozenset({s.zero}), frozenset(s.elements())}


def is_congruence_free(s: InverseSemigroup) -> bool:
    """Fundamental, 0-simple, with a 0-disjunctive semilattice.  The verify
    check ``congruence_free_characterization`` compares this with the
    congruence lattice."""
    return (
        h_and_mu(s).fundamental
        and is_0_simple(s)
        and is_0_disjunctive(Semilattice.from_semigroup(s)).value
    )


@per_semigroup
def condition_L(s: InverseSemigroup) -> bool:
    """The double-arrow quotient is fundamental.  The quotient is the one
    ``quotient`` caches, shared with every other caller."""
    q = quotient(s, double_arrow(s)).quotient
    return h_and_mu(q).fundamental
