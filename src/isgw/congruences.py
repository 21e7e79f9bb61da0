"""Congruence machinery: closures, full lattice enumeration, the double-arrow
collapse, Rees congruences and quotients, and the derived conditions
(condition L, all-congruences-Rees, congruence-freeness)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import InverseSemigroup, cayley_graphs, per_semigroup
from .errors import InternalContract, NotCongruence, NotIdeal, TooLarge
from .relations import EquivalenceRelation, SemigroupHomomorphism, h_and_mu
from .semilattice import Semilattice, is_0_disjunctive
from .util import Decision, UnionFind

DEFAULT_ENUMERATION_BOUND = 10


@dataclass(frozen=True)
class Congruence(EquivalenceRelation):
    is_rees: bool
    is_zero_restricted: bool
    is_idempotent_separating: bool


def make_congruence(s: InverseSemigroup, rep_of, *, check: bool = False) -> Congruence:
    """Package a class map into a Congruence, computing the standard flags."""
    rel = EquivalenceRelation.from_class_map(s.n, rep_of)
    if check:
        _check_compatible(s, rel.class_index)
    classes = rel.classes
    return Congruence(
        rel.n, classes, rel.class_index,
        is_rees=all(len(c) == 1 for c in classes if s.zero not in c),
        is_zero_restricted=(rel.class_of(s.zero) == frozenset({s.zero})),
        is_idempotent_separating=all(sum(1 for x in c if s.is_idempotent(x)) <= 1
                                     for c in classes),
    )


def _check_compatible(s: InverseSemigroup, index) -> None:
    for a in s.elements():
        for b in s.elements():
            if index[a] != index[b]:
                continue
            for c in s.elements():
                if index[s.product(c, a)] != index[s.product(c, b)]:
                    raise NotCongruence(f"left product by {c} separates {a} ~ {b}")
                if index[s.product(a, c)] != index[s.product(b, c)]:
                    raise NotCongruence(f"right product by {c} separates {a} ~ {b}")


def equality_congruence(s: InverseSemigroup) -> Congruence:
    return make_congruence(s, lambda a: a)


def universal_congruence(s: InverseSemigroup) -> Congruence:
    return make_congruence(s, lambda a: 0)


def congruence_closure(s: InverseSemigroup, pairs) -> Congruence:
    """Least congruence containing the given pairs: union-find saturated under
    one-sided multiplication (two-sided compatibility follows)."""
    dsu = UnionFind(s.n)
    for a, b in pairs:
        dsu.union(a, b)
    changed = True
    while changed:
        changed = False
        buckets = {}
        for a in s.elements():
            buckets.setdefault(dsu.find(a), []).append(a)
        for members in buckets.values():
            base = members[0]
            for b in members[1:]:
                for c in s.elements():
                    if dsu.union(s.product(c, base), s.product(c, b)):
                        changed = True
                    if dsu.union(s.product(base, c), s.product(b, c)):
                        changed = True
    return make_congruence(s, dsu.find)


def _join(s: InverseSemigroup, rho: Congruence, sigma: Congruence) -> Congruence:
    """Join in the congruence lattice; for semigroup congruences the
    transitive closure of the union is already compatible."""
    dsu = UnionFind(s.n)
    for c in rho.classes + sigma.classes:
        dsu.union_all(c)
    return make_congruence(s, dsu.find)


def enumerate_congruences(s: InverseSemigroup, bound: int = DEFAULT_ENUMERATION_BOUND) -> list:
    """The full congruence lattice, as all joins of principal congruences."""
    if s.n > bound:
        raise TooLarge(f"|S| = {s.n} exceeds enumeration bound {bound}")
    principals = []
    seen_p = set()
    for a, b in itertools.combinations(range(s.n), 2):
        p = congruence_closure(s, [(a, b)])
        if p.class_index not in seen_p:
            seen_p.add(p.class_index)
            principals.append(p)

    found = {equality_congruence(s).class_index: equality_congruence(s)}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for rho in frontier:
            for p in principals:
                j = _join(s, rho, p)
                if j.class_index not in found:
                    found[j.class_index] = j
                    fresh.append(j)
        frontier = fresh
    out = sorted(found.values(), key=lambda r: (-len(r.classes), r.class_index))
    return out


@per_semigroup
def double_arrow(s: InverseSemigroup) -> Congruence:
    """The congruence identifying a and b when each nonzero element below one
    has a nonzero common lower bound with the other, both ways round.  The
    result is checked to be a 0-restricted congruence."""
    order = s.order()
    z = s.zero
    down = [set(order.down(a)) - {z} for a in s.elements()]

    def arrow(a: int, b: int) -> bool:
        return all(down[x] & down[b] for x in down[a])

    n = s.n
    related = [[arrow(a, b) and arrow(b, a) for b in range(n)] for a in range(n)]
    dsu = UnionFind(n)
    for a in range(n):
        for b in range(a + 1, n):
            if related[a][b]:
                dsu.union(a, b)
    # transitivity must already hold (the relation is proven transitive);
    # verify rather than trust, then verify compatibility and 0-restriction
    for a in range(n):
        for b in range(n):
            if (dsu.find(a) == dsu.find(b)) != related[a][b]:
                raise InternalContract("double-arrow relation failed transitivity")
    try:
        rho = make_congruence(s, dsu.find, check=True)
    except NotCongruence as exc:
        raise InternalContract(f"double-arrow relation is not a congruence: {exc}") from exc
    if not rho.is_zero_restricted:
        raise InternalContract("double-arrow congruence is not 0-restricted")
    return rho


@dataclass(frozen=True)
class QuotientSemigroup:
    source: InverseSemigroup
    quotient: InverseSemigroup
    projection: tuple  # source element -> quotient element

    def as_homomorphism(self) -> SemigroupHomomorphism:
        return SemigroupHomomorphism(self.source, self.quotient, self.projection)


def _class_label(s: InverseSemigroup, cls: frozenset) -> str:
    if s.zero in cls:
        return "0"
    names = sorted(s.labels[x] for x in cls)
    if len(names) == 1:
        return names[0]
    if len(names) > 3:
        return "[" + "|".join(names[:3]) + "|...]"
    return "[" + "|".join(names) + "]"


def quotient(s: InverseSemigroup, rho: Congruence, *, check: bool = True) -> QuotientSemigroup:
    """Quotient semigroup on the classes; the class of 0 is the new zero."""
    if check:
        _check_compatible(s, rho.class_index)
    reps = [min(c) for c in rho.classes]
    mul = [[rho.class_index[s.product(ra, rb)] for rb in reps] for ra in reps]
    inv = [rho.class_index[s.star(r)] for r in reps]
    labels = [_class_label(s, c) for c in rho.classes]
    q = InverseSemigroup(mul, inv, rho.class_index[s.zero], labels=labels)
    return QuotientSemigroup(source=s, quotient=q, projection=rho.class_index)


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
    return quotient(s, rees_congruence(s, ideal), check=False)


@dataclass(frozen=True)
class AllReesReport:
    value: bool
    method_a: Decision | None  # None when enumeration was skipped (too large)
    method_b: Decision
    agree: bool | None


def all_congruences_rees(s: InverseSemigroup, bound: int = DEFAULT_ENUMERATION_BOUND) -> AllReesReport:
    """Two independent decisions that every congruence is Rees.

    Method A enumerates the congruence lattice and inspects every member.
    Method B checks, for every ideal I, that S/I is fundamental with a
    0-disjunctive semilattice.  Both must agree whenever A runs.
    """
    from .ideals_filters import enumerate_ideals

    method_b = Decision(True)
    for ideal in enumerate_ideals(s):
        q = rees_quotient(s, ideal.elements).quotient
        if not h_and_mu(q).fundamental:
            method_b = Decision(False, ("quotient_not_fundamental", ideal.elements))
            break
        if not is_0_disjunctive(Semilattice.from_semigroup(q)).value:
            method_b = Decision(False, ("quotient_not_0_disjunctive", ideal.elements))
            break

    method_a = None
    agree = None
    if s.n <= bound:
        method_a = Decision(True)
        for rho in enumerate_congruences(s, bound):
            if not rho.is_rees:
                method_a = Decision(False, rho.partition())
                break
        agree = method_a.value == method_b.value
        if not agree:
            raise InternalContract("all-congruences-Rees methods disagree")
    return AllReesReport(value=method_b.value, method_a=method_a,
                         method_b=method_b, agree=agree)


def is_0_simple(s: InverseSemigroup) -> bool:
    """Has a zero, a nonzero element, and no proper nonzero ideals."""
    from .ideals_filters import enumerate_ideals

    if s.n < 2:
        return False
    ideal_sets = {i.elements for i in enumerate_ideals(s)}
    return ideal_sets == {frozenset({s.zero}), frozenset(s.elements())}


def is_congruence_free(s: InverseSemigroup, bound: int = DEFAULT_ENUMERATION_BOUND) -> bool:
    """Fundamental, 0-simple, with a 0-disjunctive semilattice; cross-checked
    against the congruence lattice when S is small enough to enumerate."""
    by_structure = (
        h_and_mu(s).fundamental
        and is_0_simple(s)
        and is_0_disjunctive(Semilattice.from_semigroup(s)).value
    )
    if s.n <= bound:
        lattice = enumerate_congruences(s, bound)
        by_enumeration = (
            len(lattice) == 2
            and any(r.is_equality() for r in lattice)
            and any(r.is_universal() for r in lattice)
        )
        if by_structure != by_enumeration:
            raise InternalContract("congruence-freeness characterizations disagree")
    return by_structure


@per_semigroup
def condition_L(s: InverseSemigroup) -> bool:
    """The double-arrow quotient is fundamental."""
    q = quotient(s, double_arrow(s), check=False).quotient
    return h_and_mu(q).fundamental
