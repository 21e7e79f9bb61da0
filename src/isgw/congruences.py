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


def equality_congruence(s: InverseSemigroup) -> Congruence:
    return make_congruence(s, lambda a: a)


def universal_congruence(s: InverseSemigroup) -> Congruence:
    return make_congruence(s, lambda a: 0)


def _merge_pair_orbits(dsu: UnionFind, right, left, stack: list) -> None:
    """Merge each pair of the stack in ``dsu`` and, for each union that
    succeeds, push the pair's translates by every generator on either side."""
    while stack:
        a, b = stack.pop()
        if dsu.union(a, b):
            stack.extend(zip(right[a], right[b]))
            stack.extend(zip(left[a], left[b]))


def congruence_closure(s: InverseSemigroup, pairs) -> Congruence:
    """Least congruence containing the given pairs, by pair orbits (Freese,
    "Computing congruences efficiently", Algebra Universalis 59, 2008): each
    union that merges two classes pushes the pair's translates by every
    generator on either side, so at most n - 1 unions push 2|G| pairs each."""
    right, left = cayley_graphs(s)
    dsu = UnionFind(s.n)
    _merge_pair_orbits(dsu, right, left, list(pairs))
    return make_congruence(s, dsu.find)


@per_semigroup
def congruence_lattice(s: InverseSemigroup) -> tuple:
    """Every congruence of S, sorted by decreasing class count and then by
    class index; see ``enumerate_congruences``."""
    right, left = cayley_graphs(s)
    n = s.n

    def join(roots: tuple, a: int, b: int) -> tuple:
        dsu = UnionFind(n)
        dsu.parent[:] = roots  # each element points at its root
        _merge_pair_orbits(dsu, right, left, [(a, b)])
        return tuple(map(dsu.find, range(n)))

    equality = tuple(range(n))
    generating_pairs = []
    principals = set()
    for a, b in itertools.combinations(range(n), 2):
        p = join(equality, a, b)
        if p not in principals:
            principals.add(p)
            generating_pairs.append((a, b))

    found = {equality}
    frontier = [equality]
    while frontier:
        fresh = []
        for rho in frontier:
            for a, b in generating_pairs:
                if rho[a] == rho[b]:
                    continue
                j = join(rho, a, b)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    lattice = [make_congruence(s, roots.__getitem__) for roots in found]
    return tuple(sorted(lattice, key=lambda r: (-len(r.classes), r.class_index)))


def enumerate_congruences(s: InverseSemigroup, bound: int = DEFAULT_ENUMERATION_BOUND) -> list:
    """The full congruence lattice, as all joins of principal congruences,
    computed once per semigroup.

    A congruence is held as the tuple of its union-find roots; each class is
    rooted at its least member, so the tuple is a canonical key.  One
    generating pair (a, b) is kept per distinct principal congruence, and
    rho v Cg(a, b) is rho itself when rho relates a and b, else the closure
    of the single pair (a, b) by pair orbits on a copy of rho's roots (Torpey,
    *Semigroup congruences*, PhD thesis, St Andrews, 2019).  Only the distinct
    members are packaged as Congruence objects.  Raises TooLarge above the
    bound, and returns a fresh list each call."""
    if s.n > bound:
        raise TooLarge(f"|S| = {s.n} exceeds enumeration bound {bound}")
    return list(congruence_lattice(s))


@per_semigroup
def double_arrow(s: InverseSemigroup) -> Congruence:
    """The congruence identifying a and b when each nonzero element below one
    has a nonzero common lower bound with the other, both ways round.  The
    result is checked to be a 0-restricted congruence.

    Sets of elements are int bitsets.  With D(a) the nonzero elements below
    a, ``meets[x]`` is the set of y whose D(y) meets D(x), and a -> b holds
    iff b lies in ``meets[x]`` for every x in D(a)."""
    order = s.order()
    z = s.zero
    n = s.n
    down = [[x for x in order.down(a) if x != z] for a in range(n)]
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
    dsu = UnionFind(n)
    for a in range(n):
        rest = arrow[a]
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            if arrow[b] >> a & 1:
                related[a] |= low
                if b > a:
                    dsu.union(a, b)
    # transitivity must already hold (the relation is proven transitive);
    # verify rather than trust, then verify compatibility and 0-restriction
    class_bits = [0] * n
    for a in range(n):
        class_bits[dsu.find(a)] |= 1 << a
    if any(related[a] != class_bits[dsu.find(a)] for a in range(n)):
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
    index = rho.class_index
    if check:
        _check_compatible(s, index)
    reps = [min(c) for c in rho.classes]
    mul = [[index[row[rb]] for rb in reps] for row in (s.mul[ra] for ra in reps)]
    inv = [index[s.star(r)] for r in reps]
    labels = [_class_label(s, c) for c in rho.classes]
    q = InverseSemigroup(mul, inv, index[s.zero], labels=labels)
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
