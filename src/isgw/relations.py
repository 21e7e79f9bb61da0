"""Green's H relation, the maximum idempotent-separating congruence mu,
the centralizer of the idempotents, and injectivity criteria for
homomorphisms between inverse semigroups."""

from __future__ import annotations

from .core import InverseSemigroup, _picker, per_semigroup
from .errors import NotHomomorphism
from .util import Record, set_field


class EquivalenceRelation(Record):
    """Partition of the element indices into disjoint classes."""

    __slots__ = ("n", "classes", "class_index")

    def __init__(self, n: int, classes: tuple, class_index: tuple):
        set_field(self, "n", n)
        set_field(self, "classes", classes)  # frozensets, sorted by least member
        set_field(self, "class_index", class_index)  # per element, its class's position

    @classmethod
    def from_class_map(cls, n: int, rep_of) -> "EquivalenceRelation":
        """Elements with equal keys ``rep_of(a)`` share a class.  Classes are
        numbered by the first occurrence of their key while scanning 0..n-1,
        which is the order of their least members."""
        number = {}
        index = tuple(number.setdefault(rep_of(a), len(number)) for a in range(n))
        members = [[] for _ in number]
        for a, i in enumerate(index):
            members[i].append(a)
        return cls(n, tuple(map(frozenset, members)), index)

    def same(self, a: int, b: int) -> bool:
        return self.class_index[a] == self.class_index[b]

    def class_of(self, a: int) -> frozenset:
        return self.classes[self.class_index[a]]

    def is_equality(self) -> bool:
        return len(self.classes) == self.n

    def is_universal(self) -> bool:
        return len(self.classes) == 1

    def partition(self) -> frozenset:
        return frozenset(self.classes)


class RelationsReport(Record):
    __slots__ = ("h", "mu", "cryptic", "fundamental")

    def __init__(self, h: EquivalenceRelation, mu: EquivalenceRelation, cryptic: bool,
                 fundamental: bool):
        set_field(self, "h", h)
        set_field(self, "mu", mu)
        set_field(self, "cryptic", cryptic)
        set_field(self, "fundamental", fundamental)


@per_semigroup
def h_and_mu(s: InverseSemigroup) -> RelationsReport:
    """Compute H (equal domain and range idempotents) and mu (equal
    conjugation action on every idempotent); cryptic means mu = H and
    fundamental means mu is equality.

    The conjugate a e a* is the range (ae)(ae)* of ae, so with the ranges
    x x* listed once, the mu key of a is the range of each entry a*e of
    a's row over the idempotents: two lookups per (a, e) pair, at C speed
    through ``itemgetter``."""
    n = s.n
    order = s.order()
    dom, ranges = order.dom, order.ran
    h_rel = EquivalenceRelation.from_class_map(n, lambda a: (dom[a], ranges[a]))

    pick_e = _picker(s.idempotents)
    mu_rel = EquivalenceRelation.from_class_map(
        n, lambda a: _picker(pick_e(s.mul[a]))(ranges))
    return RelationsReport(
        h=h_rel,
        mu=mu_rel,
        cryptic=(mu_rel.classes == h_rel.classes),
        fundamental=mu_rel.is_equality(),
    )


@per_semigroup
def centralizer(s: InverseSemigroup) -> tuple:
    """Elements commuting with every idempotent; always contains E(S)."""
    out = []
    for a in s.elements():
        if all(s.product(a, e) == s.product(e, a) for e in s.idempotents):
            out.append(a)
    return tuple(out)


class SemigroupHomomorphism(Record):
    __slots__ = ("source", "target", "map")

    def __init__(self, source: InverseSemigroup, target: InverseSemigroup, map: tuple):
        """map holds the image index of each source element.  m(ab) = m(a)m(b)
        is tested for b in the generating set G of the source only: by
        induction on the length of b as a product of generators, that is
        equivalent, at O(n*|G|) lookups."""
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "map", map)
        src, tgt, m = source, target, map
        if len(m) != src.n:
            raise NotHomomorphism("map length mismatch")
        if any(not (0 <= x < tgt.n) for x in m):
            raise NotHomomorphism("image index out of range")
        for g in src.generators:
            for a, row in enumerate(src.mul):
                if m[row[g]] != tgt.mul[m[a]][m[g]]:
                    raise NotHomomorphism(f"map breaks product at ({a},{g})")
        if m[src.zero] != tgt.zero:
            raise NotHomomorphism("zero is not preserved")
        for a in src.elements():
            if m[src.star(a)] != tgt.star(m[a]):
                raise NotHomomorphism(f"map breaks involution at {a}")


class InjectivityReport(Record):
    __slots__ = ("injective", "injective_on_centralizer_of_e", "idempotent_pure",
                 "idempotent_separating")

    def __init__(self, injective: bool, injective_on_centralizer_of_e: bool,
                 idempotent_pure: bool, idempotent_separating: bool):
        set_field(self, "injective", injective)
        set_field(self, "injective_on_centralizer_of_e", injective_on_centralizer_of_e)
        set_field(self, "idempotent_pure", idempotent_pure)
        set_field(self, "idempotent_separating", idempotent_separating)


def injectivity_criteria(phi: SemigroupHomomorphism) -> InjectivityReport:
    """Evaluate the three injectivity criteria for a homomorphism between
    inverse semigroups: global injectivity, injectivity on the centralizer
    of E, and (idempotent pure and idempotent separating).  The verify check
    ``injectivity_criteria_equivalence`` tests that they agree."""
    src, tgt, m = phi.source, phi.target, phi.map

    injective = len(set(m)) == src.n

    z = centralizer(src)
    inj_z = len({m[a] for a in z}) == len(z)

    pure = all(src.is_idempotent(a) for a in src.elements() if tgt.is_idempotent(m[a]))

    images_of_e = [m[e] for e in src.idempotents]
    separating = len(set(images_of_e)) == len(images_of_e)

    return InjectivityReport(injective, inj_z, pure, separating)
