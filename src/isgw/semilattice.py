"""Analysis of the idempotent meet semilattice of an inverse semigroup.

E is read through one bitset view of its carrier (``order_masks``), built
once per semigroup and carrier: covers, atoms, orthogonality and the
0-disjunctive property are mask tests on it.  A cover of e (written
e -> C) is a set C of elements below e such that every nonzero x below e
meets some member of C; an outer cover drops the containment requirement.
Witnesses are the least ones, in ascending element order.
"""

from __future__ import annotations

from types import MappingProxyType

from .core import InverseSemigroup, per_semigroup
from .errors import DomainViolation
from .util import Decision, Record, set_field


class Semilattice(Record):
    """View of E(S) with meet given by the ambient product.

    Elements are indices into the parent semigroup, so results can be passed
    straight back to the other modules.
    """

    __slots__ = ("parent", "elements", "zero")

    def __init__(self, parent: InverseSemigroup, elements: tuple, zero: int):
        set_field(self, "parent", parent)
        set_field(self, "elements", elements)
        set_field(self, "zero", zero)

    @classmethod
    def from_semigroup(cls, s: InverseSemigroup) -> "Semilattice":
        return cls(s, s.idempotents, s.zero)

    def meet(self, e: int, f: int) -> int:
        return self.parent.mul[e][f]

    def leq(self, e: int, f: int) -> bool:
        return self.meet(e, f) == e

    def nonzero(self) -> tuple:
        return tuple(e for e in self.elements if e != self.zero)

    def below(self, e: int) -> tuple:
        """Elements of the carrier that are <= e (zero included): f <= e
        iff e*f = f, read from the row of e."""
        row = self.parent.mul[e]
        return tuple(f for f in self.elements if row[f] == f)

    def label(self, e: int) -> str:
        return self.parent.labels[e]


class OrderMasks(Record):
    """The order of a carrier as int bitsets: bit i stands for
    ``elements[i]``, ascending.  For each i, ``up[i]`` is the mask of the
    f >= elements[i], ``down[i]`` of the f <= elements[i], and ``meets[i]``
    of the c with elements[i] * c != 0."""

    __slots__ = ("elements", "position", "up", "down", "meets", "zero")

    def __init__(self, elements: tuple, position: MappingProxyType, up: tuple,
                 down: tuple, meets: tuple, zero: int):
        set_field(self, "elements", elements)
        set_field(self, "position", position)  # element -> its bit position
        set_field(self, "up", up)
        set_field(self, "down", down)
        set_field(self, "meets", meets)
        set_field(self, "zero", zero)  # the bit of the zero

    @property
    def full(self) -> int:
        return (1 << len(self.elements)) - 1

    def index(self, e: int) -> int:
        try:
            return self.position[e]
        except KeyError:
            raise DomainViolation(f"{e} is not in the carrier") from None

    def mask(self, xs) -> int:
        position = self.position
        out = 0
        try:
            for x in xs:
                out |= 1 << position[x]
        except KeyError as exc:
            raise DomainViolation(f"{exc.args[0]} is not in the carrier") from None
        return out

    def members(self, mask: int) -> tuple:
        """The elements of a mask, ascending."""
        return tuple(map(self.elements.__getitem__, positions(mask)))

    def under(self, i: int) -> int:
        """The mask of the nonzero x < elements[i]."""
        return self.down[i] & ~self.zero & ~(1 << i)

    def uncovered(self, i: int, members: int) -> int | None:
        """The least nonzero x <= elements[i] that meets no member, as a bit
        position, or None when the members cover elements[i]."""
        meets = self.meets
        return next((x for x in positions(self.down[i] & ~self.zero) if not meets[x] & members),
                    None)

    def covers(self, i: int, members: int) -> bool:
        """Every nonzero x <= elements[i] meets some member."""
        return self.uncovered(i, members) is None


def positions(mask: int):
    """The set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_masks(lattice: Semilattice) -> OrderMasks:
    """The bitset view of a carrier, built once per semigroup and carrier
    (``per_semigroup`` on the parent) from the table rows: O(|E|^2)
    lookups.  A carrier that lacks its zero or holds anything but
    idempotents of the parent raises DomainViolation."""
    return _order_masks(lattice.parent, lattice.elements, lattice.zero)


@per_semigroup
def _order_masks(s: InverseSemigroup, elements: tuple, zero: int) -> OrderMasks:
    if zero not in elements:
        raise DomainViolation(f"the carrier lacks its zero {zero}")
    if not all(map(s.is_idempotent, elements)):
        raise DomainViolation("the carrier holds an element that is no idempotent")
    elements = tuple(sorted(elements))
    up, down, meets = [], [], []
    for e in elements:
        row = s.mul[e]
        u = d = m = 0
        for j, f in enumerate(elements):
            ef = row[f]
            if ef == e:
                u |= 1 << j
            if ef == f:
                d |= 1 << j
            if ef != zero:
                m |= 1 << j
        up.append(u)
        down.append(d)
        meets.append(m)
    position = {e: i for i, e in enumerate(elements)}
    return OrderMasks(elements, MappingProxyType(position), tuple(up), tuple(down),
                      tuple(meets), 1 << position[zero])


def is_cover(lattice: Semilattice, e: int, members, *, require_below: bool = False) -> Decision:
    """Decide e -> C: every nonzero x <= e meets some member of C.

    With require_below=True the containment C subset-of e-down is also
    demanded (the non-outer notion).  A failing decision carries the least
    witness: ("member_not_below", c) for a member c not below e, or else an
    x with x <= e, x != 0 and xC = {0}.
    """
    view = order_masks(lattice)
    i = view.index(e)
    members = view.mask(members) & ~view.zero
    outside = members & ~view.down[i]
    if require_below and outside:
        return Decision(False, ("member_not_below", view.elements[next(positions(outside))]))
    x = view.uncovered(i, members)
    return Decision(True) if x is None else Decision(False, view.elements[x])


def is_0_disjunctive(lattice: Semilattice) -> Decision:
    """Between any 0 < e < f there must sit a nonzero e' < f orthogonal to e;
    the witness of a failure is the least such pair (e, f), f first."""
    view = order_masks(lattice)
    for f in positions(view.full & ~view.zero):
        under = view.under(f)
        for e in positions(under):
            if not under & ~view.meets[e]:
                return Decision(False, (view.elements[e], view.elements[f]))
    return Decision(True)


def atoms(lattice: Semilattice) -> tuple:
    """The minimal nonzero elements, ascending."""
    view = order_masks(lattice)
    return tuple(view.elements[i] for i in positions(view.full & ~view.zero)
                 if not view.under(i))


def atoms_and_orthogonals(lattice: Semilattice) -> tuple:
    """The minimal nonzero elements, and the full orthogonality map f -> f-perp."""
    view = order_masks(lattice)
    perp = {f: frozenset(view.members(view.full & ~view.meets[i]))
            for i, f in enumerate(view.elements)}
    return atoms(lattice), perp
