"""Analysis of the idempotent meet semilattice of an inverse semigroup.

E is read through one bitset view per semigroup (``Semilattice``), in which
bit e stands for element e of the semigroup: covers, atoms, orthogonality
and the 0-disjunctive property are mask tests on it.  A cover of e (written
e -> C) is a set C of elements below e such that every nonzero x below e
meets some member of C; an outer cover drops the containment requirement.
Witnesses are the least ones, in ascending element order.
"""

from __future__ import annotations

from .core import InverseSemigroup, per_semigroup
from .errors import DomainViolation
from .util import Decision, Record, set_field


class Semilattice(Record, compare=("parent",)):
    """E(S) with meet given by the ambient product, as int bitsets over the
    elements of S: bit e stands for element e.  For each element e,
    ``up[e]`` is the mask of the f >= e in E, ``down[e]`` of the f <= e and
    ``meets[e]`` of the c in E with e * c != 0; all three are 0 off E.

    Elements are indices into the parent semigroup, so results can be passed
    straight back to the other modules.  Built only by ``from_semigroup``.
    """

    __slots__ = ("parent", "elements", "zero", "full", "up", "down", "meets")

    def __init__(self, parent: InverseSemigroup, up: tuple, down: tuple, meets: tuple):
        set_field(self, "parent", parent)
        set_field(self, "elements", parent.idempotents)  # ascending
        set_field(self, "zero", parent.zero)
        set_field(self, "full", sum(1 << e for e in parent.idempotents))  # the mask of E
        set_field(self, "up", up)
        set_field(self, "down", down)
        set_field(self, "meets", meets)

    @staticmethod
    @per_semigroup
    def from_semigroup(s: InverseSemigroup) -> "Semilattice":
        """The view of E(S), built once per semigroup from the table rows:
        O(|E|^2) lookups."""
        n, zero = s.n, s.zero
        up, down, meets = [0] * n, [0] * n, [0] * n
        for e in s.idempotents:
            row = s.mul[e]
            u = d = m = 0
            for f in s.idempotents:
                ef = row[f]
                if ef == e:
                    u |= 1 << f
                if ef == f:
                    d |= 1 << f
                if ef != zero:
                    m |= 1 << f
            up[e], down[e], meets[e] = u, d, m
        return Semilattice(s, tuple(up), tuple(down), tuple(meets))

    def nonzero(self) -> tuple:
        return tuple(e for e in self.elements if e != self.zero)

    def index(self, e: int) -> int:
        """e itself, once checked to be an idempotent."""
        if not self.parent.is_idempotent(e):
            raise DomainViolation(f"{e} is not an idempotent")
        return e

    def mask(self, xs) -> int:
        """The mask of some idempotents; anything else raises DomainViolation."""
        out = 0
        for x in xs:
            out |= 1 << self.index(x)
        return out

    def members(self, mask: int) -> tuple:
        """The elements of a mask, ascending."""
        return tuple(positions(mask))

    def under(self, e: int) -> int:
        """The mask of the nonzero x < e."""
        return self.down[e] & ~(1 << self.zero) & ~(1 << e)

    def uncovered(self, e: int, members: int) -> int | None:
        """The least nonzero x <= e that meets no member, or None when the
        members cover e."""
        meets = self.meets
        return next((x for x in positions(self.down[e] & ~(1 << self.zero))
                     if not meets[x] & members), None)

    def covers(self, e: int, members: int) -> bool:
        """Every nonzero x <= e meets some member."""
        return self.uncovered(e, members) is None


def positions(mask: int):
    """The set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_cover(lattice: Semilattice, e: int, members, *, require_below: bool = False) -> Decision:
    """Decide e -> C: every nonzero x <= e meets some member of C.

    With require_below=True the containment C subset-of e-down is also
    demanded (the non-outer notion).  A failing decision carries the least
    witness: ("member_not_below", c) for a member c not below e, or else an
    x with x <= e, x != 0 and xC = {0}.
    """
    e = lattice.index(e)
    members = lattice.mask(members) & ~(1 << lattice.zero)
    outside = members & ~lattice.down[e]
    if require_below and outside:
        return Decision(False, ("member_not_below", next(positions(outside))))
    x = lattice.uncovered(e, members)
    return Decision(True) if x is None else Decision(False, x)


def is_0_disjunctive(lattice: Semilattice) -> Decision:
    """Between any 0 < e < f there must sit a nonzero e' < f orthogonal to e;
    the witness of a failure is the least such pair (e, f), f first."""
    for f in lattice.nonzero():
        under = lattice.under(f)
        for e in positions(under):
            if not under & ~lattice.meets[e]:
                return Decision(False, (e, f))
    return Decision(True)


def atoms(lattice: Semilattice) -> tuple:
    """The minimal nonzero elements, ascending."""
    return tuple(e for e in lattice.nonzero() if not lattice.under(e))


def atoms_and_orthogonals(lattice: Semilattice) -> tuple:
    """The minimal nonzero elements, and the full orthogonality map f -> f-perp."""
    perp = {f: frozenset(lattice.members(lattice.full & ~lattice.meets[f]))
            for f in lattice.elements}
    return atoms(lattice), perp
