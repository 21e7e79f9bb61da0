"""Analysis of the idempotent meet semilattice of an inverse semigroup.

Covers, orthogonality, the 0-disjunctive property and the trapping condition
all reduce to finite scans here.  A cover of e (written e -> C) is a set C of
elements below e such that every nonzero x below e meets some member of C;
an outer cover drops the containment requirement.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .core import InverseSemigroup, per_semigroup
from .errors import DomainViolation
from .util import Decision, Record, set_field

# Subset searches for minimal covers stay exact below this candidate count.
MINIMAL_COVER_SEARCH_LIMIT = 12


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

    def strictly_below(self, e: int) -> tuple:
        return tuple(f for f in self.below(e) if f != e and f != self.zero)

    def orthogonal(self, f: int) -> tuple:
        return tuple(e for e in self.elements if self.meet(e, f) == self.zero)

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

    def covers(self, i: int, members: int) -> bool:
        """Every nonzero x <= elements[i] meets some member."""
        return all(self.meets[x] & members for x in positions(self.down[i] & ~self.zero))


def positions(mask: int):
    """The set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def order_masks(lattice: Semilattice) -> OrderMasks:
    """The bitset view of a carrier, built once per semigroup and carrier
    (``per_semigroup`` on the parent) from the table rows: O(|E|^2)
    lookups."""
    return _order_masks(lattice.parent, lattice.elements, lattice.zero)


@per_semigroup
def _order_masks(s: InverseSemigroup, elements: tuple, zero: int) -> OrderMasks:
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


class Cover(Record):
    """A target idempotent together with a finite covering set."""

    __slots__ = ("target", "members", "outer")

    def __init__(self, target: int, members: frozenset, outer: bool = False):
        set_field(self, "target", target)
        set_field(self, "members", members)
        set_field(self, "outer", outer)


def make_cover(lattice: "Semilattice", e: int, members, *, outer: bool = False) -> Cover:
    """Validated cover of e; raises ValueError when the set does not cover."""
    d = is_cover(lattice, e, members, require_below=not outer)
    if not d.value:
        raise ValueError(f"not a cover of {e}: witness {d.witness}")
    return Cover(e, frozenset(members), outer)


def is_cover(lattice: Semilattice, e: int, members, *, require_below: bool = False) -> Decision:
    """Decide e -> C: every nonzero x <= e meets some member of C.

    With require_below=True the containment C subset-of e-down is also
    demanded (the non-outer notion).  A failing decision carries a witness x
    with x <= e, x != 0 and xC = {0}.
    """
    members = [c for c in members if c != lattice.zero]
    if require_below and any(not lattice.leq(c, e) for c in members):
        bad = next(c for c in members if not lattice.leq(c, e))
        return Decision(False, ("member_not_below", bad))
    for x in lattice.below(e):
        if x == lattice.zero:
            continue
        if all(lattice.meet(x, c) == lattice.zero for c in members):
            return Decision(False, x)
    return Decision(True)


def is_0_disjunctive(lattice: Semilattice) -> Decision:
    """Between any 0 < e < f there must sit a nonzero e' < f orthogonal to e."""
    for f in lattice.nonzero():
        for e in lattice.strictly_below(f):
            found = any(
                ep != lattice.zero and ep != f and lattice.meet(ep, e) == lattice.zero
                for ep in lattice.below(f)
            )
            if not found:
                return Decision(False, (e, f))
    return Decision(True)


def _minimal_cover_with(lattice: Semilattice, e: int, fixed: int, candidates) -> tuple | None:
    """Smallest subset D of candidates with e -> D + {fixed}, or None.  The
    nonzero elements below e are listed once, and each subset is tested
    against that list by table lookups."""
    z = lattice.zero
    mul = lattice.parent.mul
    pool = [c for c in candidates if c != z]
    below = [mul[x] for x in lattice.below(e) if x != z]  # rows of the x <= e

    def covers(members) -> bool:
        return all(any(row[c] != z for c in members) for row in below)

    if not covers(pool + [fixed]):
        return None
    if len(pool) > MINIMAL_COVER_SEARCH_LIMIT:
        return tuple(sorted(pool))
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if covers(combo + (fixed,)):
                return combo
    return tuple(sorted(pool))


def has_trapping_condition(lattice: Semilattice) -> Decision:
    """For each nonzero f < e, e must be covered by f plus finitely many
    elements below e orthogonal to f.  On success the witness maps each pair
    to a validated cover built from a smallest such orthogonal family; the
    map is read-only, because the scan runs once per semigroup and carrier
    (``per_semigroup`` on the parent) and every caller shares the result."""
    return _trapping(lattice.parent, lattice.elements, lattice.zero)


@per_semigroup
def _trapping(s: InverseSemigroup, elements: tuple, zero: int) -> Decision:
    lattice = Semilattice(s, elements, zero)
    witnesses = {}
    for e in lattice.nonzero():
        for f in lattice.strictly_below(e):
            candidates = [x for x in lattice.below(e)
                          if lattice.meet(x, f) == lattice.zero and x != lattice.zero]
            found = _minimal_cover_with(lattice, e, f, candidates)
            if found is None:
                return Decision(False, (f, e))
            witnesses[(f, e)] = make_cover(lattice, e, set(found) | {f})
    return Decision(True, MappingProxyType(witnesses))


def atoms(lattice: Semilattice) -> tuple:
    out = []
    for e in lattice.nonzero():
        if not lattice.strictly_below(e):
            out.append(e)
    return tuple(out)


def atoms_and_orthogonals(lattice: Semilattice) -> tuple:
    """The minimal nonzero elements, and the full orthogonality map f -> f-perp."""
    perp = {f: frozenset(lattice.orthogonal(f)) for f in lattice.elements}
    return atoms(lattice), perp
