"""Finite inverse semigroups over dense integer indices.

A semigroup is built once, from partial bijections or from explicit tables,
validated, and then treated as immutable; every later module works through
O(1) table lookups on the canonical indices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import CapExceeded, NotAssociative, NotInverse, ParseError

DEFAULT_CLOSURE_CAP = 10_000

# Table validation is cubic; closures of partial bijections are associative by
# construction, so the explicit check is skipped above this size.
ASSOCIATIVITY_CHECK_LIMIT = 300


@dataclass(frozen=True)
class PartialBijection:
    """Partial injective map on {0, ..., degree-1}.

    ``image[x]`` is the image of the point x, or None where the map is
    undefined.  Products compose like functions: (f*g)(x) = f(g(x)).
    """

    degree: int
    image: tuple

    def __post_init__(self):
        if self.degree <= 0:
            raise ValueError("degree must be positive")
        if len(self.image) != self.degree:
            raise ValueError("image tuple must have one entry per point")
        seen = set()
        for y in self.image:
            if y is None:
                continue
            if not (0 <= y < self.degree):
                raise ValueError(f"image point {y} out of range")
            if y in seen:
                raise ValueError("not injective")
            seen.add(y)

    @classmethod
    def identity(cls, degree: int) -> "PartialBijection":
        return cls(degree, tuple(range(degree)))

    @classmethod
    def empty(cls, degree: int) -> "PartialBijection":
        return cls(degree, (None,) * degree)

    @classmethod
    def from_dict(cls, degree: int, mapping: dict) -> "PartialBijection":
        return cls(degree, tuple(mapping.get(x) for x in range(degree)))

    def __mul__(self, other: "PartialBijection") -> "PartialBijection":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = []
        for x in range(self.degree):
            y = other.image[x]
            out.append(self.image[y] if y is not None else None)
        return PartialBijection(self.degree, tuple(out))

    def inverse(self) -> "PartialBijection":
        out = [None] * self.degree
        for x, y in enumerate(self.image):
            if y is not None:
                out[y] = x
        return PartialBijection(self.degree, tuple(out))

    def domain(self) -> tuple:
        return tuple(x for x, y in enumerate(self.image) if y is not None)

    def is_empty(self) -> bool:
        return all(y is None for y in self.image)

    def describe(self) -> str:
        if self.is_empty():
            return "0"
        return "[" + ",".join(f"{x}>{y}" for x, y in enumerate(self.image) if y is not None) + "]"


@dataclass(frozen=True)
class NaturalOrder:
    """The natural partial order: s <= t iff s = t*e for some idempotent e."""

    leq: tuple  # leq[s][t] is True iff s <= t

    def holds(self, s: int, t: int) -> bool:
        return self.leq[s][t]

    def down(self, s: int) -> tuple:
        return tuple(t for t in range(len(self.leq)) if self.leq[t][s])

    def up(self, s: int) -> tuple:
        return tuple(t for t in range(len(self.leq)) if self.leq[s][t])


def per_semigroup(fn):
    """Compute fn(s) once per semigroup: the first call stores the result in
    the semigroup's cache and every later call returns that same object, so
    cached results must be immutable.  A call that raises stores nothing."""

    @functools.wraps(fn)
    def cached(s):
        if fn not in s._cache:
            s._cache[fn] = fn(s)
        return s._cache[fn]

    return cached


class InverseSemigroup:
    """Finite inverse semigroup with a designated zero.

    Immutable after construction.  Structures derived from S alone (natural
    order, H/mu, ideals, double arrow, groupoids) are computed on first use
    and cached, see ``per_semigroup``.
    """

    def __init__(self, mul, inv, zero, labels=None, pmaps=None, *, check=True,
                 check_associativity=True):
        self.mul = tuple(tuple(row) for row in mul)
        self.inv = tuple(inv)
        self.zero = zero
        self.n = len(self.mul)
        if labels is None:
            labels = tuple(str(i) for i in range(self.n))
        self.labels = tuple(labels)
        self.pmaps = tuple(pmaps) if pmaps is not None else None
        if check:
            self._validate(check_associativity)
        self.idempotents = tuple(sorted(e for e in range(self.n) if self.mul[e][e] == e))
        self._idempotent_set = frozenset(self.idempotents)
        self._cache = {}

    # -- validation ---------------------------------------------------------

    def _validate(self, check_associativity: bool) -> None:
        n = self.n
        if n == 0:
            raise NotInverse("empty carrier")
        if any(len(row) != n for row in self.mul):
            raise ParseError("multiplication table is not square")
        if any(not (0 <= x < n) for row in self.mul for x in row):
            raise ParseError("table entry out of range")
        if len(self.inv) != n or any(not (0 <= x < n) for x in self.inv):
            raise ParseError("involution table malformed")
        if not (0 <= self.zero < n):
            raise ParseError("zero index out of range")
        if len(self.labels) != n:
            raise ParseError("label count mismatch")

        z = self.zero
        for s in range(n):
            if self.mul[z][s] != z or self.mul[s][z] != z:
                raise NotInverse(f"designated zero is not absorbing at {s}")

        if check_associativity and n <= ASSOCIATIVITY_CHECK_LIMIT:
            mul = self.mul
            for a in range(n):
                for b in range(n):
                    ab = mul[a][b]
                    row_a = mul[a]
                    for c in range(n):
                        if mul[ab][c] != row_a[mul[b][c]]:
                            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

        for s in range(n):
            t = self.inv[s]
            if self.mul[self.mul[s][t]][s] != s or self.mul[self.mul[t][s]][t] != t:
                raise NotInverse(f"inv table wrong at element {s}")
            if self.inv[t] != s:
                raise NotInverse(f"involution not self-inverse at {s}")
        # Uniqueness of the generalized inverse, checked directly.
        for s in range(n):
            candidates = [t for t in range(n)
                          if self.mul[self.mul[s][t]][s] == s and self.mul[self.mul[t][s]][t] == t]
            if len(candidates) != 1:
                raise NotInverse(f"element {s} has {len(candidates)} generalized inverses")
            if candidates[0] != self.inv[s]:
                raise NotInverse(f"inv table disagrees with the unique inverse at {s}")
        idems = [e for e in range(n) if self.mul[e][e] == e]
        for e, f in itertools.combinations(idems, 2):
            if self.mul[e][f] != self.mul[f][e]:
                raise NotInverse(f"idempotents {e} and {f} do not commute")

    # -- basic queries ------------------------------------------------------

    def product(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def star(self, a: int) -> int:
        return self.inv[a]

    def is_idempotent(self, a: int) -> bool:
        return a in self._idempotent_set

    def is_semilattice(self) -> bool:
        return len(self.idempotents) == self.n

    def label(self, a: int) -> str:
        return self.labels[a]

    def elements(self) -> range:
        return range(self.n)

    def nonzero(self) -> tuple:
        return tuple(a for a in range(self.n) if a != self.zero)

    @per_semigroup
    def order(self) -> NaturalOrder:
        idems = self.idempotents
        return NaturalOrder(tuple(
            tuple(any(self.mul[t][e] == s for e in idems) for t in range(self.n))
            for s in range(self.n)
        ))

    def leq(self, s: int, t: int) -> bool:
        return self.order().leq[s][t]

    def element_by_pmap(self, pmap: PartialBijection) -> int:
        if self.pmaps is None:
            raise ValueError("semigroup carries no partial-bijection data")
        return self.pmaps.index(pmap)

    def restrict(self, subset) -> tuple:
        """Sub-semigroup on a product/inverse-closed subset containing zero.

        Returns (sub, to_sub) where to_sub maps old indices to new ones.
        """
        elems = sorted(set(subset))
        if self.zero not in elems:
            raise ValueError("subset must contain the zero")
        to_sub = {a: i for i, a in enumerate(elems)}
        for a in elems:
            if self.inv[a] not in to_sub:
                raise ValueError("subset not closed under inversion")
            for b in elems:
                if self.mul[a][b] not in to_sub:
                    raise ValueError("subset not closed under products")
        mul = [[to_sub[self.mul[a][b]] for b in elems] for a in elems]
        inv = [to_sub[self.inv[a]] for a in elems]
        pmaps = tuple(self.pmaps[a] for a in elems) if self.pmaps is not None else None
        sub = InverseSemigroup(mul, inv, to_sub[self.zero],
                               labels=[self.labels[a] for a in elems], pmaps=pmaps,
                               check=True, check_associativity=False)
        return sub, to_sub


def from_partial_bijections(generators, labels=None, max_elements: int = DEFAULT_CLOSURE_CAP) -> InverseSemigroup:
    """Smallest inverse subsemigroup of the symmetric inverse monoid containing
    the generators, with the empty map as zero (adjoined when not generated)."""
    gens = list(generators)
    if not gens:
        raise ParseError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ParseError("generator degrees differ")

    name_of = {}
    if labels is not None:
        if len(labels) != len(gens):
            raise ParseError("one label per generator expected")
        for g, name in zip(gens, labels):
            name_of.setdefault(g, name)

    seeds = []
    for g in gens:
        for h in (g, g.inverse()):
            if h not in seeds:
                seeds.append(h)

    index = {}
    order = []

    def add(p: PartialBijection) -> bool:
        if p in index:
            return False
        index[p] = len(order)
        order.append(p)
        if len(order) > max_elements:
            raise CapExceeded(f"closure exceeded {max_elements} elements")
        return True

    for s in seeds:
        add(s)
    frontier = list(order)
    while frontier:
        fresh = []
        for a in order[:]:
            for b in frontier:
                for p in (a * b, b * a):
                    if add(p):
                        fresh.append(p)
        frontier = fresh

    empty = PartialBijection.empty(degree)
    add(empty)  # zero, adjoined when the closure lacks the empty map

    n = len(order)
    mul = [[index[order[a] * order[b]] for b in range(n)] for a in range(n)]
    inv = [index[order[a].inverse()] for a in range(n)]
    elem_labels = [name_of.get(p, p.describe()) for p in order]
    return InverseSemigroup(mul, inv, index[empty], labels=elem_labels, pmaps=order,
                            check=True, check_associativity=(n <= ASSOCIATIVITY_CHECK_LIMIT))


def from_tables(mul, inv, zero, labels=None) -> InverseSemigroup:
    """Inverse semigroup from explicit tables; all invariants are validated."""
    return InverseSemigroup(mul, inv, zero, labels=labels, check=True, check_associativity=True)


def build_semigroup(source, labels=None, max_elements: int = DEFAULT_CLOSURE_CAP) -> InverseSemigroup:
    """Build from a generator list of PartialBijection or a (mul, inv, zero) triple."""
    if isinstance(source, tuple) and len(source) == 3:
        return from_tables(*source, labels=labels)
    return from_partial_bijections(source, labels=labels, max_elements=max_elements)


def idempotents(s: InverseSemigroup) -> tuple:
    return s.idempotents


def natural_order(s: InverseSemigroup) -> NaturalOrder:
    return s.order()


def semigroup_from_json(obj: dict, max_elements: int = DEFAULT_CLOSURE_CAP) -> InverseSemigroup:
    """Parse the documented JSON schema (generator form or table form)."""
    if not isinstance(obj, dict):
        raise ParseError("semigroup document must be an object")
    if "generators" in obj:
        try:
            degree = int(obj["degree"])
            gens = [PartialBijection(degree, tuple(row)) for row in obj["generators"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad generator document: {exc}") from exc
        if not gens:
            raise ParseError("empty generator list")
        return from_partial_bijections(gens, labels=obj.get("labels"), max_elements=max_elements)
    if "table" in obj:
        try:
            return from_tables(obj["table"], obj["inv"], obj["zero"], labels=obj.get("labels"))
        except KeyError as exc:
            raise ParseError(f"table document missing field: {exc}") from exc
    raise ParseError("semigroup document needs either generators or a table")
