"""Finite inverse semigroups over dense integer indices.

A semigroup is built once, from partial bijections or from explicit tables,
validated, and then treated as immutable; every later module works through
O(1) table lookups on the canonical indices.  Subsemigroups and quotients of
a validated semigroup are inverse by construction: ``InverseSemigroup._derived``
builds them without validating them again, and a tier-1 test property
(``tests/test_per_semigroup.py``) validates in full every one that a verify
run builds.

A closure of partial bijections is enumerated on its right Cayley graph over
the generators, and its multiplication table is filled row by row by tracing
words, (w*g)*b = w*(g*b): the row of w*g is the row of w read through the
fixed map b -> g*b of the seed g, one getter per seed and one C call per row
(Froidure & Pin, "Algorithms for computing finite semigroups", 1997).
Associativity is checked at every size by Light's test against a generating
set of the table (Clifford & Preston, vol. 1, section 1.2); a caller that
knows a small generating set, such as the vertices and edges of a triple
model, has it scanned first.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
from operator import itemgetter

from .errors import CapExceeded, NotAssociative, NotInverse, ParseError
from .util import Record, json_int, set_field

DEFAULT_CLOSURE_CAP = 10_000


class PartialBijection(Record):
    """Partial injective map on {0, ..., degree-1}.

    ``image[x]`` is the image of the point x, or None where the map is
    undefined.  Products compose like functions: (f*g)(x) = f(g(x)).
    """

    __slots__ = ("degree", "image")

    def __init__(self, degree: int, image: tuple):
        set_field(self, "degree", degree)
        set_field(self, "image", image)
        if degree <= 0:
            raise ValueError("degree must be positive")
        if len(image) != degree:
            raise ValueError("image tuple must have one entry per point")
        seen = set()
        for y in image:
            if y is None:
                continue
            if not (0 <= y < degree):
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

    def inverse(self) -> "PartialBijection":
        out = [None] * self.degree
        for x, y in enumerate(self.image):
            if y is not None:
                out[y] = x
        return PartialBijection(self.degree, tuple(out))


class NaturalOrder(Record):
    """The natural partial order: s <= t iff s = t*e for some idempotent e.

    In an inverse semigroup this holds iff s = t*dom(s), where dom(s) is the
    idempotent star(s)*s (Lawson, *Inverse Semigroups*, 1998, chapter 1), so
    each comparison is one table lookup and no n x n table is kept.
    """

    __slots__ = ("mul", "dom", "ran", "idempotents")

    def __init__(self, mul: tuple, dom: tuple, ran: tuple, idempotents: tuple):
        set_field(self, "mul", mul)
        set_field(self, "dom", dom)  # dom[s] = star(s)*s
        set_field(self, "ran", ran)  # ran[s] = s*star(s) = dom[star(s)]
        set_field(self, "idempotents", idempotents)

    def holds(self, s: int, t: int) -> bool:
        return self.mul[t][self.dom[s]] == s

    def down(self, s: int) -> tuple:
        """The t <= s, ascending: t = s*e for the idempotents e <= dom(s),
        and distinct e give distinct t (dom(s*e) = e).  O(|E|) lookups."""
        row, dom_row = self.mul[s], self.mul[self.dom[s]]
        return tuple(sorted([row[e] for e in self.idempotents if dom_row[e] == e]))


# The pool of the running ``structure_pool`` block, or None outside one.  A
# context variable, so that no module-level name is bound to None: the
# perfbench tracer would take a None global for a function it wraps.
_POOL = contextvars.ContextVar("isgw_structure_pool", default=None)


@contextlib.contextmanager
def structure_pool():
    """Within the block, semigroups with equal tables share one cache:
    a semigroup built with the key (mul, inv, zero, hint) of one built
    earlier in the block takes that one's tables, generators, idempotents
    and ``per_semigroup`` cache, and computes none of them again
    (hash-consing; Filliatre & Conchon, "Type-safe modular hash-consing",
    ML Workshop 2006).  The hint is part of the key because the generators
    depend on it.  Each CLI command runs in its own pool; outside a pool
    every semigroup has a cache of its own.  Twins do not share labels, so
    no cached structure may read them, and a cached value that holds a
    semigroup (a quotient's source, a groupoid's semigroup) may hold any
    twin of the one it was asked for."""
    token = _POOL.set({})
    try:
        yield
    finally:
        _POOL.reset(token)


def per_semigroup(fn):
    """Compute fn(s, *args) once per cache and arguments: the first call
    stores the result in the cache of s under (fn, *args), or under fn
    alone when there are no arguments, and every later call with equal
    arguments returns that same object.  The cache is the semigroup's own,
    or inside a ``structure_pool`` the one it shares with every semigroup
    of equal tables.  The arguments must be hashable and cached results
    immutable.  A call that raises stores nothing."""

    @functools.wraps(fn)
    def cached(s, *args):
        key = (fn, *args) if args else fn
        try:
            return s._cache[key]
        except KeyError:
            pass
        s._cache[key] = value = fn(s, *args)
        return value

    return cached


class InverseSemigroup:
    """Finite inverse semigroup with a designated zero.

    The public constructor validates every invariant, at every size, and the
    semigroup is immutable afterwards.  ``generators`` is the generating set
    of Light's associativity test (``_generating_set`` of the table), which
    scans the indices of ``hint`` first: a caller that knows a small
    generating set passes it there.  A subsemigroup (``restrict``) or a
    quotient by a congruence is built by ``_derived``, which skips the checks
    its validated source guarantees.
    Structures derived from S alone (natural order, Cayley graphs, H/mu,
    ideals, double arrow, congruence lattice, groupoids) are computed on
    first use and cached, see ``per_semigroup``; inside a
    ``structure_pool``, once per distinct table.
    """

    def __init__(self, mul, inv, zero, labels=None, hint=()):
        self._store(mul, inv, zero, labels)
        self._index(hint, self._validate(hint))

    @classmethod
    def _derived(cls, mul, inv, zero, labels) -> "InverseSemigroup":
        """A semigroup whose tables are a subsemigroup or a homomorphic image
        of a validated inverse semigroup, and so associative and inverse by
        construction (Howie, *Fundamentals of Semigroup Theory*, 1995, 5.1):
        no range scan, zero, involution, idempotent or Light's test.  The
        generators are the ones Light's test would return.  That every table
        built here passes full validation is a tier-1 test property."""
        s = cls.__new__(cls)
        s._store(mul, inv, zero, labels)
        s._index()
        return s

    def _store(self, mul, inv, zero, labels) -> None:
        self.mul = tuple(tuple(row) for row in mul)
        self.inv = tuple(inv)
        self.zero = zero
        self.n = len(self.mul)
        if labels is None:
            labels = tuple(str(i) for i in range(self.n))
        self.labels = tuple(labels)

    def _index(self, hint=(), generators=None) -> None:
        """Set the generators, the idempotents and the cache: a twin's, when
        the running ``structure_pool`` holds one with this key, else the
        given generators (``_generating_set`` of the table when None),
        the idempotents of the table and a new cache, with which the
        semigroup enters the pool."""
        pool = _POOL.get()
        if pool is not None:
            # keyed without the table, whose hash would cost a pass over it:
            # a table is compared only with those of equal involution
            twins = pool.setdefault((self.inv, self.zero, tuple(hint)), [])
            twin = next((t for t in twins if t.mul == self.mul), None)
            if twin is not None:
                self.mul, self.inv = twin.mul, twin.inv
                self.generators, self.idempotents = twin.generators, twin.idempotents
                self._idempotent_set, self._cache = twin._idempotent_set, twin._cache
                return
            twins.append(self)
        self.generators = tuple(_generating_set(self.mul)) if generators is None else generators
        self.idempotents = tuple(sorted(e for e in range(self.n) if self.mul[e][e] == e))
        self._idempotent_set = frozenset(self.idempotents)
        self._cache = {}

    # -- validation ---------------------------------------------------------

    def _validate(self, hint=()) -> tuple:
        """Check every invariant; return the generators of Light's test."""
        n = self.n
        if n == 0:
            raise NotInverse("empty carrier")
        if any(len(row) != n for row in self.mul):
            raise ParseError("multiplication table is not square")
        if min(map(min, self.mul)) < 0 or max(map(max, self.mul)) >= n:
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

        generators = _check_associative(self.mul, hint)

        for s in range(n):
            t = self.inv[s]
            if self.mul[self.mul[s][t]][s] != s or self.mul[self.mul[t][s]][t] != t:
                raise NotInverse(f"inv table wrong at element {s}")
            if self.inv[t] != s:
                raise NotInverse(f"involution not self-inverse at {s}")
        # S is now regular, so its inverses are unique iff its idempotents
        # commute (Howie, Fundamentals of Semigroup Theory, Thm 5.1.1).  The
        # O(n^2) scan for a second inverse runs only to name the element
        # when they do not.
        idems = [e for e in range(n) if self.mul[e][e] == e]
        for e, f in itertools.combinations(idems, 2):
            if self.mul[e][f] != self.mul[f][e]:
                for s in range(n):
                    candidates = [t for t in range(n) if self.mul[self.mul[s][t]][s] == s
                                  and self.mul[self.mul[t][s]][t] == t]
                    if len(candidates) != 1:
                        raise NotInverse(f"element {s} has {len(candidates)} generalized inverses")
                raise NotInverse(f"idempotents {e} and {f} do not commute")
        return generators

    # -- basic queries ------------------------------------------------------

    def product(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def star(self, a: int) -> int:
        return self.inv[a]

    def is_idempotent(self, a: int) -> bool:
        return a in self._idempotent_set

    def is_semilattice(self) -> bool:
        return len(self.idempotents) == self.n

    def elements(self) -> range:
        return range(self.n)

    def nonzero(self) -> tuple:
        return tuple(a for a in range(self.n) if a != self.zero)

    @per_semigroup
    def order(self) -> NaturalOrder:
        dom = tuple(self.mul[t][s] for s, t in enumerate(self.inv))
        return NaturalOrder(self.mul, dom, _picker(self.inv)(dom), self.idempotents)

    def restrict(self, subset) -> tuple:
        """Sub-semigroup on a product/inverse-closed subset containing zero.

        Closure under products and inverses is checked; the subsemigroup of
        an inverse semigroup is then inverse, and is built by ``_derived``
        without being validated again.  Returns (sub, to_sub) where to_sub
        maps old indices to new ones.
        """
        elems = sorted(set(subset))
        if self.zero not in elems:
            raise ValueError("subset must contain the zero")
        to_sub = {a: i for i, a in enumerate(elems)}
        # new index of each old element, -1 outside the subset; each row of
        # the table is read through it at C speed
        pos = [-1] * self.n
        for a, i in to_sub.items():
            pos[a] = i
        pick = _picker(elems)
        inv = _picker(pick(self.inv))(pos)
        mul = [_picker(pick(self.mul[a]))(pos) for a in elems]
        bad = next((k for k, row in enumerate(mul) if inv[k] < 0 or -1 in row), None)
        if bad is not None:
            raise ValueError("subset not closed under inversion" if inv[bad] < 0
                             else "subset not closed under products")
        sub = InverseSemigroup._derived(mul, inv, to_sub[self.zero],
                                        [self.labels[a] for a in elems])
        return sub, to_sub


@per_semigroup
def cayley_graphs(s: InverseSemigroup) -> tuple:
    """(right, left) Cayley graphs of S over ``s.generators``: right[x] and
    left[x] list x*g and g*x for each generator g.  O(n*|G|) lookups."""
    pick = _picker(s.generators)
    right = tuple(map(pick, s.mul))
    left = tuple(zip(*pick(s.mul)))
    return right, left


@per_semigroup
def nonzero_down(s: InverseSemigroup) -> tuple:
    """For each element a, the frozenset of the nonzero t <= a
    (``NaturalOrder.down``): built once per semigroup for the double-arrow
    rows and the S-level saturation test."""
    order, z = s.order(), s.zero
    return tuple(frozenset(t for t in order.down(a) if t != z) for a in range(s.n))


def _picker(indices):
    """Callable seq -> tuple(seq[i] for i in indices), run at C speed."""
    if len(indices) == 1:
        i = indices[0]
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


# -- associativity --------------------------------------------------------------

def _generating_set(mul, hint=()) -> list:
    """Greedy generating set of a table: scan the indices of ``hint``, then
    every element in index order, and keep each one that is not yet a right
    multiple (((g1*g2)*g3)...) of the ones kept.  Such products exist in any
    magma, so the kept elements generate the table whether or not it is
    associative, whatever the hint: the hint only lets a caller that knows
    a small generating set (the edges and vertices of a triple model) have
    it kept first.  O(n*|G|) lookups."""
    reached = bytearray(len(mul))
    members = []
    gens = []
    for x in itertools.chain(hint, range(len(mul))):
        if reached[x]:
            continue
        gens.append(x)
        fresh = []
        for y in [x] + [mul[m][x] for m in members]:
            if not reached[y]:
                reached[y] = 1
                fresh.append(y)
        i = 0
        while i < len(fresh):
            row = mul[fresh[i]]
            i += 1
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = 1
                    fresh.append(y)
        members += fresh
    return gens


def _check_associative(mul, hint=()) -> tuple:
    """Light's associativity test over a tuple-of-tuples table.

    The elements g with (x*g)*y == x*(g*y) for all x, y are closed under
    products, so the table is associative as soon as every member of a
    generating set passes (Clifford & Preston, vol. 1, section 1.2).  G is
    ``_generating_set(mul, hint)``: for a closure a subset of the seeds, plus
    the zero when it is adjoined; for a triple model its vertices and edges;
    for a semilattice it can be all of S.  Each (g, x) pair compares a whole
    row at C speed: O(n^2*|G|).  Returns G.
    """
    gens = tuple(_generating_set(mul, hint))
    for g in gens:
        row_g = mul[g]
        times_g = _picker(row_g)  # row x -> x*(g*y) for every y
        for x, row in enumerate(mul):
            if times_g(row) != mul[row[g]]:
                y = next(y for y, xgy in enumerate(mul[row[g]]) if xgy != row[row_g[y]])
                raise NotAssociative(f"({x}*{g})*{y} != {x}*({g}*{y})")
    return gens


# -- closures of partial bijections -----------------------------------------------
#
# Inside a closure a partial bijection is a raw image tuple: -1 marks an
# undefined point and one -1 is appended, so index -1 of every raw tuple is -1
# and raw(f*g) == itemgetter(*raw(g))(raw(f)).

def _raw(p: PartialBijection) -> tuple:
    return tuple(-1 if y is None else y for y in p.image) + (-1,)


def _describe(raw: tuple) -> str:
    """The label of an unnamed element: "0" for the empty map, else
    "[x>y,...]" over the points where it is defined."""
    pairs = [f"{x}>{y}" for x, y in enumerate(raw[:-1]) if y >= 0]
    return "[" + ",".join(pairs) + "]" if pairs else "0"


def _right_cayley_closure(seeds: list, max_elements: int) -> tuple:
    """Breadth-first search of the right Cayley graph of the semigroup
    generated by the (distinct, raw) seeds.

    Returns (elems, index, right, source): elems in discovery order with the
    seeds first, index its inverse, right[x*k + j] the index of
    elems[x]*seeds[j], and source[x] = x'*k + j for the edge that found a
    non-seed x as elems[x']*seeds[j].  Costs n*k compositions.
    """
    steps = [itemgetter(*g) for g in seeds]
    elems = list(seeds)
    index = {g: x for x, g in enumerate(elems)}
    if len(elems) > max_elements:
        raise CapExceeded(f"closure exceeded {max_elements} elements")
    source = [-1] * len(elems)
    right = []
    x = 0
    while x < len(elems):
        w = elems[x]
        x += 1
        for step in steps:
            p = step(w)
            y = index.get(p)
            if y is None:
                y = len(elems)
                if y >= max_elements:
                    raise CapExceeded(f"closure exceeded {max_elements} elements")
                index[p] = y
                elems.append(p)
                source.append(len(right))
            right.append(y)
    return elems, index, right, source


def _raw_inverse(raw: tuple) -> tuple:
    out = [-1] * len(raw)
    for x, y in enumerate(raw[:-1]):
        out[y] = x  # an undefined point (y = -1) writes the sentinel slot
    out[-1] = -1
    return tuple(out)


def _trace_rows(left: list, source: list, n: int, zero: int) -> list:
    """The rows of the closure's table in discovery order, row[b] = x*b.

    left[j] is the row of the seed j, and the row of x = w*g_j follows from
    the row of w as x*b = w*(g_j*b): one fixed getter per seed, one C call
    per row.  The row of an adjoined zero (past the end of source) is
    constant.
    """
    k = len(left)
    steps = [_picker(row) for row in left]
    rows = list(left)
    for found in source[k:]:
        w, j = divmod(found, k)
        rows.append(steps[j](rows[w]))
    if len(rows) < n:
        rows.append((zero,) * n)
    return rows


def _all_pairs_order(rows: list, inv: list, k: int, generated: int) -> list:
    """The generated elements in the order the all-pairs closure finds them.

    That closure starts from the seeds; each round multiplies every element
    known at its start by every element the previous round found, a*b before
    b*a.  Its order fixes the canonical indices, labels and reports.  It is
    replayed here on the traced rows, b*a read as (a* * b*)*, so it costs
    lookups, not products, and it stops once every generated element is
    placed.
    """
    order = list(range(k))
    seen = set(order)
    frontier = order
    while len(order) < generated:
        pick = _picker(frontier)
        pick_star = _picker(pick(inv))
        fresh = []
        for a in order[:]:
            right_of_a = pick(rows[a])  # a*b for b in frontier
            left_of_a = _picker(pick_star(rows[inv[a]]))(inv)  # b*a for b in frontier
            if seen.issuperset(right_of_a) and seen.issuperset(left_of_a):
                continue
            for pair in zip(right_of_a, left_of_a):
                for p in pair:
                    if p not in seen:
                        seen.add(p)
                        order.append(p)
                        fresh.append(p)
            if len(order) == generated:
                return order
        frontier = fresh
    return order


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
            name_of.setdefault(_raw(g), name)

    seeds = []
    for g in gens:
        for h in (g, g.inverse()):
            if h not in seeds:
                seeds.append(h)

    k = len(seeds)
    elems, index, right, source = _right_cayley_closure([_raw(p) for p in seeds], max_elements)
    generated = len(elems)
    empty = _raw(PartialBijection.empty(degree))
    zero = index.get(empty)
    if zero is None:
        zero = generated
        if zero >= max_elements:
            raise CapExceeded(f"closure exceeded {max_elements} elements")
        index[empty] = zero
        elems.append(empty)
        right += [zero] * k
    n = len(elems)
    # inv[x] = index of elems[x]^-1.  The seeds are closed under inverses, so
    # the seed j* = inv[j] reads g_j*b = (b^-1 * g_j*)^-1 off the Cayley graph.
    inv = [index[_raw_inverse(p)] for p in elems]
    star = _picker(inv)
    left = [_picker(star(right[inv[j]::k]))(inv) for j in range(k)]
    order = _all_pairs_order(_trace_rows(left, source, n, zero), inv, k, generated)
    if generated < n:
        order.append(zero)  # last, as the all-pairs closure adjoins it

    # The table is traced again on canonical indices, from the seed rows
    # relabelled once; the discovery rows are gone by then, so one n x n
    # table is alive at a time.
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    relabel = _picker(order)
    left = [_picker(relabel(row))(pos) for row in left]
    mul = relabel(_trace_rows(left, source, n, pos[zero]))
    elem_labels = [name_of[p] if p in name_of else _describe(p) for p in relabel(elems)]
    return InverseSemigroup(mul, _picker(relabel(inv))(pos), pos[zero], labels=elem_labels)


def from_tables(mul, inv, zero, labels=None) -> InverseSemigroup:
    """Inverse semigroup from explicit tables; all invariants are validated,
    associativity included, at every size."""
    return InverseSemigroup(mul, inv, zero, labels=labels)


def natural_order(s: InverseSemigroup) -> NaturalOrder:
    return s.order()


def _int_list(value, what: str) -> list:
    """value, if it is a JSON list of integers; otherwise ParseError."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of integers")
    what = f"an entry of {what}"
    return [json_int(x, what) for x in value]


def _labels(obj: dict) -> list | None:
    labels = obj.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise ParseError("labels must be a list of strings")
    return labels


def semigroup_from_json(obj: dict, max_elements: int = DEFAULT_CLOSURE_CAP) -> InverseSemigroup:
    """Parse the documented JSON schema (generator form or table form).  A
    document whose fields have the wrong JSON types raises ParseError."""
    if not isinstance(obj, dict):
        raise ParseError("semigroup document must be an object")
    if "generators" in obj:
        rows = obj["generators"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError("generators must be lists of integers or null")
        try:
            degree = json_int(obj["degree"], "degree")
            gens = [PartialBijection(degree, tuple(
                None if y is None else json_int(y, "a generator entry") for y in row))
                for row in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad generator document: {exc}") from exc
        if not gens:
            raise ParseError("empty generator list")
        return from_partial_bijections(gens, labels=_labels(obj), max_elements=max_elements)
    if "table" in obj:
        try:
            table, inv, zero = obj["table"], obj["inv"], obj["zero"]
        except KeyError as exc:
            raise ParseError(f"table document missing field: {exc}") from exc
        if not isinstance(table, list):
            raise ParseError("table must be a list of rows")
        for row in table:
            _int_list(row, "each table row")
        return from_tables(table, _int_list(inv, "inv"), json_int(zero, "zero"),
                           labels=_labels(obj))
    raise ParseError("semigroup document needs either generators or a table")
