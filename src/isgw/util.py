"""Small shared helpers: the record base class, boolean decisions with
witnesses, union-find, the unions of a family of sets, reachability and
strongly connected components over an adjacency map, and the integer
reader of the JSON documents."""

from __future__ import annotations

from operator import attrgetter
from typing import Any

from .errors import CapExceeded, ParseError

MAX_UNIONS = 1 << 20

# Writes a field of an immutable record; only a record's __init__ uses it.
set_field = object.__setattr__


class Record:
    """Base of the value records: immutable objects with named fields.

    A subclass lists its fields in ``__slots__`` (after those of a record it
    extends) and writes its own ``__init__``, which sets each field once
    with ``set_field``.  The base gives what a frozen dataclass would: a
    record equals another of the same class with equal fields, its hash
    covers the same fields, its repr reads ``Name(field=value, ...)``,
    assignment raises AttributeError, and copy and pickle work.
    ``class R(Record, compare=(...))`` leaves the other fields out of
    equality and hash.  A subclass that needs ``functools.cached_property``
    adds ``"__dict__"`` to its slots.

    Nothing is compiled per class: the methods below are shared, so import
    costs no more than for any plain class.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, compare: tuple | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(f for f in cls.__dict__.get("__slots__", ()) if f != "__dict__")
        cls._fields = cls._fields + own
        names = cls._fields if compare is None else compare
        if len(names) == 1:  # hash a 1-tuple, as a dataclass does
            cls._key = staticmethod(lambda record, get=attrgetter(names[0]): (get(record),))
        elif names:
            cls._key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """copy and pickle rebuild a record from its fields, without __init__."""
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self._fields))


def _rebuild(cls, values: tuple) -> Record:
    record = cls.__new__(cls)
    for name, value in zip(cls._fields, values):
        set_field(record, name, value)
    return record


class MutableRecord(Record):
    """A record whose fields may be reassigned (plain ``self.x = x`` in
    __init__); like a mutable dataclass it is unhashable."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class Decision(Record):
    """A boolean outcome together with the witness that justifies it.

    For a positive decision the witness (if any) exhibits the object that was
    found; for a negative one it exhibits the counterexample.
    """

    __slots__ = ("value", "witness")

    def __init__(self, value: bool, witness: Any = None):
        set_field(self, "value", value)
        set_field(self, "witness", witness)


class UnionFind:
    """Disjoint sets over 0..n-1; every class is rooted at its least member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False if they were one already.
        Both finds are inlined: this is the inner loop of every congruence
        closure."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        if b < a:
            a, b = b, a
        parent[b] = a
        return True

    def roots(self) -> tuple:
        """The root of every element, in one pass: a parent is never larger
        than its child, so each parent's root is known when its child is read."""
        parent = self.parent
        for a, p in enumerate(parent):
            parent[a] = parent[p]
        return tuple(parent)


def unions(family, base) -> list:
    """Every union of base with members of family (frozensets, or int masks
    with ``|`` as union), each once; more than ``MAX_UNIONS`` raise
    CapExceeded."""
    found = dict.fromkeys((base,))
    for member in family:
        found.update(dict.fromkeys([u | member for u in found]))
        if len(found) > MAX_UNIONS:
            raise CapExceeded(f"more than {MAX_UNIONS} unions")
    return list(found)


def reachable(adj: dict, starts) -> set:
    """The nodes reached from ``starts`` along ``adj`` (node -> successors), starts included."""
    seen, stack = set(starts), list(starts)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected_components(adj: dict) -> list:
    """The strongly connected components of ``adj`` (each node mapped to its
    successors, every successor a key) as lists of nodes, sinks first: a
    component comes after every component it reaches.  Tarjan's algorithm
    (SIAM J. Comput. 1, 1972) with an explicit stack, so a long path costs
    no recursion."""
    index, low, stack, out = {}, {}, [], []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work = [(root, iter(adj[root]), len(stack))]  # node, successors left, stack place
        stack.append(root)
        while work:
            v, succ, place = work[-1]
            for w in succ:
                if w not in index:  # a tree edge: descend into w
                    index[w] = low[w] = len(index)
                    work.append((w, iter(adj[w]), len(stack)))
                    stack.append(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:  # v roots a component: pop it
                    out.append(stack[place:])
                    del stack[place:]
                    index.update(dict.fromkeys(out[-1], len(adj)))  # done: lowers no low-link
    return out


def is_cyclic(component: list, adj: dict) -> bool:
    """Does a strongly connected component of ``adj`` hold a cycle: two or
    more nodes, or one node that is its own successor?"""
    return len(component) > 1 or component[0] in adj[component[0]]


def json_int(value, what: str) -> int:
    """value, if it is a JSON integer; a bool, float or string raises ParseError."""
    if type(value) is not int:  # bool is a subclass of int
        raise ParseError(f"{what} must be an integer, not {type(value).__name__}")
    return value
