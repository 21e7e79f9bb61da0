"""Small shared helpers: boolean decisions with witnesses, union-find,
grouping into classes, downset enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .errors import CapExceeded


@dataclass(frozen=True)
class Decision:
    """A boolean outcome together with the witness that justifies it.

    For a positive decision the witness (if any) exhibits the object that was
    found; for a negative one it exhibits the counterexample.
    """

    value: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.value


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
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def group_by(items, key) -> list:
    """Classes of items with equal key, as frozensets sorted by least member."""
    buckets = {}
    for a in items:
        buckets.setdefault(key(a), set()).add(a)
    return sorted((frozenset(c) for c in buckets.values()), key=min)


def downsets(elements: list, leq: Callable[[Any, Any], bool], cap: int = 1_000_000) -> Iterator[frozenset]:
    """Yield every downward-closed subset of a finite poset.

    Elements are processed in an order compatible with ``leq`` (fewer elements
    below first), so a candidate may be included exactly when everything
    strictly below it is already in.  Only valid downsets are generated, the
    empty set included.
    """
    order = sorted(elements, key=lambda x: sum(1 for y in elements if leq(y, x)))
    below = {x: [y for y in order if y != x and leq(y, x)] for x in order}
    count = 0

    def rec(i: int, current: set) -> Iterator[frozenset]:
        nonlocal count
        if i == len(order):
            count += 1
            if count > cap:
                raise CapExceeded(f"more than {cap} downsets")
            yield frozenset(current)
            return
        x = order[i]
        yield from rec(i + 1, current)
        if all(y in current for y in below[x]):
            current.add(x)
            yield from rec(i + 1, current)
            current.remove(x)

    yield from rec(0, set())


def subsets(items: list) -> Iterator[frozenset]:
    """All subsets of a small collection, in a deterministic order."""
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)
