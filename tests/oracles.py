"""Brute-force versions of the fast routines in ``isgw.core``, kept as test
oracles: the all-pairs closure of partial bijections, the n^3 associativity
loop, the any()-scan natural order, and table validation with the direct
scan for a second inverse.
"""

import itertools

from isgw.core import PartialBijection
from isgw.errors import NotAssociative, NotInverse


def all_pairs_closure(generators, labels=None):
    """(mul, inv, zero, labels, pmaps) of the closure, as the semigroup core
    built it with validated PartialBijection products: each round multiplies
    every known element a by every element b found in the previous round,
    a*b before b*a."""
    gens = list(generators)
    name_of = {}
    for g, name in zip(gens, labels or ()):
        name_of.setdefault(g, name)
    order = []
    index = {}

    def add(p):
        if p in index:
            return False
        index[p] = len(order)
        order.append(p)
        return True

    for g in gens:
        for h in (g, g.inverse()):
            add(h)
    frontier = list(order)
    while frontier:
        fresh = []
        for a in order[:]:
            for b in frontier:
                for p in (a * b, b * a):
                    if add(p):
                        fresh.append(p)
        frontier = fresh
    empty = PartialBijection.empty(gens[0].degree)
    add(empty)
    n = len(order)
    mul = tuple(tuple(index[order[a] * order[b]] for b in range(n)) for a in range(n))
    inv = tuple(index[p.inverse()] for p in order)
    return mul, inv, index[empty], tuple(name_of.get(p, p.describe()) for p in order), tuple(order)


def cubic_associativity_failure(mul):
    """First (a, b, c) in lexicographic order with (a*b)*c != a*(b*c), or None."""
    n = len(mul)
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return a, b, c
    return None


def any_scan_order(mul, idempotents):
    """leq[s][t] is True iff s = t*e for some idempotent e."""
    n = len(mul)
    return tuple(tuple(any(mul[t][e] == s for e in idempotents) for t in range(n))
                 for s in range(n))


def validate_by_scans(mul, inv, zero):
    """The semigroup core's invariant checks, in its order, by brute force;
    the table must be square with entries in range.  Raises what the core
    raises, with the same message except for NotAssociative, whose witness
    triple may differ."""
    n = len(mul)
    for s in range(n):
        if mul[zero][s] != zero or mul[s][zero] != zero:
            raise NotInverse(f"designated zero is not absorbing at {s}")
    bad = cubic_associativity_failure(mul)
    if bad is not None:
        raise NotAssociative("({}*{})*{} != {}*({}*{})".format(*bad, *bad))
    for s in range(n):
        t = inv[s]
        if mul[mul[s][t]][s] != s or mul[mul[t][s]][t] != t:
            raise NotInverse(f"inv table wrong at element {s}")
        if inv[t] != s:
            raise NotInverse(f"involution not self-inverse at {s}")
    for s in range(n):
        candidates = [t for t in range(n)
                      if mul[mul[s][t]][s] == s and mul[mul[t][s]][t] == t]
        if len(candidates) != 1:
            raise NotInverse(f"element {s} has {len(candidates)} generalized inverses")
        if candidates[0] != inv[s]:
            raise NotInverse(f"inv table disagrees with the unique inverse at {s}")
    idems = [e for e in range(n) if mul[e][e] == e]
    for e, f in itertools.combinations(idems, 2):
        if mul[e][f] != mul[f][e]:
            raise NotInverse(f"idempotents {e} and {f} do not commute")
