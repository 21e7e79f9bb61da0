"""The builtin verification corpus: reproducible fixture semigroups, graphs
and actions, plus seeded random subsemigroups of small symmetric inverse
monoids.  Everything is deterministic for a given seed."""

from __future__ import annotations

import random

from .core import InverseSemigroup, PartialBijection, from_partial_bijections, from_tables
from .errors import CapExceeded
from .graphs import (
    DirectedGraph,
    Edge,
    single_arrow,
    single_loop,
    two_loops,
)
from .selfsimilar import (
    SelfSimilarAction,
    edge_swap_action,
    exact_model,
    lazy_z2_action,
    mirror_action,
    trivial_action,
    vertex_swap_action,
)
from .util import MutableRecord

RANDOM_SUBSEMIGROUP_MAX = 14
RANDOM_TRIES_PER_INSTANCE = 60


class CorpusInstance(MutableRecord):
    __slots__ = ("uid", "kind", "semigroup", "graph", "action", "meta")

    def __init__(self, uid: str, kind: str, semigroup: InverseSemigroup | None = None,
                 graph: DirectedGraph | None = None, action: SelfSimilarAction | None = None,
                 meta: dict | None = None):
        self.uid = uid
        self.kind = kind  # "semigroup" | "graph" | "action"
        self.semigroup = semigroup
        self.graph = graph
        self.action = action
        self.meta = {} if meta is None else meta


# -- fixture semigroups --------------------------------------------------------

def symmetric_inverse_monoid_fixture() -> InverseSemigroup:
    ident = PartialBijection.identity(2)
    swap = PartialBijection(2, (1, 0))
    e11 = PartialBijection(2, (0, None))
    return from_partial_bijections([ident, swap, e11], labels=["I", "X", "E11"])


def branching_semilattice_fixture() -> InverseSemigroup:
    e = PartialBijection(3, (0, None, None))
    f = PartialBijection(3, (None, 1, None))
    g = PartialBijection(3, (None, 1, 2))
    return from_partial_bijections([e, f, g], labels=["e", "f", "g"])


def group_with_zero_fixture() -> InverseSemigroup:
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    return from_tables(mul, [0, 1, 2], 0, labels=["0", "1", "x"])


# -- all small semilattices, as intersection-closed families -----------------------

# One intersection-closed family of subsets of the points 0-3 for each meet
# semilattice with zero of at most five elements, up to isomorphism, in the
# order of their least relabelled meet tables; the empty set, the zero, is
# left out.  ``tests/oracles.py::small_semilattices_by_semigroups`` finds the
# same families by a search over all families and an isomorphism test.
SMALL_SEMILATTICE_FAMILIES = (
    "",
    "{0}",
    "{0} {1}", "{0} {01}",
    "{0} {1} {2}", "{0} {1} {02}", "{0} {1} {01}", "{0} {01} {02}", "{0} {01} {012}",
    "{0} {1} {2} {3}", "{0} {1} {2} {03}", "{0} {1} {2} {01}", "{0} {1} {02} {03}",
    "{0} {1} {02} {023}", "{0} {1} {2} {012}", "{0} {1} {02} {13}", "{0} {1} {01} {02}",
    "{0} {1} {02} {012}", "{0} {1} {01} {012}", "{0} {01} {02} {03}",
    "{0} {01} {02} {013}", "{0} {01} {02} {012}", "{0} {01} {012} {013}",
    "{0} {01} {012} {0123}",
)


def small_semilattices() -> list:
    """Every meet semilattice with zero of at most five elements, up to
    isomorphism: 1, 1, 2, 5 and 15 of one to five elements.  Adjoining a top
    makes one of n elements a lattice of n + 1, so these are the counts of
    lattices of two to six elements (OEIS A006966).  Each is built from its
    family in ``SMALL_SEMILATTICE_FAMILIES``, the zero first and each subset
    labelled by its points, with the meet read off the intersection of int
    masks."""
    out = []
    for family in SMALL_SEMILATTICE_FAMILIES:
        labels = family.split()
        masks = [0] + [sum(1 << int(p) for p in label[1:-1]) for label in labels]
        index = {m: i for i, m in enumerate(masks)}
        mul = [[index[a & b] for b in masks] for a in masks]
        out.append(from_tables(mul, list(range(len(masks))), 0, labels=["0", *labels]))
    return out


# -- random subsemigroups of symmetric inverse monoids --------------------------

def _random_pmap(rng: random.Random, degree: int) -> PartialBijection:
    points = list(range(degree))
    k = rng.randint(0, degree)
    dom = rng.sample(points, k)
    img = rng.sample(points, k)
    image = [None] * degree
    for x, y in zip(dom, img):
        image[x] = y
    return PartialBijection(degree, tuple(image))


def random_subsemigroups(seed: int, degree: int, count: int) -> list:
    rng = random.Random(f"{seed}:{degree}")
    out = []
    tries = 0
    while len(out) < count and tries < RANDOM_TRIES_PER_INSTANCE * count:
        tries += 1
        gens = [_random_pmap(rng, degree) for _ in range(rng.randint(1, 2))]
        try:
            s = from_partial_bijections(gens, max_elements=RANDOM_SUBSEMIGROUP_MAX + 1)
        except CapExceeded:
            continue
        if 3 <= s.n <= RANDOM_SUBSEMIGROUP_MAX:
            out.append(s)
    return out


# -- fixture graphs --------------------------------------------------------------

def fixture_graphs() -> list:
    two_cycle = DirectedGraph((0, 1), (Edge("p", 0, 1), Edge("q", 1, 0)))
    two_cycle_entry = DirectedGraph(
        (0, 1, 2), (Edge("p", 0, 1), Edge("q", 1, 0), Edge("x", 2, 1)))
    double_edge = DirectedGraph((0, 1), (Edge("a", 0, 1), Edge("b", 0, 1)))
    chain3 = DirectedGraph((0, 1, 2), (Edge("x", 0, 1), Edge("y", 1, 2)))
    join2 = DirectedGraph((0, 1, 2), (Edge("a", 0, 2), Edge("b", 1, 2)))
    figure8 = DirectedGraph(
        (0, 1), (Edge("p", 0, 1), Edge("q", 1, 0), Edge("r", 0, 1)))
    return [
        ("L1", single_loop()),
        ("R2", two_loops()),
        ("A2", single_arrow()),
        ("C2", two_cycle),
        ("C2E", two_cycle_entry),
        ("D2", double_edge),
        ("CH3", chain3),
        ("T2", join2),
        ("F8", figure8),
    ]


def fixture_actions() -> list:
    return [
        ("MIRROR", mirror_action()),
        ("TRIV-L1", trivial_action(single_loop())),
        ("TRIV-R2", trivial_action(two_loops())),
        ("TRIV-A2", trivial_action(single_arrow())),
        ("SWAP-D2", edge_swap_action()),
        ("SWAP-T2", vertex_swap_action()),
        ("LAZY-Z2", lazy_z2_action()),
    ]


# -- assembled corpus -------------------------------------------------------------

def builtin_corpus(seed: int = 0) -> list:
    instances = []

    instances.append(CorpusInstance("I2", "semigroup",
                                    semigroup=symmetric_inverse_monoid_fixture()))
    instances.append(CorpusInstance("E4", "semigroup",
                                    semigroup=branching_semilattice_fixture()))
    instances.append(CorpusInstance("Z2Z", "semigroup",
                                    semigroup=group_with_zero_fixture()))

    for i, s in enumerate(small_semilattices()):
        instances.append(CorpusInstance(f"SL{i:02d}-n{s.n}", "semigroup", semigroup=s))

    for degree in (3, 4):
        for i, s in enumerate(random_subsemigroups(seed, degree, 2)):
            instances.append(CorpusInstance(f"RND-I{degree}-{i}", "semigroup",
                                            semigroup=s, meta={"seed": seed}))

    graph_instances = []
    for name, g in fixture_graphs():
        exact = exact_model(trivial_action(g))
        inst = CorpusInstance(f"G-{name}", "graph", graph=g,
                              meta={"exact": exact})
        graph_instances.append(inst)
        instances.append(inst)
        if exact is not None:
            instances.append(CorpusInstance(
                f"S-{name}", "semigroup",
                semigroup=exact.to_inverse_semigroup(),
                meta={"graph": g, "truncated": exact}))

    for name, a in fixture_actions():
        exact = exact_model(a)
        instances.append(CorpusInstance(f"ACT-{name}", "action", action=a,
                                        meta={"exact": exact}))
        if exact is not None:
            instances.append(CorpusInstance(
                f"S-{name}", "semigroup",
                semigroup=exact.to_inverse_semigroup(),
                meta={"action": a, "truncated": exact}))

    return instances


def corpus_ids(seed: int = 0) -> list:
    return [inst.uid for inst in builtin_corpus(seed)]
