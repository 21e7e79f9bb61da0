import pytest

from isgw.congruences import congruence_closure, make_congruence
from isgw.core import PartialBijection, from_partial_bijections, from_tables
from isgw.groupoid import germ_of


def closure_congruence(s, pairs):
    """The least congruence containing the pairs, as a Congruence built on
    the union-find roots that ``congruence_closure`` returns."""
    return make_congruence(s, congruence_closure(s, pairs).__getitem__)


def slice_arrows(g, a, unit_subset):
    """Arrows [a, F] of the groupoid g for F ranging over the given units:
    the germs of a on the basic slice it defines."""
    s = g.s
    out = []
    for m in unit_subset:
        if s.order().holds(m, s.order().dom[a]):
            germ = germ_of(s, a, m)
            if germ.rep in g.arrows:
                out.append(germ)
    return tuple(out)


def make_i2():
    """The 7-element symmetric inverse monoid on two points."""
    ident = PartialBijection.identity(2)
    swap = PartialBijection(2, (1, 0))
    e11 = PartialBijection(2, (0, None))
    return from_partial_bijections([ident, swap, e11], labels=["I", "X", "E11"])


def i2_named(s):
    """Indices of the classically named elements of I2, by their labels in
    ``make_i2``: the generators keep their names and every other partial
    bijection is labelled by its points, E21 = [0>1] sending 0 to 1."""
    labels = {"I": "I", "X": "X", "E11": "E11", "E22": "[1>1]", "E21": "[0>1]",
              "E12": "[1>0]", "0": "0"}
    return {name: s.labels.index(label) for name, label in labels.items()}


def make_e4():
    """Semilattice with 0 < e, 0 < f < g and e orthogonal to f, g."""
    e = PartialBijection(3, (0, None, None))
    f = PartialBijection(3, (None, 1, None))
    g = PartialBijection(3, (None, 1, 2))
    return from_partial_bijections([e, f, g], labels=["e", "f", "g"])


def e4_named(s):
    return {name: s.labels.index(name) for name in ("e", "f", "g", "0")}


def make_z2z():
    """The two-element group with an adjoined zero: {0, 1, x}, x*x = 1."""
    # indices: 0 -> zero, 1 -> identity, 2 -> x
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    inv = [0, 1, 2]
    return from_tables(mul, inv, 0, labels=["0", "1", "x"])


def make_chain(k):
    """Chain semilattice 0 < a1 < ... < a_{k-1} as nested partial identities."""
    gens = [PartialBijection(k, tuple(x if x < j else None for x in range(k)))
            for j in range(1, k)]
    return from_partial_bijections(gens, labels=[f"a{j}" for j in range(1, k)])


@pytest.fixture(scope="session")
def i2():
    return make_i2()


@pytest.fixture(scope="session")
def i2n(i2):
    return i2_named(i2)


@pytest.fixture(scope="session")
def e4():
    return make_e4()


@pytest.fixture(scope="session")
def e4n(e4):
    return e4_named(e4)


@pytest.fixture(scope="session")
def z2z():
    return make_z2z()
