import itertools
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from isgw.core import (
    PartialBijection,
    from_partial_bijections,
    from_tables,
    natural_order,
    semigroup_from_json,
)
from isgw.errors import NotAssociative, NotInverse, ParseError

from conftest import make_chain


def test_i2_has_seven_elements(i2, i2n):
    assert i2.n == 7
    assert len(set(i2n.values())) == 7
    assert i2.zero == i2n["0"]


def test_single_empty_generator_gives_zero_semigroup():
    s = from_partial_bijections([PartialBijection.empty(2)])
    assert s.n == 1
    assert s.zero == 0


def test_zero_adjoined_when_not_generated():
    # a single partial identity closes to itself; the empty map gets adjoined
    s = from_partial_bijections([PartialBijection(2, (0, None))])
    assert s.n == 2
    assert s.labels[s.zero] == "0"


def test_closure_keeps_one_table_alive_at_a_time():
    """Building I4 allocates little beyond what it keeps: the transient peak
    over the retained semigroup stays under a quarter of its table, so no
    second n x n table is alive at once."""
    gens = [PartialBijection(4, g) for g in ((1, 0, 2, 3), (1, 2, 3, 0), (0, 1, 2, None))]
    from_partial_bijections(gens)  # first call outside the trace
    tracemalloc.start()
    try:
        s = from_partial_bijections(gens)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = sys.getsizeof(s.mul) + sum(map(sys.getsizeof, s.mul))
    assert s.n == 209
    assert peak - retained <= 0.25 * table


def test_e4_closure(e4, e4n):
    assert e4.n == 4
    assert e4.is_semilattice()
    e, f, g, z = e4n["e"], e4n["f"], e4n["g"], e4n["0"]
    assert e4.product(e, f) == z
    assert e4.product(e, g) == z
    assert e4.product(f, g) == f


def test_idempotents_i2(i2, i2n):
    expect = {i2n["0"], i2n["E11"], i2n["E22"], i2n["I"]}
    assert set(i2.idempotents) == expect


def test_idempotents_trivial_cases(e4):
    z = from_partial_bijections([PartialBijection.empty(2)])
    assert set(z.idempotents) == {z.zero}
    assert set(e4.idempotents) == set(range(4))


def test_natural_order_i2(i2, i2n):
    order = natural_order(i2)
    assert order.holds(i2n["E11"], i2n["I"])
    assert not order.holds(i2n["X"], i2n["I"])
    for s in i2.elements():
        assert order.holds(i2n["0"], s)


def test_natural_order_e4(e4, e4n):
    order = natural_order(e4)
    assert order.holds(e4n["f"], e4n["g"])
    assert not order.holds(e4n["e"], e4n["g"])


def order_oracle(s):
    """Independent characterization: s <= t iff s == t s* s."""
    return [
        [s.product(t, s.product(s.star(a), a)) == a for t in s.elements()]
        for a in s.elements()
    ]


@pytest.mark.parametrize("maker", ["i2", "e4", "z2z"])
def test_order_matches_characterization(maker, request):
    s = request.getfixturevalue(maker)
    oracle = order_oracle(s)
    order = natural_order(s)
    for a in s.elements():
        for t in s.elements():
            assert order.holds(a, t) == oracle[a][t]
            # the dual characterization s = s s* t agrees as well
            assert oracle[a][t] == (s.product(s.product(a, s.star(a)), t) == a)


@pytest.mark.parametrize("maker", ["i2", "e4", "z2z"])
def test_star_antihomomorphism(maker, request):
    s = request.getfixturevalue(maker)
    for a in s.elements():
        assert s.star(s.star(a)) == a
        for b in s.elements():
            assert s.star(s.product(a, b)) == s.product(s.star(b), s.star(a))


@pytest.mark.parametrize("maker", ["i2", "e4", "z2z"])
def test_idempotent_meet(maker, request):
    s = request.getfixturevalue(maker)
    order = natural_order(s)
    for e in s.idempotents:
        for f in s.idempotents:
            m = s.product(e, f)
            assert m == s.product(f, e)
            assert order.holds(m, e) and order.holds(m, f)
            lower = [g for g in s.idempotents if order.holds(g, e) and order.holds(g, f)]
            assert all(order.holds(g, m) for g in lower)


def test_chain_semilattice():
    s = make_chain(4)
    assert s.n == 4
    assert s.is_semilattice()
    order = natural_order(s)
    chain = sorted(s.elements(), key=lambda a: len(order.down(a)))
    for lo, hi in itertools.combinations(chain, 2):
        assert order.holds(lo, hi)


def test_tables_roundtrip(z2z):
    assert z2z.n == 3
    assert set(z2z.idempotents) == {0, 1}
    assert z2z.product(2, 2) == 1


def test_noncommuting_idempotents_rejected():
    # left-zero band on two elements plus a zero
    mul = [[0, 0, 0], [0, 1, 1], [0, 2, 2]]
    inv = [0, 1, 2]
    with pytest.raises(NotInverse):
        from_tables(mul, inv, 0)


def test_nonassociative_rejected():
    mul = [[0, 0, 0], [0, 2, 1], [0, 1, 1]]
    inv = [0, 1, 2]
    with pytest.raises((NotAssociative, NotInverse)):
        from_tables(mul, inv, 0)


@pytest.mark.parametrize("n", [300, 301])
def test_nonassociative_semilattice_table_rejected_at_every_size(n):
    # commutative and idempotent, with (1*2)*3 = 1 but 1*(2*3) = 1*0 = 0
    mul = [[min(a, b) for b in range(n)] for a in range(n)]
    mul[2][3] = mul[3][2] = 0
    with pytest.raises(NotAssociative) as caught:
        from_tables(mul, list(range(n)), 0)
    a, b, c = map(int, re.match(r"\((\d+)\*(\d+)\)\*(\d+) != ", str(caught.value)).groups())
    assert mul[mul[a][b]][c] != mul[a][mul[b][c]]


def test_restrict_subsemigroup(i2, i2n):
    ideal = [i2n[k] for k in ("0", "E11", "E12", "E21", "E22")]
    sub, to_sub = i2.restrict(ideal)
    assert sub.n == 5
    assert sub.zero == to_sub[i2n["0"]]
    a, b = to_sub[i2n["E12"]], to_sub[i2n["E21"]]
    assert sub.product(a, b) == to_sub[i2n["E11"]]


def test_json_parsing_both_forms(i2):
    doc = {"degree": 2, "generators": [[0, 1], [1, 0], [0, None]]}
    s = semigroup_from_json(doc)
    assert s.n == 7
    doc2 = {"table": [[0, 0], [0, 1]], "inv": [0, 1], "zero": 0}
    s2 = semigroup_from_json(doc2)
    assert s2.n == 2
    with pytest.raises(ParseError):
        semigroup_from_json({"degree": 2, "generators": []})
    with pytest.raises(ParseError):
        semigroup_from_json({"nonsense": 1})


def pmaps_on_three():
    images = []
    for img in itertools.product((None, 0, 1, 2), repeat=3):
        defined = [y for y in img if y is not None]
        if len(defined) == len(set(defined)):
            images.append(img)
    return images


PMAPS3 = pmaps_on_three()


@st.composite
def random_generators(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    idx = draw(st.lists(st.sampled_from(range(len(PMAPS3))), min_size=k, max_size=k))
    return [PartialBijection(3, PMAPS3[i]) for i in idx]


@settings(max_examples=40, deadline=None)
@given(random_generators())
def test_random_closures_are_inverse_semigroups(gens):
    s = from_partial_bijections(gens)
    # construction validates the axioms; spot-check star behaviour on top
    for a in s.elements():
        assert s.product(s.product(a, s.star(a)), a) == a
    z = s.zero
    assert all(s.product(z, a) == z for a in s.elements())
