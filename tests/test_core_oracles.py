"""The fast semigroup core against its brute-force oracles (tests/oracles.py):
closure and table, Light's associativity test, validation and natural order
with its down-sets."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from isgw.core import (
    PartialBijection,
    _check_associative,
    _generating_set,
    from_partial_bijections,
    from_tables,
)
from isgw.corpus import builtin_corpus
from isgw.errors import NotAssociative, NotInverse

from oracles import (
    all_pairs_closure,
    any_scan_order,
    cubic_associativity_failure,
    down_by_scan,
    validate_by_scans,
)


@st.composite
def partial_bijections(draw, degree):
    dom = draw(st.lists(st.integers(0, degree - 1), unique=True, max_size=degree))
    img = draw(st.permutations(range(degree)))[:len(dom)]
    image = [None] * degree
    for x, y in zip(dom, img):
        image[x] = y
    return PartialBijection(degree, tuple(image))


@st.composite
def generator_sets(draw, max_degree=4):
    degree = draw(st.integers(1, max_degree))
    return draw(st.lists(partial_bijections(degree), min_size=1, max_size=3))


def _pbs(degree, *images):
    return [PartialBijection(degree, image) for image in images]


# The explicit examples are closures the strategy (degree <= 4) never draws:
# I4 (209 elements) with its self-inverse transposition, a degree-5 pair of
# 206 elements, a single self-inverse seed (one seed, so one-element
# frontiers), the empty map alone (n = 1), an identity alone (zero adjoined)
# and two orthogonal partial identities (zero generated).
@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.booleans())
@example(_pbs(4, (1, 0, 2, 3), (1, 2, 3, 0), (0, 1, 2, None)), False)
@example(_pbs(5, (2, 3, 1, 0, 4), (4, None, 2, None, 1)), False)
@example(_pbs(3, (1, 0, 2)), True)
@example(_pbs(2, (None, None)), False)
@example(_pbs(3, (0, 1, 2)), True)
@example(_pbs(2, (0, None), (None, 1)), False)
def test_closure_matches_all_pairs_oracle(gens, named):
    labels = [f"g{i}" for i in range(len(gens))] if named else None
    s = from_partial_bijections(gens, labels=labels)
    mul, inv, zero, oracle_labels = all_pairs_closure(gens, labels)
    assert s.mul == mul
    assert s.inv == inv
    assert s.zero == zero
    assert s.labels == oracle_labels
    assert s.generators == tuple(_generating_set(mul))


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_down_matches_scan_on_random_closures(gens):
    s = from_partial_bijections(gens)
    order = s.order()
    for a in s.elements():
        assert order.down(a) == down_by_scan(order, a)


def _is_associative(mul):
    try:
        _check_associative(mul)
    except NotAssociative:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_light_test_matches_cubic_loop_on_random_tables(rows):
    mul = tuple(map(tuple, rows))
    assert _is_associative(mul) == (cubic_associativity_failure(mul) is None)


@st.composite
def perturbed_tables(draw):
    """A valid closure table of degree <= 3 with at most one entry changed."""
    s = from_partial_bijections(draw(generator_sets(max_degree=3)))
    rows = [list(row) for row in s.mul]
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(0, s.n - 1)) for _ in range(3))
        rows[a][b] = c
    return tuple(map(tuple, rows)), s.inv, s.zero


@settings(max_examples=200, deadline=None)
@given(perturbed_tables())
def test_light_test_matches_cubic_loop_on_perturbed_tables(table):
    mul, _, _ = table
    assert _is_associative(mul) == (cubic_associativity_failure(mul) is None)


def _outcome(validate, mul, inv, zero):
    try:
        validate(mul, inv, zero)
    except (NotAssociative, NotInverse) as exc:
        return type(exc), (None if isinstance(exc, NotAssociative) else str(exc))
    return None


@settings(max_examples=200, deadline=None)
@given(perturbed_tables())
def test_validation_matches_scans_on_perturbed_tables(table):
    assert _outcome(from_tables, *table) == _outcome(validate_by_scans, *table)


def test_validation_matches_scans_on_every_three_element_table():
    # zero = 0 absorbing; every 2x2 block of products and every inv table
    for block in itertools.product(range(3), repeat=4):
        mul = ((0, 0, 0), (0,) + block[:2], (0,) + block[2:])
        for inv in itertools.product(range(3), repeat=3):
            assert _outcome(from_tables, mul, inv, 0) == _outcome(validate_by_scans, mul, inv, 0)


@pytest.fixture(scope="module")
def corpus_semigroups():
    return [inst.semigroup for inst in builtin_corpus() if inst.kind == "semigroup"]


def test_order_matches_any_scan_on_builtin_corpus(corpus_semigroups):
    for s in corpus_semigroups:
        leq = any_scan_order(s.mul, s.idempotents)
        order = s.order()
        for a in s.elements():
            assert tuple(order.holds(a, t) for t in s.elements()) == leq[a]
            assert order.down(a) == tuple(t for t in s.elements() if leq[t][a])
