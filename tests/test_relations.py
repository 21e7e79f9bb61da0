from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isgw.congruences import rees_quotient
from isgw.core import from_partial_bijections
from isgw.corpus import builtin_corpus
from isgw.errors import NotHomomorphism
from isgw.ideals_filters import enumerate_ideals
from isgw.relations import (
    SemigroupHomomorphism,
    centralizer,
    h_and_mu,
    injectivity_criteria,
)

from oracles import is_homomorphism_by_all_pairs, mu_by_conjugation
from test_core_oracles import generator_sets


def test_i2_h_and_mu(i2, i2n):
    rep = h_and_mu(i2)
    assert set(rep.h.class_of(i2n["I"])) == {i2n["I"], i2n["X"]}
    assert set(rep.mu.class_of(i2n["I"])) == {i2n["I"]}
    assert rep.cryptic is False
    assert rep.fundamental is True


def test_semilattice_trivial_relations(e4):
    rep = h_and_mu(e4)
    assert rep.h.is_equality()
    assert rep.mu.is_equality()
    assert rep.fundamental


def test_group_with_zero_not_fundamental(z2z):
    rep = h_and_mu(z2z)
    assert rep.mu.same(1, 2)  # the group part collapses under mu
    assert not rep.fundamental
    assert rep.cryptic  # H has the same classes here


def mu_oracle(s, a, b):
    return all(
        s.product(s.product(a, e), s.star(a)) == s.product(s.product(b, e), s.star(b))
        for e in s.idempotents
    )


@settings(max_examples=100, deadline=None)
@given(generator_sets())
def test_mu_matches_conjugation_oracle_on_random_closures(gens):
    s = from_partial_bijections(gens)
    assert h_and_mu(s).mu.classes == mu_by_conjugation(s)


def test_mu_matches_conjugation_oracle_on_builtin_corpus():
    for inst in builtin_corpus():
        if inst.kind == "semigroup":
            s = inst.semigroup
            assert h_and_mu(s).mu.classes == mu_by_conjugation(s), inst.uid


@pytest.mark.parametrize("maker", ["i2", "e4", "z2z"])
def test_mu_matches_definition(maker, request):
    s = request.getfixturevalue(maker)
    rep = h_and_mu(s)
    for a in s.elements():
        for b in s.elements():
            assert rep.mu.same(a, b) == mu_oracle(s, a, b)


def test_centralizer_i2(i2, i2n):
    expect = {i2n["0"], i2n["E11"], i2n["E22"], i2n["I"]}
    assert set(centralizer(i2)) == expect


def test_centralizer_commutative(e4, z2z):
    assert set(centralizer(e4)) == set(e4.elements())
    assert set(centralizer(z2z)) == set(z2z.elements())


def test_identity_hom_flags(i2):
    phi = SemigroupHomomorphism(i2, i2, tuple(range(i2.n)))
    rep = injectivity_criteria(phi)
    assert rep.injective and rep.injective_on_centralizer_of_e
    assert rep.idempotent_pure and rep.idempotent_separating


def test_rees_quotient_hom_flags(i2, i2n):
    ideal = frozenset({i2n["0"], i2n["E11"], i2n["E12"], i2n["E21"], i2n["E22"]})
    phi = rees_quotient(i2, ideal).as_homomorphism()
    rep = injectivity_criteria(phi)
    assert not rep.injective
    assert not rep.injective_on_centralizer_of_e
    assert not (rep.idempotent_pure and rep.idempotent_separating)


def test_inclusion_hom_flags(e4, e4n):
    sub, to_sub = e4.restrict({e4n["0"], e4n["e"]})
    back = {v: k for k, v in to_sub.items()}
    phi = SemigroupHomomorphism(sub, e4, tuple(back[i] for i in range(sub.n)))
    rep = injectivity_criteria(phi)
    assert rep.injective and rep.idempotent_pure and rep.idempotent_separating


def test_not_a_homomorphism_rejected(i2, i2n):
    broken = list(range(i2.n))
    broken[i2n["X"]] = i2n["E11"]
    with pytest.raises(NotHomomorphism):
        SemigroupHomomorphism(i2, i2, tuple(broken))


def _accepted(source, target, m):
    try:
        SemigroupHomomorphism(source, target, m)
    except NotHomomorphism:
        return False
    return True


@st.composite
def candidate_maps(draw):
    """(source, target, map): the identity or the projection onto a Rees
    quotient, with up to two entries a moved to random targets b, and a*
    moved to b* so that the involution test does not decide alone."""
    s = from_partial_bijections(draw(generator_sets()))
    ideals = enumerate_ideals(s)
    ideal = draw(st.sampled_from(ideals + (None,)))
    if ideal is None:
        target, m = s, list(range(s.n))
    else:
        q = rees_quotient(s, ideal.elements)
        target, m = q.quotient, list(q.projection)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, s.n - 1)), draw(st.integers(0, target.n - 1))
        m[a], m[s.star(a)] = b, target.star(b)
    return s, target, tuple(m)


@settings(max_examples=200, deadline=None)
@given(candidate_maps())
def test_homomorphism_test_over_generators_matches_all_pairs(case):
    source, target, m = case
    assert _accepted(source, target, m) == is_homomorphism_by_all_pairs(source, target, m)


def test_homomorphism_test_matches_all_pairs_on_perturbed_corpus_maps():
    """Every single-entry change of the identity of each corpus semigroup."""
    for inst in builtin_corpus():
        if inst.kind != "semigroup":
            continue
        s = inst.semigroup
        for a in s.elements():
            for b in s.elements():
                m = tuple(b if x == a else x for x in range(s.n))
                assert _accepted(s, s, m) == is_homomorphism_by_all_pairs(s, s, m), (
                    inst.uid, a, b)


# -- exact rational matrix fixture ---------------------------------------------

def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(3)) for i in range(3))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


ZERO3 = mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def rational_rank(vectors):
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def matrix_representation():
    return {
        "I": mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "X": mat([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]),
        "E11": mat([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
        "E12": mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
        "E22": mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
        "E21": mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]]),
        "0": ZERO3,
    }


def test_matrix_fixture_is_multiplicative(i2, i2n):
    pi = matrix_representation()
    name_of = {v: k for k, v in i2n.items()}
    for a in i2.elements():
        for b in i2.elements():
            lhs = mat_mul(pi[name_of[a]], pi[name_of[b]])
            rhs = pi[name_of[i2.product(a, b)]]
            assert lhs == rhs, (name_of[a], name_of[b])


def test_matrix_fixture_kernel_combination():
    pi = matrix_representation()
    total = pi["I"]
    total = mat_add(total, pi["X"])
    for name in ("E11", "E12", "E22", "E21"):
        total = mat_add(total, mat_neg(pi[name]))
    assert total == ZERO3


def test_matrix_fixture_injective_on_centralizer_span():
    pi = matrix_representation()
    vectors = [tuple(x for row in pi[name] for x in row)
               for name in ("I", "E11", "E22")]
    assert rational_rank(vectors) == 3
