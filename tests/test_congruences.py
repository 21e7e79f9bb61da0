import pytest

from isgw.congruences import (
    all_congruences_rees,
    check_compatible,
    condition_L,
    congruence_closure,
    double_arrow,
    enumerate_congruences,
    equality_congruence,
    is_congruence_free,
    quotient,
    rees_congruence,
    rees_quotient,
    universal_congruence,
)
from isgw.core import InverseSemigroup, from_tables, semigroup_from_json
from isgw.errors import NotCongruence, NotIdeal
from isgw.ideals_filters import principal_ideal
from isgw.semilattice import Semilattice, is_0_disjunctive

from conftest import i2_named, make_i2
from test_cli import brandt_doc
from test_ideals_filters import symmetric_inverse_monoid


def partition_by_labels(s, rho):
    return {frozenset(s.labels[x] for x in c) for c in rho.classes}


def test_closure_identifying_units_collapses_ideal(i2, i2n):
    rho = congruence_closure(i2, [(i2n["I"], i2n["X"])])
    assert partition_by_labels(i2, rho) == {
        frozenset({"I", "X"}),
        frozenset({"0", "E11", "[0>1]", "[1>0]", "[1>1]"}),
    }
    assert not rho.is_rees
    assert not rho.is_zero_restricted


def test_closure_empty_pairs_is_equality(i2):
    assert congruence_closure(i2, []).is_equality()


def test_closure_idempotent_to_zero_gives_rees(i2, i2n):
    rho = congruence_closure(i2, [(i2n["E11"], i2n["0"])])
    ideal = {i2n[k] for k in ("0", "E11", "E12", "E21", "E22")}
    assert rho.is_rees
    assert rho.class_of(i2n["0"]) == frozenset(ideal)


def test_enumerate_congruences_i2(i2):
    lattice = enumerate_congruences(i2)
    assert len(lattice) == 4
    assert sum(1 for r in lattice if r.is_rees) == 3
    non_rees = [r for r in lattice if not r.is_rees]
    assert len(non_rees) == 1
    assert len(non_rees[0].classes) == 2


def test_enumerate_congruences_e4(e4, e4n):
    lattice = enumerate_congruences(e4)
    # equality, universal, Rees of each proper ideal, and the double arrow
    partitions = {r.partition() for r in lattice}
    assert double_arrow(e4).partition() in partitions
    assert any(r.is_equality() for r in lattice)
    assert any(r.is_universal() for r in lattice)


def test_enumerate_zero_semigroup():
    z = from_tables([[0]], [0], 0)
    lattice = enumerate_congruences(z)
    assert len(lattice) == 1
    assert lattice[0].is_equality() and lattice[0].is_universal()


@pytest.mark.parametrize("n, count", [(2, 4), (3, 7), (4, 11)])
def test_congruence_count_of_symmetric_inverse_monoids(n, count):
    """|Con(I_n)| = 1 + sum_{k <= n} |N(S_k)|, with N(S_k) the normal
    subgroups of the symmetric group S_k (Liber, 1953)."""
    assert len(enumerate_congruences(symmetric_inverse_monoid(n))) == count


@pytest.mark.parametrize("k, n", [(1, 3), (2, 4), (3, 3), (4, 2), (6, 2)])
def test_congruence_count_of_brandt_semigroups(k, n):
    """The congruences of B(G, n) are the universal one and one per normal
    subgroup of G (Howie, *Fundamentals of Semigroup Theory*, 1995, ch. 3),
    so |Con(B(Z/k, n))| = d(k) + 1 with d(k) the number of divisors of k."""
    divisors = sum(1 for d in range(1, k + 1) if k % d == 0)
    s = semigroup_from_json(brandt_doc(k, n))
    assert len(enumerate_congruences(s)) == divisors + 1


def test_double_arrow_e4(e4, e4n):
    rho = double_arrow(e4)
    assert partition_by_labels(e4, rho) == {
        frozenset({"0"}), frozenset({"e"}), frozenset({"f", "g"})
    }


def test_double_arrow_boolean_semilattice(i2, i2n):
    # E(I2) as its own semilattice: 0-disjunctive, so the collapse is trivial
    sub, _ = i2.restrict({i2n["0"], i2n["E11"], i2n["E22"], i2n["I"]})
    assert double_arrow(sub).is_equality()


def test_double_arrow_two_chain():
    two = from_tables([[0, 0], [0, 1]], [0, 1], 0)
    assert double_arrow(two).is_equality()


def test_quotient_collapse_e4(e4):
    q = quotient(e4, double_arrow(e4)).quotient
    assert q.n == 3
    assert q.is_semilattice()
    assert is_0_disjunctive(Semilattice.from_semigroup(q)).value


def test_quotient_by_equality_is_isomorphic(i2):
    q = quotient(i2, equality_congruence(i2))
    assert q.quotient.n == i2.n
    for a in i2.elements():
        for b in i2.elements():
            pa, pb = q.projection[a], q.projection[b]
            assert q.projection[i2.product(a, b)] == q.quotient.product(pa, pb)


def test_quotient_by_equality_is_the_semigroup_itself(i2, e4, z2z):
    for s in (i2, e4, z2z):
        q = quotient(s, equality_congruence(s))
        assert q.quotient is s
        assert q.projection == tuple(range(s.n))
        assert rees_quotient(s, {s.zero}).quotient is s
    assert quotient(i2, double_arrow(i2)).quotient is i2  # the collapse of I2 is trivial


def test_quotient_by_a_proper_congruence_is_built_by_construction(monkeypatch):
    """The quotient is a new semigroup that is not validated again, and its
    tables pass full validation with the same generators."""
    s = make_i2()
    validated = []
    original = InverseSemigroup._validate

    def recording(self):
        validated.append(self)
        return original(self)

    monkeypatch.setattr(InverseSemigroup, "_validate", recording)
    q = rees_quotient(s, principal_ideal(s, i2_named(s)["E11"])).quotient
    assert q is not s and validated == []
    assert q.n == 3
    full = InverseSemigroup(q.mul, q.inv, q.zero, labels=q.labels)
    assert validated == [full]
    assert full.generators == q.generators and full.idempotents == q.idempotents


def test_rees_quotient_i2_is_group_with_zero(i2, i2n, z2z):
    ideal = {i2n[k] for k in ("0", "E11", "E12", "E21", "E22")}
    q = rees_quotient(i2, ideal).quotient
    assert q.n == 3
    nonzero = [x for x in q.elements() if x != q.zero]
    unit = next(x for x in nonzero if q.is_idempotent(x))
    other = next(x for x in nonzero if x != unit)
    assert q.product(other, other) == unit


def test_rees_quotient_matches_textbook_product(i2, i2n):
    ideal = frozenset({i2n["0"], i2n["E11"], i2n["E12"], i2n["E21"], i2n["E22"]})
    q = rees_quotient(i2, ideal)
    for a in i2.elements():
        if a in ideal:
            continue
        for b in i2.elements():
            if b in ideal:
                continue
            ab = i2.product(a, b)
            expected = q.quotient.zero if ab in ideal else q.projection[ab]
            assert q.quotient.product(q.projection[a], q.projection[b]) == expected


def test_rees_congruence_edges(i2, i2n):
    assert rees_congruence(i2, {i2n["0"]}).is_equality()
    assert rees_congruence(i2, set(i2.elements())).is_universal()
    with pytest.raises(NotIdeal):
        rees_congruence(i2, {i2n["0"], i2n["I"]})  # I generates everything
    with pytest.raises(NotIdeal):
        rees_congruence(i2, {i2n["E11"]})  # missing the zero


def test_rees_congruence_rejects_an_out_of_range_member(i2, i2n):
    with pytest.raises(NotIdeal, match="7 is not an element"):
        rees_congruence(i2, {i2n["0"], i2.n})


def test_rees_congruence_rejects_a_negative_member(i2, i2n):
    with pytest.raises(NotIdeal, match="-1 is not an element"):
        rees_congruence(i2, {i2n["0"], -1})


def test_quotient_rejects_non_congruence(i2, i2n):
    from isgw.congruences import make_congruence

    bogus = make_congruence(i2, lambda a: 0 if a in (i2n["I"], i2n["E11"]) else a)
    with pytest.raises(NotCongruence):
        check_compatible(i2, bogus.class_index)
    with pytest.raises(NotCongruence):
        quotient(i2, bogus)


def test_quotient_rejects_a_right_congruence_by_left_products(i2, i2n):
    """The L relation of I2 (a ~ b iff a*a = b*b) is stable under every right
    translate but not under the left ones, so the compatibility test that a
    quotient needs rejects it."""
    from isgw.congruences import make_congruence

    l_rel = make_congruence(i2, lambda a: i2.product(i2.star(a), a))
    index = l_rel.class_index
    assert not l_rel.is_equality()
    assert all(index[i2.product(a, c)] == index[i2.product(b, c)]
               for cls in l_rel.classes for a in cls for b in cls for c in i2.elements())
    assert l_rel.same(i2n["E11"], i2n["E21"])
    with pytest.raises(NotCongruence, match="left product"):
        check_compatible(i2, index)
    with pytest.raises(NotCongruence, match="left product"):
        quotient(i2, l_rel)


def non_rees_members(s):
    """Partitions of the non-Rees members of the congruence lattice."""
    return [rho.partition() for rho in enumerate_congruences(s) if not rho.is_rees]


def test_all_congruences_rees_i2(i2, i2n):
    rep = all_congruences_rees(i2)
    assert rep.value is False
    non_rees = non_rees_members(i2)
    assert rep.value == (not non_rees)
    expected_witness = frozenset({
        frozenset({i2n["I"], i2n["X"]}),
        frozenset({i2n["0"], i2n["E11"], i2n["E12"], i2n["E21"], i2n["E22"]}),
    })
    assert non_rees[0] == expected_witness
    assert rep.witness[0] in ("quotient_not_fundamental",
                              "quotient_not_0_disjunctive")


def test_all_congruences_rees_trivial_cases(e4):
    z = from_tables([[0]], [0], 0)
    assert all_congruences_rees(z).value is True
    assert all_congruences_rees(z).value == (not non_rees_members(z))
    rep = all_congruences_rees(e4)
    assert rep.value is False
    assert rep.value == (not non_rees_members(e4))


def test_congruence_free(i2, e4):
    two = from_tables([[0, 0], [0, 1]], [0, 1], 0)
    assert is_congruence_free(two) is True
    assert is_congruence_free(i2) is False
    assert is_congruence_free(e4) is False


def test_condition_l(i2, e4, z2z):
    assert condition_L(i2) is True
    assert condition_L(e4) is True
    assert condition_L(z2z) is False


def test_double_arrow_always_zero_restricted_congruence(i2, e4, z2z):
    for s in (i2, e4, z2z):
        rho = double_arrow(s)
        assert rho.is_zero_restricted
        check_compatible(s, rho.class_index)
        q = quotient(s, rho).quotient
        assert is_0_disjunctive(Semilattice.from_semigroup(q)).value


def test_universal_and_equality_flags(i2):
    assert equality_congruence(i2).is_idempotent_separating
    assert universal_congruence(i2).is_rees


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in all_partitions(rest):
        for i, block in enumerate(partial):
            yield partial[:i] + [block + [first]] + partial[i + 1:]
        yield partial + [[first]]


def brute_force_congruences(s):
    """Oracle: test every partition of the carrier for compatibility."""
    out = set()
    for blocks in all_partitions(range(s.n)):
        index = {}
        for i, block in enumerate(blocks):
            for x in block:
                index[x] = i
        ok = all(
            index[s.product(c, a)] == index[s.product(c, b)]
            and index[s.product(a, c)] == index[s.product(b, c)]
            for block in blocks for a in block for b in block
            for c in s.elements()
        )
        if ok:
            out.add(frozenset(frozenset(b) for b in blocks))
    return out


@pytest.mark.parametrize("maker", ["e4", "z2z"])
def test_enumeration_matches_partition_scan(maker, request):
    s = request.getfixturevalue(maker)
    fast = {rho.partition() for rho in enumerate_congruences(s)}
    assert fast == brute_force_congruences(s)


def test_enumeration_matches_partition_scan_chain():
    from conftest import make_chain

    s = make_chain(4)
    fast = {rho.partition() for rho in enumerate_congruences(s)}
    assert fast == brute_force_congruences(s)
