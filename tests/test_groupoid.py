import itertools

import pytest
from hypothesis import given, settings

from isgw import groupoid
from isgw.core import PartialBijection, from_partial_bijections, from_tables
from isgw.corpus import builtin_corpus
from isgw.errors import DomainViolation, NotInvariant
from isgw.groupoid import (
    Germ,
    build_groupoids,
    condition_K,
    effectiveness,
    germ_of,
    reduction,
    verify_structure_theorems,
    weakly_fixed_criterion,
)
from isgw.ideals_filters import d_classes
from isgw.verify import check_condition_k, check_effectiveness_chain

from conftest import make_chain, slice_arrows
from oracles import strong_effectiveness_by_all_unions
from test_core_oracles import generator_sets


def brute_force_germs(s):
    """Oracle: germ classes of pairs (a, m) under 'agree on some idempotent
    of the filter', computed without the canonical-form shortcut."""
    mins = [e for e in s.idempotents if e != s.zero]
    pairs = [(a, m) for a in s.elements() if a != s.zero
             for m in mins if s.order().holds(m, s.order().dom[a])]

    def same(p, q):
        (a, m), (b, mm) = p, q
        if m != mm:
            return False
        return any(
            s.product(a, e) == s.product(b, e)
            for e in s.idempotents if s.order().holds(m, e)
        )

    classes = []
    for p in pairs:
        for cls in classes:
            if same(p, cls[0]):
                cls.append(p)
                break
        else:
            classes.append([p])
    return classes


@pytest.mark.parametrize("maker", ["i2", "e4", "z2z"])
def test_universal_groupoid_matches_germ_oracle(maker, request):
    s = request.getfixturevalue(maker)
    pair = build_groupoids(s)
    oracle = brute_force_germs(s)
    assert pair.universal.n_arrows() == len(oracle)
    # each oracle class canonicalizes onto one distinct arrow
    reps = {germ_of(s, a, m) for cls in oracle for (a, m) in cls}
    assert len(reps) == len(oracle)
    assert {g.rep for g in reps} == set(pair.universal.arrows)


def test_i2_tight_is_pair_groupoid(i2, i2n):
    pair = build_groupoids(i2)
    tight = pair.tight
    assert set(tight.units) == {i2n["E11"], i2n["E22"]}
    assert set(tight.arrows) == {i2n["E11"], i2n["E22"], i2n["E12"], i2n["E21"]}
    # the germ of (X, E11-up) collapses onto E21 since X*E11 = E21*E11
    g = germ_of(i2, i2n["X"], i2n["E11"])
    assert g == Germ(i2n["E21"], i2n["E11"])
    assert tight.isotropy(i2n["E11"]) == (i2n["E11"],)


def test_semilattice_groupoid_is_units_only(e4):
    pair = build_groupoids(e4)
    assert pair.universal.n_arrows() == pair.universal.n_units()
    assert pair.tight.n_arrows() == pair.tight.n_units() == 2


def test_group_with_zero_has_isotropy(z2z):
    pair = build_groupoids(z2z)
    assert pair.tight.n_units() == 1
    assert set(pair.tight.isotropy(1)) == {1, 2}


def test_composition_matches_formula(i2):
    """Arrows v, u compose when the source of v is the range of u, and the
    composite is the product: [v, beta_u(F)][u, F] = [vu, F]."""
    s = i2
    g = build_groupoids(s).universal
    for u in g.arrows:
        for v in g.arrows:
            if g.source(v) == g.range(u):
                w = s.product(v, u)
                assert w in g.arrows
                assert g.source(w) == g.source(u)
                assert g.range(w) == g.range(v)
    for u in g.arrows:
        assert s.product(u, g.source(u)) == u
        assert s.product(g.range(u), u) == u
        assert s.product(g.inverse(u), u) == g.source(u)


def test_composition_associative(i2):
    s = i2
    g = build_groupoids(s).universal
    for a, b, c in itertools.product(g.arrows, repeat=3):
        if g.source(a) == g.range(b) and g.source(b) == g.range(c):
            assert s.product(s.product(a, b), c) == s.product(a, s.product(b, c))


def test_germ_domain_violation(i2, i2n):
    with pytest.raises(DomainViolation):
        germ_of(i2, i2n["E11"], i2n["E22"])


def test_reduction(i2, i2n):
    pair = build_groupoids(i2)
    full = reduction(pair.tight, pair.tight.units)
    assert full.arrows == pair.tight.arrows
    empty = reduction(pair.tight, ())
    assert empty.n_arrows() == 0
    with pytest.raises(NotInvariant):
        reduction(pair.tight, (i2n["E11"],))  # E21 crosses the boundary


def test_effectiveness(i2, z2z, e4):
    assert effectiveness(build_groupoids(i2).tight).value
    rep = effectiveness(build_groupoids(z2z).tight)
    assert not rep.value
    assert rep.witness == (1, 2)
    assert effectiveness(build_groupoids(e4).tight).value


def assert_strong_effectiveness_matches_oracle(s):
    """Strong effectiveness by every union of unit orbits is effectiveness,
    and its first failing union is the orbit of the first failing unit:
    D-related units have conjugate isotropy groups, so that orbit holds the
    least failing unit."""
    pair = build_groupoids(s)
    for g in (pair.universal, pair.tight):
        eff = effectiveness(g)
        oracle = strong_effectiveness_by_all_unions(g)
        witness = None if eff.value else (
            next(c for c in d_classes(s) if eff.witness[0] in c), eff.witness)
        assert (eff.value, witness) == (oracle.value, oracle.witness)


def test_strong_effectiveness_matches_all_unions_oracle_on_builtin_corpus():
    for inst in builtin_corpus(0):
        if inst.kind == "semigroup":
            assert_strong_effectiveness_matches_oracle(inst.semigroup)


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_strong_effectiveness_matches_all_unions_oracle_on_random_closures(gens):
    assert_strong_effectiveness_matches_oracle(from_partial_bijections(gens))


def test_effectiveness_makes_no_reduction(monkeypatch, z2z):
    """Strong effectiveness is read off effectiveness, with no reduction to
    an invariant set of units: not on the chain 0 < 1 < ... < 4, whose four
    singleton orbits are all effective, nor on Z2Z, which fails."""
    calls = []

    def counted(g, units):
        calls.append(units)
        return reduction(g, units)

    monkeypatch.setattr(groupoid, "reduction", counted)
    assert effectiveness(build_groupoids(make_chain(5)).universal).value
    assert not effectiveness(build_groupoids(z2z).universal).value
    assert calls == []


def test_slice_helper(i2, i2n):
    g = build_groupoids(i2).universal
    germs = slice_arrows(g, i2n["X"], g.units)
    # X is defined on every filter; its germs at the atoms collapse to E21/E12
    assert {(x.rep, x.source) for x in germs} == {
        (i2n["E21"], i2n["E11"]), (i2n["E12"], i2n["E22"]), (i2n["X"], i2n["I"]),
    }


def test_condition_k(i2, z2z):
    """Condition (K) and strong effectiveness agree on I2 (both hold) and on
    Z2Z (both fail); the verify check records the pair it compared."""
    for s, holds in ((i2, True), (z2z, False)):
        assert condition_K(s) is holds
        assert effectiveness(build_groupoids(s).tight).value is holds
        [entry] = check_condition_k(s)
        assert entry.name == "strong_effectiveness_iff_condition_k"
        assert (entry.status, entry.hypothesis) == ("pass", "met")
        assert entry.counterexample == (holds, holds)


def test_condition_k_zero_semigroup():
    z = from_tables([[0]], [0], 0)
    assert condition_K(z) is True


def test_weakly_fixed_criterion(i2, z2z, e4):
    assert weakly_fixed_criterion(i2).value is True
    repz = weakly_fixed_criterion(z2z)
    assert repz.value is False
    assert repz.witness == (2, 1)  # x with e = 1
    chain, _ = check_effectiveness_chain(z2z)
    assert (chain.name, chain.status) == ("effectiveness_chain", "pass")
    assert " criterion=False " in chain.detail
    assert weakly_fixed_criterion(e4).value is True


def make_b3():
    """B3, the 3 x 3 matrix units with zero, from e01, e12 and e20; an
    element is labelled by its points, [0>1] sending 0 to 1."""
    units = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        image = [None] * 3
        image[j] = i
        units.append(PartialBijection(3, tuple(image)))
    return from_partial_bijections(units)


def make_z5z():
    """The cyclic group of order 5 with an adjoined zero: 0, then g^0..g^4."""
    mul = [[0] * 6] + [[0] + [1 + (i + j) % 5 for j in range(5)] for i in range(5)]
    return from_tables(mul, [0, 1, 5, 4, 3, 2], 0, labels=["0", "1", "g", "g2", "g3", "g4"])


def functor_check(src, dst, f):
    """(status, detail, counterexample) of the functor check of the element
    map f, a dict over the elements of src's semigroup."""
    entry = groupoid._check_functor(src, dst, f, "f")
    return entry.status, entry.detail, entry.counterexample


def test_functor_check_reports_each_failure_of_an_element_map(i2, i2n):
    """One wrong element map for each failure the functor check can report,
    each with the first offending unit, arrow or pair in index order.  A map
    of the I2 or B3 groupoids that keeps every endpoint is the identity on
    their isotropy, so the inverse and composition failures use Z/5 with a
    zero, where g -> g2 breaks inverses and swapping g2 with g3 keeps them
    but is no automorphism."""
    b3, z5 = make_b3(), make_z5z()

    def named(s):
        return {label: s.labels.index(label) for label in s.labels}

    def ident(s, **moved):
        return {a: named(s).get(moved.get(s.labels[a]), a) for a in s.elements()}

    b3n, z5n = named(b3), named(z5)
    i2g, b3g, z5g = build_groupoids(i2), build_groupoids(b3), build_groupoids(z5)

    rotation = reduction(i2g.universal, (i2n["I"],))
    assert functor_check(b3g.tight, b3g.tight, ident(b3)) == ("pass", "", None)
    assert functor_check(i2g.universal, i2g.tight, ident(i2)) == (
        "fail", "unit map escapes target", i2n["I"])
    assert functor_check(b3g.tight, b3g.tight, {a: b3n["[0>0]"] for a in b3.elements()}) == (
        "fail", "unit map is not a bijection", None)
    assert functor_check(i2g.tight, i2g.tight, {**ident(i2), i2n["E21"]: i2n["X"]}) == (
        "fail", "arrow map escapes target", i2n["E21"])
    assert functor_check(b3g.tight, b3g.tight, ident(b3, **{"[1>0]": "[0>1]"})) == (
        "fail", "source/range not preserved", b3n["[1>0]"])
    assert functor_check(rotation, rotation, {i2n["I"]: i2n["I"], i2n["X"]: i2n["I"]}) == (
        "fail", "arrow map is not a bijection", (1, 2))
    assert functor_check(z5g.tight, z5g.tight, ident(z5, g="g2")) == (
        "fail", "inverse not preserved", z5n["g"])
    assert functor_check(z5g.tight, z5g.tight, ident(z5, g2="g3", g3="g2")) == (
        "fail", "composition not preserved", (z5n["g"], z5n["g"]))


def test_structure_theorems_all_pass(i2, e4, z2z):
    for s in (i2, e4, z2z, make_chain(4)):
        entries = verify_structure_theorems(s)
        assert entries, "no entries produced"
        bad = [e for e in entries if e.status == "fail"]
        assert not bad, bad
