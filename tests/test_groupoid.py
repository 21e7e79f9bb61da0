import itertools

import pytest
from hypothesis import given, settings

from isgw import groupoid
from isgw.core import from_partial_bijections
from isgw.corpus import builtin_corpus

from isgw.core import from_tables
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
    assert effectiveness(build_groupoids(i2).tight).effective.value
    assert effectiveness(build_groupoids(i2).tight).strongly_effective.value
    rep = effectiveness(build_groupoids(z2z).tight)
    assert not rep.effective.value
    assert rep.effective.witness == (1, 2)
    assert not rep.strongly_effective.value
    units_only = effectiveness(build_groupoids(e4).tight)
    assert units_only.effective.value and units_only.strongly_effective.value


def assert_strong_effectiveness_matches_oracle(s):
    pair = build_groupoids(s)
    for g in (pair.universal, pair.tight):
        strong = effectiveness(g).strongly_effective
        oracle = strong_effectiveness_by_all_unions(g)
        assert (strong.value, strong.witness) == (oracle.value, oracle.witness)


def test_strong_effectiveness_matches_all_unions_oracle_on_builtin_corpus():
    for inst in builtin_corpus(0):
        if inst.kind == "semigroup":
            assert_strong_effectiveness_matches_oracle(inst.semigroup)


@settings(max_examples=60, deadline=None)
@given(generator_sets())
def test_strong_effectiveness_matches_all_unions_oracle_on_random_closures(gens):
    assert_strong_effectiveness_matches_oracle(from_partial_bijections(gens))


def test_strong_effectiveness_reduces_each_orbit_once(monkeypatch):
    """One reduction per unit orbit, not one per union of orbits: the chain
    0 < 1 < ... < 4 has four singleton orbits, all effective, so every orbit
    is reduced."""
    calls = []

    def counted(g, units):
        calls.append(units)
        return reduction(g, units)

    monkeypatch.setattr(groupoid, "reduction", counted)
    g = build_groupoids(make_chain(5)).universal
    assert effectiveness(g).strongly_effective.value
    assert calls == list(g.unit_orbits()) and len(calls) == 4


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
        assert effectiveness(build_groupoids(s).tight).strongly_effective.value is holds
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


def test_structure_theorems_all_pass(i2, e4, z2z):
    for s in (i2, e4, z2z, make_chain(4)):
        entries = verify_structure_theorems(s)
        assert entries, "no entries produced"
        bad = [e for e in entries if e.status == "fail"]
        assert not bad, bad
