import itertools

import pytest
from hypothesis import given, settings

from isgw import congruences as cg
from isgw import groupoid
from isgw import relations as rel
from isgw import verify
from isgw.congruences import QuotientSemigroup
from isgw.core import InverseSemigroup, PartialBijection, from_partial_bijections, from_tables
from isgw.corpus import builtin_corpus
from isgw.errors import DomainViolation, NotInvariant
from isgw.groupoid import (
    Germ,
    build_groupoids,
    condition_K,
    effectiveness,
    germ_of,
    reduction,
    weakly_fixed_criterion,
)
from isgw.ideals_filters import d_classes
from isgw.report import Report
from isgw.verify import check_condition_k, check_effectiveness_chain, check_structure_theorems

from conftest import make_chain, make_e4, make_i2, make_z2z, slice_arrows
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
    entry = verify._functor_entry("f", src, dst, f)
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
        "fail", "arrow map is not a bijection", (2, 1, 2))
    assert functor_check(z5g.tight, z5g.tight, ident(z5, g="g2")) == (
        "fail", "inverse not preserved", z5n["g"])
    assert functor_check(z5g.tight, z5g.tight, ident(z5, g2="g3", g3="g2")) == (
        "fail", "composition not preserved", (z5n["g"], z5n["g"]))


def test_functor_check_rejects_a_map_that_collapses_units(i2):
    """The element map that sends the units [0>0], [1>1], [2>2] of the B3
    groupoid to the atoms E11, E22, E22 of I2, and each arrow to the one
    arrow between the images of its ends, is a functor onto the I2 tight
    groupoid: it preserves ends, inverses and composition, and its images
    cover the 2 units and 4 arrows.  It collapses units, so it is no
    isomorphism."""
    b3 = make_b3()
    src, dst = build_groupoids(b3).tight, build_groupoids(i2).tight
    atom = dict(zip(src.units, (dst.units[0], dst.units[1], dst.units[1])))
    between = {(dst.source(v), dst.range(v)): v for v in dst.arrows}
    f = {b3.zero: i2.zero}
    f.update({u: between[atom[src.source(u)], atom[src.range(u)]] for u in src.arrows})
    assert (len(src.units), len(src.arrows), len(dst.units), len(dst.arrows)) == (3, 9, 2, 4)
    assert len(set(f.values()) - {i2.zero}) == len(dst.arrows)
    assert functor_check(src, dst, f) == ("fail", "unit map is not a bijection", None)


def test_structure_theorems_all_pass(i2, e4, z2z):
    for s in (i2, e4, z2z, make_chain(4)):
        entries = check_structure_theorems(s)
        assert entries, "no entries produced"
        bad = [e for e in entries if e.status == "fail"]
        assert not bad, bad


def statement_failures(s):
    """The entries of the structure statements on s that do not pass, as
    (report key, status, detail, counterexample), and the number of
    entries: the keys pin where each failure falls among the entries of
    its name."""
    report = Report(instance="s")
    for entry in check_structure_theorems(s):
        report.add_theorem(entry)
    return ([(key, e.status, e.detail, e.counterexample)
             for key, e in report.theorems.items() if e.status != "pass"],
            len(report.theorems))


def collapsed_to_sub(s, monkeypatch):
    """Restriction to an ideal sends its last nonzero element to the image
    of its first."""
    restrict = InverseSemigroup.restrict

    def wrong(self, subset):
        sub, to_sub = restrict(self, subset)
        inside = sorted(a for a in to_sub if a != self.zero)
        if len(inside) > 1:
            to_sub = {**to_sub, inside[-1]: to_sub[inside[0]]}
        return sub, to_sub

    monkeypatch.setattr(InverseSemigroup, "restrict", wrong)


def collapsed_rees_projection(s, monkeypatch):
    """The projection onto a Rees quotient sends the last element outside
    the ideal to the image of the first."""
    rees_quotient = cg.rees_quotient

    def wrong(t, ideal):
        q = rees_quotient(t, ideal)
        outside = [a for a in t.elements() if a not in ideal]
        projection = list(q.projection)
        if len(outside) > 1:
            projection[outside[-1]] = projection[outside[0]]
        return QuotientSemigroup(q.source, q.quotient, tuple(projection))

    monkeypatch.setattr(cg, "rees_quotient", wrong)


def inverted_germs(s, monkeypatch):
    """A germ is represented by the inverse of its representative."""
    germ_of = verify.germ_of
    monkeypatch.setattr(verify, "germ_of",
                        lambda t, a, m: Germ(t.star(germ_of(t, a, m).rep), m))


def fundamental_rees_quotient(s, monkeypatch):
    """The Rees quotient by {0} is S/mu: on Z2Z it keeps the one unit and
    loses the arrow x."""
    rees_quotient = cg.rees_quotient
    mu = rel.h_and_mu(s).mu
    fundamental = cg.quotient(s, cg.make_congruence(s, lambda a: mu.class_index[a]))
    monkeypatch.setattr(cg, "rees_quotient", lambda t, ideal: (
        fundamental if len(ideal) == 1 else rees_quotient(t, ideal)))


def merged_collapse_atoms(s, monkeypatch):
    """The double-arrow projection of E4 sends the atom e to the image of
    the atom f."""
    quotient, da = cg.quotient, cg.double_arrow(s)
    e, f = s.labels.index("e"), s.labels.index("f")

    def wrong(t, rho):
        q = quotient(t, rho)
        if rho is not da:
            return q
        projection = list(q.projection)
        projection[e] = projection[f]
        return QuotientSemigroup(q.source, q.quotient, tuple(projection))

    monkeypatch.setattr(cg, "quotient", wrong)


def uncanonical_germs(s, monkeypatch):
    """The germ of (a, F) is represented by a itself, not by a*min(F)."""
    monkeypatch.setattr(verify, "germ_of", lambda t, a, m: Germ(a, m))


@pytest.mark.parametrize("make, wrong, expected", [
    # the chain 0 < a1 < a2 < a3 is (a1, a2, a3, 0) in index order
    (lambda: make_chain(4), collapsed_to_sub, ([
        ("filter_restriction_homeos#3", "fail", "ideal:[0, 1, 3]", "restriction"),
        ("universal_reduction_to_ideal#3", "fail",
         "unit map is not a bijection ideal:[0, 1, 3]", None),
        ("filter_restriction_homeos#4", "fail", "ideal:[0, 1, 2, 3]", "restriction"),
        ("universal_reduction_to_ideal#4", "fail",
         "unit map is not a bijection ideal:[0, 1, 2, 3]", None),
    ], 22)),
    (lambda: make_chain(4), collapsed_rees_projection, ([
        ("filter_restriction_homeos", "fail", "ideal:[3]", "quotient"),
        ("universal_reduction_to_quotient", "fail",
         "unit map is not a bijection ideal:[3]", None),
        ("filter_restriction_homeos#2", "fail", "ideal:[0, 3]", "quotient"),
        ("universal_reduction_to_quotient#2", "fail",
         "unit map is not a bijection ideal:[0, 3]", None),
    ], 22)),
    # I2 is (I, X, E11, E21, E12, E22, 0): u = E21, E12 at e = E11, E22, I
    (make_i2, inverted_germs, ([
        ("universal_reduction_to_ideal#3", "fail",
         "formula depends on the chosen idempotent ideal:[2, 5, 6]", (3, 2)),
        ("universal_reduction_to_ideal#4", "fail",
         "formula depends on the chosen idempotent ideal:[2, 5, 6]", (4, 5)),
        ("universal_reduction_to_ideal#6", "fail",
         "formula depends on the chosen idempotent ideal:[0, 2, 5, 6]", (3, 0)),
        ("universal_reduction_to_ideal#7", "fail",
         "formula depends on the chosen idempotent ideal:[0, 2, 5, 6]", (4, 0)),
    ], 23)),
    # Z2Z is (0, 1, x)
    (make_z2z, fundamental_rees_quotient, ([
        ("universal_reduction_to_quotient", "fail",
         "arrow map is not a bijection ideal:[0]", (2, 1, 1)),
        ("tight_reduction_to_quotient", "fail",
         "arrow map is not a bijection ideal:[0]", (2, 1, 1)),
        ("tight_reduction_arrow_count", "fail", "ideal:[0]", (1, 2)),
    ], 16)),
    # E4 is (e, f, g, 0)
    (make_e4, merged_collapse_atoms, ([
        ("tight_spectrum_collapse_homeo", "fail", "atom filters do not correspond",
         [(0, 1), (1, 1)]),
        ("tight_groupoid_collapse_isomorphism", "fail", "unit map is not a bijection", None),
    ], 36)),
    # the germ of (I, E11) is not that of (I E11, E11) = (E11, E11)
    (make_i2, uncanonical_germs, ([
        ("tight_groupoid_collapse_isomorphism#2", "fail",
         "map not constant on a germ class", (0, 2)),
    ], 20)),
], ids=["restriction", "quotient", "formula", "arrow-count", "collapse-spectrum",
        "germ-class"])
def test_structure_statements_report_each_failure(monkeypatch, make, wrong, expected):
    """Each structure statement fails, with its ideal label and its
    witness, when one map it reads is wrong, and the other entries pass."""
    s = make()
    assert statement_failures(s)[0] == []
    wrong(s, monkeypatch)
    assert statement_failures(s) == expected
