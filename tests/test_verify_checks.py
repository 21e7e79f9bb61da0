"""The verify checks that compare a library answer with a second computation
of the same paper statement.  Each test first runs the check on the real
library, then replaces the library's answer with a wrong one: the check must
report "fail" with a counterexample, not raise."""

import json
import random

import pytest

from isgw import congruences as cg
from isgw import ideals_filters as ifl
from isgw import relations as rel
from isgw import selfsimilar as ss
from isgw import verify
from isgw.corpus import builtin_corpus
from isgw.errors import ParseError
from isgw.groupoid import Germ
from isgw.report import Report
from isgw.semilattice import Semilattice, atoms
from isgw.util import Decision

from conftest import i2_named
from oracles import report_dict


def entry(entries, name):
    [found] = [e for e in entries if e.name == name]
    return found


def assert_fails(check, args, name, monkeypatch, module, **wrong):
    """Run the check, then again with the named attributes of the module
    replaced by wrong ones."""
    assert entry(check(*args), name).status == "pass"
    for attr, value in wrong.items():
        monkeypatch.setattr(module, attr, value)
    got = entry(check(*args), name)
    assert got.status == "fail", got
    return got


def assert_caught(check, args, name, monkeypatch, module, **wrong):
    """assert_fails, and the failing entry names a counterexample."""
    got = assert_fails(check, args, name, monkeypatch, module, **wrong)
    assert got.counterexample is not None
    return got


@pytest.mark.parametrize("dropped", range(3))
def test_ideal_correspondence_names_an_ideal_the_enumeration_missed(i2, monkeypatch, dropped):
    ideals = ifl.enumerate_ideals(i2)
    assert len(ideals) == 3
    wrong = ideals[:dropped] + ideals[dropped + 1:]
    got = assert_caught(verify.check_ideal_correspondence, (i2,), "ideal_correspondence",
                        monkeypatch, ifl, enumerate_ideals=lambda s: wrong)
    assert got.counterexample == sorted(ideals[dropped].trace)
    assert got.detail == "SXS is not an enumerated ideal"


def test_ideal_correspondence_names_an_ideal_that_is_no_sxs(i2, i2n, monkeypatch):
    bogus = frozenset({i2n["0"], i2n["I"]})
    wrong = ifl.enumerate_ideals(i2) + (ifl.IdealOfS(bogus, bogus, False, False),)
    got = assert_caught(verify.check_ideal_correspondence, (i2,), "ideal_correspondence",
                        monkeypatch, ifl, enumerate_ideals=lambda s: wrong)
    assert got.counterexample == sorted(bogus)
    assert got.detail == "ideal does not round-trip through its trace"


def test_ideal_correspondence_names_an_x_whose_sxs_loses_it(i2, monkeypatch):
    got = assert_caught(verify.check_ideal_correspondence, (i2,), "ideal_correspondence",
                        monkeypatch, ifl, ideal_generated=lambda s, seed: frozenset(s.elements()))
    assert got.counterexample == [i2.zero]
    assert got.detail == "SXS does not trace back to X"


def universal_congruence(s):
    return cg.make_congruence(s, lambda a: 0)


def _l_relation(s):
    return cg.make_congruence(s, lambda a: s.product(s.star(a), a))


def _class_rows(rho):
    return [sum(1 << b for b in rho.class_of(a)) for a in range(rho.n)]


@pytest.mark.parametrize("wrong, rows, detail", [
    (universal_congruence, None, "relation is not transitive"),
    (_l_relation, _class_rows, "not a congruence: left product"),
    (universal_congruence, _class_rows, "not 0-restricted"),
])
def test_collapse_congruence_names_each_broken_property(i2, monkeypatch, wrong, rows, detail):
    """A wrong class set, then a wrong relation whose classes match it, so the
    compatibility and 0-restriction tests are reached as well."""
    patches = {"double_arrow": wrong}
    if rows is not None:
        patches["double_arrow_rows"] = lambda s: rows(wrong(s))
    got = assert_caught(verify.check_collapse_congruence, (i2,),
                        "double_arrow_is_zero_restricted_congruence", monkeypatch, cg,
                        **patches)
    assert got.detail.startswith(detail)


def _flipped(fn):
    def wrong(s):
        return Decision(not fn(s).value)
    return wrong


def _exact_instance(kind):
    return next(inst for inst in builtin_corpus(0)
                if inst.kind == kind and inst.meta.get("exact") is not None)


@pytest.mark.parametrize("site", ["semigroup", "graph", "action"])
def test_all_rees_sites_name_the_disagreement(i2, monkeypatch, site):
    check, args, name = {
        "semigroup": (verify.check_all_rees, (i2,), "all_rees_characterization"),
        "graph": (verify.check_graph_instance, (_exact_instance("graph"),),
                  "graph_all_rees_iff_condition_m"),
        "action": (verify.check_action_instance, (_exact_instance("action"),),
                   "ss_all_rees_iff_strongly_faithful_and_m"),
    }[site]
    got = assert_caught(check, args, name, monkeypatch, cg,
                        all_congruences_rees=_flipped(cg.all_congruences_rees))
    non_rees, _ = got.counterexample
    assert non_rees is not None  # none of these semigroups has all congruences Rees


def test_congruence_free_characterization_names_the_lattice(i2, monkeypatch):
    real = cg.is_congruence_free(i2)
    got = assert_caught(verify.check_all_rees, (i2,), "congruence_free_characterization",
                        monkeypatch, cg, is_congruence_free=lambda s: not real)
    assert len(got.counterexample) == len(cg.enumerate_congruences(i2))


def _lattice_with(extra):
    """The real congruence lattice of S and one wrong member."""
    real = cg.enumerate_congruences
    return lambda s: real(s) + (extra(s),)


def _units_merged(s):
    """I and X of I2 in one class, every other element alone: a relation
    with one idempotent per class and the zero alone, so it reads as a proper
    idempotent-separating and 0-restricted congruence (it is not compatible:
    multiplying by E11 separates I from X)."""
    n = i2_named(s)
    return cg.make_congruence(s, lambda a: n["I"] if a == n["X"] else a)


def test_mu_maximality_names_an_idempotent_separating_congruence_outside_mu(
        i2, monkeypatch):
    assert rel.h_and_mu(i2).fundamental and i2.n <= verify.ENUM_BOUND
    got = assert_caught(verify.check_mu_properties, (i2,),
                        "mu_is_maximum_idempotent_separating", monkeypatch, cg,
                        enumerate_congruences=_lattice_with(_units_merged))
    assert got.counterexample == _units_merged(i2).partition()


def test_zero_restricted_rigidity_names_a_proper_zero_restricted_congruence(
        i2, monkeypatch):
    """I2 is fundamental with a 0-disjunctive semilattice, so its only
    0-restricted congruence is the equality."""
    got = assert_caught(verify.check_all_rees, (i2,), "zero_restricted_rigidity",
                        monkeypatch, cg, enumerate_congruences=_lattice_with(_units_merged))
    assert got.counterexample == [_units_merged(i2).partition()]
    assert got.detail == "rigid=False"


def _every_filter_ultra(lattice):
    mins = tuple(sorted(lattice.nonzero()))
    return ifl.FilterSpace(lattice, mins, frozenset(mins))


@pytest.mark.parametrize("module, wrong", [
    (ifl, {"filter_space": _every_filter_ultra}),
    (verify, {"atoms": lambda lattice: lattice.nonzero()}),
])
def test_tight_filter_check_names_the_first_misclassified_filter(i2, i2n, monkeypatch,
                                                                 module, wrong):
    """A wrong filter space, then wrong atoms."""
    got = assert_caught(verify.check_hull_kernel, (i2, random.Random(0)),
                        "tight_equals_ultra_equals_atoms", monkeypatch, module, **wrong)
    assert got.counterexample == i2n["I"]
    assert i2n["I"] not in atoms(Semilattice.from_semigroup(i2))


def test_injectivity_check_names_the_homomorphism(i2, monkeypatch):
    got = assert_caught(verify.check_injectivity_criteria, (i2,),
                        "injectivity_criteria_equivalence", monkeypatch, rel,
                        injectivity_criteria=lambda phi: rel.InjectivityReport(
                            False, True, True, True))
    phi_map, flags = got.counterexample
    assert phi_map == tuple(range(i2.n))  # the identity comes first
    assert flags == rel.InjectivityReport(False, True, True, True)


def test_record_counterexample_renders_as_its_fields(i2, monkeypatch):
    """A record inside a counterexample is rendered as the dict of its fields."""
    monkeypatch.setattr(rel, "injectivity_criteria",
                        lambda phi: rel.InjectivityReport(False, True, True, True))
    report = Report("I2")
    for e in verify.check_injectivity_criteria(i2):
        report.add_theorem(e)
    rendered = report_dict(report)["theorems"]["injectivity_criteria_equivalence"]
    assert json.dumps(rendered["counterexample"]) == (
        '[[0, 1, 2, 3, 4, 5, 6], {"idempotent_pure": true, "idempotent_separating": true, '
        '"injective": false, "injective_on_centralizer_of_e": true}]')


def test_beta_action_check_names_the_pair_whose_image_is_not_the_up_closure(
        i2, monkeypatch):
    """A conjugation that fixes every filter is invertible, so only the
    up-closure comparison can catch it."""
    got = assert_caught(verify.check_beta_action, (i2,), "conjugation_action_is_invertible",
                        monkeypatch, ifl, beta_act=lambda s, a, m: m)
    a, m = got.counterexample
    assert i2.order().holds(m, i2.order().dom[a])
    assert i2.product(i2.product(a, m), i2.star(a)) != m


def test_hull_invariance_transfer_names_the_order_ideal_and_its_hull(i2, i2n, monkeypatch):
    """With every order ideal called invariant by the shared scan, the first
    one that is not has a hull that is no union of filter orbits."""
    every = frozenset(ifl.order_ideals(Semilattice.from_semigroup(i2)))
    got = assert_caught(verify.check_hull_kernel, (i2, random.Random(0)),
                        "hull_invariance_transfer", monkeypatch, verify,
                        _invariant_order_ideals=lambda s: every)
    x, hx = got.counterexample
    assert x == frozenset({i2n["0"], i2n["E11"]})
    assert hx == frozenset({i2n["E22"], i2n["I"]})


def test_tight_ideal_correspondence_names_an_ideal_not_the_kernel_of_its_hull(
        i2, i2n, monkeypatch):
    got = assert_caught(verify.check_hull_kernel, (i2, random.Random(0)),
                        "tight_ideal_correspondence", monkeypatch, ifl,
                        hull_tight=lambda space, x: ())
    assert got.counterexample == ("kernel_of_hull", frozenset({i2n["0"]}))
    assert got.hypothesis == "met"


def test_tight_ideal_correspondence_names_a_tight_set_not_the_hull_of_its_kernel(
        i2, i2n, monkeypatch):
    """An extra "invariant tight subset" holding the non-tight filter at I."""
    real = ifl.invariant_subsets(i2)
    wrong = ifl.InvariantSubsetsReport(
        real.orbits, real.invariant_tight_subsets + (frozenset({i2n["I"]}),))
    got = assert_caught(verify.check_hull_kernel, (i2, random.Random(0)),
                        "tight_ideal_correspondence", monkeypatch, ifl,
                        invariant_subsets=lambda s: wrong)
    assert got.counterexample == ("hull_of_kernel", frozenset({i2n["I"]}))


def test_condition_k_check_names_both_values(i2, monkeypatch):
    got = assert_caught(verify.check_condition_k, (i2,),
                        "strong_effectiveness_iff_condition_k", monkeypatch, verify,
                        condition_K=lambda s: False)
    assert got.counterexample == (False, True)
    assert got.hypothesis == "met"


def test_hull_kernel_expansion_names_the_first_family_outside_its_hull(i2, i2n, monkeypatch):
    """A kernel holding every idempotent meets every filter, so the first
    nonempty family of the pool, the filter at I alone, is caught."""
    got = assert_caught(verify.check_hull_kernel, (i2, random.Random(0)),
                        "hull_kernel_expansion", monkeypatch, ifl,
                        kernel_mask=lambda view, hit: view.full)
    assert got.counterexample == frozenset({i2n["I"]})


def test_kernel_of_tight_family_names_the_first_tight_part(i2, i2n, monkeypatch):
    """With only the whole carrier called saturated, the first family of the
    pool with a nonempty tight part, the atom E11, is caught."""
    got = assert_caught(verify.check_hull_kernel, (i2, random.Random(0)),
                        "kernel_of_tight_family_is_saturated", monkeypatch, ifl,
                        is_saturated_order_ideal=lambda lattice, x:
                            len(x) == len(lattice.elements))
    assert got.counterexample == frozenset({i2n["E11"]})


def _exact_group_action():
    """ACT-SWAP-D2: Z/2 acting on an exact model."""
    return next(inst for inst in builtin_corpus(0)
                if inst.kind == "action" and inst.meta.get("exact") is not None
                and inst.action.group.size > 1)


@pytest.mark.parametrize("uid, size", [("ACT-TRIV-L1", 10), ("ACT-TRIV-R2", 50),
                                       ("ACT-TRIV-A2", 6)])
def test_trivial_group_model_size_is_the_path_pair_count(monkeypatch, uid, size):
    """The model of a trivial-group action has 1 + the sum over v of P(v)^2
    elements, P(v) the paths from v; a model one level too shallow fails."""
    inst = next(inst for inst in builtin_corpus(0) if inst.uid == uid)
    name = "trivial_group_semigroup_matches_graph"
    assert entry(verify.check_action_instance(inst), name).detail == f"{size} elements"
    real = ss.ss_semigroup
    got = assert_fails(verify.check_action_instance, (inst,), name, monkeypatch, ss,
                       ss_semigroup=lambda a, depth: real(a, depth - 1))
    assert got.detail != f"{size} elements"


def test_mu_path_criterion_names_the_first_pair_that_acts_alike(monkeypatch):
    """With mu the equality, the first two triples of one shape whose group
    elements act alike on the paths into beta are caught."""
    inst = _exact_group_action()
    assert inst.uid == "ACT-SWAP-D2"
    s = inst.meta["exact"].to_inverse_semigroup()
    equality = rel.EquivalenceRelation.from_class_map(s.n, lambda a: a)
    real = rel.h_and_mu(s)
    wrong = rel.RelationsReport(real.h, equality, real.cryptic, real.fundamental)
    got = assert_caught(verify.check_action_instance, (inst,), "mu_path_criterion",
                        monkeypatch, rel, h_and_mu=lambda s: wrong)
    assert got.counterexample == ("(v0,1,v0)", "(v0,t,v0)")


def test_quotient_action_isomorphism_names_the_first_vertex_set(monkeypatch):
    """A quotient action that removes nothing matches the Rees quotient by
    the empty vertex set only, so the next set, {0}, is caught."""
    inst = _exact_group_action()
    assert ss.hereditary_invariant_sets(inst.action)[:2] == [frozenset(), frozenset({0})]
    got = assert_caught(verify.check_action_instance, (inst,), "quotient_action_isomorphism",
                        monkeypatch, ss, quotient_action=lambda a, v_set: a)
    assert got.counterexample == [0]


def test_quotient_action_isomorphism_names_a_map_that_is_not_one_to_one(monkeypatch):
    """With every vertex ideal {0}, each Rees quotient is S itself, and its
    projection onto a smaller quotient-action model is a homomorphism onto it
    but not one-to-one: the first nonempty vertex set is caught."""
    inst = _exact_group_action()
    got = assert_caught(verify.check_action_instance, (inst,), "quotient_action_isomorphism",
                        monkeypatch, verify, _vertex_ideal=lambda truncated, v_set:
                            frozenset({0}))
    assert got.counterexample == [0]


# -- statements whose failure has no counterexample, or a plain one ---------------

def _instance(uid):
    return next(inst for inst in builtin_corpus(0) if inst.uid == uid)


def test_mu_congruence_check_names_the_classes_of_a_relation_that_is_no_congruence(
        i2, monkeypatch):
    """mu replaced by the L relation (equal domains), which is not compatible
    with left multiplication."""
    real = rel.h_and_mu(i2)
    l_rel = rel.EquivalenceRelation.from_class_map(i2.n, lambda a: i2.product(i2.star(a), a))
    wrong = rel.RelationsReport(real.h, l_rel, real.cryptic, real.fundamental)
    got = assert_caught(verify.check_mu_properties, (i2,),
                        "mu_is_idempotent_separating_congruence", monkeypatch, rel,
                        h_and_mu=lambda s: wrong)
    assert got.counterexample == l_rel.partition()
    assert got.detail.startswith("left product")


def test_saturation_check_names_the_first_ideal_whose_levels_disagree(i2, monkeypatch):
    real = ifl.s_level_saturated
    got = assert_caught(verify.check_ideal_correspondence, (i2,),
                        "saturation_agrees_at_both_levels", monkeypatch, ifl,
                        s_level_saturated=lambda s, members: not real(s, members))
    assert got.counterexample == sorted(ifl.enumerate_ideals(i2)[0].elements)


def test_all_rees_implies_condition_k_fails_when_condition_k_does(monkeypatch):
    """SL02-n3 has only Rees congruences, so the implication is checked."""
    s = _instance("SL02-n3").semigroup
    assert cg.all_congruences_rees(s).value
    got = assert_fails(verify.check_all_rees, (s,), "all_rees_implies_condition_k",
                       monkeypatch, verify, condition_K=lambda s: False)
    assert got.counterexample is None


def test_germ_check_names_the_first_arrow_whose_germ_moves(i2, monkeypatch):
    got = assert_caught(verify.check_germ_canonical_stability, (i2,),
                        "germ_canonicalization_stable", monkeypatch, verify,
                        germ_of=lambda s, a, m: Germ(s.zero, m))
    assert got.counterexample == min(a for a in i2.elements() if a != i2.zero)


def test_graph_condition_l_check_fails_on_a_flipped_condition_l(monkeypatch):
    real = cg.condition_L
    got = assert_fails(verify.check_graph_instance, (_exact_instance("graph"),),
                       "graph_condition_l_matches_collapse", monkeypatch, cg,
                       condition_L=lambda s: not real(s))
    assert got.counterexample is None


def test_tight_units_check_names_both_counts(monkeypatch):
    """The exact model swapped for one with the same semigroup and no
    paths: the check counts no maximal path but still counts the units."""
    inst = _exact_instance("graph")
    name = "tight_units_are_maximal_path_filters"
    assert entry(verify.check_graph_instance(inst), name).status == "pass"
    model = inst.meta["exact"]
    pathless = ss.TruncatedActionSemigroup(model.action, model.depth, (), model.elements,
                                           model.exact)
    pathless.__dict__["_semigroup"] = model.to_inverse_semigroup()
    monkeypatch.setitem(inst.meta, "exact", pathless)
    got = entry(verify.check_graph_instance(inst), name)
    assert got.status == "fail", got
    assert got.detail.endswith(" maximal_paths=0")
    assert not got.detail.startswith("atoms=0 ")


def test_action_axioms_check_reports_the_validation_error(monkeypatch):
    def broken(action):
        raise ParseError("cocycle breaks the axioms")

    got = assert_fails(verify.check_action_instance, (_exact_group_action(),),
                       "action_axioms_hold", monkeypatch, ss, validate_action=broken)
    assert got.detail == "cocycle breaks the axioms"
