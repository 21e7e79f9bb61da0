"""Acceptance criteria for the workbench.

Each test prints one line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist; every expected value is pinned here, nothing is
deferred to later calibration.  Total runtime stays well under a minute.
"""

import re
import pytest

from isgw.congruences import all_congruences_rees, condition_L, enumerate_congruences
from isgw.corpus import builtin_corpus
from isgw.groupoid import build_groupoids, condition_K, effectiveness
from isgw.ideals_filters import hull, kernel
from isgw.relations import injectivity_criteria
from isgw.semilattice import Semilattice
from isgw.verify import (
    _generated_homomorphisms,
    summarize,
    verify_corpus,
)

from conftest import make_i2, make_z2z
from test_relations import (
    ZERO3,
    mat_add,
    mat_neg,
    matrix_representation,
    rational_rank,
)


@pytest.fixture(scope="module")
def corpus():
    return builtin_corpus()


@pytest.fixture(scope="module")
def reports(corpus):
    return verify_corpus(corpus)


@pytest.fixture(scope="module")
def summary(reports):
    return summarize(reports)


def _status(ok, number, text):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    assert ok, line


def _collect(reports, names):
    got = {"pass": 0, "fail": 0, "skipped": 0}
    for rep in reports:
        for key, entry in rep.theorems.items():
            if key.split("#")[0] in names:
                got[entry.status] += 1
    return got


def test_criterion_01_hull_kernel_reproduction(e4, e4n):
    lattice = Semilattice.from_semigroup(e4)
    n_f = (e4n["f"],)
    k = kernel(lattice, n_f)
    ok = k == {e4n["e"], e4n["0"]}
    h = set(hull(lattice, k))
    ok = ok and h == {e4n["f"], e4n["g"]}
    ok = ok and set(n_f) < h  # strict inclusion witnessed
    _status(ok, 1, "branching-semilattice kernel/hull values and strictness")


def test_criterion_02_partial_bijection_reproduction(corpus):
    i2 = make_i2()
    ok = i2.n == 7

    pi = matrix_representation()
    total = mat_add(pi["I"], pi["X"])
    for name in ("E11", "E12", "E22", "E21"):
        total = mat_add(total, mat_neg(pi[name]))
    ok = ok and total == ZERO3
    vectors = [tuple(x for row in pi[name] for x in row)
               for name in ("I", "E11", "E22")]
    ok = ok and rational_rank(vectors) == 3

    total_homs = 0
    for inst in corpus:
        if inst.kind != "semigroup":
            continue
        for phi in _generated_homomorphisms(inst.semigroup):
            rep = injectivity_criteria(phi)
            ok = ok and (rep.injective == rep.injective_on_centralizer_of_e
                         == (rep.idempotent_pure and rep.idempotent_separating))
            total_homs += 1
    ok = ok and total_homs > 0
    _status(ok, 2, f"7 elements, matrix fixture exact, {total_homs} homomorphisms agree")


def test_criterion_03_collapse_congruence(reports):
    names = {"double_arrow_is_zero_restricted_congruence",
             "collapse_semilattice_zero_disjunctive",
             "trivial_collapse_forces_zero_disjunctive",
             "fundamental_zero_disjunctive_forces_trivial_collapse",
             "zero_disjunctive_iff_trivial_collapse_when_fundamental"}
    got = _collect(reports, names)
    ok = got["fail"] == 0 and got["pass"] > 0
    _status(ok, 3, f"collapse congruence checks: {got}")


def test_criterion_04_collapse_isomorphism(reports, corpus):
    names = {"tight_spectrum_collapse_homeo", "tight_groupoid_collapse_isomorphism"}
    got = _collect(reports, names)
    n_semigroups = sum(1 for i in corpus if i.kind == "semigroup")
    ok = got["fail"] == 0 and got["pass"] >= 2 * n_semigroups
    _status(ok, 4, f"collapse isomorphism verified on {n_semigroups} semigroups")


def test_criterion_05_hull_kernel_theorems(reports):
    got = _collect(reports, {"kernel_hull_identity"})
    ok = got["fail"] == 0 and got["pass"] > 0

    samples = 0
    fails = 0
    for rep in reports:
        for key, entry in rep.theorems.items():
            if key.split("#")[0] == "empty_tight_basic_set_iff_cover":
                if entry.status == "fail":
                    fails += 1
                m = re.search(r"samples=(\d+)", entry.detail)
                if m:
                    samples += int(m.group(1))
    ok = ok and fails == 0 and samples >= 200

    got_t = _collect(reports, {"tight_ideal_correspondence"})
    ok = ok and got_t["fail"] == 0 and got_t["pass"] > 0
    _status(ok, 5, f"kernel/hull identities, {samples} basic-set samples, correspondence")


def test_criterion_06_reduction_isomorphisms(reports):
    names = {"universal_reduction_to_ideal", "universal_reduction_to_quotient",
             "tight_reduction_to_ideal", "tight_reduction_to_quotient",
             "tight_reduction_arrow_count", "filter_restriction_homeos",
             "tight_filter_restriction_homeos"}
    got = _collect(reports, names)
    ok = got["fail"] == 0 and got["pass"] > 0
    _status(ok, 6, f"reduction isomorphisms over every (saturated) ideal: {got}")


def test_criterion_07_effectiveness_conditions(reports):
    names = {"condition_l_iff_tight_effective", "strong_effectiveness_iff_condition_k",
             "effectiveness_chain"}
    got = _collect(reports, names)
    ok = got["fail"] == 0 and got["pass"] > 0

    i2 = make_i2()
    z2z = make_z2z()
    eff_i2 = effectiveness(build_groupoids(i2).tight)
    eff_z = effectiveness(build_groupoids(z2z).tight)
    ok = ok and condition_L(i2) and condition_K(i2) and eff_i2.value
    ok = ok and not condition_L(z2z) and not condition_K(z2z) and not eff_z.value
    _status(ok, 7, "condition (L)/(K) match (strong) effectiveness corpus-wide")


def test_criterion_08_all_rees_oracle(reports, i2, i2n):
    got = _collect(reports, {"all_rees_characterization"})
    ok = got["fail"] == 0 and got["pass"] > 0

    rep = all_congruences_rees(i2)
    non_rees = [rho.partition() for rho in enumerate_congruences(i2) if not rho.is_rees]
    expected = frozenset({
        frozenset({i2n["I"], i2n["X"]}),
        frozenset({i2n["0"], i2n["E11"], i2n["E12"], i2n["E21"], i2n["E22"]}),
    })
    ok = ok and rep.value is False and rep.value == (not non_rees)
    ok = ok and non_rees[0] == expected
    _status(ok, 8, f"Rees-characterization methods agree ({got['pass']} instances), "
                   "witness partition pinned")


def test_criterion_09_graph_layer(reports, corpus):
    from isgw.graphs import graph_conditions

    expected = {"G-L1": (False, False, False),
                "G-R2": (True, True, True),
                "G-A2": (True, True, False)}
    ok = True
    for inst in corpus:
        if inst.uid in expected:
            c = graph_conditions(inst.graph)
            ok = ok and (c.condition_l.value, c.condition_k.value,
                         c.condition_m.value) == expected[inst.uid]

    got_q = _collect(reports, {"condition_m_iff_indegree_free_quotients"})
    ok = ok and got_q["fail"] == 0 and got_q["pass"] >= 9
    got_mm = _collect(reports, {"graph_all_rees_iff_condition_m"})
    ok = ok and got_mm["fail"] == 0 and got_mm["pass"] >= 4
    got_zd = _collect(reports, {"graph_zero_disjunctive_iff_indegree"})
    ok = ok and got_zd["fail"] == 0 and got_zd["pass"] >= 4
    _status(ok, 9, f"graph conditions pinned; quotients {got_q['pass']}, "
                   f"Rees-equivalence {got_mm['pass']} exact instances")


def test_criterion_10_selfsimilar_layer(reports):
    from isgw.selfsimilar import (
        all_rees_ss,
        faithfulness,
        mirror_action,
        strongly_fixed_finite,
        validate_action,
    )

    mirror = mirror_action()
    stats = validate_action(mirror, depth=4)
    ok = stats["depth"] == 4
    rep = faithfulness(mirror)
    ok = ok and rep.faithful and rep.strongly_faithful
    ok = ok and strongly_fixed_finite(mirror, 1).value
    ok = ok and all_rees_ss(mirror).value

    names = {"trivial_group_condition_m_matches_graph",
             "trivial_group_semigroup_matches_graph",
             "trivial_group_hereditary_sets_match",
             "ss_condition_m_iff_indegree_free_quotients",
             "mu_path_criterion", "fundamental_iff_faithful",
             "quotient_action_isomorphism",
             "hereditary_invariant_ideal_correspondence",
             "vertex_ideal_path_criterion",
             "ss_all_rees_iff_strongly_faithful_and_m",
             "ss_quotients_zero_disjunctive_iff_m"}
    got = _collect(reports, names)
    ok = ok and got["fail"] == 0 and got["pass"] > 0
    _status(ok, 10, f"self-similar layer: axioms, faithfulness fixed point, {got}")


def test_no_failures_anywhere(summary):
    assert summary["failures"] == []
    print(f"ACCEPTANCE -- corpus of {summary['instances']} instances, "
          f"{sum(c['pass'] for c in summary['theorems'].values())} checks passed")
