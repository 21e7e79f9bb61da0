"""Theorem-verification harness.

Every structural statement the workbench relies on is re-checked on every
applicable corpus instance; a "fail" entry is a falsification event (or a
library bug) and the CLI turns it into a nonzero exit.
"""

from __future__ import annotations

import random

from . import congruences as cg
from . import ideals_filters as ifl
from . import relations as rel
from . import selfsimilar as ss
from .core import InverseSemigroup, per_semigroup
from .corpus import CorpusInstance, builtin_corpus
from .errors import CapExceeded, NotCongruence, NotHomomorphism
from .graphs import (
    GraphPath,
    graph_conditions,
    graph_semigroup,
    hereditary_sets,
    paths_up_to,
    quotient_graph,
)
from .groupoid import (
    build_groupoids,
    condition_K,
    effectiveness,
    germ_of,
    verify_structure_theorems,
    weakly_fixed_criterion,
)
from .report import Report, TheoremEntry
from .semilattice import (
    Semilattice,
    atoms,
    has_trapping_condition,
    is_0_disjunctive,
    is_cover,
    order_masks,
    positions,
)

# The congruence lattice is exact at every size, but the checks below scan
# it only up to these sizes.  Without the caps, a verify run on the
# verify-mid documents of perfbench takes 0.8-1.0 s instead of 0.06 s
# (2-CPU machine, Python 3.11), 0.56 s of it for the 64 congruences of the
# 92-element model of a 5-edge chain; and the statements skipped above them
# are pinned "skipped" in perfbench/pins.json.  An entry that passes above a
# cap names the cap in its detail.
ENUM_BOUND = 8
ALL_REES_BOUND = 11  # the all-Rees scans of graphs and actions
SAMPLES_PER_INSTANCE = 40


def _entry(name: str, ok: bool, counterexample=None, detail: str = "",
           hypothesis: str = "met") -> TheoremEntry:
    return TheoremEntry(name, "pass" if ok else "fail", hypothesis=hypothesis,
                        detail=detail, counterexample=counterexample)


def _skipped(name: str, detail: str) -> TheoremEntry:
    return TheoremEntry(name, "skipped", detail=detail)


# -- semigroup-level checks -----------------------------------------------------

def _double_arrow_failure(s: InverseSemigroup, da) -> tuple | None:
    """(detail, counterexample) for the first way the classes ``da`` of the
    double-arrow relation fail to be a 0-restricted congruence, or None.
    The relation is transitive iff the related row of each element is the
    bitset of its class."""
    class_bits = [0] * len(da.classes)
    for a, i in enumerate(da.class_index):
        class_bits[i] |= 1 << a
    for a, row in enumerate(cg.double_arrow_rows(s)):
        diff = row ^ class_bits[da.class_index[a]]
        if diff:
            return "relation is not transitive", (a, (diff & -diff).bit_length() - 1)
    try:
        cg.check_compatible(s, da.class_index)
    except NotCongruence as exc:
        return f"not a congruence: {exc}", da.partition()
    if not da.is_zero_restricted:
        return "not 0-restricted", sorted(da.class_of(s.zero))
    return None


def check_collapse_congruence(s: InverseSemigroup) -> list:
    """The double-arrow relation is a 0-restricted congruence and collapsing
    by it produces a 0-disjunctive semilattice; the two degenerate directions
    relating it to the 0-disjunctive property hold as well."""
    da = cg.double_arrow(s)
    failure = _double_arrow_failure(s, da)
    if failure:
        detail, witness = failure
        return [_entry("double_arrow_is_zero_restricted_congruence", False, witness,
                       detail=detail)]
    out = [_entry("double_arrow_is_zero_restricted_congruence", True)]
    q = cg.quotient(s, da).quotient
    out.append(_entry("collapse_semilattice_zero_disjunctive",
                      is_0_disjunctive(Semilattice.from_semigroup(q)).value))
    zero_disj = is_0_disjunctive(Semilattice.from_semigroup(s)).value
    fundamental = rel.h_and_mu(s).fundamental
    if da.is_equality():
        out.append(_entry("trivial_collapse_forces_zero_disjunctive", zero_disj))
    if fundamental and zero_disj:
        out.append(_entry("fundamental_zero_disjunctive_forces_trivial_collapse",
                          da.is_equality()))
    if fundamental:
        out.append(_entry("zero_disjunctive_iff_trivial_collapse_when_fundamental",
                          zero_disj == da.is_equality()))
    return out


def check_mu_properties(s: InverseSemigroup) -> list:
    out = []
    rep = rel.h_and_mu(s)
    mu, h = rep.mu, rep.h
    inside = all(h.same(a, b)
                 for cls in mu.classes for a in cls for b in cls)
    out.append(_entry("mu_contained_in_h", inside))
    mu_cong = cg.make_congruence(s, lambda a: mu.class_index[a])
    try:
        cg.check_compatible(s, mu_cong.class_index)
        out.append(_entry("mu_is_idempotent_separating_congruence",
                          mu_cong.is_idempotent_separating))
    except NotCongruence as exc:
        out.append(_entry("mu_is_idempotent_separating_congruence", False,
                          mu_cong.partition(), detail=str(exc)))
    if s.n <= ENUM_BOUND:
        witness = next((rho.partition() for rho in cg.enumerate_congruences(s)
                        if rho.is_idempotent_separating and not all(
                            mu.same(a, b) for c in rho.classes for a in c for b in c)),
                       None)
        out.append(_entry("mu_is_maximum_idempotent_separating", witness is None, witness))
    else:
        out.append(_skipped("mu_is_maximum_idempotent_separating", "size bound"))
    return out


def _tight_by_covers(lattice: Semilattice, m: int) -> bool:
    """The filter with minimum m is tight: no cover of a member of the filter
    avoids it."""
    view = order_masks(lattice)
    members = view.up[view.index(m)]
    for e in positions(members):
        outside = view.down[e] & ~view.zero & ~members
        if outside and view.covers(e, outside):
            return False
    return True


@per_semigroup
def _invariant_order_ideals(s: InverseSemigroup) -> frozenset:
    """The invariant order ideals of E, by one scan of all order ideals
    (capped by ``MAX_ORDER_IDEALS``): the second computation that the checks
    ``ideal_correspondence`` and ``hull_invariance_transfer`` compare with
    the ideals of S and with the filter orbits."""
    return frozenset(x for x in ifl.order_ideals(Semilattice.from_semigroup(s))
                     if ifl.is_invariant_order_ideal(s, x))


def _family_pool(up: list, rng: random.Random) -> dict:
    """The families of filters the hull-kernel statements are tested on, as
    masks over the filter minima (bit i for the i-th), each mapped to the OR
    of the up-sets of its filters: every family when there are at most 10
    minima, in the order of ``util.subsets``; else 30 random ones."""
    k = len(up)
    if k <= 10:
        hits = [0] * (1 << k)
        for a in range(1, 1 << k):
            low = a & -a
            hits[a] = hits[a ^ low] | up[low.bit_length() - 1]
        return dict(enumerate(hits))
    pool = {}
    for _ in range(30):
        picked = rng.sample(range(k), rng.randint(0, k))  # the draws of sampling the minima
        hit = 0
        for i in picked:
            hit |= up[i]
        pool.setdefault(sum(1 << i for i in picked), hit)
    return pool


def check_hull_kernel(s: InverseSemigroup, rng: random.Random) -> list:
    out = []
    lattice = Semilattice.from_semigroup(s)
    space = ifl.filter_space(lattice)
    atom_set = frozenset(atoms(lattice))
    split = next((m for m in space.mins
                  if len({m in space.tight, m in space.ultra, m in atom_set,
                          _tight_by_covers(lattice, m)}) > 1), None)
    out.append(_entry("tight_equals_ultra_equals_atoms", split is None, split))

    # one pass over the order ideals X of E: kernel(hull(X)) = X; X is
    # invariant iff hull(X) is a union of filter orbits; and each saturated
    # invariant X is the kernel of its tight hull
    rep = ifl.invariant_subsets(s)
    invariant_ideals = _invariant_order_ideals(s)
    identity_ok = True
    transfer = correspondence = None
    for x in ifl.order_ideals(lattice):
        hx = frozenset(ifl.hull(lattice, x))
        identity_ok = identity_ok and ifl.kernel(lattice, hx) == x
        invariant = x in invariant_ideals
        if transfer is None and invariant != all(o <= hx or not o & hx for o in rep.orbits):
            transfer = (x, hx)
        if (correspondence is None and invariant and ifl.is_saturated_order_ideal(lattice, x)
                and ifl.kernel(lattice, ifl.hull_tight(space, x)) != x):
            correspondence = ("kernel_of_hull", x)
    out.append(_entry("kernel_hull_identity", identity_ok))

    view = order_masks(lattice)
    mins = space.mins
    up = [view.up[view.position[m]] for m in mins]
    pool = _family_pool(up, rng)

    def family(a: int) -> frozenset:
        return frozenset(m for i, m in enumerate(mins) if a >> i & 1)

    # A lies in hull(kernel(A)) iff no filter of A meets kernel(A); each
    # kernel, and its hull as a mask, is formed once per distinct union of
    # up-sets
    hull_of = {}
    witness = None
    for a, hit in pool.items():
        if hit not in hull_of:
            ker = ifl.kernel_mask(view, hit)
            hull_of[hit] = sum(1 << i for i, u in enumerate(up) if not u & ker)
        if a & ~hull_of[hit]:
            witness = family(a)
            break
    out.append(_entry("hull_kernel_expansion", witness is None, witness))

    # the kernel of the tight part of A depends on that part alone: each is
    # decided once, in the order the pool first reaches it
    tight = sum(1 << i for i, m in enumerate(mins) if m in space.tight)
    decided = set()
    witness = None
    for a in pool:
        if a & tight in decided:
            continue
        decided.add(a & tight)
        tight_a = family(a & tight)
        if not ifl.is_saturated_order_ideal(lattice, ifl.kernel(lattice, tight_a)):
            witness = tight_a
            break
    out.append(_entry("kernel_of_tight_family_is_saturated", witness is None, witness))

    samples = 0
    lemma_ok = True
    witness = None
    nonzero = list(lattice.nonzero())
    while samples < SAMPLES_PER_INSTANCE and nonzero:
        e = rng.choice(nonzero)
        below = [x for x in lattice.below(e) if x != lattice.zero]
        c = [x for x in below if rng.random() < 0.5]
        members = space.tight_basic_set(e, c)
        covers = is_cover(lattice, e, c, require_below=True).value
        if (len(members) == 0) != covers:
            lemma_ok = False
            witness = (e, tuple(c))
            break
        # finite semilattices always trap, so every filter in the set holds
        # an element below e orthogonal to all the excluded ones
        for m in members:
            found = any(
                lattice.leq(m, x) and lattice.leq(x, e)
                and all(lattice.meet(x, ei) == lattice.zero for ei in c)
                for x in lattice.elements
            )
            if not found:
                lemma_ok = False
                witness = ("separating_element", e, tuple(c), m)
                break
        if not lemma_ok:
            break
        samples += 1
    out.append(_entry("empty_tight_basic_set_iff_cover", lemma_ok, witness,
                      detail=f"samples={samples}"))

    out.append(_entry("hull_invariance_transfer", transfer is None, transfer))
    if correspondence is None:
        correspondence = next(
            (("hull_of_kernel", a) for a in rep.invariant_tight_subsets
             if frozenset(ifl.hull_tight(space, ifl.kernel(lattice, a))) != a), None)
    out.append(_entry("tight_ideal_correspondence", correspondence is None, correspondence,
                      hypothesis=_trapping_hypothesis(s)))
    return out


def _ideal_round_trip_failure(s: InverseSemigroup, ideals) -> tuple | None:
    """(detail, counterexample) for the first invariant order ideal X of E
    or ideal of S that fails to round-trip through X -> SXS and ideal ->
    its idempotents, or None."""
    ideal_sets = {i.elements for i in ideals}
    invariant_ideals = _invariant_order_ideals(s)
    from_xs = {}
    for x in ifl.order_ideals(Semilattice.from_semigroup(s)):
        if x not in invariant_ideals:
            continue
        sxs = from_xs[x] = ifl.ideal_generated(s, x)
        if ifl.ideal_trace(s, sxs) != x:
            return "SXS does not trace back to X", sorted(x)
        if sxs not in ideal_sets:
            return "SXS is not an enumerated ideal", sorted(x)
    for ideal in ideals:
        if from_xs.get(ideal.trace) != ideal.elements:
            return "ideal does not round-trip through its trace", sorted(ideal.elements)
    return None


def check_ideal_correspondence(s: InverseSemigroup) -> list:
    ideals = ifl.enumerate_ideals(s)
    failure = _ideal_round_trip_failure(s, ideals)
    if failure:
        detail, witness = failure
        return [_entry("ideal_correspondence", False, witness, detail=detail)]
    out = [_entry("ideal_correspondence", True, detail=f"{len(ideals)} ideals")]
    agree = True
    witness = None
    for ideal in ideals:
        e_level = ideal.saturated
        s_level = ifl.s_level_saturated(s, ideal.elements)
        if e_level != s_level:
            agree = False
            witness = sorted(ideal.elements)
            break
    out.append(_entry("saturation_agrees_at_both_levels", agree, witness))
    return out


def check_beta_action(s: InverseSemigroup) -> list:
    """Conjugation by a carries the filter F with minimum m onto the up-set
    of the image minimum (the up-closure of a F a*), and conjugation by a*
    carries it back."""
    view = order_masks(Semilattice.from_semigroup(s))
    up, position = view.up, view.position
    mins = [e for e in s.idempotents if e != s.zero]
    for a in s.elements():
        a_star = s.star(a)
        dom = s.product(a_star, a)
        for m in mins:
            if not s.leq(m, dom):
                continue
            image = ifl.beta_act(s, a, m)
            closure = 0
            for f in view.members(up[position[m]]):
                closure |= up[position[s.product(s.product(a, f), a_star)]]
            if closure != up[position[image]] or ifl.beta_act(s, a_star, image) != m:
                return [_entry("conjugation_action_is_invertible", False, (a, m))]
    return [_entry("conjugation_action_is_invertible", True)]


def check_structure_theorems(s: InverseSemigroup) -> list:
    return verify_structure_theorems(s)


def check_effectiveness_chain(s: InverseSemigroup) -> list:
    rep = weakly_fixed_criterion(s)
    out = [_entry("effectiveness_chain", rep.chain_holds,
                  detail=(f"effective={rep.effective} criterion={rep.criterion.value} "
                          f"collapse_fundamental={rep.quotient_fundamental}"))]
    out.append(_entry("condition_l_iff_tight_effective",
                      cg.condition_L(s) == rep.effective))
    return out


def _trapping_hypothesis(s: InverseSemigroup) -> str:
    """The hypothesis tag of a statement that assumes the trapping condition
    on E: "met", or "unmet-recorded" when E lacks it."""
    trapping = has_trapping_condition(Semilattice.from_semigroup(s))
    return "met" if trapping.value else "unmet-recorded"


def check_condition_k(s: InverseSemigroup) -> list:
    """Condition (K) holds iff the tight groupoid is strongly effective, under
    the trapping hypothesis; without it both values are recorded."""
    values = (condition_K(s).value,
              effectiveness(build_groupoids(s).tight).strongly_effective.value)
    hyp = _trapping_hypothesis(s)
    if hyp != "met":
        return [TheoremEntry("strong_effectiveness_iff_condition_k", "skipped",
                             hypothesis=hyp, detail="trapping fails; values recorded",
                             counterexample=values)]
    return [_entry("strong_effectiveness_iff_condition_k", values[0] == values[1], values,
                   hypothesis=hyp)]


def _all_rees(s: InverseSemigroup, bound: int) -> tuple:
    """The library's all-Rees decision, by Rees quotients, and the
    counterexample of a disagreement with a scan of the congruence lattice
    for a non-Rees member: (the non-Rees congruence or None, the decision's
    witness).  The counterexample is None when the two agree, or when
    |S| > bound and the lattice is not scanned."""
    rees = cg.all_congruences_rees(s)
    if s.n > bound:
        return rees, None
    non_rees = next((r.partition() for r in cg.enumerate_congruences(s)
                     if not r.is_rees), None)
    if (non_rees is None) == rees.value:
        return rees, None
    return rees, (non_rees, rees.witness)


def _capped(detail: str, s: InverseSemigroup, bound: int) -> str:
    """``detail``, naming the cap when |S| > bound leaves the congruence
    lattice side of the statement uncompared."""
    if s.n > bound:
        detail += ("; " if detail else "") + f"lattice not compared above {bound} elements"
    return detail


def check_all_rees(s: InverseSemigroup) -> list:
    rees, disagreement = _all_rees(s, ENUM_BOUND)
    small = s.n <= ENUM_BOUND
    out = [_entry("all_rees_characterization", disagreement is None, disagreement,
                  detail=f"value={rees.value}") if small
           else _skipped("all_rees_characterization", "size bound")]
    if rees.value:
        out.append(_entry("all_rees_implies_condition_k", condition_K(s).value))
    if not small:
        # above the bound only the structural answer is computed
        return out + [_entry("congruence_free_characterization", True,
                             detail=_capped("", s, ENUM_BOUND)),
                      _skipped("zero_restricted_rigidity", "size bound")]
    lattice = cg.enumerate_congruences(s)
    by_lattice = (len(lattice) == 2
                  and any(r.is_equality() for r in lattice)
                  and any(r.is_universal() for r in lattice))
    agree = cg.is_congruence_free(s) == by_lattice
    out.append(_entry("congruence_free_characterization", agree,
                      None if agree else [r.partition() for r in lattice]))
    proper = [r.partition() for r in lattice if r.is_zero_restricted and not r.is_equality()]
    rigid = not proper
    expected = rel.h_and_mu(s).fundamental and \
        is_0_disjunctive(Semilattice.from_semigroup(s)).value
    out.append(_entry("zero_restricted_rigidity", rigid == expected,
                      None if rigid == expected else proper, detail=f"rigid={rigid}"))
    return out


def _generated_homomorphisms(s: InverseSemigroup):
    yield rel.SemigroupHomomorphism(s, s, tuple(range(s.n)))
    if s.n <= ENUM_BOUND:
        rhos = cg.enumerate_congruences(s)
    else:
        rhos = [cg.rees_congruence(s, i.elements) for i in ifl.enumerate_ideals(s)]
    for rho in rhos:
        q = cg.quotient(s, rho)
        yield q.as_homomorphism()
    for e in s.idempotents:
        closed = {s.zero, e}
        sub, to_sub = s.restrict(closed)
        back = {v: k for k, v in to_sub.items()}
        yield rel.SemigroupHomomorphism(sub, s, tuple(back[i] for i in range(sub.n)))


def check_injectivity_criteria(s: InverseSemigroup) -> list:
    count = 0
    for phi in _generated_homomorphisms(s):
        rep = rel.injectivity_criteria(phi)
        if not (rep.injective == rep.injective_on_centralizer_of_e
                == (rep.idempotent_pure and rep.idempotent_separating)):
            return [_entry("injectivity_criteria_equivalence", False, (phi.map, rep),
                           detail=f"homomorphism {count} of the generated list")]
        count += 1
    return [_entry("injectivity_criteria_equivalence", True,
                   detail=f"homomorphisms={count}")]


def check_germ_canonical_stability(s: InverseSemigroup) -> list:
    pair = build_groupoids(s)
    ok = True
    witness = None
    for u in pair.universal.arrows:
        m = pair.universal.source(u)
        g = germ_of(s, u, m)
        if g.rep != u or g.source != m:
            ok = False
            witness = u
            break
    return [_entry("germ_canonicalization_stable", ok, witness)]


SEMIGROUP_CHECKS = [
    check_collapse_congruence,
    check_mu_properties,
    check_ideal_correspondence,
    check_beta_action,
    check_structure_theorems,
    check_effectiveness_chain,
    check_condition_k,
    check_all_rees,
    check_injectivity_criteria,
    check_germ_canonical_stability,
]


# -- graph-level checks -----------------------------------------------------------

def check_graph_instance(inst: CorpusInstance) -> list:
    g = inst.graph
    out = []
    conditions = graph_conditions(g)

    quotients = (quotient_graph(g, h.vertices) for h in hereditary_sets(g))
    all_free = all(all(q.in_degree(v) != 1 for v in q.vertices) for q in quotients)
    out.append(_entry("condition_m_iff_indegree_free_quotients",
                      conditions.condition_m.value == all_free,
                      detail=f"m={conditions.condition_m.value}"))

    exact = inst.meta.get("exact")
    if exact is None:
        out.append(_skipped("graph_zero_disjunctive_iff_indegree", "not exact"))
        out.append(_skipped("graph_all_rees_iff_condition_m", "not exact"))
        return out

    s = exact.to_inverse_semigroup()
    zero_disj = is_0_disjunctive(Semilattice.from_semigroup(s)).value
    indeg_free = all(g.in_degree(v) != 1 for v in g.vertices)
    out.append(_entry("graph_zero_disjunctive_iff_indegree",
                      zero_disj == indeg_free,
                      detail=f"zero_disjunctive={zero_disj} indegree_free={indeg_free}"))

    rees, disagreement = _all_rees(s, ALL_REES_BOUND)
    out.append(_entry("graph_all_rees_iff_condition_m",
                      disagreement is None and rees.value == conditions.condition_m.value,
                      disagreement,
                      detail=_capped(f"all_rees={rees.value} m={conditions.condition_m.value}",
                                     s, ALL_REES_BOUND)))

    atoms_count = build_groupoids(s).tight.n_units()
    sources = [v for v in g.vertices if g.in_degree(v) == 0]
    maximal_paths = sum(
        1 for p in _all_paths(exact) if p.src in sources
    )
    out.append(_entry("tight_units_are_maximal_path_filters",
                      atoms_count == maximal_paths,
                      detail=f"atoms={atoms_count} maximal_paths={maximal_paths}"))

    out.append(_entry("graph_condition_l_matches_collapse",
                      cg.condition_L(s) == conditions.condition_l.value))
    return out


def _all_paths(truncated):
    return paths_up_to(truncated.action.graph, truncated.depth)


# -- action-level checks -----------------------------------------------------------

def check_action_instance(inst: CorpusInstance) -> list:
    a = inst.action
    out = []
    try:
        stats = ss.validate_action(a)
        out.append(_entry("action_axioms_hold", True,
                          detail=f"checks={stats['checks']}"))
    except Exception as exc:  # noqa: BLE001
        return [_entry("action_axioms_hold", False, detail=str(exc))]

    m = ss.condition_M_ss(a)
    indeg_ok = True
    witness = None
    for v_set in ss.hereditary_invariant_sets(a):
        sub_graph = quotient_graph(a.graph, v_set)
        if any(sub_graph.in_degree(v) == 1 for v in sub_graph.vertices):
            indeg_ok = False
            witness = sorted(v_set)
            break
    out.append(_entry("ss_condition_m_iff_indegree_free_quotients",
                      m.value == indeg_ok, witness,
                      detail=f"m={m.value}"))

    faith = ss.faithfulness(a)
    hyp = faith.hypothesis

    if a.group.size == 1:
        gc = graph_conditions(a.graph)
        out.append(_entry("trivial_group_condition_m_matches_graph",
                          m.value == gc.condition_m.value))
        depth = max(1, min(3, a.graph.longest_path_length()
                           if a.graph.is_acyclic() else 2))
        gsem = graph_semigroup(a.graph, depth)
        asem = ss.ss_semigroup(a, depth)
        out.append(_entry("trivial_group_semigroup_matches_graph",
                          len(gsem.elements) == len(asem.elements),
                          detail=f"{len(gsem.elements)} elements"))
        out.append(_entry("trivial_group_hereditary_sets_match",
                          [h.vertices for h in hereditary_sets(a.graph)]
                          == ss.hereditary_invariant_sets(a)))

    exact = inst.meta.get("exact")
    if exact is None:
        for name in ("mu_path_criterion", "fundamental_iff_faithful",
                     "ss_quotients_zero_disjunctive_iff_m",
                     "vertex_ideal_path_criterion",
                     "hereditary_invariant_ideal_correspondence",
                     "quotient_action_isomorphism",
                     "ss_all_rees_iff_strongly_faithful_and_m"):
            out.append(_skipped(name, "not exact"))
        return out

    s = exact.to_inverse_semigroup()
    out.extend(_check_exact_action(a, exact, s, faith, m))
    return out


def _check_exact_action(a, truncated, s, faith, m) -> list:
    out = []
    mu = rel.h_and_mu(s).mu
    elements = truncated.elements
    paths_to = _paths_into(a)

    witness = _mu_path_failure(a, truncated, mu, paths_to)
    out.append(_entry("mu_path_criterion", witness is None, witness))

    out.append(_entry("fundamental_iff_faithful",
                      rel.h_and_mu(s).fundamental == faith.faithful,
                      detail=f"faithful={faith.faithful}"))

    ideals = {v_set: _vertex_ideal(a, truncated, s, v_set)
              for v_set in ss.hereditary_invariant_sets(a)}
    all_disj = all(
        is_0_disjunctive(Semilattice.from_semigroup(cg.rees_quotient(s, ideal).quotient)).value
        for ideal in ideals.values()
    )
    out.append(_entry("ss_quotients_zero_disjunctive_iff_m", all_disj == m.value,
                      detail=f"m={m.value} all_quotients={all_disj}"))

    ok = True
    witness = None
    one = a.group.identity
    vertex_idem = {}
    for i in range(1, len(elements)):
        t = elements[i]
        if t.g == one and t.alpha.length == 0 and t.alpha == t.beta:
            vertex_idem[t.alpha.src] = i
    for u in a.graph.vertices:
        for v in a.graph.vertices:
            iu, iv = vertex_idem[u], vertex_idem[v]
            in_ideal = iu in ifl.principal_ideal(s, iv)
            has_path = any(
                p.src == a.act_vertex(h, u)
                for h in range(a.group.size)
                for p in paths_to.get(v, ())
            )
            if in_ideal != has_path:
                ok = False
                witness = (u, v)
                break
        if not ok:
            break
    out.append(_entry("vertex_ideal_path_criterion", ok, witness))

    generated = set()
    ok = True
    witness = None
    for v_set, ideal in ideals.items():
        generated.add(ideal)
        back = frozenset(
            elements[i].alpha.src for i in ideal if i != 0
        )
        if back != frozenset(v_set):
            ok = False
            witness = sorted(v_set)
            break
    all_ideals = {i.elements for i in ifl.enumerate_ideals(s)}
    if all_ideals != generated:
        ok = False
        witness = "ideal sets differ"
    out.append(_entry("hereditary_invariant_ideal_correspondence", ok, witness))

    witness = _quotient_action_failure(a, truncated, s, ideals)
    out.append(_entry("quotient_action_isomorphism", witness is None, witness))

    rees, disagreement = _all_rees(s, ALL_REES_BOUND)
    claimed = ss.all_rees_ss(a)
    out.append(_entry("ss_all_rees_iff_strongly_faithful_and_m",
                      disagreement is None and rees.value == claimed.value,
                      disagreement,
                      detail=_capped(f"semigroup={rees.value} action={claimed.value}",
                                     s, ALL_REES_BOUND)))
    return out


def _paths_into(a) -> dict:
    """Each range vertex mapped to the paths of the graph ending there, in
    enumeration order."""
    paths_to = {}
    for p in paths_up_to(a.graph, a.graph.longest_path_length()):
        paths_to.setdefault(p.rng, []).append(p)
    return paths_to


def _mu_path_failure(a, truncated, mu, paths_to) -> tuple | None:
    """The first pair (i, j) of nonzero elements of the exact model, in
    index order, with equal paths alpha and beta, on which mu disagrees with
    "g and h act alike on every path into the source of beta", described;
    or None.  The criterion speaks of pairs of one shape (alpha, beta), so
    only those are visited, and the action of each group element on the
    paths into each vertex is computed once."""
    elements = truncated.elements
    shapes = {}  # (alpha, beta) -> the elements of that shape, ascending
    shape_of = [None] * len(elements)
    actions = {}  # (g, vertex) -> the images of the paths into the vertex
    for i in range(1, len(elements)):
        t = elements[i]
        shape_of[i] = shapes.setdefault((t.alpha, t.beta), [])
        shape_of[i].append(i)
        if (t.g, t.beta.src) not in actions:
            actions[t.g, t.beta.src] = tuple(ss.act_on_path(a, t.g, gamma)[0]
                                             for gamma in paths_to.get(t.beta.src, ()))
    cls = mu.class_index
    for i in range(1, len(elements)):
        t1 = elements[i]
        acts = actions[t1.g, t1.beta.src]
        for j in shape_of[i]:
            t2 = elements[j]
            if (cls[i] == cls[j]) != (acts == actions[t2.g, t2.beta.src]):
                return t1.describe(a), t2.describe(a)
    return None


def _vertex_ideal(a, truncated, s, v_set) -> frozenset:
    """Elements of the exact triple semigroup whose source vertex lies in the
    hereditary invariant set (plus zero): the ideal generated by the set."""
    elements = truncated.elements
    members = {0}
    for i in range(1, len(elements)):
        if elements[i].alpha.src in v_set:
            members.add(i)
    return frozenset(members)


def _quotient_action_failure(a, truncated, s, ideals) -> list | None:
    """The first hereditary invariant vertex set, sorted, whose Rees
    quotient (by its ideal in ``ideals``) does not match the model of the
    quotient action; or None."""
    for v_set, ideal in ideals.items():
        q = cg.rees_quotient(s, ideal)
        if v_set:
            sub_action = ss.quotient_action(a, v_set)
            sub_trunc = ss.ss_semigroup(sub_action, truncated.depth)
        else:  # removing no vertex leaves the action and its model as they are
            sub_action, sub_trunc = a, truncated
        sub_s = sub_trunc.to_inverse_semigroup()
        if not _rees_quotient_matches(a, truncated, q, sub_action, sub_trunc, sub_s, v_set):
            return sorted(v_set)
    return None


def _rees_quotient_matches(a, truncated, q, sub_action, sub_trunc, sub_s, v_set) -> bool:
    """The projection that kills triples entering the vertex set implements an
    isomorphism between the Rees quotient and the quotient-action semigroup:
    a well-defined homomorphism onto a semigroup of the same size, and so
    one-to-one."""
    if q.quotient.n != sub_s.n:
        return False
    elements = truncated.elements
    index_of = {e.eid: i for i, e in enumerate(sub_action.graph.edges)}

    def _transplant(path):
        """The path over the quotient graph (edge ids are stable)."""
        eids = (path.graph.edges[i].eid for i in path.edges)
        return GraphPath(sub_action.graph, tuple(index_of[x] for x in eids), path.src)

    def project(i: int) -> int:
        if i == 0 or elements[i].alpha.src in v_set:
            return 0
        t = elements[i]
        target = ss.SSTriple(_transplant(t.alpha), t.g, _transplant(t.beta))
        return sub_trunc._index[target]

    mapping = {}
    for i in range(len(elements)):
        qi = q.projection[i]
        pi = project(i)
        if qi in mapping and mapping[qi] != pi:
            return False
        mapping[qi] = pi
    if sorted(mapping.keys()) != list(range(q.quotient.n)):
        return False
    if sorted(set(mapping.values())) != list(range(sub_s.n)):
        return False
    try:
        rel.SemigroupHomomorphism(q.quotient, sub_s, tuple(map(mapping.__getitem__,
                                                              range(q.quotient.n))))
    except NotHomomorphism:
        return False
    return True


# -- harness ----------------------------------------------------------------------

def _run_check(report: Report, check, *args) -> None:
    """Add the entries of one check.  A check that raises becomes a single
    "error" entry named after it, and the other checks still run; a size cap
    still ends the run, as it does everywhere else."""
    try:
        entries = check(*args)
    except CapExceeded:
        raise
    except Exception as exc:  # noqa: BLE001 - report, never swallow
        entries = [TheoremEntry(check.__name__, "error",
                                detail=f"{type(exc).__name__}: {exc}")]
    for entry in entries:
        report.add_theorem(entry)


def verify_instance(inst: CorpusInstance, seed: int = 0) -> Report:
    report = Report(instance=inst.uid)
    rng = random.Random(f"{seed}:{inst.uid}")
    if inst.kind == "semigroup":
        s = inst.semigroup
        for check in SEMIGROUP_CHECKS:
            _run_check(report, check, s)
        _run_check(report, check_hull_kernel, s, rng)
    elif inst.kind == "graph":
        _run_check(report, check_graph_instance, inst)
    elif inst.kind == "action":
        _run_check(report, check_action_instance, inst)
    return report


def verify_corpus(instances=None, seed: int = 0) -> list:
    """Verify every instance, in order."""
    if instances is None:
        instances = builtin_corpus(seed)
    return [verify_instance(inst, seed) for inst in instances]


def summarize(reports: list) -> dict:
    per_theorem = {}
    for rep in reports:
        for name, entry in rep.theorems.items():
            base = name.split("#")[0]
            bucket = per_theorem.setdefault(base, {"pass": 0, "fail": 0, "skipped": 0})
            bucket[entry.status] = bucket.get(entry.status, 0) + 1  # "error" only if seen
    failures = [(rep.instance, name) for rep in reports
                for name, entry in rep.theorems.items() if entry.failed]
    summary = {"theorems": per_theorem, "failures": failures,
               "instances": len(reports)}
    errors = [(rep.instance, name, entry.detail) for rep in reports
              for name, entry in rep.theorems.items() if entry.status == "error"]
    if errors:
        summary["errors"] = errors
    return summary
