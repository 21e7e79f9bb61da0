"""Theorem-verification harness.

Every structural statement the workbench relies on is re-checked on every
applicable corpus instance; a "fail" entry is a falsification event (or a
library bug) and the CLI turns it into a nonzero exit.
"""

from __future__ import annotations

import random
from collections import Counter

from . import congruences as cg
from . import ideals_filters as ifl
from . import relations as rel
from . import selfsimilar as ss
from .core import InverseSemigroup, per_semigroup
from .corpus import CorpusInstance
from .errors import CapExceeded, NotCongruence, NotHomomorphism
from .graphs import (
    graph_conditions,
    hereditary_sets,
    paths_up_to,
    quotient_graph,
)
from .groupoid import (
    FiniteGroupoid,
    build_groupoids,
    condition_K,
    effectiveness,
    germ_of,
    reduction,
    weakly_fixed_criterion,
)
from .report import Report, TheoremEntry
from .semilattice import (
    Semilattice,
    atoms,
    is_0_disjunctive,
    is_cover,
    positions,
)

# The congruence lattice is exact at every size, but the checks below scan
# it only up to these sizes.  Without the caps, a verify run on the
# verify-mid documents of perfbench takes 0.23-0.28 s instead of 0.09-0.10 s
# (2-CPU machine, Python 3.11), 0.04-0.05 s of it for the 64 congruences of
# the 92-element model of a 5-edge chain; the statements skipped above them
# are pinned "skipped" in perfbench/pins.json.  An entry that passes above a
# cap names the cap in its detail.
ENUM_BOUND = 8
ALL_REES_BOUND = 11  # the all-Rees scans of graphs and actions
SAMPLES_PER_INSTANCE = 40


def _entry(name: str, ok: bool, counterexample=None, detail: str = "") -> TheoremEntry:
    return TheoremEntry(name, "pass" if ok else "fail", detail=detail,
                        counterexample=counterexample)


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
    members = lattice.up[lattice.index(m)]
    for e in positions(members):
        outside = lattice.under(e) & ~members  # e is a member
        if outside and lattice.covers(e, outside):
            return False
    return True


@per_semigroup
def _invariant_order_ideals(s: InverseSemigroup) -> frozenset:
    """The invariant order ideals of E, by one scan of all order ideals
    (capped by ``util.MAX_UNIONS``): the second computation that the checks
    ``ideal_correspondence`` and ``hull_invariance_transfer`` compare with
    the ideals of S and with the filter orbits."""
    return frozenset(x for x in ifl.order_ideals(Semilattice.from_semigroup(s))
                     if ifl.is_invariant_order_ideal(s, x))


def _family_pool(up: list, rng: random.Random) -> dict:
    """The families of filters the hull-kernel statements are tested on, as
    masks over the filter minima (bit i for the i-th), each mapped to the OR
    of the up-sets of its filters: every family when there are at most 10
    minima, in the order of their masks; else 30 random ones."""
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
    """The hull-kernel statements on the filters of E.  The paper's trapping
    hypothesis for the tight ideal correspondence holds on every finite E."""
    out = []
    lattice = Semilattice.from_semigroup(s)
    space = ifl.filter_space(lattice)
    atom_set = frozenset(atoms(lattice))
    split = next((m for m in space.mins
                  if len({m in space.tight, m in atom_set,
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

    mins = space.mins
    up = [lattice.up[m] for m in mins]
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
            ker = ifl.kernel_mask(lattice, hit)
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

    # only emptiness is tested: a tight filter m of a basic set is an atom
    # below e and above no excluded c, so m itself is the separating element
    # (orthogonal to every c), see tests/oracles.py
    samples = 0
    witness = None
    nonzero = list(lattice.nonzero())
    while samples < SAMPLES_PER_INSTANCE and nonzero:
        e = rng.choice(nonzero)
        below = [x for x in lattice.members(lattice.down[e]) if x != lattice.zero]
        c = [x for x in below if rng.random() < 0.5]
        covers = is_cover(lattice, e, c, require_below=True).value
        if (not space.tight_basic_set(e, c)) != covers:
            witness = (e, tuple(c))
            break
        samples += 1
    out.append(_entry("empty_tight_basic_set_iff_cover", witness is None, witness,
                      detail=f"samples={samples}"))

    out.append(_entry("hull_invariance_transfer", transfer is None, transfer))
    if correspondence is None:
        correspondence = next(
            (("hull_of_kernel", a) for a in rep.invariant_tight_subsets
             if frozenset(ifl.hull_tight(space, ifl.kernel(lattice, a))) != a), None)
    out.append(_entry("tight_ideal_correspondence", correspondence is None, correspondence))
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
    lattice = Semilattice.from_semigroup(s)
    up = lattice.up
    mins = [e for e in s.idempotents if e != s.zero]
    above = {m: lattice.members(up[m]) for m in mins}
    order = s.order()
    for a in s.elements():
        a_star = s.star(a)
        dom = order.dom[a]
        for m in mins:
            if not order.holds(m, dom):
                continue
            image = ifl.beta_act(s, a, m)
            closure = 0
            for f in above[m]:
                closure |= up[s.product(s.product(a, f), a_star)]
            if closure != up[image] or ifl.beta_act(s, a_star, image) != m:
                return [_entry("conjugation_action_is_invertible", False, (a, m))]
    return [_entry("conjugation_action_is_invertible", True)]


def _functor_failure(src: FiniteGroupoid, dst: FiniteGroupoid, f) -> tuple | None:
    """(detail, counterexample) for the first way the element map f,
    restricted to the units and to the arrows of src, fails to be a functor
    onto dst that is bijective on units and on arrows, with the offending
    germ; or None.  A map into a finite set is a bijection onto it when its
    images cover it and the two sets have one size."""
    for m in src.units:
        if f[m] not in dst.unit_set:
            return "unit map escapes target", m
    if not len(src.units) == len({f[m] for m in src.units}) == len(dst.units):
        return "unit map is not a bijection", None
    for u in src.arrows:
        v = f[u]
        # v is an arrow of dst exactly when its source is a unit there
        if dst.source(v) not in dst.unit_set:
            return "arrow map escapes target", u
        if dst.source(v) != f[src.source(u)] or dst.range(v) != f[src.range(u)]:
            return "source/range not preserved", u
        if f[src.inverse(u)] != dst.inverse(v):
            return "inverse not preserved", u
    images = len({f[u] for u in src.arrows})
    if not len(src.arrows) == images == len(dst.arrows):
        return "arrow map is not a bijection", (len(src.arrows), images, len(dst.arrows))
    # endpoints are preserved, so the images of a composable pair compose
    src_mul, dst_mul = src.s.mul, dst.s.mul
    for v, u in src.composable_pairs():
        if f[src_mul[v][u]] != dst_mul[f[v]][f[u]]:
            return "composition not preserved", (v, u)
    return None


def _functor_entry(name: str, src: FiniteGroupoid, dst: FiniteGroupoid, f,
                   label: str = "") -> TheoremEntry:
    """The entry of ``_functor_failure``, its detail followed by the label."""
    failure = _functor_failure(src, dst, f)
    detail, witness = failure or ("", None)
    return _entry(name, failure is None, witness, detail=(detail + " " + label).strip())


def _bijects(f, units, targets) -> bool:
    """f restricted to the units is a bijection onto the targets."""
    images = {f[m] for m in units}
    return images == set(targets) and len(images) == len(units)


def _germ_class_failure(s: InverseSemigroup, tight: FiniteGroupoid,
                        q: cg.QuotientSemigroup) -> tuple | None:
    """The first (a, m), a nonzero and m a tight unit in its domain, on
    which the collapse map sends the germs of (a, m) and (am, m) apart; or
    None."""
    order = s.order()
    for a in s.nonzero():
        dom = order.dom[a]
        for m in tight.units:
            if order.holds(m, dom):
                lhs = germ_of(q.quotient, q.projection[a], q.projection[m])
                rhs = germ_of(q.quotient, q.projection[s.product(a, m)], q.projection[m])
                if lhs != rhs:
                    return a, m
    return None


def _formula_failures(s: InverseSemigroup, inner: FiniteGroupoid, x: frozenset,
                      sub: InverseSemigroup, to_sub: dict) -> list:
    """The (u, e) for each arrow u of the reduction to the ideal whose stated
    formula depends on the choice of e in F cap I, with the first such e."""
    out = []
    mul = s.mul
    for u in inner.arrows:
        m = inner.source(u)
        for e in x:
            if e != s.zero and mul[e][m] == m:  # m <= e, both idempotent
                g = germ_of(sub, to_sub[s.product(u, e)], to_sub[m])
                if g.rep != to_sub[u]:
                    out.append((u, e))
                    break
    return out


def _ideal_statements(s: InverseSemigroup, level: str, ideal, sub: InverseSemigroup,
                      to_sub: dict, q_rees: cg.QuotientSemigroup) -> list:
    """The statements for one ideal at one groupoid level, "universal" (all
    nonzero idempotents as units) or "tight" (the atoms): restriction to the
    ideal and the Rees projection biject the units inside and outside it
    onto the units of the ideal's and the quotient's groupoids, and induce
    isomorphisms from the two reductions of S's groupoid onto them.  Each
    detail ends with the ideal's label."""
    g = getattr(build_groupoids(s), level)
    sub_g = getattr(build_groupoids(sub), level)
    rees_g = getattr(build_groupoids(q_rees.quotient), level)
    x = ideal.trace
    label = f"ideal:{sorted(x)}"
    inside = [m for m in g.units if m in x]
    outside = [m for m in g.units if m not in x]
    prefix = "" if level == "universal" else "tight_"

    failed = ("restriction" if not _bijects(to_sub, inside, sub_g.units)
              else "quotient" if not _bijects(q_rees.projection, outside, rees_g.units)
              else None)
    out = [_entry(prefix + "filter_restriction_homeos", failed is None, failed, detail=label)]

    inner = reduction(g, inside)
    out.append(_functor_entry(f"{level}_reduction_to_ideal", inner, sub_g, to_sub, label))
    if level == "universal":
        for witness in _formula_failures(s, inner, x, sub, to_sub):
            out.append(_entry("universal_reduction_to_ideal", False, witness,
                              detail=f"formula depends on the chosen idempotent {label}"))

    outer = reduction(g, outside)
    out.append(_functor_entry(f"{level}_reduction_to_quotient", outer, rees_g,
                              q_rees.projection, label))
    if level == "tight":
        counts = (rees_g.n_arrows(), outer.n_arrows())
        same = counts[0] == counts[1]
        out.append(_entry("tight_reduction_arrow_count", same, None if same else counts,
                          detail=label))
    return out


def check_structure_theorems(s: InverseSemigroup) -> list:
    """Every groupoid-level structure statement on one semigroup:

    - the double-arrow collapse induces a bijection of tight filter spaces
      and an isomorphism of tight groupoids (built from the explicit maps);
    - for every ideal, restriction and the Rees projection biject the
      filters inside and outside it onto the filters of the ideal and of the
      Rees quotient, and induce isomorphisms between reductions of the
      universal groupoid and the groupoids of the two;
    - for every saturated ideal, the same holds at the tight level.

    Both levels run ``_ideal_statements``; the Rees quotients are the ones
    ``cg.quotient`` caches, shared with ``condition_K`` and the other
    callers."""
    tight = build_groupoids(s).tight

    # collapse by the double-arrow congruence
    q = cg.quotient(s, cg.double_arrow(s))
    tight_q = build_groupoids(q.quotient).tight
    spectrum = _bijects(q.projection, tight.units, tight_q.units)
    out = [_entry("tight_spectrum_collapse_homeo", spectrum,
                  None if spectrum else sorted((m, q.projection[m]) for m in tight.units),
                  detail="" if spectrum else "atom filters do not correspond")]
    out.append(_functor_entry("tight_groupoid_collapse_isomorphism", tight, tight_q,
                              q.projection))
    # the collapse map formula holds on non-canonical germ presentations too
    bad = _germ_class_failure(s, tight, q)
    if bad:
        out.append(_entry("tight_groupoid_collapse_isomorphism", False, bad,
                          detail="map not constant on a germ class"))

    for ideal in ifl.enumerate_ideals(s):
        sub, to_sub = s.restrict(ideal.elements)
        q_rees = cg.rees_quotient(s, ideal.elements)
        for level in ("universal", "tight") if ideal.saturated else ("universal",):
            out.extend(_ideal_statements(s, level, ideal, sub, to_sub, q_rees))
    return out


def check_effectiveness_chain(s: InverseSemigroup) -> list:
    """Effective tight groupoid => the weakly fixed criterion => the
    fundamental collapse => effective, and (L) iff effective."""
    criterion = weakly_fixed_criterion(s).value
    effective = effectiveness(build_groupoids(s).tight).value
    fundamental = cg.condition_L(s)
    chain = ((not effective or criterion)
             and (not criterion or fundamental)
             and (not fundamental or effective))
    out = [_entry("effectiveness_chain", chain,
                  detail=(f"effective={effective} criterion={criterion} "
                          f"collapse_fundamental={fundamental}"))]
    out.append(_entry("condition_l_iff_tight_effective", fundamental == effective))
    return out


def check_condition_k(s: InverseSemigroup) -> list:
    """Condition (K) holds iff the tight groupoid is strongly effective, which
    on a discrete groupoid is effectiveness.  The paper assumes the trapping
    condition on E, which holds on every finite E."""
    values = (condition_K(s), effectiveness(build_groupoids(s).tight).value)
    return [_entry("strong_effectiveness_iff_condition_k", values[0] == values[1], values)]


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
        out.append(_entry("all_rees_implies_condition_k", condition_K(s)))
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
        quotients = (cg.quotient(s, rho) for rho in cg.enumerate_congruences(s))
    else:
        quotients = (cg.rees_quotient(s, i.elements) for i in ifl.enumerate_ideals(s))
    for q in quotients:
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
    maximal_paths = sum(1 for p in exact.paths if p.src in sources)
    out.append(_entry("tight_units_are_maximal_path_filters",
                      atoms_count == maximal_paths,
                      detail=f"atoms={atoms_count} maximal_paths={maximal_paths}"))

    out.append(_entry("graph_condition_l_matches_collapse",
                      cg.condition_L(s) == conditions.condition_l.value))
    return out


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

    if a.group.size == 1:
        gc = graph_conditions(a.graph)
        out.append(_entry("trivial_group_condition_m_matches_graph",
                          m.value == gc.condition_m.value))
        depth = max(1, min(3, a.graph.longest_path_length()
                           if a.graph.is_acyclic() else 2))
        # the graph model has zero and one pair (alpha, beta) per common source
        sources = Counter(p.src for p in paths_up_to(a.graph, depth))
        size = len(ss.ss_semigroup(a, depth).elements)
        out.append(_entry("trivial_group_semigroup_matches_graph",
                          size == 1 + sum(n * n for n in sources.values()),
                          detail=f"{size} elements"))
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
    elements, paths = truncated.elements, truncated.paths

    witness = _mu_path_failure(truncated, mu)
    out.append(_entry("mu_path_criterion", witness is None, witness))

    out.append(_entry("fundamental_iff_faithful",
                      rel.h_and_mu(s).fundamental == faith.faithful,
                      detail=f"faithful={faith.faithful}"))

    ideals = {v_set: _vertex_ideal(truncated, v_set)
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
        alpha, g, beta = elements[i]
        if g == one and alpha == beta and paths[alpha].length == 0:
            vertex_idem[paths[alpha].src] = i
    vertex_ideal = {v: ifl.principal_ideal(s, vertex_idem[v]) for v in a.graph.vertices}
    sources_into = {}  # range vertex -> the sources of the paths ending there
    for p in paths:
        sources_into.setdefault(p.rng, set()).add(p.src)
    for u in a.graph.vertices:
        for v in a.graph.vertices:
            in_ideal = vertex_idem[u] in vertex_ideal[v]
            has_path = any(a.act_vertex(h, u) in sources_into[v] for h in range(a.group.size))
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
        back = frozenset(paths[elements[i][0]].src for i in ideal if i != 0)
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


def _mu_path_failure(truncated, mu) -> tuple | None:
    """The first pair (i, j) of nonzero elements of the exact model, in
    index order, with equal paths alpha and beta, on which mu disagrees with
    "g and h act alike on every path into the source of beta", described;
    or None.  The criterion speaks of pairs of one shape (alpha, beta), so
    only those are visited, and the images of the paths into each vertex
    under each group element are read off the model's action table once."""
    elements, paths, act = truncated.elements, truncated.paths, truncated.act
    paths_to = {}  # range vertex -> the ids of the paths ending there
    for k, p in enumerate(paths):
        paths_to.setdefault(p.rng, []).append(k)
    shapes = {}  # (alpha, beta) -> the elements of that shape, ascending
    shape_of = [None] * len(elements)
    actions = {}  # (g, vertex) -> the images of the paths into the vertex
    for i in range(1, len(elements)):
        alpha, g, beta = elements[i]
        shape_of[i] = shapes.setdefault((alpha, beta), [])
        shape_of[i].append(i)
        v = paths[beta].src
        if (g, v) not in actions:
            actions[g, v] = tuple(act[g][gamma][0] for gamma in paths_to.get(v, ()))
    cls = mu.class_index
    for i in range(1, len(elements)):
        _, g, beta = elements[i]
        acts = actions[g, paths[beta].src]
        for j in shape_of[i]:
            _, h, _ = elements[j]
            if (cls[i] == cls[j]) != (acts == actions[h, paths[beta].src]):
                return truncated.describe(i), truncated.describe(j)
    return None


def _vertex_ideal(truncated, v_set) -> frozenset:
    """Elements of the exact triple semigroup whose source vertex lies in the
    hereditary invariant set (plus zero): the ideal generated by the set."""
    paths = truncated.paths
    return frozenset([0] + [i for i, (alpha, _, _) in enumerate(truncated.elements[1:], 1)
                            if paths[alpha].src in v_set])


def _quotient_action_failure(a, truncated, s, ideals) -> list | None:
    """The first hereditary invariant vertex set, sorted, whose Rees
    quotient (by its ideal in ``ideals``) does not match the model of the
    quotient action; or None."""
    for v_set, ideal in ideals.items():
        q = cg.rees_quotient(s, ideal)
        # removing no vertex leaves the action and its model as they are
        sub_trunc = (ss.ss_semigroup(ss.quotient_action(a, v_set), truncated.depth)
                     if v_set else truncated)
        if not _rees_quotient_matches(truncated, q, sub_trunc, v_set):
            return sorted(v_set)
    return None


def _rees_quotient_matches(truncated, q, sub_trunc, v_set) -> bool:
    """The projection that kills triples entering the vertex set implements an
    isomorphism between the Rees quotient and the quotient-action semigroup:
    a well-defined homomorphism onto a semigroup of the same size, and so
    one-to-one."""
    sub_s = sub_trunc.to_inverse_semigroup()
    if q.quotient.n != sub_s.n:
        return False
    elements, paths = truncated.elements, truncated.paths

    def key(path):  # edge ids are stable under the quotient
        return tuple(path.graph.edges[i].eid for i in path.edges), path.src

    sub_ids = {key(p): k for k, p in enumerate(sub_trunc.paths)}
    moved = [sub_ids.get(key(p)) for p in paths]  # parent path id -> sub-model id

    def project(i: int) -> int:
        if i == 0:
            return 0
        alpha, g, beta = elements[i]
        if paths[alpha].src in v_set:
            return 0
        return sub_trunc.index[(moved[alpha], g, moved[beta])]

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


def verify_corpus(instances, seed: int = 0) -> list:
    """Verify every instance, in order."""
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
