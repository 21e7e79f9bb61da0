"""Structures derived from S alone are computed once per semigroup."""

import itertools
import json
import random

import pytest

from conftest import make_i2
from isgw import cli, core, verify
from isgw import ideals_filters as ifl
from isgw import congruences as cg
from isgw import selfsimilar as ss
from isgw.congruences import condition_L, double_arrow, enumerate_congruences
from isgw.core import (
    InverseSemigroup,
    PartialBijection,
    from_partial_bijections,
    from_tables,
    per_semigroup,
)
from isgw.corpus import CorpusInstance
from isgw.errors import AxiomViolation
from isgw.graphs import GraphPath, paths_up_to
from isgw.groupoid import FiniteGroupoid, build_groupoids, condition_K
from isgw.relations import centralizer, h_and_mu
from isgw.semilattice import Semilattice
from oracles import is_groupoid_by_definition
from test_cli import I2_DOC, SWAP_LADDER_DOC
from test_ideals_filters import symmetric_inverse_monoid

# I3 from the transposition (0 1), the 3-cycle and the partial identity
# that misses point 2
I3_DOC = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0], [0, 1, None]]}


def quotient_by_an_ideal(s):
    """Each call builds its own Rees congruence, equal to the last one."""
    return cg.quotient(s, cg.rees_congruence(s, ifl.principal_ideal(s, 2)))


def rees_quotient_by_an_ideal(s):
    return cg.rees_quotient(s, ifl.principal_ideal(s, 2))


def rees_quotient_by_a_set_then_a_frozenset(s, kinds=itertools.cycle([set, frozenset])):
    """The first call passes the ideal as a set, the next as a frozenset."""
    return cg.rees_quotient(s, next(kinds)(ifl.principal_ideal(s, 2)))


def order_masks_of_the_idempotents(s):
    """The bitset view of E(S)."""
    return Semilattice.from_semigroup(s)


CACHED = [InverseSemigroup.order, h_and_mu, centralizer, double_arrow, cg.double_arrow_rows,
          core.nonzero_down, condition_L, enumerate_congruences, ifl.enumerate_ideals,
          ifl.d_classes, build_groupoids, condition_K, quotient_by_an_ideal,
          rees_quotient_by_an_ideal, rees_quotient_by_a_set_then_a_frozenset,
          order_masks_of_the_idempotents]


@pytest.mark.parametrize("fn", CACHED)
def test_second_call_returns_the_same_object(fn):
    s = make_i2()
    assert fn(s) is fn(s)


def test_equal_congruences_share_one_quotient(i2, i2n):
    ideal = ifl.principal_ideal(i2, i2n["E11"])
    rho = cg.rees_congruence(i2, set(ideal))
    assert rho is not cg.rees_congruence(i2, ideal)
    assert cg.rees_quotient(i2, ideal) is cg.quotient(i2, rho)


def record_derived(monkeypatch) -> list:
    """Every semigroup that ``InverseSemigroup._derived`` builds from now
    on, in order."""
    built = []
    original = InverseSemigroup._derived

    def recording(*args):
        made = original(*args)
        built.append(made)
        return made

    monkeypatch.setattr(InverseSemigroup, "_derived", staticmethod(recording))
    return built


def record_groupoids(monkeypatch) -> list:
    """Every FiniteGroupoid built from now on, in order."""
    built = []
    original = FiniteGroupoid.__init__

    def recording(self, *args):
        original(self, *args)
        built.append(self)

    monkeypatch.setattr(FiniteGroupoid, "__init__", recording)
    return built


def count_calls(monkeypatch, owner, name) -> list:
    """One entry per later call of owner.name."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_analyze_builds_no_table_twice(tmp_path, monkeypatch, capsys):
    """``analyze semigroup`` validates the input once, runs Light's test on
    it alone, and builds each distinct quotient once, by construction; the
    Rees quotient by {0} and any collapse by an equality are the input
    itself."""
    expected = make_i2().mul
    tables = []
    original = InverseSemigroup._validate

    def recording(self, *args):
        tables.append(self.mul)
        return original(self, *args)

    monkeypatch.setattr(InverseSemigroup, "_validate", recording)
    derived = record_derived(monkeypatch)
    light = count_calls(monkeypatch, core, "_check_associative")
    path = tmp_path / "i2.json"
    path.write_text(json.dumps(I2_DOC))
    assert cli.main(["analyze", "semigroup", str(path), "--json"]) == 0
    capsys.readouterr()
    assert tables == [expected] and len(light) == 1
    assert derived
    tables += [q.mul for q in derived]
    assert len(set(tables)) == len(tables)


def test_structures_built_by_construction_pass_full_validation(tmp_path, monkeypatch, capsys):
    """Every subsemigroup and quotient that a verify run and ``analyze
    semigroup`` on I3 build without validation passes it in full, and keeps
    the generators of Light's test; every groupoid they build satisfies the
    definition (``oracles.is_groupoid_by_definition``)."""
    semigroups = record_derived(monkeypatch)
    groupoids = record_groupoids(monkeypatch)
    path = tmp_path / "i3.json"
    path.write_text(json.dumps(I3_DOC))
    assert cli.main(["verify", "builtin", "--json", "--seed", "0"]) == 0
    assert cli.main(["analyze", "semigroup", str(path), "--json"]) == 0
    capsys.readouterr()
    assert semigroups
    for q in semigroups:
        full = InverseSemigroup(q.mul, q.inv, q.zero, labels=q.labels)
        assert full.generators == q.generators
        assert full.idempotents == q.idempotents
    assert groupoids
    assert all(map(is_groupoid_by_definition, groupoids))


def test_a_call_that_raises_stores_nothing():
    calls = []

    @per_semigroup
    def fails_once(s):
        calls.append(s)
        if len(calls) == 1:
            raise ValueError("first call")
        return s.n

    s = make_i2()
    with pytest.raises(ValueError):
        fails_once(s)
    assert fails_once(s) == fails_once(s) == 7
    assert len(calls) == 2


def test_a_call_with_arguments_that_raises_stores_nothing():
    calls = []

    @per_semigroup
    def fails_once(s, k):
        calls.append(k)
        if len(calls) == 1:
            raise ValueError("first call")
        return s.n + k

    s = make_i2()
    key = (fails_once.__wrapped__, 1)
    with pytest.raises(ValueError):
        fails_once(s, 1)
    assert key not in s._cache
    assert fails_once(s, 1) == fails_once(s, 1) == 8
    assert key in s._cache
    assert fails_once(s, 2) == 9
    assert calls == [1, 1, 2]


def test_verify_builds_each_quotient_once(monkeypatch, capsys):
    """Each (semigroup, partition) quotient is built once per verify run:
    the quotient body constructs one QuotientSemigroup per run."""
    built = []
    original = cg.QuotientSemigroup

    def counting(source, quotient, projection):
        built.append((source, projection))
        return original(source=source, quotient=quotient, projection=projection)

    monkeypatch.setattr(cg, "QuotientSemigroup", counting)
    assert cli.main(["verify", "builtin", "--json", "--seed", "3"]) == 0
    capsys.readouterr()
    keys = [(id(s), projection) for s, projection in built]
    assert keys and len(set(keys)) == len(keys)


def test_verify_computes_the_double_arrow_rows_once_per_semigroup(monkeypatch, capsys):
    """``verify builtin`` reads the double-arrow rows of a semigroup for its
    classes and again for the transitivity test of
    ``double_arrow_is_zero_restricted_congruence``: one computation per
    semigroup, each reading the down-sets once."""
    rows = count_calls(monkeypatch, cg, "nonzero_down")
    assert cli.main(["verify", "builtin", "--json", "--seed", "3"]) == 0
    capsys.readouterr()
    semigroups = [s for s, in rows]
    assert len(semigroups) == len(set(map(id, semigroups))) == 135


def test_verify_forms_each_down_set_once(monkeypatch, capsys):
    """The double-arrow rows and the S-level saturation test share one set
    of nonzero down-sets per semigroup, so ``verify builtin`` forms the
    down-set of each element of each semigroup once."""
    calls = count_calls(monkeypatch, core.NaturalOrder, "down")
    assert cli.main(["verify", "builtin", "--json", "--seed", "3"]) == 0
    capsys.readouterr()
    keys = [(id(order), a) for order, a in calls]  # the calls keep each order alive
    assert keys and len(set(keys)) == len(keys)


def test_verify_runs_the_d_class_pass_once_per_semigroup(monkeypatch, capsys):
    """The ideals, the filter orbits, the groupoid unit orbits and the
    invariance test share one D-class pass over the domain and range
    tables, so ``verify builtin`` runs it once for each semigroup."""
    seen = []
    original = ifl.d_class_masks.__wrapped__

    def counted(s):
        seen.append(s)
        return original(s)

    monkeypatch.setattr(ifl, "d_class_masks", per_semigroup(counted))
    assert cli.main(["verify", "builtin", "--json", "--seed", "3"]) == 0
    capsys.readouterr()
    keys = [id(s) for s in seen]  # seen keeps each semigroup alive
    assert keys and len(set(keys)) == len(keys)


def test_enumerate_ideals_returns_a_tuple(i2):
    assert isinstance(ifl.enumerate_ideals(i2), tuple)


def test_analyze_forms_each_principal_ideal_once(tmp_path, monkeypatch, capsys):
    """One principal ideal per D-class: I2 has three, of ranks 0, 1 and 2,
    each formed from an idempotent."""
    calls = []
    original = ifl.principal_ideal

    def counting(s, a):
        assert s.is_idempotent(a)
        calls.append(a)
        return original(s, a)

    monkeypatch.setattr(ifl, "principal_ideal", counting)
    path = tmp_path / "i2.json"
    path.write_text(json.dumps(I2_DOC))
    assert cli.main(["analyze", "semigroup", str(path), "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 3


def test_analyze_ideals_tests_no_order_ideal_for_invariance(tmp_path, monkeypatch, capsys):
    """``analyze ideals`` reads the invariant order ideals of E as the traces
    of the ideals of S; it never scans the order ideals for them."""
    calls = []
    original = ifl.is_invariant_order_ideal
    monkeypatch.setattr(ifl, "is_invariant_order_ideal",
                        lambda s, x: calls.append(x) or original(s, x))
    path = tmp_path / "i3.json"
    path.write_text(json.dumps(I3_DOC))
    assert cli.main(["analyze", "ideals", str(path), "--json"]) == 0
    props = json.loads(capsys.readouterr().out)["properties"]
    assert len(props["hull_of_invariant_order_ideals"]["value"]) == 4
    assert calls == []


def test_congruence_lattice_is_closed_once(monkeypatch):
    calls = count_calls(monkeypatch, cg, "congruence_closure")
    s = make_i2()
    first = enumerate_congruences(s)
    assert calls
    calls.clear()
    assert enumerate_congruences(s) == first
    assert calls == []


def test_lattice_joins_close_no_pair_orbits(monkeypatch):
    """On I4 pair orbits are closed once per candidate pair, for its
    principal congruence: 32 covering pairs of E (a Boolean lattice of rank
    4) and the non-idempotents x with x <= x*; the joins close none."""
    s = symmetric_inverse_monoid(4)
    calls = count_calls(monkeypatch, cg, "congruence_closure")
    assert len(enumerate_congruences(s)) == 11
    lattice = Semilattice.from_semigroup(s)
    order = s.order()
    covers = [(e, f) for e in s.idempotents for f in lattice.members(lattice.down[e]) if f != e
              and not any(order.holds(f, g) for g in lattice.members(lattice.down[e])
                          if g not in (e, f))]
    kernel = [x for x in s.elements() if not s.is_idempotent(x) and x <= s.star(x)]
    assert len(covers) == 32
    assert len(calls) == len(covers) + len(kernel)


def test_verify_forms_each_rees_congruence_once(monkeypatch):
    """One verify run of I4 forms the Rees congruence of each of its five
    ideals once, however many checks read the Rees quotient."""
    s = symmetric_inverse_monoid(4)
    calls = count_calls(monkeypatch, cg, "rees_congruence")
    verify.verify_instance(CorpusInstance("I4", "semigroup", s))
    ideals = [frozenset(members) for _, members in calls]
    assert len(ideals) == len(set(ideals)) == len(ifl.enumerate_ideals(s)) == 5


def _chain_table(n):
    return [[min(a, b) for b in range(n)] for a in range(n)]


def test_ideals_of_an_18_element_chain():
    n = 18
    s = from_tables(_chain_table(n), list(range(n)), 0)
    ideals = ifl.enumerate_ideals(s)
    assert [i.elements for i in ideals] == [frozenset(range(k + 1)) for k in range(n)]


def test_analyze_ideals_of_an_18_element_chain(tmp_path, capsys):
    n = 18
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"table": _chain_table(n), "inv": list(range(n)), "zero": 0}))
    assert cli.main(["analyze", "ideals", str(path), "--json"]) == 0
    props = json.loads(capsys.readouterr().out)["properties"]
    assert len(props["ideals"]["value"]) == n


def test_exact_model_semigroup_is_built_once():
    """The corpus semigroup of an exact model is the one the graph and action
    checks get again, so their per-semigroup caches are shared."""
    from isgw.corpus import builtin_corpus

    instances = {inst.uid: inst for inst in builtin_corpus(0)}
    for uid in ("A2", "TRIV-A2", "SWAP-D2"):
        model = instances[f"S-{uid}"].meta["truncated"]
        assert model.to_inverse_semigroup() is instances[f"S-{uid}"].semigroup
        owner = instances.get(f"G-{uid}") or instances[f"ACT-{uid}"]
        assert owner.meta["exact"] is model


def test_verify_scans_the_order_ideals_for_invariance_once(monkeypatch):
    """``ideal_correspondence`` and ``hull_invariance_transfer`` share one
    invariance scan: one test per order ideal of E(I3), 19 in all, not 38."""
    s = from_partial_bijections([PartialBijection(3, tuple(g))
                                 for g in I3_DOC["generators"]])
    calls = []
    original = ifl.is_invariant_order_ideal
    monkeypatch.setattr(ifl, "is_invariant_order_ideal",
                        lambda s, x: calls.append(x) or original(s, x))
    verify.check_ideal_correspondence(s)
    verify.check_hull_kernel(s, random.Random(0))
    assert len(calls) == len(set(calls)) == len(ifl.order_ideals(Semilattice.from_semigroup(s)))
    assert len(calls) == 19


def test_mu_path_criterion_acts_once_per_element_and_path(monkeypatch):
    """On SWAP-LADDER2 the model builds its action table once, over its own
    paths, and neither its semigroup nor the mu-path check builds another:
    they read the model's ``act`` table.  ``validate_action`` on the mirror
    at depth 4 makes one ``GraphPath`` per path it checks, 31 in all: the
    table acts on path ids, not on path objects."""
    action = ss.action_from_json(SWAP_LADDER_DOC)
    tables = count_calls(monkeypatch, ss, "_path_tables")
    model = ss.ss_semigroup(action, action.graph.longest_path_length())
    s = model.to_inverse_semigroup()
    assert verify._mu_path_failure(model, h_and_mu(s).mu) is None
    assert tables == [(action, model.paths)]
    assert len(model.act) == action.group.size
    assert all(len(row) == len(model.paths) for row in model.act)

    mirror = ss.mirror_action()
    expected = len(paths_up_to(mirror.graph, 4))
    made = []
    original = GraphPath.__init__
    monkeypatch.setattr(GraphPath, "__init__",
                        lambda path, *args: made.append(args) or original(path, *args))
    assert ss.validate_action(mirror, depth=4)["paths"] == expected == 31
    assert len(made) == expected


def test_faithfulness_is_kept_on_the_action(monkeypatch, tmp_path, capsys):
    """``all_rees_ss`` reads the report that ``faithfulness`` keeps on the
    action, so ``analyze selfsimilar`` validates each quotient action by a
    hereditary invariant set once, not twice.  The faithful mirror has one
    nonempty such set, {0}; the quotient by the empty set is the action
    itself and is not formed."""
    action = ss.mirror_action()
    quotients = count_calls(monkeypatch, ss, "quotient_action")
    report = ss.faithfulness(action)
    assert [set(h) for _, h in quotients] == [{0}]
    assert ss.faithfulness(action) is report
    ss.all_rees_ss(action)
    assert len(quotients) == 1
    reports = count_calls(monkeypatch, ss, "_faithfulness_report")
    path = tmp_path / "SWAP-LADDER2.json"
    path.write_text(json.dumps(SWAP_LADDER_DOC))
    assert cli.main(["analyze", "selfsimilar", str(path), "--json"]) == 0
    capsys.readouterr()
    assert len(reports) == 1


def test_analyze_selfsimilar_validates_the_action_once(monkeypatch, tmp_path, capsys):
    """``action_from_json`` keeps the default-depth stats on the action, so
    ``analyze selfsimilar`` on SWAP-LADDER2 builds the path tables of the
    parsed action once, not again for its ``axioms`` property, and builds
    no others: the action is not faithful, so no quotient is validated, and
    the quotient by the empty set would be the action itself."""
    parsed = []
    original = ss.action_from_json
    monkeypatch.setattr(ss, "action_from_json",
                        lambda doc: parsed.append(original(doc)) or parsed[-1])
    tables = count_calls(monkeypatch, ss, "_path_tables")
    path = tmp_path / "SWAP-LADDER2.json"
    path.write_text(json.dumps(SWAP_LADDER_DOC))
    assert cli.main(["analyze", "selfsimilar", str(path), "--json"]) == 0
    stats = {"paths": 11, "checks": 90, "depth": 4}
    assert json.loads(capsys.readouterr().out)["properties"]["axioms"]["witness"] == stats
    (action,) = parsed
    assert [a is action for a, _ in tables] == [True]
    assert ss.validate_action(action) == stats
    assert len(tables) == 1


def test_a_failed_validation_keeps_nothing_on_the_action():
    """A validation that raises stores no stats: each later call, and the
    ``action_axioms_hold`` check of ``verify``, meets the violation again."""
    mirror = ss.mirror_action()
    cocycle = {**mirror.cocycle, (1, "b"): 0}
    bad = ss.SelfSimilarAction(mirror.group, mirror.graph, mirror.vertex_action,
                               mirror.edge_action, cocycle)
    for _ in range(2):
        with pytest.raises(AxiomViolation):
            ss.validate_action(bad)
        assert "_validation" not in vars(bad)
    inst = CorpusInstance("bad", "action", action=bad)
    (got,) = verify.check_action_instance(inst)
    assert got.name == "action_axioms_hold" and got.status == "fail"
    assert got.detail.startswith("axiom E")


def test_strongly_fixed_paths_are_decided_once_per_element(monkeypatch, tmp_path, capsys):
    """``analyze selfsimilar`` on SWAP-LADDER2 decides the strongly fixed
    paths of each group element once, over one build of the state maps;
    ``hausdorff_certificate`` reads the decisions kept on the action."""
    maps = count_calls(monkeypatch, ss, "_strongly_fixed_decisions")
    decisions = count_calls(monkeypatch, ss, "_strongly_fixed_finite")
    path = tmp_path / "SWAP-LADDER2.json"
    path.write_text(json.dumps(SWAP_LADDER_DOC))
    assert cli.main(["analyze", "selfsimilar", str(path), "--json"]) == 0
    capsys.readouterr()
    assert len(maps) == 1
    assert sorted(g for _, g, *_ in decisions) == [0, 1]


def test_verify_reuses_the_model_for_the_empty_vertex_set(tmp_path, monkeypatch, capsys):
    """``verify`` on SWAP-LADDER2 builds the semigroup of its exact model and
    of the quotient actions by its three nonempty hereditary invariant
    vertex sets, four in all; removing no vertex reuses the model."""
    runs = []
    prop = vars(ss.TruncatedActionSemigroup)["_semigroup"]
    original = prop.func
    monkeypatch.setattr(prop, "func", lambda model: runs.append(model) or original(model))
    (tmp_path / "SWAP-LADDER2.json").write_text(json.dumps(SWAP_LADDER_DOC))
    assert cli.main(["verify", str(tmp_path), "--json"]) == 0
    capsys.readouterr()
    assert len(runs) == len(set(map(id, runs))) == 4
