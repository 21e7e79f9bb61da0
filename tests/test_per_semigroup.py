"""Structures derived from S alone are computed once per semigroup."""

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
from isgw.groupoid import FiniteGroupoid, build_groupoids, condition_K
from isgw.relations import centralizer, h_and_mu
from isgw.report import Report
from isgw.semilattice import Semilattice, has_trapping_condition
from test_cli import I2_DOC, SWAP_LADDER_DOC

# I3 from the transposition (0 1), the 3-cycle and the partial identity
# that misses point 2
I3_DOC = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0], [0, 1, None]]}


def quotient_by_an_ideal(s):
    """Each call builds its own Rees congruence, equal to the last one."""
    return cg.quotient(s, cg.rees_congruence(s, ifl.principal_ideal(s, 2)))


def rees_quotient_by_an_ideal(s):
    return cg.rees_quotient(s, ifl.principal_ideal(s, 2))


def trapping_on_the_idempotents(s):
    """Each call builds its own Semilattice view, equal to the last one."""
    return has_trapping_condition(Semilattice.from_semigroup(s))


CACHED = [InverseSemigroup.order, h_and_mu, centralizer, double_arrow, condition_L,
          enumerate_congruences, ifl.enumerate_ideals, ifl.d_class_idempotents,
          build_groupoids, condition_K, quotient_by_an_ideal, rees_quotient_by_an_ideal,
          trapping_on_the_idempotents]


@pytest.mark.parametrize("fn", CACHED)
def test_second_call_returns_the_same_object(fn):
    s = make_i2()
    assert fn(s) is fn(s)


def test_equal_congruences_share_one_quotient(i2, i2n):
    ideal = ifl.principal_ideal(i2, i2n["E11"])
    rho = cg.rees_congruence(i2, set(ideal))
    assert rho is not cg.rees_congruence(i2, ideal)
    assert cg.rees_quotient(i2, ideal) is cg.quotient(i2, rho)


def test_callers_share_one_trapping_scan(monkeypatch):
    """The CLI's ``trapping_condition`` property and the hypothesis of the
    verify checks that assume trapping read the same scan."""
    s = make_i2()
    trapping = trapping_on_the_idempotents(s)
    seen = []
    for module in (cli, verify):
        def recording(lattice, module=module):
            seen.append((module.__name__, has_trapping_condition(lattice)))
            return seen[-1][1]
        monkeypatch.setattr(module, "has_trapping_condition", recording)
    cli._semigroup_properties(Report("i2"), s)
    verify.check_condition_k(s)
    verify.check_hull_kernel(s, random.Random(0))
    assert {name for name, _ in seen} == {"isgw.cli", "isgw.verify"}
    assert all(result is trapping for _, result in seen)
    with pytest.raises(TypeError):
        trapping.witness[(0, 0)] = None
    sub = Semilattice(s, s.idempotents[:2], s.zero)
    assert has_trapping_condition(sub) is not trapping


def record_derived(monkeypatch, cls) -> list:
    """Every object that ``cls._derived`` builds from now on, in order."""
    built = []
    original = cls._derived

    def recording(*args):
        made = original(*args)
        built.append(made)
        return made

    monkeypatch.setattr(cls, "_derived", staticmethod(recording))
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

    def recording(self):
        tables.append(self.mul)
        return original(self)

    monkeypatch.setattr(InverseSemigroup, "_validate", recording)
    derived = record_derived(monkeypatch, InverseSemigroup)
    light = count_calls(monkeypatch, core, "_check_associative")
    path = tmp_path / "i2.json"
    path.write_text(json.dumps(I2_DOC))
    assert cli.main(["analyze", "semigroup", str(path), "--json"]) == 0
    capsys.readouterr()
    assert tables == [expected] and len(light) == 1
    assert derived
    tables += [q.mul for q in derived]
    assert len(set(tables)) == len(tables)


def test_verify_validates_no_groupoid(tmp_path, monkeypatch, capsys):
    """The groupoids of S and their reductions are groupoids by
    construction: a verify of I2 builds them all without validation."""
    built = record_derived(monkeypatch, FiniteGroupoid)
    validated = count_calls(monkeypatch, FiniteGroupoid, "_validate")
    (tmp_path / "i2.json").write_text(json.dumps({**I2_DOC, "kind": "semigroup"}))
    assert cli.main(["verify", str(tmp_path), "--json"]) == 0
    capsys.readouterr()
    assert built and validated == []


def test_structures_built_by_construction_pass_full_validation(tmp_path, monkeypatch, capsys):
    """Every subsemigroup, quotient and groupoid that a verify run and
    ``analyze semigroup`` on I3 build without validation passes it in
    full, and a semigroup keeps the generators of Light's test."""
    semigroups = record_derived(monkeypatch, InverseSemigroup)
    groupoids = record_derived(monkeypatch, FiniteGroupoid)
    path = tmp_path / "i3.json"
    path.write_text(json.dumps(I3_DOC))
    assert cli.main(["verify", "builtin", "--json", "--seed", "0"]) == 0
    assert cli.main(["analyze", "semigroup", str(path), "--json"]) == 0
    capsys.readouterr()
    assert any(q.pmaps is not None for q in semigroups)  # restrictions
    assert any(q.pmaps is None for q in semigroups)  # quotients
    for q in semigroups:
        full = InverseSemigroup(q.mul, q.inv, q.zero, labels=q.labels, pmaps=q.pmaps)
        assert full.generators == q.generators
        assert full.idempotents == q.idempotents
    assert groupoids
    for g in groupoids:
        g._validate()


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
    calls = []
    original = cg._merge_pair_orbits

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cg, "_merge_pair_orbits", counting)
    s = make_i2()
    first = enumerate_congruences(s)
    assert calls
    calls.clear()
    assert enumerate_congruences(s) == first
    assert calls == []


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
    """On SWAP-LADDER2 each group element acts on each path into a vertex at
    most once, so no (element, path) pair is acted on twice."""
    action = ss.action_from_json(SWAP_LADDER_DOC)
    model = ss.ss_semigroup(action, action.graph.longest_path_length())
    s = model.to_inverse_semigroup()
    calls, depth = [], [0]
    original = ss.act_on_path

    def counting(a, g, path):  # records the outermost call of each recursion
        if not depth[0]:
            calls.append((g, path))
        depth[0] += 1
        try:
            return original(a, g, path)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ss, "act_on_path", counting)
    paths_to = verify._paths_into(action)
    assert verify._mu_path_failure(action, model, h_and_mu(s).mu, paths_to) is None
    pairs = sum(len(paths_to.get(t.beta.src, ())) for t in model.elements[1:])
    assert calls and len(set(calls)) == len(calls) <= pairs


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
