"""The verify checks that decide each distinct question once, against the
loops they replaced (tests/oracles.py): the hull-kernel statements over the
family pool, the mu-path criterion and the quotient-action match.  Each is
compared on the real library answers, where the statements hold, and on
wrong ones, where the two must name the same counterexample."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from isgw import ideals_filters as ifl
from isgw import relations as rel
from isgw import selfsimilar as ss
from isgw import verify
from isgw.core import PartialBijection, from_partial_bijections
from isgw.corpus import builtin_corpus

from oracles import (
    hull_kernel_pool_by_sets,
    mu_path_failure_by_all_pairs,
    quotient_action_failure_by_all_pairs,
)
from test_cli import SWAP_LADDER_DOC
from test_core_oracles import generator_sets
from test_verify_checks import _every_filter_ultra, entry


def _kernel_missing_the_lowest_hit(view, hit):
    """A wrong kernel: the carrier minus the up-sets, plus the lowest
    element they hit."""
    return view.full & ~hit | hit & -hit


WRONG_POOL_ANSWERS = [
    {},
    {"kernel_mask": _kernel_missing_the_lowest_hit},
    {"filter_space": _every_filter_ultra},
]


def assert_pool_matches(s, seed, monkeypatch, wrong):
    for attr, value in wrong.items():
        monkeypatch.setattr(ifl, attr, value)
    entries = verify.check_hull_kernel(s, random.Random(seed))
    got = (entry(entries, "hull_kernel_expansion").counterexample,
           entry(entries, "kernel_of_tight_family_is_saturated").counterexample)
    assert got == hull_kernel_pool_by_sets(s, random.Random(seed))
    return got


@pytest.fixture(scope="module")
def corpus_semigroups():
    return [inst.semigroup for inst in builtin_corpus() if inst.kind == "semigroup"]


@pytest.mark.parametrize("wrong", WRONG_POOL_ANSWERS)
def test_pool_matches_oracle_on_builtin_corpus(corpus_semigroups, monkeypatch, wrong):
    found = [witness for s in corpus_semigroups for seed in (0, 1)
             for witness in assert_pool_matches(s, seed, monkeypatch, wrong)]
    # the real answers hold everywhere; each wrong one is caught somewhere
    assert any(w is not None for w in found) == bool(wrong)


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(0, 3), st.sampled_from(WRONG_POOL_ANSWERS[:2]))
def test_pool_matches_oracle_on_random_closures(gens, seed, wrong):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_pool_matches(from_partial_bijections(gens), seed, monkeypatch, wrong)


def _exact_models():
    """(action, model, semigroup) of every exact triple model of the builtin
    corpus, graphs as actions of the trivial group, and of SWAP-LADDER2."""
    out = []
    for inst in builtin_corpus():
        model = inst.meta.get("exact") if inst.kind in ("graph", "action") else None
        if model is not None:
            out.append((model.action, model, model.to_inverse_semigroup()))
    action = ss.action_from_json(SWAP_LADDER_DOC)
    model = ss.ss_semigroup(action, action.graph.longest_path_length())
    out.append((action, model, model.to_inverse_semigroup()))
    return out


EXACT_MODELS = _exact_models()


@pytest.mark.parametrize("case", range(len(EXACT_MODELS)))
def test_mu_path_matches_oracle_on_exact_models(case):
    action, model, s = EXACT_MODELS[case]
    mu = rel.h_and_mu(s).mu
    equality = rel.EquivalenceRelation.from_class_map(s.n, lambda a: a)
    universal = rel.EquivalenceRelation.from_class_map(s.n, lambda a: 0)
    assert verify._mu_path_failure(model, mu) is None
    for wrong in (equality, universal):
        assert (verify._mu_path_failure(model, wrong)
                == mu_path_failure_by_all_pairs(action, model, wrong))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mu_path_matches_oracle_on_random_relations(data):
    action, model, s = data.draw(st.sampled_from(EXACT_MODELS))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=s.n, max_size=s.n))
    relation = rel.EquivalenceRelation.from_class_map(s.n, labels.__getitem__)
    assert (verify._mu_path_failure(model, relation)
            == mu_path_failure_by_all_pairs(action, model, relation))


def _vertex_ideals(action, model, s):
    return {v_set: verify._vertex_ideal(model, v_set)
            for v_set in ss.hereditary_invariant_sets(action)}


def _action_models():
    return [case for case in EXACT_MODELS if case[0].group.size > 1]


@pytest.mark.parametrize("case", range(len(_action_models())))
def test_quotient_action_matches_oracle_on_exact_action_models(case):
    action, model, s = _action_models()[case]
    ideals = _vertex_ideals(action, model, s)
    assert verify._quotient_action_failure(action, model, s, ideals) is None
    assert quotient_action_failure_by_all_pairs(action, model, s, ideals) is None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_quotient_action_matches_oracle_on_misassigned_ideals(data):
    """Each vertex set paired with the ideal of another one."""
    action, model, s = data.draw(st.sampled_from(_action_models()))
    ideals = _vertex_ideals(action, model, s)
    wrong = dict(zip(ideals, data.draw(st.permutations(list(ideals.values())))))
    assert (verify._quotient_action_failure(action, model, s, wrong)
            == quotient_action_failure_by_all_pairs(action, model, s, wrong))


# a degree-4 closure of 54 elements with 11 nonzero idempotents, above the
# 10 minima from which the pool is drawn at random
ELEVEN_MINIMA = [(3, None, None, 1), (None, 0, None, 2), (1, None, 2, 3)]


@pytest.mark.parametrize("wrong", WRONG_POOL_ANSWERS)
def test_drawn_pool_matches_oracle(monkeypatch, wrong):
    s = from_partial_bijections([PartialBijection(4, g) for g in ELEVEN_MINIMA])
    assert len(s.idempotents) - 1 == 11
    found = [witness for seed in range(4)
             for witness in assert_pool_matches(s, seed, monkeypatch, wrong)]
    assert any(w is not None for w in found) == bool(wrong)
