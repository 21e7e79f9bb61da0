"""``report.dumps`` is ``json.dumps(value, sort_keys=True, indent=2)``, byte
for byte, and a report and the verify payload are written as ``dumps``
writes their dicts (``oracles.report_dict``)."""

import enum
import io
import json

from hypothesis import given, settings, strategies as st

from isgw.report import SCHEMA_VERSION, Report, TheoremEntry, dumps, jsonable, write_json
from isgw.util import Decision

from oracles import report_dict


class Colour(enum.IntEnum):
    RED = 1
    GREEN = -7


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(blacklist_categories=()))
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 60, 10 ** 60) | TEXT)
# the values that take the json.dumps fallback
FALLBACK = (st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
            | st.sampled_from(list(Colour)))


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(st.integers(-3, 3), children, max_size=3)
            | st.dictionaries(st.booleans(), children, max_size=2))


VALUES = st.recursive(SCALARS | FALLBACK, containers, max_leaves=30)


@settings(max_examples=250, deadline=None)
@given(VALUES)
def test_dumps_matches_the_stdlib_indented_dump(value):
    assert dumps(value) == reference(value)


@settings(max_examples=80, deadline=None)
@given(VALUES, st.integers(0, 3))
def test_a_nested_value_is_the_dump_with_its_newlines_padded(value, depth):
    pad = "\n" + "  " * depth
    assert dumps(value, pad) == reference(value).replace("\n", pad)


def test_empty_and_deeply_nested_containers():
    deep = []
    for i in range(60):
        deep = {"k": deep, "": [i, (), {}, [[]]]} if i % 2 else [deep, {}, ()]
    for value in ({}, [], (), [{}], {"": []}, {"a": ({}, [[[]]])}, deep,
                  {"x": Colour.RED, "y": [Colour.GREEN, -0.0, 1e300]},
                  {1: "int key", 2: [True, None]}, {True: 0, False: 1},
                  {"\ud800": "\x00\x1f \"\\", "é": ""}, -(10 ** 100)):
        assert dumps(value) == reference(value)


# witness and counterexample data as the checks produce it: scalars, lists,
# tuples, frozensets, dicts with str or int keys and records, nested
HASHABLE = st.none() | st.booleans() | st.integers(-5, 5) | TEXT
WITNESSES = st.recursive(
    HASHABLE | st.floats() | st.frozensets(HASHABLE | st.tuples(HASHABLE, HASHABLE), max_size=4),
    lambda children: (st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(TEXT | st.integers(-3, 3), children, max_size=3)
                      | st.builds(Decision, st.booleans(), children)),
    max_leaves=12)
# few names, so that repeated theorems get "#2" and "#3" keys
NAMES = st.sampled_from(["pass_me", "a", "\u00e9\"\\\x07", ""]) | TEXT


@st.composite
def reports(draw):
    report = Report(draw(TEXT))
    for name in draw(st.lists(NAMES, max_size=4)):
        report.add_property(name, draw(WITNESSES), draw(WITNESSES),
                            draw(st.sampled_from(["met", "not exact"]) | TEXT))
    for name in draw(st.lists(NAMES, max_size=6)):
        report.add_theorem(TheoremEntry(
            name, draw(st.sampled_from(["pass", "fail", "skipped", "error"])),
            draw(st.sampled_from(["met"]) | TEXT), draw(TEXT), draw(WITNESSES)))
    return report


@settings(max_examples=150, deadline=None)
@given(reports(), st.integers(0, 3))
def test_a_report_is_written_as_dumps_writes_its_dict(report, depth):
    pad = "\n" + "  " * depth
    assert report.to_json(pad) == dumps(report_dict(report), pad)
    assert report.to_json() == dumps(report_dict(report))


@settings(max_examples=60, deadline=None)
@given(st.lists(reports(), max_size=3), st.dictionaries(TEXT, WITNESSES, max_size=3))
def test_the_streamed_payload_is_dumps_of_its_dict(reps, summary):
    out = io.StringIO()
    write_json(out.write, reps, summary)
    payload = {"reports": [report_dict(r) for r in reps], "schema_version": SCHEMA_VERSION,
               "summary": jsonable(summary)}
    assert out.getvalue() == dumps(payload) + "\n"


def test_empty_reports_and_repeated_theorem_names():
    empty = Report("")
    assert empty.to_json() == dumps(report_dict(empty)) == json.dumps(
        {"instance": "", "properties": {}, "schema_version": SCHEMA_VERSION, "theorems": {}},
        indent=2)
    report = Report("r")
    for _ in range(3):
        report.add_theorem(TheoremEntry("t", "pass", counterexample=frozenset({(1, "x"), 0})))
    assert sorted(report.theorems) == ["t", "t#2", "t#3"]
    assert report.to_json() == dumps(report_dict(report))
