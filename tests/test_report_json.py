"""``report.dumps`` is ``json.dumps(value, sort_keys=True, indent=2)``, byte
for byte."""

import enum
import json

from hypothesis import given, settings, strategies as st

from isgw.report import dumps


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
