"""Malformed input documents end in exit code 2 (or 3 for a size cap) with
an ``error:`` line, never in a traceback: first the reproducers found by
hand, then numbers that are no JSON integers (floats, numeric strings and
booleans) at every kind of integer node, then a property that corrupts one
node of a valid document of every kind and feeds it to every ``analyze``
kind and to ``verify <dir>``."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from isgw.cli import ANALYZE_KINDS, main

TABLE_DOC = {"table": [[0, 0, 0], [0, 1, 2], [0, 2, 1]], "inv": [0, 1, 2], "zero": 0,
             "labels": ["0", "1", "x"]}
ONE_ELEMENT_DOC = {"table": [[0]], "inv": [0], "zero": 0}
GENERATOR_DOC = {"degree": 2, "generators": [[0, 1], [1, 0], [0, None]],
                 "labels": ["I", "X", "E11"]}
GRAPH_DOC = {"vertices": 2, "edges": [{"id": "x", "src": 0, "rng": 1},
                                      {"id": "y", "src": 1, "rng": 1}]}
ACTION_DOC = {
    "group": {"mul": [[0, 1], [1, 0]], "identity": 0, "labels": ["1", "t"]},
    "graph": {"vertices": 1, "edges": [{"id": "a", "src": 0, "rng": 0},
                                       {"id": "b", "src": 0, "rng": 0}]},
    "vertex_action": [[0], [0]],
    "edge_action": [[0, 1], [1, 0]],
    "cocycle": [[0, 0], [1, 1]],
}
DOCS = {"semigroup": (TABLE_DOC, GENERATOR_DOC), "graph": (GRAPH_DOC,),
        "action": (ACTION_DOC,)}

REPRODUCERS = {
    "zero-string": dict(ONE_ELEMENT_DOC, zero="0"),
    "inv-string-entry": dict(ONE_ELEMENT_DOC, inv=["a"]),
    "table-string-entry": dict(ONE_ELEMENT_DOC, table=[["a"]]),
    "labels-int": dict(ONE_ELEMENT_DOC, labels=7),
    "inv-null": dict(ONE_ELEMENT_DOC, inv=None),
    "table-null": dict(ONE_ELEMENT_DOC, table=None),
    "generator-labels-int": {"degree": 2, "generators": [[1, 0]], "labels": 5},
}


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_both(doc, kind: str, analyze_kinds) -> list:
    """(exit code, stderr) of ``analyze <k>`` on doc for each k, and of
    ``verify <dir>`` on a directory holding doc alone, tagged with kind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        results = [run(["analyze", k, str(path)]) for k in analyze_kinds]
        tagged = dict(doc, kind=kind) if isinstance(doc, dict) else doc
        path.write_text(json.dumps(tagged))
        results.append(run(["verify", tmp]))
    return results


def assert_rejected(results) -> None:
    for code, err in results:
        assert code in (2, 3), (code, err)
        assert err.startswith(("error: ", "cap exceeded: ")), err


def run_process(argv) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "isgw.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))


def assert_unreadable(run: subprocess.CompletedProcess) -> None:
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr, run.stderr


def test_a_directory_given_as_a_document_is_a_parse_error(tmp_path):
    assert_unreadable(run_process(["analyze", "semigroup", str(tmp_path)]))


def test_a_directory_named_like_an_instance_file_is_a_parse_error(tmp_path):
    (tmp_path / "x.json").mkdir()
    assert_unreadable(run_process(["verify", str(tmp_path)]))


def test_a_document_that_is_no_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(TABLE_DOC).encode("utf-16-le"))
    assert_unreadable(run_process(["analyze", "semigroup", str(path)]))


def test_a_document_nested_too_deeply_is_a_parse_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[" * 100_000)
    assert_unreadable(run_process(["analyze", "semigroup", str(path)]))


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_malformed_semigroup_document_is_a_parse_error(name):
    results = run_both(REPRODUCERS[name], "semigroup", ["semigroup"])
    assert [code for code, _ in results] == [2, 2]
    assert_rejected(results)


def _action(**changes):
    return dict(ACTION_DOC, **changes)


# Z/2 acting trivially on the two-petal rose (the builtin LAZY-Z2), its
# group labels a list with an integer and a bare string
LAZY_Z2_DOC = {
    "group": {"mul": [[0, 1], [1, 0]], "identity": 0, "labels": ["1", "t"]},
    "graph": {"vertices": 1, "edges": [{"id": "a", "src": 0, "rng": 0},
                                       {"id": "b", "src": 0, "rng": 0}]},
    "vertex_action": [[0], [0]],
    "edge_action": [[0, 1], [0, 1]],
    "cocycle": [[0, 0], [0, 0]],
}
GROUP_LABELS = {"int-in-list": [0, "t"], "string": "1t"}


@pytest.mark.parametrize("name", sorted(GROUP_LABELS))
def test_group_labels_that_are_no_list_of_strings_are_a_parse_error(name):
    doc = dict(LAZY_Z2_DOC, group=dict(LAZY_Z2_DOC["group"], labels=GROUP_LABELS[name]))
    results = run_both(doc, "action", ["selfsimilar"])
    assert [code for code, _ in results] == [2, 2]
    assert all(err == "error: labels must be a list of strings\n" for _, err in results)


NOT_INTEGERS = {
    "degree-float": ("semigroup", {"degree": 2.7, "generators": [[1, 0]]}),
    "degree-bool": ("semigroup", {"degree": True, "generators": [[0]]}),
    "degree-string": ("semigroup", {"degree": "2", "generators": [[1, 0]]}),
    "generator-entry-bool": ("semigroup", {"degree": 2, "generators": [[True, 0]]}),
    "generator-entry-float": ("semigroup", {"degree": 2, "generators": [[1.0, 0]]}),
    "table-entry-bool": ("semigroup", dict(ONE_ELEMENT_DOC, table=[[False]])),
    "table-entry-float": ("semigroup", dict(ONE_ELEMENT_DOC, table=[[0.0]])),
    "inv-entry-bool": ("semigroup", dict(ONE_ELEMENT_DOC, inv=[False])),
    "zero-bool": ("semigroup", dict(ONE_ELEMENT_DOC, zero=False)),
    "zero-float": ("semigroup", dict(ONE_ELEMENT_DOC, zero=0.0)),
    "vertices-float": ("graph", {"vertices": 2.5,
                                 "edges": [{"id": "x", "src": 0, "rng": 1.9}]}),
    "vertices-string": ("graph", {"vertices": "2",
                                  "edges": [{"id": "x", "src": "0", "rng": True}]}),
    "edge-src-bool": ("graph", {"vertices": 2, "edges": [{"id": "x", "src": True, "rng": 1}]}),
    "edge-rng-float": ("graph", {"vertices": 2, "edges": [{"id": "x", "src": 0, "rng": 1.0}]}),
    "group-identity-bool": ("action", _action(group=dict(ACTION_DOC["group"], identity=False))),
    "group-table-float": ("action", _action(group=dict(ACTION_DOC["group"],
                                                       mul=[[0.0, 1], [1, 0]]))),
    "group-table-string": ("action", _action(group=dict(ACTION_DOC["group"],
                                                        mul=[[0, "1"], [1, 0]]))),
    "vertex-action-string": ("action", _action(vertex_action=[["0"], [0]])),
    "edge-action-bool": ("action", _action(edge_action=[[False, True], [1, 0]])),
    "cocycle-float": ("action", _action(cocycle=[[0, 0], [1.5, 1]])),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_number_that_is_no_json_integer_is_a_parse_error(name):
    kind, doc = NOT_INTEGERS[name]
    results = run_both(doc, kind, ANALYZE_BY_DOC[kind])
    assert {code for code, _ in results} == {2}
    assert_rejected(results)


# -- corrupting one node ----------------------------------------------------------

# Values of a JSON type that the schema never allows at a node of the given
# type: a string, a float, a boolean or a container where an integer
# belongs, and so on; or the node left out of its object.
DELETE = object()
WRONG = {int: (None, "x", [0], {}, -1, 99, 0.5, 1.0, "1", True, DELETE),
         list: (None, "x", 7, {}, DELETE),
         dict: (None, "x", 7, [], DELETE)}
OPTIONAL = ("labels", "edges")


def _nodes(doc, path=()):
    """Paths to every int, list and dict node of a document (strings, such
    as labels and edge ids, are left alone)."""
    if type(doc) in WRONG:
        yield path
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _nodes(doc[k], path + (k,))
    elif isinstance(doc, list):
        for i, x in enumerate(doc):
            yield from _nodes(x, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if value is DELETE and not rest:
        del out[head]
    else:
        out[head] = _replaced(doc[head], rest, value)
    return out


def _still_valid(path, value) -> bool:
    """The few changes the schema allows: a null point of a generator, null
    or absent optional fields, more vertices than the edges touch, and
    fewer generators or edges."""
    if value is DELETE:
        return not path or path[-1] in OPTIONAL or isinstance(path[-1], int)
    return (value is None and (path[-1:] == ("labels",) or path[:1] == ("generators",)
                               and len(path) == 3)
            or path == ("vertices",) and value == 99)


@st.composite
def corrupted(draw):
    kind = draw(st.sampled_from(sorted(DOCS)))
    doc = draw(st.sampled_from(DOCS[kind]))
    path = draw(st.sampled_from(list(_nodes(doc))))
    node = doc
    for k in path:
        node = node[k]
    value = draw(st.sampled_from(WRONG[type(node)]))
    if _still_valid(path, value):
        value = "x"
    return kind, _replaced(doc, path, value)


ANALYZE_BY_DOC = {"semigroup": [k for k in ANALYZE_KINDS if k not in ("graph", "selfsimilar")],
                  "graph": ["graph"], "action": ["selfsimilar"]}


@settings(max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corrupted())
@example(("semigroup", REPRODUCERS["zero-string"]))
@example(("semigroup", REPRODUCERS["inv-string-entry"]))
@example(("semigroup", REPRODUCERS["table-string-entry"]))
@example(("semigroup", REPRODUCERS["labels-int"]))
@example(("semigroup", REPRODUCERS["inv-null"]))
@example(("semigroup", REPRODUCERS["table-null"]))
@example(("semigroup", REPRODUCERS["generator-labels-int"]))
def test_corrupted_documents_exit_2_or_3_under_every_command(case):
    kind, doc = case
    assert_rejected(run_both(doc, kind, ANALYZE_BY_DOC[kind]))
