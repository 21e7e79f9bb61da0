"""Machine-readable analysis and verification reports.

Reports are deterministic for a given input and configuration: all
collections are emitted sorted, and no timestamps or environment data are
included.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from typing import Any

from .util import MutableRecord, Record

SCHEMA_VERSION = "1"


def dumps(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, with
    every newline written as ``pad``, so a value nested at depth k is
    encoded with ``pad = "\\n" + "  " * k``.  The stdlib runs its
    pure-Python encoder whenever ``indent`` is set; here strings go through
    its C escaper and each container is one ``str.join``.  Any other value
    (a float, a dict with a non-``str`` key, an ``int`` subclass) goes
    through ``json.dumps``, which is exact: JSON text holds no raw newline."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is dict and all(type(k) is str for k in value):
        return _object([_string(k) + ": " + dumps(value[k], inner) for k in sorted(value)], pad)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([dumps(v, inner) for v in value]) + pad + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)


def _object(members: list, pad: str) -> str:
    """A JSON object from its encoded ``"key": value`` members, sorted,
    as ``dumps`` writes it at ``pad``."""
    if not members:
        return "{}"
    inner = pad + "  "
    return "{" + inner + ("," + inner).join(members) + pad + "}"


def write_json(write, reports: list, summary: dict) -> None:
    """Write ``dumps({"reports": [the dict of each report],
    "schema_version": SCHEMA_VERSION, "summary": jsonable(summary)})`` and a
    newline through ``write``, one report at a time: each report is encoded
    (``Report.to_json``) just before its write, so neither the payload nor
    its whole text is ever held."""
    write('{\n  "reports": [')
    sep = "\n    "
    for rep in reports:
        write(sep + rep.to_json("\n    "))
        sep = ",\n    "
    write(("\n  ]" if reports else "]") + ',\n  "schema_version": ' + dumps(SCHEMA_VERSION)
          + ',\n  "summary": ' + dumps(jsonable(summary), "\n  ") + "\n}\n")


def jsonable(value: Any) -> Any:
    """Convert nested witness data into deterministic JSON-friendly values; a
    record becomes the dict of its fields."""
    if isinstance(value, (frozenset, set)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Record):
        return jsonable({name: getattr(value, name) for name in value._fields})
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class PropertyEntry(MutableRecord):
    __slots__ = ("value", "witness", "hypothesis")

    def __init__(self, value: Any, witness: Any = None, hypothesis: str = "met"):
        self.value = value
        self.witness = witness
        self.hypothesis = hypothesis


class TheoremEntry(MutableRecord):
    __slots__ = ("name", "status", "hypothesis", "detail", "counterexample")

    def __init__(self, name: str, status: str, hypothesis: str = "met", detail: str = "",
                 counterexample: Any = None):
        self.name = name
        self.status = status  # "pass" | "fail" | "skipped" | "error" (the check raised)
        self.hypothesis = hypothesis
        self.detail = detail
        self.counterexample = counterexample

    @property
    def failed(self) -> bool:
        return self.status == "fail"


class Report(MutableRecord):
    __slots__ = ("instance", "properties", "theorems")

    def __init__(self, instance: str, properties: dict | None = None,
                 theorems: dict | None = None):
        self.instance = instance
        self.properties = {} if properties is None else properties
        self.theorems = {} if theorems is None else theorems

    def add_property(self, name: str, value, witness=None, hypothesis="met") -> None:
        self.properties[name] = PropertyEntry(jsonable(value), jsonable(witness), hypothesis)

    def add_theorem(self, entry: TheoremEntry) -> None:
        key = entry.name
        i = 2
        while key in self.theorems:
            key = f"{entry.name}#{i}"
            i += 1
        self.theorems[key] = entry

    def failures(self) -> list:
        return [t for t in self.theorems.values() if t.failed]

    def to_json(self, pad: str = "\n") -> str:
        """The report as ``dumps`` writes the dict {"instance", "properties":
        {name: {"hypothesis", "value", "witness"}}, "schema_version",
        "theorems": {name: {"counterexample", "detail", "hypothesis",
        "status"}}}, byte for byte, with every newline written as ``pad``.
        The fixed keys are written in their sorted order, from one
        template per entry kind, and only the values go through ``dumps``;
        no dict is built."""
        p1 = pad + "  "
        p2 = p1 + "  "
        p3 = p2 + "  "
        property_entry = ("%s: {" + p3 + '"hypothesis": %s,' + p3 + '"value": %s,' + p3
                          + '"witness": %s' + p2 + "}")
        properties = [
            property_entry % (_string(k), dumps(p.hypothesis, p3), dumps(p.value, p3),
                              dumps(p.witness, p3))
            for k, p in sorted(self.properties.items())]
        theorem_entry = ("%s: {" + p3 + '"counterexample": %s,' + p3 + '"detail": %s,' + p3
                         + '"hypothesis": %s,' + p3 + '"status": %s' + p2 + "}")
        theorems = [
            theorem_entry % (_string(k), "null" if t.counterexample is None
                             else dumps(jsonable(t.counterexample), p3),
                             dumps(t.detail, p3), dumps(t.hypothesis, p3), dumps(t.status, p3))
            for k, t in sorted(self.theorems.items())]
        return ("{" + p1 + '"instance": ' + dumps(self.instance, p1)
                + "," + p1 + '"properties": ' + _object(properties, p1)
                + "," + p1 + '"schema_version": ' + dumps(SCHEMA_VERSION, p1)
                + "," + p1 + '"theorems": ' + _object(theorems, p1) + pad + "}")

    def render_text(self) -> str:
        lines = [f"instance: {self.instance}"]
        for k, p in sorted(self.properties.items()):
            extra = f"  (witness: {p.witness})" if p.witness is not None else ""
            hyp = "" if p.hypothesis == "met" else f"  [{p.hypothesis}]"
            lines.append(f"  {k}: {p.value}{extra}{hyp}")
        for k, t in sorted(self.theorems.items()):
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip", "error": "ERROR"}[t.status]
            hyp = "" if t.hypothesis == "met" else f" [{t.hypothesis}]"
            detail = f" - {t.detail}" if t.detail else ""
            lines.append(f"  [{mark}] {k}{hyp}{detail}")
            if t.failed and t.counterexample is not None:
                lines.append(f"         counterexample: {jsonable(t.counterexample)}")
        return "\n".join(lines)
