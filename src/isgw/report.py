"""Machine-readable analysis and verification reports.

Reports are deterministic for a given input and configuration: all
collections are emitted sorted, and no timestamps or environment data are
included.
"""

from __future__ import annotations

import json
from typing import Any

from .util import MutableRecord, Record

SCHEMA_VERSION = "1"


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

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "instance": self.instance,
            "properties": {
                k: {"value": p.value, "witness": p.witness, "hypothesis": p.hypothesis}
                for k, p in sorted(self.properties.items())
            },
            "theorems": {
                k: {
                    "status": t.status,
                    "hypothesis": t.hypothesis,
                    "detail": t.detail,
                    "counterexample": jsonable(t.counterexample),
                }
                for k, t in sorted(self.theorems.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

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
