"""Machine-readable analysis and verification reports.

Reports are deterministic for a given input and configuration: all
collections are emitted sorted, and no timestamps or environment data are
included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, is_dataclass, asdict
from typing import Any

SCHEMA_VERSION = "1"

HYPOTHESIS_STATES = ("met", "unmet-skipped", "unmet-recorded")


def jsonable(value: Any) -> Any:
    """Convert nested witness data into deterministic JSON-friendly values."""
    if isinstance(value, (frozenset, set)):
        return sorted((jsonable(v) for v in value), key=repr)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class PropertyEntry:
    value: Any
    witness: Any = None
    hypothesis: str = "met"


@dataclass
class TheoremEntry:
    name: str
    status: str  # "pass" | "fail" | "skipped" | "error" (the check raised)
    hypothesis: str = "met"
    detail: str = ""
    counterexample: Any = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"


@dataclass
class Report:
    instance: str
    properties: dict = field(default_factory=dict)
    theorems: dict = field(default_factory=dict)

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
