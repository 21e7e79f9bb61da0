"""Output checks that stay valid across refactors of the program.

Decisions are pinned in pins.json: every property of the fixed analyze
documents (list values by their length) and the status of every
(instance, theorem) pair of the verify runs whose instances do not depend on
the seed.  A pinned property that is absent from a report is not a failure
(a property may be dropped); a pinned theorem that is absent is, and so is
any theorem entry whose status is neither "pass" nor "skipped".  Generated
documents are checked against the generator's own reference values.

    python3 perfbench/checks.py --write-pins   # re-pin from the current program
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from inputs import doc_reference

PINS = Path(__file__).with_name("pins.json")

# Constant property with a canned witness; not a decision.
UNPINNED = ("hausdorff",)

REQUIRED = ("elements", "idempotents")


def _normalized(value):
    return len(value) if isinstance(value, list) else value


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def analyze_failures(report: dict, pinned: dict, reference: dict) -> list:
    properties = {k: _normalized(v["value"]) for k, v in report["properties"].items()}
    expected = dict(pinned)
    expected.update({k: reference[k] for k in REQUIRED})
    out = [f"{key} missing" for key in REQUIRED if key not in properties]
    out += [f"{key} = {properties[key]!r}, pinned {want!r}"
            for key, want in sorted(expected.items())
            if key in properties and properties[key] != want]
    return out


def verify_failures(payload: dict, pinned: dict) -> list:
    theorems = {r["instance"]: r["theorems"] for r in payload["reports"]}
    out = [f"{inst}/{name}: {entry['status']}"
           for inst, entries in sorted(theorems.items())
           for name, entry in sorted(entries.items())
           if entry["status"] not in ("pass", "skipped")]
    for inst, statuses in sorted(pinned.items()):
        entries = theorems.get(inst, {})
        for name, status in sorted(statuses.items()):
            got = entries.get(name, {}).get("status", "missing")
            if got != status:
                out.append(f"{inst}/{name}: {got}, pinned {status}")
    if payload["summary"]["failures"]:
        out.append(f"summary lists failures {payload['summary']['failures']}")
    return out


def check_outputs(workload: str, outputs: dict, input_dir: Path) -> list:
    """One line per failed op; empty when every output is correct."""
    pins = load_pins()
    failures = []
    for op, out in outputs.items():
        if isinstance(out, BaseException):
            failures.append(f"{op}: raised {type(out).__name__}: {out}")
            continue
        if workload == "build-order":
            reference = doc_reference(json.loads((input_dir / op).read_text(encoding="utf-8")))
            if out != reference:
                failures.append(f"{op}: got {out}, expected {reference}")
            continue
        code, text = out
        try:
            payload = json.loads(text)
        except ValueError:
            failures.append(f"{op}: exit code {code}, output is not JSON")
            continue
        if workload == "analyze-ladder":
            doc = json.loads((input_dir / op).read_text(encoding="utf-8"))
            reasons = analyze_failures(payload, pins["analyze"].get(op, {}),
                                       doc_reference(doc))
        else:
            reasons = verify_failures(payload, pins["verify"][workload])
        if code != 0:
            reasons.insert(0, f"exit code {code}")
        if reasons:
            failures.append(f"{op}: " + "; ".join(reasons))
    return failures


# -- pinning --------------------------------------------------------------------

FIXED_ANALYZE = ("I3.json", "B3.json", "I4.json")
FIXED_VERIFY_MID = ("BRANDT-Z2-5.json", "CHAIN5.json", "SWAP-LADDER2.json")
PIN_SEEDS = (0, 1, 2)


def _statuses(payload: dict, keep) -> dict:
    return {r["instance"]: {name: e["status"] for name, e in r["theorems"].items()}
            for r in payload["reports"] if keep(r["instance"])}


def write_pins(work: Path) -> dict:
    """Pin the decisions of the current program; verify-builtin keeps only
    pairs whose status is the same for every seed in PIN_SEEDS."""
    from inputs import workload_docs, write_docs
    from worker import run_ops, workload_ops

    def outputs(workload: str, seed: int) -> dict:
        write_docs(workload_docs(workload, 0, 0), work)
        results = run_ops(workload_ops(workload, work, seed))
        for op, out in results.items():
            if isinstance(out, BaseException) or out[0] != 0:
                raise SystemExit(f"cannot pin: {workload} {op} failed: {out!r}")
        return {op: json.loads(text) for op, (_, text) in results.items()}

    analyze = outputs("analyze-ladder", 0)
    pins = {"analyze": {
        name: {k: _normalized(v["value"]) for k, v in analyze[name]["properties"].items()
               if k not in UNPINNED}
        for name in FIXED_ANALYZE}}

    runs = [_statuses(outputs("verify-builtin", seed)["verify-builtin"],
                      lambda inst: not inst.startswith("RND-"))
            for seed in PIN_SEEDS]
    builtin = {inst: {name: status for name, status in statuses.items()
                      if all(run.get(inst, {}).get(name) == status for run in runs)}
               for inst, statuses in runs[0].items()}
    mid = _statuses(outputs("verify-mid", 0)["verify-mid"],
                    lambda inst: inst in FIXED_VERIFY_MID)
    pins["verify"] = {"verify-builtin": builtin, "verify-mid": mid}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return pins


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-pins"]:
        raise SystemExit(__doc__)
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    write_pins(Path(__file__).with_name(".work") / "pins")
