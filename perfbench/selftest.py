"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import isgw  # noqa: E402
import isgw.cli  # noqa: E402
import isgw.verify  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def _bindings() -> dict:
    """Every function object reachable from isgw module globals, lists held
    in them, and the traced classes, by location."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "isgw" and not name.startswith("isgw."):
            continue
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                out[(name, attr)] = value
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out[(name, attr, i)] = item
            elif inspect.isclass(value) and value.__module__ == name:
                for member, fn in vars(value).items():
                    if inspect.isfunction(fn):
                        out[(name, attr, member)] = fn
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    original_checks = list(isgw.verify.SEMIGROUP_CHECKS)
    tr = tracer.Tracer()
    with tr:
        for alias in (isgw.cli.build_groupoids, isgw.verify.build_groupoids,
                      isgw.groupoid.build_groupoids, isgw.build_groupoids):
            assert alias.__wrapped__ is before[("isgw.groupoid", "build_groupoids")]
        assert all(c.__wrapped__ is o for c, o in
                   zip(isgw.verify.SEMIGROUP_CHECKS, original_checks))
        assert isgw.core.InverseSemigroup.order.__wrapped__ is \
            before[("isgw.core", "InverseSemigroup", "order")]
        isgw.verify.verify_instance(isgw.corpus.builtin_corpus(0)[0])
    assert tr.stats["verify.check_all_rees"].calls == 1
    assert tr.stats["verify.verify_instance"].calls == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _outputs(workload: str, directory: Path, trace: bool) -> dict:
    inputs.write_docs(inputs.workload_docs(workload, 0, 0), directory)
    ops = worker.workload_ops(workload, directory, 0)
    if workload == "analyze-ladder":
        ops = [op for op in ops if op[0] != "I4.json"]  # keep the test short
    if not trace:
        return worker.run_ops(ops)
    with tracer.Tracer():
        return worker.run_ops(ops)


def test_traced_pass_prints_identical_output(tmp_path):
    for workload in ("verify-builtin", "analyze-ladder", "verify-mid"):
        plain = _outputs(workload, tmp_path / workload, trace=False)
        traced = _outputs(workload, tmp_path / workload, trace=True)
        assert plain == traced
        assert all(code == 0 for code, _ in plain.values())


def test_same_seed_same_files_other_seed_other_documents(tmp_path):
    bands = {"RND4.json": inputs.ANALYZE_RANDOM_BAND,
             "RND4-a.json": inputs.VERIFY_RANDOM_BAND,
             "RND4-b.json": inputs.VERIFY_RANDOM_BAND,
             "RND5-small.json": inputs.BUILD_SMALL_BAND,
             "RND5-large.json": inputs.BUILD_LARGE_BAND}
    for workload in ("analyze-ladder", "build-order", "verify-mid"):
        files = {}
        for run, seed in (("a", 5), ("b", 5), ("c", 6)):
            directory = tmp_path / workload / run
            inputs.write_docs(inputs.workload_docs(workload, seed, 0), directory)
            files[run] = {f.name: f.read_bytes() for f in directory.glob("*.json")}
        assert files["a"] == files["b"]
        assert files["a"].keys() == files["c"].keys()
        for name, band in bands.items():
            if name in files["a"]:
                assert files["a"][name] != files["c"][name]
                for run in ("a", "c"):
                    size = inputs.doc_reference(json.loads(files[run][name]))["elements"]
                    assert band[0] <= size <= band[1]
    assert (inputs.program_seed("verify-builtin", 5, 0)
            == inputs.program_seed("verify-builtin", 5, 0)
            != inputs.program_seed("verify-builtin", 6, 0))


def test_reference_values_match_the_program():
    docs = inputs.workload_docs("build-order", 0, 0)
    docs.update(inputs.workload_docs("analyze-ladder", 0, 0))
    for name, doc in docs.items():
        assert worker._build_and_order(doc) == inputs.doc_reference(doc), name


def test_checks_accept_dropped_properties_and_reject_changed_decisions(tmp_path):
    docs = inputs.workload_docs("analyze-ladder", 0, 0)
    inputs.write_docs(docs, tmp_path)
    code, text = worker._cli(["analyze", "semigroup", str(tmp_path / "I3.json"), "--json"])
    report = json.loads(text)
    pinned = checks.load_pins()["analyze"]["I3.json"]
    reference = inputs.doc_reference(docs["I3.json"])
    assert code == 0 and checks.analyze_failures(report, pinned, reference) == []

    dropped = copy.deepcopy(report)
    dropped["properties"].pop("hausdorff")
    dropped["properties"].pop("congruence_free")
    assert checks.analyze_failures(dropped, pinned, reference) == []

    changed = copy.deepcopy(report)
    changed["properties"]["condition_k"]["value"] = not pinned["condition_k"]
    assert checks.analyze_failures(changed, pinned, reference) != []
    changed = copy.deepcopy(report)
    changed["properties"]["elements"]["value"] += 1
    assert checks.analyze_failures(changed, pinned, reference) != []


def test_verify_checks_allow_new_entries_and_reject_changed_statuses(tmp_path):
    outputs = _outputs("verify-mid", tmp_path, trace=False)
    code, text = outputs["verify-mid"]
    payload = json.loads(text)
    pinned = checks.load_pins()["verify"]["verify-mid"]
    assert code == 0 and checks.verify_failures(payload, pinned) == []

    grown = copy.deepcopy(payload)
    grown["reports"][0]["theorems"]["a_new_check"] = {"status": "pass"}
    grown["reports"].append({"instance": "NEW.json", "theorems": {}})
    assert checks.verify_failures(grown, pinned) == []

    inst = next(r["instance"] for r in payload["reports"] if r["instance"] in pinned)
    name, status = next(iter(pinned[inst].items()))

    def with_entry(new_status):
        changed = copy.deepcopy(payload)
        theorems = next(r for r in changed["reports"] if r["instance"] == inst)["theorems"]
        if new_status is None:
            theorems.pop(name)
        else:
            theorems[name]["status"] = new_status
        return changed

    for new_status in ("fail", "skipped" if status == "pass" else "pass", None):
        assert checks.verify_failures(with_entry(new_status), pinned) != []
