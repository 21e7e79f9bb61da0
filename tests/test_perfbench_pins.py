"""The decisions pinned in perfbench/pins.json, checked with the benchmark's
own output checks (perfbench/checks.py) on the documents it pins: a changed
status or property fails the test suite, not only a benchmark run; and the
benchmark's own selftest, run in a subprocess.  Nothing under perfbench is
written."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isgw.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True

import checks  # noqa: E402
import inputs  # noqa: E402

sys.dont_write_bytecode = _dont_write_bytecode

PINS = checks.load_pins()


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_verify_builtin_matches_the_pins(capsys):
    pinned = PINS["verify"]["verify-builtin"]
    assert pinned
    code, payload = run_json(capsys, "verify", "builtin", "--json", "--seed", "0")
    assert code == 0
    assert checks.verify_failures(payload, pinned) == []


def test_verify_mid_matches_the_pins(tmp_path, capsys):
    pinned = PINS["verify"]["verify-mid"]
    assert sorted(pinned) == sorted(checks.FIXED_VERIFY_MID)
    docs = inputs.workload_docs("verify-mid", 0, 0)
    inputs.write_docs({name: docs[name] for name in checks.FIXED_VERIFY_MID}, tmp_path)
    code, payload = run_json(capsys, "verify", str(tmp_path), "--json")
    assert code == 0
    assert checks.verify_failures(payload, pinned) == []


@pytest.mark.parametrize("name", checks.FIXED_ANALYZE)
def test_analyze_semigroup_matches_the_pins(name, tmp_path, capsys):
    doc = inputs.workload_docs("analyze-ladder", 0, 0)[name]
    inputs.write_docs({name: doc}, tmp_path)
    code, payload = run_json(capsys, "analyze", "semigroup", str(tmp_path / name), "--json")
    assert code == 0
    assert checks.analyze_failures(payload, PINS["analyze"][name],
                                   inputs.doc_reference(doc)) == []


def test_perfbench_selftest_passes():
    """The benchmark's own tests (perfbench/selftest.py, which this suite
    does not collect), in a subprocess that writes no bytecode under
    perfbench."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
