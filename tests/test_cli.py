import hashlib
import json
import os
import subprocess
import sys

import pytest

from isgw.cli import main

I2_DOC = {"degree": 2, "generators": [[0, 1], [1, 0], [0, None]],
          "labels": ["I", "X", "E11"]}
L1_DOC = {"vertices": 1, "edges": [{"id": "e", "src": 0, "rng": 0}]}
MIRROR_DOC = {
    "group": {"mul": [[0, 1], [1, 0]], "identity": 0, "labels": ["1", "t"]},
    "graph": {"vertices": 1, "edges": [
        {"id": "a", "src": 0, "rng": 0}, {"id": "b", "src": 0, "rng": 0}]},
    "vertex_action": [[0], [0]],
    "edge_action": [[0, 1], [1, 0]],
    "cocycle": [[0, 0], [1, 1]],
}
# Z/2 swapping each pair of parallel edges of 0 => 1 => 2, and the directed
# path 0 -> 1 -> ... -> 5: an exact action with quotient actions, and an
# exact graph
SWAP_LADDER_DOC = {
    "kind": "action",
    "group": {"mul": [[0, 1], [1, 0]], "identity": 0, "labels": ["1", "t"]},
    "graph": {"vertices": 3, "edges": [
        {"id": "a", "src": 0, "rng": 1}, {"id": "b", "src": 0, "rng": 1},
        {"id": "c", "src": 1, "rng": 2}, {"id": "d", "src": 1, "rng": 2}]},
    "vertex_action": [[0, 1, 2], [0, 1, 2]],
    "edge_action": [[0, 1, 2, 3], [1, 0, 3, 2]],
    "cocycle": [[0, 0, 0, 0], [0, 0, 0, 0]],
}
CHAIN5_DOC = {"kind": "graph", "vertices": 6,
              "edges": [{"id": f"e{i}", "src": i, "rng": i + 1} for i in range(5)]}
# two degree-4 closures of 53 elements with 9 nonzero idempotents each, so
# the hull-kernel checks run over every family of filters
RND4_A_DOC = {"kind": "semigroup", "degree": 4,
              "generators": [[None, 2, None, 3], [2, 0, 3, 1], [1, 3, 0, 2]]}
RND4_B_DOC = {"kind": "semigroup", "degree": 4,
              "generators": [[3, 2, 0, 1], [None, 3, None, None], [2, None, None, 1]]}


def brandt_doc(group_order, n):
    """The Brandt semigroup B(Z/group_order, n) in table form: zero, then the
    triples (i, g, j), with (i,g,j)(k,h,l) = (i,g+h,l) if j == k, else 0."""
    triples = [(i, g, j) for i in range(n) for g in range(group_order) for j in range(n)]
    index = {t: k + 1 for k, t in enumerate(triples)}
    table = [[0] * (len(triples) + 1)]
    for i, g, j in triples:
        table.append([0] + [index[(i, (g + h) % group_order, l)] if j == k else 0
                            for k, h, l in triples])
    inv = [0] + [index[(j, -g % group_order, i)] for i, g, j in triples]
    return {"kind": "semigroup", "table": table, "inv": inv, "zero": 0,
            "labels": ["0"] + [f"({i},{g},{j})" for i, g, j in triples]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("i2", I2_DOC), ("l1", L1_DOC), ("mirror", MIRROR_DOC)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_semigroup_json(files, capsys):
    code, out, _ = run_cli(capsys, "analyze", "semigroup", files["i2"], "--json")
    assert code == 0
    doc = json.loads(out)
    props = doc["properties"]
    assert props["fundamental"]["value"] is True
    assert props["cryptic"]["value"] is False
    assert props["condition_l"]["value"] is True
    assert props["condition_k"]["value"] is True
    assert props["elements"]["value"] == 7


@pytest.mark.parametrize("kind", ["semilattice", "relations", "congruences",
                                  "ideals", "groupoid"])
def test_analyze_other_semigroup_kinds(files, capsys, kind):
    code, out, _ = run_cli(capsys, "analyze", kind, files["i2"])
    assert code == 0
    assert "instance:" in out


def test_analyze_congruences_counts_the_lattice_at_every_size(tmp_path, capsys):
    """I3 has 34 elements, 7 congruences (Liber, 1953), and 4 Rees
    congruences, one per rank ideal."""
    path = _write(tmp_path, "i3.json",
                  {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0], [0, 1, None]]})
    code, out, _ = run_cli(capsys, "analyze", "congruences", path, "--json")
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["congruences"]["value"] == 7
    assert props["rees_congruences"]["value"] == 4
    assert props["all_congruences_rees"]["value"] is False
    assert props["all_congruences_rees"]["witness"][0] == "quotient_not_fundamental"


def test_analyze_graph(files, capsys):
    code, out, _ = run_cli(capsys, "analyze", "graph", files["l1"], "--json")
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["condition_l"]["value"] is False
    assert props["condition_k"]["value"] is False
    assert props["condition_m"]["value"] is False


def test_analyze_selfsimilar(files, capsys):
    code, out, _ = run_cli(capsys, "analyze", "selfsimilar", files["mirror"], "--json")
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["faithful"]["value"] is True
    assert props["strongly_faithful"]["value"] is True
    assert props["all_congruences_rees"]["value"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "semigroup", str(bad))
    assert code == 2
    assert "error" in err

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"degree": 2, "generators": []}))
    code, _, _ = run_cli(capsys, "analyze", "semigroup", str(empty))
    assert code == 2


def test_invalid_table_exit_code(tmp_path, capsys):
    doc = {"table": [[0, 0, 0], [0, 1, 1], [0, 2, 2]], "inv": [0, 1, 2], "zero": 0}
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", "semigroup", str(p))
    assert code == 2


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    ids = out.splitlines()
    assert "I2" in ids and "G-L1" in ids and "ACT-MIRROR" in ids


def test_verify_directory(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps({"kind": "semigroup", **I2_DOC}))
    (tmp_path / "b.json").write_text(json.dumps({"kind": "graph", **L1_DOC}))
    (tmp_path / "c.json").write_text(json.dumps({"kind": "action", **MIRROR_DOC}))
    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 0
    assert "[ok] a.json" in out


def test_analyze_determinism(files, capsys):
    _, out1, _ = run_cli(capsys, "analyze", "semigroup", files["i2"], "--json")
    _, out2, _ = run_cli(capsys, "analyze", "semigroup", files["i2"], "--json")
    assert out1 == out2


def test_verify_builtin_subprocess_deterministic_and_parallel():
    env = dict(os.environ, ISGW_THREADS="1")
    cmd = [sys.executable, "-m", "isgw.cli", "verify", "--json"]
    run1 = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=600)
    assert run1.returncode == 0
    env2 = dict(os.environ, ISGW_THREADS="4")
    run2 = subprocess.run(cmd, capture_output=True, text=True, env=env2, timeout=600)
    assert run2.returncode == 0
    assert run1.stdout == run2.stdout


def test_cap_exceeded_exit_code(files, capsys):
    code, _, err = run_cli(capsys, "analyze", "semigroup", files["i2"],
                           "--max-elements", "3")
    assert code == 3
    assert "cap" in err.lower()


def test_verify_theorems_alias(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorems")
    assert code == 0
    assert "instances: " in out


def test_verify_reports_falsification(monkeypatch, capsys):
    from isgw import cli as cli_module
    from isgw.report import Report, TheoremEntry

    broken = Report(instance="synthetic")
    broken.add_theorem(TheoremEntry("made_up_statement", "fail",
                                    detail="forced for the exit-code test"))

    monkeypatch.setattr(cli_module, "verify_corpus", lambda *a, **k: [broken])
    code, out, err = run_cli(capsys, "verify")
    assert code == 1
    assert "FALSIFIED" in err
    assert "[FAIL] synthetic" in out


# SHA-256 of the stdout of fixed commands.  Refactors must keep the output
# byte-identical; the hashes do not depend on PYTHONHASHSEED.
GOLDEN_SHA256 = {
    "verify builtin --json --seed 0":
        "78a6e510d84b12a40cda04ae8d631c23b49edaa6d578f1a41eac450cdb98d4ca",
    "analyze semigroup i2.json --json":
        "41f42b44782610701fcb094dfaa8d94fc1cb51cb80ee432e0652096672209a9c",
    "analyze congruences i2.json --json":
        "bdc12948e0df28bdebc1a3c27781f056a8b2d92a502263d2923a261569f7213e",
    "analyze ideals i2.json --json":
        "3c9460b6292cae6cda8eddfd95c9d9bcfa5623aa6a73fc03ad2b31519f5f2769",
    "verify ladder --json":
        "e2ffaed9819596736e284bf09d3c9c663f4c1b68260863208b272850a5723842",
    "verify mid --json":
        "2d3c2f5b9c12a10b07f2f25e4e74ab1c49df7be0606e2082e2ec99f2c3ce965a",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "i2.json").write_text(json.dumps(I2_DOC))
    (tmp_path / "ladder").mkdir()
    (tmp_path / "ladder" / "SWAP-LADDER2.json").write_text(json.dumps(SWAP_LADDER_DOC))
    (tmp_path / "ladder" / "CHAIN5.json").write_text(json.dumps(CHAIN5_DOC))
    (tmp_path / "mid").mkdir()
    for name, doc in (("BRANDT-Z2-5", brandt_doc(2, 5)), ("RND4-A", RND4_A_DOC),
                      ("RND4-B", RND4_B_DOC)):
        (tmp_path / "mid" / f"{name}.json").write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


# -- malformed documents exit 2 -------------------------------------------------

def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_dangling_edge_exit_code(tmp_path, capsys):
    doc = {"vertices": 1, "edges": [{"id": "x", "src": 0, "rng": 3}]}
    code, _, err = run_cli(capsys, "analyze", "graph", _write(tmp_path, "g.json", doc))
    assert code == 2
    assert "missing vertex" in err


def test_vertex_action_outside_graph_exit_code(tmp_path, capsys):
    doc = dict(MIRROR_DOC, graph={"vertices": 2, "edges": []},
               vertex_action=[[0, 1], [1, 5]], edge_action=[[], []], cocycle=[[], []])
    code, _, err = run_cli(capsys, "analyze", "selfsimilar", _write(tmp_path, "a.json", doc))
    assert code == 2
    assert "vertex_action[1][1] = 5" in err


@pytest.mark.parametrize("table, bad", [
    ("edge_action", [[0, 1], [-1, 0]]),
    ("edge_action", [[0, 1], [2, 0]]),
    ("cocycle", [[0, 0], [-1, 1]]),
    ("cocycle", [[0, 0], [2, 1]]),
])
def test_out_of_range_action_index_exit_code(tmp_path, capsys, table, bad):
    doc = dict(MIRROR_DOC, **{table: bad})
    code, _, err = run_cli(capsys, "analyze", "selfsimilar", _write(tmp_path, "a.json", doc))
    assert code == 2
    assert f"{table}[1][0]" in err and "not in range(2)" in err


def test_verify_directory_with_array_document_exit_code(tmp_path, capsys):
    _write(tmp_path, "a.json", [1, 2])
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2
    assert "must be an object" in err


# -- a check that raises is reported, not fatal --------------------------------------

def test_verify_isolates_a_raising_check(tmp_path, monkeypatch, capsys):
    from isgw import verify

    def check_that_raises(s):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "SEMIGROUP_CHECKS",
                        [check_that_raises] + verify.SEMIGROUP_CHECKS)
    _write(tmp_path, "a.json", {"kind": "semigroup", **I2_DOC})
    _write(tmp_path, "b.json", {"kind": "graph", **L1_DOC})

    code, out, err = run_cli(capsys, "verify", str(tmp_path), "--json")
    assert code == 1
    doc = json.loads(out)
    entry = doc["reports"][0]["theorems"]["check_that_raises"]
    assert entry["status"] == "error" and entry["detail"] == "RuntimeError: boom"
    assert len(doc["reports"][0]["theorems"]) > 1  # the other checks still ran
    assert doc["summary"]["theorems"]["check_that_raises"] == {
        "pass": 0, "fail": 0, "skipped": 0, "error": 1}
    assert "error" not in doc["summary"]["theorems"]["mu_contained_in_h"]
    assert doc["summary"]["errors"] == [["a.json", "check_that_raises", "RuntimeError: boom"]]
    assert doc["summary"]["failures"] == []
    assert "ERROR" in err and "FALSIFIED" not in err

    code, out, _ = run_cli(capsys, "verify", str(tmp_path))
    assert code == 1
    assert "[ERROR] a.json" in out and "1 errors" in out
    assert "[ok] b.json" in out
    assert "check_that_raises: pass=0 ERROR=1" in out


def test_verify_cap_inside_a_check_still_exits_3(tmp_path, monkeypatch, capsys):
    from isgw import verify
    from isgw.errors import CapExceeded

    def check_over_cap(s):
        raise CapExceeded("too many")

    monkeypatch.setattr(verify, "SEMIGROUP_CHECKS", [check_over_cap])
    _write(tmp_path, "a.json", {"kind": "semigroup", **I2_DOC})
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 3
    assert "too many" in err
