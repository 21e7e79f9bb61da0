import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isgw.cli import main

I2_DOC = {"degree": 2, "generators": [[0, 1], [1, 0], [0, None]],
          "labels": ["I", "X", "E11"]}
# E4: 0 < e, 0 < f < g, e orthogonal to f and g; not 0-disjunctive
E4_DOC = {"degree": 3, "generators": [[0, None, None], [None, 1, None], [None, 1, 2]],
          "labels": ["e", "f", "g"]}
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """The records are plain classes (``util.Record``): a ``@dataclass``
    compiles its methods at every import, and ``dataclasses`` imports
    ``inspect``, which nothing else in isgw needs."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, isgw.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    assert run.stdout.strip() == "[]"


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
        "2fa543e8cee138e89be7061addec940b90902c6839413a65f8be20c4006342e8",
    "analyze congruences i2.json --json":
        "bdc12948e0df28bdebc1a3c27781f056a8b2d92a502263d2923a261569f7213e",
    "analyze congruences e4.json --json":
        "f3ecd0198eb94cd2e736deae79af920da9ce21a6739ce660a638674e2601a148",
    "analyze congruences mid/BRANDT-Z2-5.json --json":
        "0a6e4b99073731f80baa999c327c664f03a17054a64c0aea99495aadbab23620",
    "analyze congruences mid/RND4-A.json --json":
        "075c71550544fd2ec3c396c2be51098d8a04ea428c6e1f89918a85ac39d5f3dc",
    "analyze ideals i2.json --json":
        "3c9460b6292cae6cda8eddfd95c9d9bcfa5623aa6a73fc03ad2b31519f5f2769",
    "analyze ideals mid/BRANDT-Z2-5.json --json":
        "4343401c60849b08ab4b5ba04db7d1068166f588fa7e4760bb9bdbf5f5a1bc8c",
    "analyze ideals mid/RND4-A.json --json":
        "e491b5be9073b93d07f4fd0ac6841b78b35f4cd8af6154c6c70479efa2782ab9",
    "analyze groupoid i2.json --json":
        "e56abdb68acbf589d9efa4a3c578985edca714f666ecac4aab39a69e189a93f0",
    "analyze groupoid mid/BRANDT-Z2-5.json --json":
        "304719227a27e237ed603e1dbffeead014b0f524833c4fc294a3324d28324e82",
    "analyze semilattice i2.json --json":
        "9b75d0c2e36bc8cd4fb1f081157f8b69c272e0693b633c3f370b77ddaf4b968b",
    "analyze semilattice e4.json --json":
        "d5fd6042b5843ef351df7b8cdf4cb48ee4197a1b59a6141df01e0a7d7d4a488c",
    "analyze semigroup e4.json --json":
        "9ea28cc8a87f9d13bdcc64db8ccc8232d5bf86423d65d68a7ec21d817c5016c5",
    "verify ladder --json":
        "e2ffaed9819596736e284bf09d3c9c663f4c1b68260863208b272850a5723842",
    "verify mid --json":
        "2d3c2f5b9c12a10b07f2f25e4e74ab1c49df7be0606e2082e2ec99f2c3ce965a",
    "analyze graph ladder/CHAIN5.json --json":
        "f173bee79809a6de958737e324f58db659f04b7cf151f8f69c22ac8afab8bd38",
    "analyze selfsimilar ladder/SWAP-LADDER2.json --json":
        "d8ccc5ec47bfa0b56bcc64ea2ec8132b85eb20c13e2917c0083b7533a041cae8",
    # the depth-2 model of the mirror action: cyclic, not exact, 99 elements
    "analyze selfsimilar mirror.json --json --depth 2":
        "5bb505c7948b14030b556c47fafea4c861ae5bdb0a0205b3dd3d3b732f4eab64",
    # labels with every kind of JSON string escape (LABELS_DOC)
    "analyze relations labels.json --json":
        "d99d1c24349dc6baed2eca7c6f6042c9004b39dd826755fa59828d2a93a48525",
    "analyze semigroup labels.json --json":
        "8c24b7f67ef301b0bdbda14639ae9e2a5e113dba4a562d39a6bb66c0135277e0",
    "verify builtin --seed 0":
        "d56b73664007cb87084d6f4be569f2cd4fa53f0b54a27230ca9a8ea5bdd67b49",
}


def _with_identity(doc):
    """A table document with an identity adjoined as its last element."""
    n = len(doc["table"])
    table = [row + [i] for i, row in enumerate(doc["table"])] + [list(range(n + 1))]
    return dict(doc, table=table, inv=doc["inv"] + [n], labels=doc["labels"] + ["1"])


# B(1, 2) with an identity, labelled by non-ASCII text, a quote, a
# backslash, a control character, a lone surrogate and the empty string
LABELS_DOC = dict(_with_identity(brandt_doc(1, 2)),
                  labels=["z\u00e9ro \u2192 \u2205", 'say "e"', "back\\slash", "bell\x07",
                          "\ud800", ""])


def _golden_files(tmp_path, monkeypatch):
    """The documents that the golden commands read, in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "i2.json").write_text(json.dumps(I2_DOC))
    (tmp_path / "e4.json").write_text(json.dumps(E4_DOC))
    (tmp_path / "mirror.json").write_text(json.dumps(MIRROR_DOC))
    (tmp_path / "ladder").mkdir()
    (tmp_path / "ladder" / "SWAP-LADDER2.json").write_text(json.dumps(SWAP_LADDER_DOC))
    (tmp_path / "ladder" / "CHAIN5.json").write_text(json.dumps(CHAIN5_DOC))
    (tmp_path / "mid").mkdir()
    for name, doc in (("BRANDT-Z2-5", brandt_doc(2, 5)), ("RND4-A", RND4_A_DOC),
                      ("RND4-B", RND4_B_DOC)):
        (tmp_path / "mid" / f"{name}.json").write_text(json.dumps(doc))
    (tmp_path / "labels.json").write_text(json.dumps(LABELS_DOC))


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output(command, tmp_path, monkeypatch, capsys):
    _golden_files(tmp_path, monkeypatch)
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


def one_entry_mutations():
    """The 32 action documents with one entry of ``vertex_action``,
    ``edge_action`` or ``cocycle`` of SWAP-LADDER2 and of the mirror moved to
    (entry + 1) mod its range (the vertex count, the edge count or the group
    order), in that order of documents, tables, group elements and entries."""
    for base in (SWAP_LADDER_DOC, MIRROR_DOC):
        ranges = {"vertex_action": base["graph"]["vertices"],
                  "edge_action": len(base["graph"]["edges"]),
                  "cocycle": len(base["group"]["mul"])}
        for table, bound in ranges.items():
            for g, row in enumerate(base[table]):
                for i, x in enumerate(row):
                    doc = json.loads(json.dumps(base))
                    doc[table][g][i] = (x + 1) % bound
                    yield doc


# SHA-256 of the exit code and stderr of ``analyze selfsimilar <doc> --json``
# over the mutated documents: most fail a single-edge axiom, six fail E2 on a
# path, and the two mirror vertex mutations are no change (one vertex).
MUTATED_ACTIONS_SHA256 = "b73f145ae83482b6535fcdd88838cfab7415d33bbc4339bacce613730ee35d81"


def test_mutated_actions_keep_their_exit_codes_and_witnesses(tmp_path, capsys):
    docs = list(one_entry_mutations())
    assert len(docs) == 32
    lines = []
    for doc in docs:
        code, _, err = run_cli(capsys, "analyze", "selfsimilar",
                               _write(tmp_path, "a.json", doc), "--json")
        lines.append(f"{code}\t{err}")
    assert sum("axiom E2 violated" in line for line in lines) == 6
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MUTATED_ACTIONS_SHA256


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


def test_analyze_ideals_over_the_union_cap_exits_3(tmp_path, monkeypatch, capsys):
    """The one cap of every union enumeration (ideals, order ideals,
    invariant subsets, hereditary sets), lowered so that I2's three ideals
    exceed it."""
    from isgw import util

    monkeypatch.setattr(util, "MAX_UNIONS", 2)
    code, _, err = run_cli(capsys, "analyze", "ideals", _write(tmp_path, "i2.json", I2_DOC))
    assert code == 3
    assert "more than 2 unions" in err


@pytest.mark.parametrize("length", [150, 400])
def test_verify_directory_with_a_long_chain_exits_3(tmp_path, length):
    """A chain of k edges has an exact model of 1 + (1^2 + ... + (k+1)^2)
    elements, over the closure cap from k = 30 on: it is refused before any
    triple is built, and the acyclicity test does not recurse per vertex."""
    edges = [{"id": f"e{i}", "src": i, "rng": i + 1} for i in range(length)]
    _write(tmp_path, "chain.json", {"kind": "graph", "vertices": length + 1, "edges": edges})
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "isgw.cli", "verify", str(tmp_path)],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert run.returncode == 3
    assert run.stderr.startswith("cap exceeded: ") and "Traceback" not in run.stderr


def test_analyze_graph_decides_l_and_k_on_the_complete_digraph(tmp_path, capsys):
    """(L) and (K) are read off the strongly connected components, so the
    125,664 simple cycles of the complete digraph on 9 vertices are never
    listed.  At depth 1 its model has 730 elements, under the closure cap."""
    edges = [{"id": f"e{a}{b}", "src": a, "rng": b}
             for a in range(9) for b in range(9) if a != b]
    doc = _write(tmp_path, "k9.json", {"vertices": 9, "edges": edges})
    code, out, _ = run_cli(capsys, "analyze", "graph", doc, "--json", "--depth", "1")
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["condition_l"]["value"] is True and props["condition_k"]["value"] is True
    assert props["path_semigroup"]["value"]["elements"] == 730


def test_verify_directory_decides_a_graph_of_thirteen_vertices(tmp_path, capsys):
    """The graph conditions have no vertex cap: 13 vertices and one edge,
    a 17-element exact model, pass all five graph statements."""
    _write(tmp_path, "g.json", {"kind": "graph", "vertices": 13,
                                "edges": [{"id": "x", "src": 0, "rng": 1}]})
    code, out, _ = run_cli(capsys, "verify", str(tmp_path), "--json")
    assert code == 0
    theorems = json.loads(out)["summary"]["theorems"]
    assert len(theorems) == 5
    assert all(t == {"fail": 0, "pass": 1, "skipped": 0} for t in theorems.values())


def test_analyze_graph_over_the_cap_at_a_depth_exits_3(tmp_path, capsys):
    """``--depth`` counts its truncated model before building it: the rose
    with two petals has 16,130 triples at depth 6, over the closure cap."""
    loops = [{"id": x, "src": 0, "rng": 0} for x in "ab"]
    doc = _write(tmp_path, "r2.json", {"vertices": 1, "edges": loops})
    code, _, err = run_cli(capsys, "analyze", "graph", doc, "--depth", "6")
    assert code == 3
    assert "has 16130 elements, more than 10000" in err


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


# SHA-256 of the exit code, stdout and stderr of ``verify <dir> --json`` with
# one check that raises and one that fails with a nested counterexample: the
# ``errors`` summary key and ``jsonable`` witnesses, as written.
FAILING_VERIFY_SHA256 = "d63c3bb0366bb5fef5b8fa4b5161fb2359ea41578b715c38b1ac5b4500822da3"


def test_verify_json_with_a_raising_and_a_failing_check_is_unchanged(tmp_path, monkeypatch,
                                                                     capsys):
    from isgw import verify
    from isgw.report import TheoremEntry

    def check_that_raises(s):
        raise RuntimeError("boom → \"quoted\"")

    def check_that_fails(s):
        witness = (frozenset({3, 1, 2}), {"b": (1, None), 2: frozenset({"x"}), "a": "é"})
        return [TheoremEntry("forced_failure", "fail", detail="nested", counterexample=witness)]

    monkeypatch.setattr(verify, "SEMIGROUP_CHECKS",
                        [check_that_raises, check_that_fails] + verify.SEMIGROUP_CHECKS)
    _write(tmp_path, "a.json", {"kind": "semigroup", **I2_DOC})
    _write(tmp_path, "b.json", {"kind": "graph", **L1_DOC})
    code, out, err = run_cli(capsys, "verify", str(tmp_path), "--json")
    assert code == 1
    assert json.loads(out)["summary"]["errors"]
    assert "FALSIFIED" in err and "ERROR" in err
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert digest == FAILING_VERIFY_SHA256


# -- the JSON report is streamed, one report at a time --------------------------------

class RecordingStdout(io.StringIO):
    """A stdout that keeps each ``write``."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_verify_json_is_written_one_report_at_a_time(monkeypatch):
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify", "builtin", "--json", "--seed", "0"]) == 0
    monkeypatch.undo()
    text = "".join(stdout.writes)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[
        "verify builtin --json --seed 0"]
    doc = json.loads(text)
    reports = doc.pop("reports")
    assert len(stdout.writes) >= len(reports) == 54
    longest = max(len(json.dumps(r, sort_keys=True, indent=2).replace("\n", "\n    "))
                  for r in reports)
    framing = len(json.dumps(dict(doc, reports=[]), sort_keys=True, indent=2))
    assert max(map(len, stdout.writes)) <= longest + framing < len(text) // 10


def test_verify_json_without_reports(monkeypatch, capsys):
    from isgw import cli as cli_module

    monkeypatch.setattr(cli_module, "verify_corpus", lambda *a, **k: [])
    code, out, _ = run_cli(capsys, "verify", "--json")
    assert code == 0
    payload = {"reports": [], "schema_version": "1",
               "summary": {"failures": [], "instances": 0, "theorems": {}}}
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("command", ["verify mid --json", "analyze semigroup i2.json --json"])
def test_golden_json_without_the_stdlib_encoder(command, tmp_path, monkeypatch, capsys):
    """The reports never reach ``json``'s pure-Python encoder, which
    ``json.dumps`` runs whenever ``indent`` is set."""
    _golden_files(tmp_path, monkeypatch)

    def unused(*args, **kwargs):
        raise AssertionError("the stdlib JSON encoder ran")

    monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", unused)
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]
