"""Every function of ``src/isgw`` is reached by the command line.

A child process imports isgw under ``sys.setprofile``, so that what runs
at import counts, and runs in process a fixed set of small commands:
``verify <dir>`` as text and as JSON on a directory of six documents (I2
in generator form, the Brandt semigroup B2 in table form, the 5-edge
chain, a loop, the Z/2 edge-swap ladder and the Z/2 mirror on the
two-petal rose); every semigroup ``analyze`` kind on I2;
``analyze graph`` on the chain; ``analyze selfsimilar`` on the ladder;
``corpus list``; and the library calls of the perfbench worker
(``semigroup_from_json`` and ``natural_order(...).holds``).  It prints the
first line of every code object of the package that was called.  The test
walks the ``def`` statements of the package with ``ast`` and asserts that
each one was called, but for the entries of ``UNREACHED``, each with its
reason.  A function that nothing but the tests calls belongs in
``tests/oracles.py``.

Run as a script, ``python tests/test_reach.py <dir>`` with src on the
path and the documents written to <dir>, this file is the child.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

# located without being imported: the child must import it under the profiler
PACKAGE = Path(importlib.util.find_spec("isgw").origin).resolve().parent

# "module.qualname" -> why no command reaches it
UNREACHED = {
    "util.Record.__repr__": "record protocol: only printing a record calls it",
    "util.Record.__setattr__": "record protocol: raises on assignment to a frozen record",
    "util.Record.__delattr__": "record protocol: raises on deletion from a frozen record",
    "util.Record.__reduce__": "record protocol: only copy and pickle call it",
    "util._rebuild": "record protocol: only copy and pickle call it",
    "errors.AxiomViolation.__init__": "error-only constructor: a valid action raises none",
}


def _documents() -> dict:
    from test_cli import CHAIN5_DOC, I2_DOC, L1_DOC, MIRROR_DOC, SWAP_LADDER_DOC, brandt_doc

    return {
        "i2.json": {**I2_DOC, "kind": "semigroup"},
        "b2.json": brandt_doc(1, 2),
        "chain5.json": CHAIN5_DOC,
        "loop.json": {**L1_DOC, "kind": "graph"},
        "ladder.json": SWAP_LADDER_DOC,
        "mirror.json": {**MIRROR_DOC, "kind": "action"},
    }


def _commands(root: Path) -> list:
    i2 = str(root / "i2.json")
    return ([["verify", str(root)], ["verify", str(root), "--json"]]
            + [["analyze", kind, i2, "--json"]
               for kind in ("semigroup", "semilattice", "relations", "congruences",
                            "ideals", "groupoid")]
            + [["analyze", "graph", str(root / "chain5.json")],
               ["analyze", "selfsimilar", str(root / "ladder.json"), "--json"],
               ["corpus", "list"]])


def profile(root: Path) -> list:
    """[file, first line] of every code object of isgw called while isgw is
    imported and the commands run on the documents in root."""
    called = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    i2 = json.loads((root / "i2.json").read_text())
    sys.setprofile(record)
    try:
        import isgw as package
        import isgw.cli

        for argv in _commands(root):
            with contextlib.redirect_stdout(io.StringIO()):
                code = isgw.cli.main(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
        s = package.semigroup_from_json(i2)
        package.natural_order(s).holds(0, s.zero)
    finally:
        sys.setprofile(None)
    inside = str(PACKAGE) + os.sep
    return sorted([os.path.realpath(f), line] for f, line in called
                  if os.path.realpath(f).startswith(inside))


def defined_functions() -> dict:
    """"module.qualname" -> (file, first line) for every def of the package;
    the first line of a decorated def is that of its first decorator."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}.{child.name}"
                    out[name] = (str(path), first)
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), module)
    return out


def test_every_function_is_reached_by_the_commands(tmp_path):
    for name, doc in _documents().items():
        (tmp_path / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    called = {tuple(entry) for entry in json.loads(run.stdout)}
    defined = defined_functions()
    assert set(UNREACHED) <= set(defined)
    unreached = sorted(name for name, place in defined.items()
                       if place not in called and name not in UNREACHED)
    assert unreached == []
    assert all(defined[name] not in called for name in UNREACHED)


if __name__ == "__main__":
    print(json.dumps(profile(Path(sys.argv[1]))))
