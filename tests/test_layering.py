"""The library computes and ``verify`` checks: no library module imports the
report layer or the verify harness.  Only ``verify``, ``cli`` and the
package facade may import them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isgw"
LIBRARY = {"core", "util", "errors", "relations", "semilattice", "congruences",
           "ideals_filters", "groupoid", "graphs", "selfsimilar", "corpus"}
CHECKING = {"report", "verify"}
FRONT = {"verify", "cli", "__init__"}


def package_imports(path: Path) -> set:
    """The isgw modules that a source file imports, at any nesting."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "isgw":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else
                             [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("isgw."))
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == LIBRARY | CHECKING | FRONT


def test_no_library_module_imports_the_report_layer_or_verify():
    importers = {p.stem: package_imports(p) & CHECKING for p in SRC.glob("*.py")}
    assert {name: found for name, found in importers.items()
            if found and name not in FRONT} == {}
    assert importers["verify"] == {"report"}
