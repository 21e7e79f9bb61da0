"""Benchmark inputs, generated without calling isgw.

Partial bijections are image tuples (None where undefined) composed like
functions, (f*g)(x) = f(g(x)), the convention of the documented JSON
generator form.  Closures are sized by a breadth-first search of the right
Cayley graph, so the reference values below (|S|, |E| and the number of
pairs s <= t of the natural order) do not depend on the program version.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Closure-size bands of the seeded generator sets, one per role.  They are
# narrow because pass time grows steeply with |S|: a wide band would make the
# run-to-run spread measure the random draw instead of the program.
ANALYZE_RANDOM_BAND = (60, 80)        # degree 4, analyze-ladder
VERIFY_RANDOM_BAND = (50, 60)         # degree 4, verify-mid
BUILD_SMALL_BAND = (290, 300)         # degree 5, build-order: below the switch
BUILD_LARGE_BAND = (500, 540)         # degree 5, build-order: above the switch


# -- partial bijections -------------------------------------------------------

def compose(f: tuple, g: tuple) -> tuple:
    return tuple(None if y is None else f[y] for y in g)


def inverse(f: tuple) -> tuple:
    out = [None] * len(f)
    for x, y in enumerate(f):
        if y is not None:
            out[y] = x
    return tuple(out)


def closure(gens) -> list:
    """Elements of the inverse semigroup generated by gens, plus the empty
    map as zero (adjoined when not generated), as the program defines it."""
    seeds = []
    for g in gens:
        for h in (g, inverse(g)):
            if h not in seeds:
                seeds.append(h)
    seen = set(seeds)
    order = list(seeds)
    i = 0
    while i < len(order):
        a = order[i]
        i += 1
        for g in seeds:
            p = compose(a, g)
            if p not in seen:
                seen.add(p)
                order.append(p)
    empty = (None,) * len(gens[0])
    if empty not in seen:
        order.append(empty)
    return order


def reference(elements) -> dict:
    """|S|, |E| and the natural-order pair count of a partial-bijection
    semigroup: s <= t iff s is a restriction of t."""
    members = set(elements)
    idempotents = sum(1 for f in elements if compose(f, f) == f)
    pairs = 0
    for t in elements:
        domain = [x for x, y in enumerate(t) if y is not None]
        for k in range(len(domain) + 1):
            for kept in itertools.combinations(domain, k):
                restriction = [None] * len(t)
                for x in kept:
                    restriction[x] = t[x]
                pairs += tuple(restriction) in members
    return {"elements": len(elements), "idempotents": idempotents,
            "order_pairs": pairs}


def random_pmap(rng: random.Random, degree: int) -> tuple:
    k = rng.randint(1, degree)
    image = [None] * degree
    for x, y in zip(rng.sample(range(degree), k), rng.sample(range(degree), k)):
        image[x] = y
    return tuple(image)


def random_generators(rng: random.Random, degree: int, band: tuple) -> list:
    """Draw two or three random partial bijections until the closure size
    falls inside the band (inclusive)."""
    lo, hi = band
    while True:
        gens = [random_pmap(rng, degree) for _ in range(rng.randint(2, 3))]
        if lo <= len(closure(gens)) <= hi:
            return gens


# -- fixed instances --------------------------------------------------------------

def symmetric_inverse_generators(n: int) -> list:
    """I_n from the transposition (0 1), the n-cycle and the partial
    identity that misses point n-1."""
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple((x + 1) % n for x in range(n))
    partial = tuple(list(range(n - 1)) + [None])
    return [swap, cycle, partial]


def brandt_b3_generators() -> list:
    """B3 from the matrix units e01, e12 and e20 (e_ij maps j to i)."""
    out = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        image = [None] * 3
        image[j] = i
        out.append(tuple(image))
    return out


def generator_doc(gens) -> dict:
    return {"kind": "semigroup", "degree": len(gens[0]),
            "generators": [list(g) for g in gens]}


def brandt_table_doc(group_order: int, n: int) -> dict:
    """Brandt semigroup B(Z/group_order, n) in table form: zero, then the
    triples (i, g, j) multiplying as (i,g,j)(k,h,l) = (i,g+h,l) if j == k."""
    triples = [(i, g, j) for i in range(n) for g in range(group_order) for j in range(n)]
    index = {t: k + 1 for k, t in enumerate(triples)}
    size = len(triples) + 1
    table = [[0] * size for _ in range(size)]
    for (i, g, j), a in index.items():
        for (k, h, l), b in index.items():
            if j == k:
                table[a][b] = index[(i, (g + h) % group_order, l)]
    inv = [0] + [index[(j, -g % group_order, i)] for (i, g, j) in triples]
    labels = ["0"] + [f"({i},{g},{j})" for (i, g, j) in triples]
    return {"kind": "semigroup", "table": table, "inv": inv, "zero": 0,
            "labels": labels}


def chain_graph_doc(length: int) -> dict:
    """The directed path 0 -> 1 -> ... -> length."""
    return {"kind": "graph", "vertices": length + 1,
            "edges": [{"id": f"e{i}", "src": i, "rng": i + 1} for i in range(length)]}


def edge_swap_ladder_doc() -> dict:
    """Z/2 swapping each pair of parallel edges of 0 => 1 => 2, fixing the
    vertices, with trivial restrictions."""
    graph = {"vertices": 3, "edges": [
        {"id": "a", "src": 0, "rng": 1}, {"id": "b", "src": 0, "rng": 1},
        {"id": "c", "src": 1, "rng": 2}, {"id": "d", "src": 1, "rng": 2}]}
    return {"kind": "action", "graph": graph,
            "group": {"mul": [[0, 1], [1, 0]], "identity": 0, "labels": ["1", "t"]},
            "vertex_action": [[0, 1, 2], [0, 1, 2]],
            "edge_action": [[0, 1, 2, 3], [1, 0, 3, 2]],
            "cocycle": [[0, 0, 0, 0], [0, 0, 0, 0]]}


# -- workload input sets ------------------------------------------------------------

def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{pass_index}")


def program_seed(workload: str, seed: int, pass_index: int) -> int:
    """The --seed handed to the program (verify-builtin's random corpus)."""
    return _rng(workload, seed, pass_index).randrange(1 << 30)


def workload_docs(workload: str, seed: int, pass_index: int) -> dict:
    """Input documents of one pass, keyed by file name.  Each pass of a run
    draws its own random documents, so a run's median covers several."""
    rng = _rng(workload, seed, pass_index)
    gens = {}
    docs = {}
    if workload == "analyze-ladder":
        gens = {"I3.json": symmetric_inverse_generators(3),
                "B3.json": brandt_b3_generators(),
                "I4.json": symmetric_inverse_generators(4),
                "RND4.json": random_generators(rng, 4, ANALYZE_RANDOM_BAND)}
    elif workload == "build-order":
        gens = {"I4.json": symmetric_inverse_generators(4),
                "RND5-small.json": random_generators(rng, 5, BUILD_SMALL_BAND),
                "RND5-large.json": random_generators(rng, 5, BUILD_LARGE_BAND)}
    elif workload == "verify-mid":
        gens = {"RND4-a.json": random_generators(rng, 4, VERIFY_RANDOM_BAND),
                "RND4-b.json": random_generators(rng, 4, VERIFY_RANDOM_BAND)}
        docs = {"BRANDT-Z2-5.json": brandt_table_doc(2, 5),
                "CHAIN5.json": chain_graph_doc(5),
                "SWAP-LADDER2.json": edge_swap_ladder_doc()}
    elif workload != "verify-builtin":
        raise ValueError(f"unknown workload {workload}")
    for name, g in gens.items():
        docs[name] = generator_doc(g)
    return docs


def doc_reference(doc: dict) -> dict:
    """Reference values of a generator-form document."""
    return reference(closure([tuple(g) for g in doc["generators"]]))


def write_docs(docs: dict, directory: Path) -> None:
    """Replace the *.json files of directory with docs."""
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.json"):
        old.unlink()
    for name, doc in docs.items():
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        (directory / name).write_text(text + "\n", encoding="utf-8")
