"""Command-line interface: analysis pipelines over the JSON formats and the
corpus-wide verification run.

Exit codes: 0 success, 1 a theorem check failed or raised, 2 parse/validation
error (dangling edges and out-of-range indices included), 3 a size cap was
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import congruences as cg
from . import ideals_filters as ifl
from . import relations as rel
from . import selfsimilar as ssim
from .core import DEFAULT_CLOSURE_CAP, semigroup_from_json, structure_pool
from .corpus import CorpusInstance, builtin_corpus, corpus_ids
from .errors import (
    AxiomViolation,
    CapExceeded,
    DanglingEndpoint,
    IsgwError,
    NotAssociative,
    NotInverse,
    ParseError,
)
from .graphs import graph_conditions, graph_semigroup, hereditary_sets, parse_graph
from .groupoid import build_groupoids, condition_K, effectiveness
from .report import Report, write_json
from .semilattice import (
    Semilattice,
    atoms_and_orthogonals,
    is_0_disjunctive,
)
from .verify import summarize, verify_corpus

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_PARSE = 2
EXIT_CAP = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _semigroup_properties(report: Report, s) -> None:
    lattice = Semilattice.from_semigroup(s)
    relations = rel.h_and_mu(s)
    report.add_property("elements", s.n)
    report.add_property("idempotents", len(s.idempotents))
    report.add_property("is_semilattice", s.is_semilattice())
    report.add_property("fundamental", relations.fundamental)
    report.add_property("cryptic", relations.cryptic)
    zd = is_0_disjunctive(lattice)
    report.add_property("zero_disjunctive", zd.value, witness=zd.witness)
    report.add_property("hausdorff", True,
                        witness="finite: meets are finitely generated")
    report.add_property("condition_l", cg.condition_L(s))
    report.add_property("condition_k", condition_K(s))
    ideals = ifl.enumerate_ideals(s)
    report.add_property("ideals", len(ideals))
    report.add_property("saturated_ideals",
                        [sorted(i.elements) for i in ideals if i.saturated])
    rees = cg.all_congruences_rees(s)
    report.add_property("all_congruences_rees", rees.value, witness=rees.witness)
    report.add_property("congruence_free", cg.is_congruence_free(s))
    pair = build_groupoids(s)
    eff = effectiveness(pair.tight)
    report.add_property("tight_groupoid",
                        {"units": pair.tight.n_units(), "arrows": pair.tight.n_arrows()})
    report.add_property("universal_groupoid",
                        {"units": pair.universal.n_units(),
                         "arrows": pair.universal.n_arrows()})
    report.add_property("tight_effective", eff.value, witness=eff.witness)
    report.add_property("tight_strongly_effective", eff.value)
    report.add_property("centralizer_size", len(rel.centralizer(s)))


def _semilattice_properties(report: Report, s) -> None:
    lattice = Semilattice.from_semigroup(s)
    ats, perp = atoms_and_orthogonals(lattice)
    report.add_property("carrier", len(lattice.elements))
    report.add_property("atoms", [s.labels[a] for a in ats])
    zd = is_0_disjunctive(lattice)
    report.add_property("zero_disjunctive", zd.value, witness=zd.witness)
    space = ifl.filter_space(lattice)
    report.add_property("filters", len(space.mins))
    report.add_property("tight_filters", len(space.tight))
    report.add_property("orthogonality",
                        {s.labels[f]: sorted(s.labels[e] for e in p)
                         for f, p in perp.items()})


def _relations_properties(report: Report, s) -> None:
    relations = rel.h_and_mu(s)
    report.add_property("cryptic", relations.cryptic)
    report.add_property("fundamental", relations.fundamental)
    report.add_property("h_classes",
                        [sorted(s.labels[x] for x in c) for c in relations.h.classes])
    report.add_property("mu_classes",
                        [sorted(s.labels[x] for x in c) for c in relations.mu.classes])
    report.add_property("centralizer",
                        sorted(s.labels[x] for x in rel.centralizer(s)))


def _congruence_properties(report: Report, s) -> None:
    da = cg.double_arrow(s)
    report.add_property("double_arrow_classes",
                        [sorted(s.labels[x] for x in c) for c in da.classes])
    report.add_property("condition_l", cg.condition_L(s))
    lattice = cg.enumerate_congruences(s)
    report.add_property("congruences", len(lattice))
    report.add_property("rees_congruences", sum(1 for r in lattice if r.is_rees))
    rees = cg.all_congruences_rees(s)
    report.add_property("all_congruences_rees", rees.value, witness=rees.witness)
    report.add_property("congruence_free", cg.is_congruence_free(s))


def _ideal_properties(report: Report, s) -> None:
    lattice = Semilattice.from_semigroup(s)
    ideals = ifl.enumerate_ideals(s)
    report.add_property("ideals", [
        {"elements": sorted(s.labels[x] for x in i.elements),
         "saturated": i.saturated, "zero_only": i.is_zero_only}
        for i in ideals
    ])
    space = ifl.filter_space(lattice)
    # the invariant order ideals of E are the traces of the ideals of S
    report.add_property("hull_of_invariant_order_ideals", {
        "{" + ",".join(sorted(s.labels[e] for e in i.trace)) + "}":
        sorted(s.labels[m] for m in ifl.hull(lattice, i.trace))
        for i in ideals})
    kernel_full = ifl.kernel(lattice, space.mins)
    report.add_property("kernel_of_full_space",
                        sorted(s.labels[e] for e in kernel_full))
    inv = ifl.invariant_subsets(s)
    report.add_property("invariant_tight_subsets",
                        [sorted(s.labels[m] for m in a)
                         for a in inv.invariant_tight_subsets])
    covers = ifl.finite_cover_witnesses(s)
    report.add_property("finite_cover_witnesses",
                        {"{" + ",".join(sorted(s.labels[e] for e in x)) + "}":
                         sorted(s.labels[c] for c in witness)
                         for x, witness in covers.items()})


def _groupoid_properties(report: Report, s) -> None:
    pair = build_groupoids(s)
    for name, g in (("universal", pair.universal), ("tight", pair.tight)):
        eff = effectiveness(g)
        iso = {s.labels[m]: len(g.isotropy(m)) for m in g.units}
        report.add_property(f"{name}_units", g.n_units())
        report.add_property(f"{name}_arrows", g.n_arrows())
        report.add_property(f"{name}_isotropy_orders", iso)
        report.add_property(f"{name}_effective", eff.value, witness=eff.witness)
        report.add_property(f"{name}_strongly_effective", eff.value)


def _graph_properties(report: Report, g, depth: int) -> None:
    conditions = graph_conditions(g)
    report.add_property("vertices", len(g.vertices))
    report.add_property("edges", len(g.edges))
    report.add_property("condition_l", conditions.condition_l.value,
                        witness=conditions.condition_l.witness)
    report.add_property("condition_k", conditions.condition_k.value,
                        witness=conditions.condition_k.witness)
    report.add_property("condition_m", conditions.condition_m.value,
                        witness=conditions.condition_m.witness)
    report.add_property("in_degrees", {str(v): g.in_degree(v) for v in g.vertices})
    report.add_property("acyclic", g.is_acyclic())
    report.add_property("hereditary_sets",
                        [{"vertices": sorted(h.vertices), "saturated": h.saturated}
                         for h in hereditary_sets(g)])
    trunc = graph_semigroup(g, depth)
    report.add_property("path_semigroup",
                        {"depth": depth, "elements": len(trunc.elements),
                         "exact": trunc.exact})


def _action_properties(report: Report, a, depth: int) -> None:
    stats = ssim.validate_action(a)
    report.add_property("axioms", "valid", witness=stats)
    report.add_property("group_order", a.group.size)
    faith = ssim.faithfulness(a)
    report.add_property("faithful", faith.faithful, hypothesis=faith.hypothesis)
    report.add_property("strongly_faithful", faith.strongly_faithful,
                        hypothesis=faith.hypothesis)
    report.add_property("trivial_pairs",
                        sorted((a.group.labels[g], v)
                               for g, v in faith.trivial_pairs))
    m = ssim.condition_M_ss(a)
    report.add_property("condition_m", m.value, witness=m.witness)
    report.add_property("g_independent_edges", list(ssim.g_independent_edges(a)))
    report.add_property("hereditary_invariant_sets",
                        [sorted(h) for h in ssim.hereditary_invariant_sets(a)])
    cert = ssim.hausdorff_certificate(a)
    report.add_property("hausdorff_certificate", cert.value, witness=cert.witness)
    fixed = {}
    for g in range(a.group.size):
        d = ssim.strongly_fixed_finite(a, g)
        fixed[a.group.labels[g]] = {"finite": d.value,
                                    "paths": d.witness if d.value else None}
    report.add_property("strongly_fixed_paths", fixed)
    report.add_property("all_congruences_rees", ssim.all_rees_ss(a).value)
    trunc = ssim.ss_semigroup(a, depth)
    report.add_property("triple_semigroup",
                        {"depth": depth, "elements": len(trunc.elements),
                         "exact": trunc.exact})


ANALYZE_KINDS = ("semigroup", "semilattice", "relations", "congruences",
                 "ideals", "groupoid", "graph", "selfsimilar")


def cmd_analyze(args) -> int:
    doc = _load_json(args.input)
    report = Report(instance=args.input)
    if args.kind == "graph":
        _graph_properties(report, parse_graph(doc), args.depth)
    elif args.kind == "selfsimilar":
        _action_properties(report, ssim.action_from_json(doc), args.depth)
    else:
        s = semigroup_from_json(doc, max_elements=args.max_elements)
        handler = {
            "semigroup": lambda: _semigroup_properties(report, s),
            "semilattice": lambda: _semilattice_properties(report, s),
            "relations": lambda: _relations_properties(report, s),
            "congruences": lambda: _congruence_properties(report, s),
            "ideals": lambda: _ideal_properties(report, s),
            "groupoid": lambda: _groupoid_properties(report, s),
        }[args.kind]
        handler()
    print(report.to_json() if args.json else report.render_text())
    return EXIT_OK


def _instances_from_dir(path: Path) -> list:
    instances = []
    for file in sorted(path.glob("*.json")):
        doc = _load_json(str(file))
        if not isinstance(doc, dict):
            raise ParseError(f"{file}: instance document must be an object")
        kind = doc.get("kind")
        if kind == "semigroup":
            instances.append(CorpusInstance(file.name, "semigroup",
                                            semigroup=semigroup_from_json(doc)))
        elif kind == "graph":
            g = parse_graph(doc)
            instances.append(CorpusInstance(
                file.name, "graph", graph=g,
                meta={"exact": ssim.exact_model(ssim.trivial_action(g))}))
        elif kind == "action":
            a = ssim.action_from_json(doc)
            instances.append(CorpusInstance(file.name, "action", action=a,
                                            meta={"exact": ssim.exact_model(a)}))
        else:
            raise ParseError(f"{file}: missing or unknown kind")
    if not instances:
        raise ParseError(f"no instance files in {path}")
    return instances


def cmd_verify(args) -> int:
    if args.target in ("builtin", "theorems"):
        instances = builtin_corpus(args.seed)
    else:
        instances = _instances_from_dir(Path(args.target))
    reports = verify_corpus(instances, seed=args.seed)
    summary = summarize(reports)
    if args.json:
        write_json(sys.stdout.write, reports, summary)
    else:
        for rep in reports:
            fails = rep.failures()
            errors = sum(1 for t in rep.theorems.values() if t.status == "error")
            status = "ERROR" if errors else "FAIL" if fails else "ok"
            tail = f", {errors} errors" if errors else ""
            print(f"[{status}] {rep.instance} "
                  f"({len(rep.theorems)} checks, {len(fails)} failures{tail})")
        print()
        print(f"instances: {summary['instances']}")
        for name, counts in sorted(summary["theorems"].items()):
            line = f"  {name}: pass={counts['pass']}"
            if counts["fail"]:
                line += f" FAIL={counts['fail']}"
            if counts["skipped"]:
                line += f" skipped={counts['skipped']}"
            if counts.get("error"):
                line += f" ERROR={counts['error']}"
            print(line)
    if summary["failures"]:
        print(f"\nFALSIFIED: {summary['failures']}", file=sys.stderr)
    if "errors" in summary:
        print(f"\nERROR: {summary['errors']}", file=sys.stderr)
    if summary["failures"] or "errors" in summary:
        return EXIT_FALSIFIED
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.action == "list":
        for uid in corpus_ids(args.seed):
            print(uid)
        return EXIT_OK
    raise ParseError(f"unknown corpus action {args.action}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="isgw",
        description="finite inverse semigroup and tight groupoid workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a single instance")
    p_analyze.add_argument("kind", choices=ANALYZE_KINDS)
    p_analyze.add_argument("input", help="path to the instance JSON")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--max-elements", type=int, default=DEFAULT_CLOSURE_CAP)
    p_analyze.add_argument("--depth", type=int, default=3)
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run every theorem check")
    p_verify.add_argument("target", nargs="?", default="builtin",
                          help="'builtin' (alias 'theorems') or a directory "
                               "of instance JSONs")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_corpus = sub.add_parser("corpus", help="inspect the builtin corpus")
    p_corpus.add_argument("action", choices=["list"])
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    """Run one command.  Semigroups with equal tables built by the command
    share their derived structures (``core.structure_pool``); nothing is
    shared between two calls."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with structure_pool():
            return args.func(args)
    except (ParseError, DanglingEndpoint, NotInverse, NotAssociative, AxiomViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except IsgwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED


if __name__ == "__main__":
    sys.exit(main())
