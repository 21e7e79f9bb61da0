"""One benchmark pass in a fresh process.

    python3 worker.py <workload> <input-dir> <program-seed> <trace 0|1>
    python3 worker.py --setup-only

Imports isgw (timed as set-up, before anything else is imported), runs every
op of the workload once, checks the outputs and prints one JSON object.  The
parent sets PYTHONPATH to the checkout's src directory.
"""

import time

_start = time.perf_counter()
import isgw  # noqa: E402
import isgw.cli  # noqa: E402

SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def _cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = isgw.cli.main(argv)
    return code, buf.getvalue()


def _build_and_order(doc: dict) -> dict:
    s = isgw.semigroup_from_json(doc)
    order = isgw.natural_order(s)
    n = s.n
    pairs = sum(1 for a in range(n) for b in range(n) if order.holds(a, b))
    return {"elements": n, "idempotents": len(s.idempotents), "order_pairs": pairs}


def workload_ops(workload: str, input_dir: Path, program_seed: int) -> list:
    """[(op name, thunk)] in run order; each thunk returns the op's output."""
    files = sorted(input_dir.glob("*.json"))
    if workload == "verify-builtin":
        argv = ["verify", "builtin", "--json", "--seed", str(program_seed)]
        return [(workload, lambda: _cli(argv))]
    if workload == "verify-mid":
        return [(workload, lambda: _cli(["verify", str(input_dir), "--json"]))]
    if workload == "analyze-ladder":
        return [(f.name, lambda f=f: _cli(["analyze", "semigroup", str(f), "--json"]))
                for f in files]
    if workload == "build-order":
        docs = {f.name: json.loads(f.read_text(encoding="utf-8")) for f in files}
        return [(name, lambda doc=doc: _build_and_order(doc)) for name, doc in docs.items()]
    raise ValueError(f"unknown workload {workload}")


def run_ops(ops: list) -> dict:
    """{op name: output, or the exception an op raised}."""
    outputs = {}
    for name, thunk in ops:
        try:
            outputs[name] = thunk()
        except (Exception, SystemExit) as exc:  # an op failure, reported as such
            outputs[name] = exc
    return outputs


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def trace_summary(tr: tracing.Tracer, wall: float) -> dict:
    functions = {
        key: {"calls": st.calls, "self_s": st.self, "incl_s": st.incl,
              "per_semigroup": tr.per_semigroup(key), "elements": st.elements}
        for key, st in tr.stats.items()
    }
    functions[tracing.RANDOM_CORPUS]["kept_ratio"] = tr.kept_ratio()
    for module, self_s in tr.module_self().items():
        functions[module] = {"self_share": self_s / wall if wall else 0.0}
    return functions


def run_pass(workload: str, input_dir: Path, program_seed: int, trace: bool) -> dict:
    ops = workload_ops(workload, input_dir, program_seed)
    tr = tracing.Tracer() if trace else None
    with tr or contextlib.nullcontext():
        cpu0 = _cpu()
        t0 = time.perf_counter()
        outputs = run_ops(ops)
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    failures = checks.check_outputs(workload, outputs, input_dir)
    return {"setup_s": SETUP_S, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": rss_kb / 1024.0, "ops": len(ops), "failures": failures,
            "trace": trace_summary(tr, wall) if tr else None}


def main(argv: list) -> int:
    if argv == ["--setup-only"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    workload, input_dir, program_seed, trace = argv
    result = run_pass(workload, Path(input_dir), int(program_seed), trace == "1")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
