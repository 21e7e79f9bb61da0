"""isgw benchmark runner.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs passes of one workload (all of them with ``all``) for about S seconds.
A pass is every op of the workload in a fresh Python process (worker.py),
one pass at a time.  Each pass of a run draws its own seeded inputs, so the
medians cover several random documents; a traced run (--trace 1) repeats the
first pass's inputs, alternating untraced and traced passes.  Metric names,
units and the workload list come from BENCHMARK.json at the checkout root.

Prints the metrics by name and unit, the pass environment, and as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}.  Exits
with a nonzero code and no result line when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import program_seed, workload_docs, write_docs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

MIN_SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def pass_env() -> dict:
    """Environment of every pass: no worker threads (ISGW_THREADS unset),
    fixed hash seed, the checkout's own source tree."""
    env = dict(os.environ)
    env.pop("ISGW_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"loadavg={load}")


def worker(args: list, env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(env: dict, deadline: float) -> None:
    """Compile bytecode and import once, so that set-up time excludes a
    first-run compile."""
    if not (ROOT / "src" / "isgw" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'isgw'}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "isgw"),
                    str(HERE)], env=env, check=True, capture_output=True)
    worker(["--setup-only"], env, deadline)


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               env: dict, deadline: float) -> list:
    directory = WORK / workload
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        index = 0 if trace else len(passes)
        traced = trace and len(passes) % 2 == 1
        write_docs(workload_docs(workload, seed, index), directory)
        began = time.perf_counter()
        result = worker([workload, str(directory), str(program_seed(workload, seed, index)),
                         "1" if traced else "0"], env, deadline)
        durations.append(time.perf_counter() - began)
        result["traced"] = traced
        passes.append(result)
        elapsed = time.perf_counter() - start
        if (len(passes) >= (2 if trace else 1)
                and elapsed + statistics.median(durations) > seconds):
            return passes


def metrics(passes: list, setup: list, trace: bool) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    if not trace:
        values = {"setup_s": statistics.median(setup)}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            values[name] = statistics.median(p[name] for p in untraced)
        specs = SPEC["end_to_end"]
    else:
        traced = [p["trace"] for p in passes if p["traced"]]
        values = {"trace_overhead_frac":
                  statistics.median(p["wall_s"] for p in passes if p["traced"])
                  / statistics.median(p["wall_s"] for p in untraced) - 1}
        for spec in SPEC["per_layer"]:
            if spec["name"] not in values:
                key, stat = spec["name"].rsplit(".", 1)
                values[spec["name"]] = statistics.median(
                    t.get(key, {}).get(stat, 0.0) for t in traced)
        specs = SPEC["per_layer"]
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = pass_env()
    prepare(env, deadline)
    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)} {machine()}",
          flush=True)
    passes = run_passes(workload, seed, seconds, trace, env, deadline)
    setup = [p["setup_s"] for p in passes]
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(worker(["--setup-only"], env, deadline)["setup_s"])
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics(passes, setup, trace)}
    for line in failures:
        print(f"FAIL {line}")
    print(f"# {len(passes)} passes, {len(setup)} set-up samples, {machine()}")
    for name, m in result["metrics"].items():
        print(f"{name:<56} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_frac':<56} {len(failures) / attempted:>14.6g} "
          f"({len(failures)}/{attempted} ops)")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except (BenchError, subprocess.CalledProcessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
