"""Seeded benchmark of gatelearn: training throughput, phase-table speed,
set-up time, memory, and (traced) per-layer timing.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload search-walk --seed 1 --seconds 20 --trace 0

Every workload runs in this one process with ``threads=1`` as a closed
loop: the next operation starts when the previous one has finished, until
``--seconds`` have passed.  Outputs are checked after each operation,
outside its timed region.  Human-readable lines start with ``#``; the last
line is one JSON object holding the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: BLAS/OpenMP pools are pinned to one thread here and in every child process
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: fresh interpreters started per run to time set-up; their median is reported
SETUP_REPEATS = 7

# Runs in a fresh interpreter: `import gatelearn` plus the workload's first,
# cold table build (target_success for training).  Interpreter start-up is
# not part of it.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
start = time.perf_counter()
import gatelearn
imported = time.perf_counter()
import workloads
spec = workloads.{table}[{name!r}]
built = time.perf_counter()
spec.cold_setup()
done = time.perf_counter()
print(imported - start, done - built)
"""


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _environment(original_threads: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "thread_vars_inherited": original_threads,
        "thread_vars_pinned": {k: os.environ[k] for k in THREAD_VARS},
    }


class Setup(NamedTuple):
    """Median set-up seconds over the fresh interpreters."""

    total: float
    import_s: float
    tables_s: float


def measure_setup(name: str, table: str) -> Setup:
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), table=table, name=name)
    imports, tables = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd=ROOT, timeout=120, check=True,
        )
        import_s, tables_s = map(float, done.stdout.split())
        imports.append(import_s)
        tables.append(tables_s)
    totals = [a + b for a, b in zip(imports, tables)]
    return Setup(statistics.median(totals), statistics.median(imports),
                 statistics.median(tables))


def run_ops(spec, seed: int, seconds: float, tracer):
    """Closed loop of operations for ``seconds``; odd ones traced when tracing.

    A new operation starts only while it is expected, at the median
    duration so far, to end within ``seconds``, so a run does not overrun
    by most of one long operation.  Returns one dict per operation:
    seconds, traced, problems, result.
    """
    ops = []
    start_all = time.perf_counter()
    minimum = 1 if tracer is None else 2
    while len(ops) < minimum or (
        time.perf_counter() - start_all
        + statistics.median(op["wall"] for op in ops) <= seconds
    ):
        index = len(ops)
        op_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            out = Path(tmp)
            elapsed, result = None, None
            try:
                start = time.perf_counter()
                if traced:
                    produced = tracer.run(index, spec.run_op, seed, index, out)
                else:
                    produced = spec.run_op(seed, index, out)
                elapsed = time.perf_counter() - start
                problems, result = spec.check_op(produced, out)
            except Exception as exc:  # a failing operation is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
        ops.append({"seconds": elapsed, "traced": traced, "problems": problems,
                    "result": result, "wall": time.perf_counter() - op_start})
    return ops


def _throughput(ops, traced: bool) -> float:
    """Work items per second over the passing operations: total items / total time.

    A ratio of totals rather than the median operation rate, because one
    ``search-walk`` operation can take 2.5 times another's time for the
    same ten runs (long failure streaks escalate the walk); the median
    then depends on which operations fell in the window.
    """
    done = [op for op in ops if op["traced"] == traced and not op["problems"]]
    seconds = sum(op["seconds"] for op in done)
    return sum(op["result"].items for op in done) / seconds if seconds else 0.0


def layer_metrics(tracer, ops, setup) -> dict:
    """Per-layer values: times and counts are per traced operation; set-up
    figures come from the set-up interpreters, quality and pass ratio
    from every operation."""
    traced = [op for op in ops if op["traced"] and op["result"] is not None]
    n = max(1, len(traced))
    totals = tracer.layer_totals()
    counts = tracer.counts

    def inclusive(name):
        return totals.get(name, (0.0, 0.0, 0))[0] / n

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1] / n

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2] / n

    results = [op["result"] for op in ops if op["result"] is not None]
    training = [r for r in results if r.trials]
    table = [r for r in results if not r.trials]
    values = {
        "gatelearn.import_s": setup.import_s,
        "harness.tables_s": setup.tables_s,
        "harness.run_s": inclusive("harness.run"),
        "harness.self_s": self_time("harness.run"),
        "harness.runs": counts["harness.runs"] / n,
        "harness.iterations": counts["harness.iterations"] / n,
        "harness.pass_ratio": (
            sum(r.passes for r in training) / sum(r.trials for r in training)
            if training else 0.0
        ),
        "harness.mean_final_ratio": (
            statistics.fmean(r.quality for r in training) if training else 0.0
        ),
        "harness.summarize_s": inclusive("harness.summarize"),
        "harness.write_s": inclusive("harness.write"),
        "harness.write_bytes": counts["harness.write_bytes"] / n,
        "backaction.sample_s": inclusive("backaction.sample"),
        "backaction.sample_calls": calls("backaction.sample"),
        "backaction.amps_build_s": inclusive("backaction.amps_build"),
        "backaction.amps_build_calls": calls("backaction.amps_build"),
        "parameter.diag_s": inclusive("parameter.diag"),
        "parameter.diag_calls": calls("parameter.diag"),
        "parameter.dephase_s": inclusive("parameter.dephase"),
        "parameter.translate_s": inclusive("parameter.translate"),
        "parameter.invert_s": inclusive("parameter.invert"),
        "feedback.on_failure_s": inclusive("feedback.on_failure"),
        "feedback.on_failure_calls": calls("feedback.on_failure"),
        "feedback.kickstarts": counts["feedback.kickstarts"] / n,
        "feedback.walks": counts["feedback.walks"] / n,
        "feedback.pushes": counts["feedback.pushes"] / n,
        "feedback.walk_s": inclusive("feedback.walk"),
        "feedback.walk_calls": calls("feedback.walk"),
        "feedback.walk_coeff_s": inclusive("feedback.walk_coeff"),
        "feedback.walk_coeff_calls": calls("feedback.walk_coeff"),
        "feedback.walk_orders": counts["feedback.walk_orders"] / n,
        "qft.trial_batch_s": inclusive("qft.trial_batch"),
        "qft.trial_batch_calls": calls("qft.trial_batch"),
        "statevector.kernel_s": inclusive("statevector.kernel"),
        "statevector.kernel_calls": calls("statevector.kernel"),
        "statevector.bytes_computed": counts["statevector.bytes_computed"] / n,
        "qft.success_map_s": inclusive("qft.success_map"),
        "qft.success_map_cells": counts["qft.success_map_cells"] / n,
        "qft.average_success_s": inclusive("qft.average_success"),
        "qft.average_success_calls": calls("qft.average_success"),
        "optimize.cell_s": inclusive("optimize.cell"),
        "optimize.self_s": self_time("optimize.cell"),
        "optimize.evaluations": counts["optimize.evaluations"] / n,
        "optimize.table_optimum_mean": (
            statistics.fmean(r.quality for r in table) if table else 0.0
        ),
        "trace.throughput_traced": _throughput(ops, traced=True),
        "trace.throughput_untraced": _throughput(ops, traced=False),
    }
    return values


def _drift(spec_name: str, seed: int, ops) -> str:
    """Agreement of each operation's output digest with the recorded parent outputs."""
    path = BENCH_DIR / "reference.json"
    by_seed = json.loads(path.read_text()).get(spec_name, {})
    recorded = by_seed.get(str(seed), by_seed.get("*", []))  # "*": seed-independent
    pairs = [(op["result"].digest, ref) for op, ref in zip(ops, recorded)
             if op["result"] is not None]
    if not pairs:
        return f"no recorded parent outputs for seed {seed}"
    same = sum(a == b for a, b in pairs)
    return f"{same} of {len(pairs)} operations byte-identical to the recorded parent outputs"


def main(argv=None, table: str = "WORKLOADS") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    original_threads = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads
    if not (SRC / "gatelearn" / "__init__.py").is_file():
        print(f"error: no gatelearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import gatelearn

    if Path(gatelearn.__file__).resolve().parent != SRC / "gatelearn":
        print(f"error: imported gatelearn from {gatelearn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    specs = getattr(workloads, table)
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(specs)}",
              file=sys.stderr)
        return 2
    spec = specs[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    print(f"# gatelearn benchmark: workload={spec.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(_environment(original_threads), sort_keys=True))
    setup = measure_setup(spec.name, table)
    spec.warm_up()
    try:
        reference_problems = spec.check_reference()
    except Exception as exc:  # counted against every operation below
        reference_problems = [f"{type(exc).__name__}: {exc}"]
    tracer = tracing.Tracer() if args.trace else None
    ops = run_ops(spec, args.seed, args.seconds, tracer)

    failed = sum(bool(op["problems"] or reference_problems) for op in ops)
    for problem in reference_problems:
        print(f"# FAILED reference check: {problem}")
    for index, op in enumerate(ops):
        result = op["result"]
        print(f"# operation {index}: "
              + ("traced" if op["traced"] else "untraced")
              + (f", {op['seconds']:.4f} s" if op["seconds"] is not None else "")
              + (f", {result.items} {spec.item_unit}, quality {result.quality:.6f}, "
                 f"digest {result.digest}" if result is not None else ""))
        for problem in op["problems"]:
            print(f"# FAILED operation {index}: {problem}")
    timed = [op for op in ops if not op["traced"] and not op["problems"]]
    q1, median, q3 = (_quartiles([op["result"].items / op["seconds"] for op in timed])
                      if timed else (0.0, 0.0, 0.0))
    qualities = [op["result"].quality for op in ops if op["result"] is not None]
    print(f"# setup: median {setup.total:.4f} s over {SETUP_REPEATS} fresh interpreters "
          f"(import {setup.import_s:.4f} s, cold tables {setup.tables_s:.4f} s)")
    print(f"# operations: {len(ops)} attempted, {failed} failed")
    print(f"# error_rate {failed / len(ops):.4f} ratio (lower is better; carried by "
          "'failed' and 'attempted')")
    print(f"# {spec.item_unit}_per_s {_throughput(ops, traced=False):.4f} 1/s (higher is better); "
          f"per untraced operation: median {median:.4f}, quartiles {q1:.4f}-{q3:.4f} "
          f"over {len(timed)}")
    if qualities:
        print(f"# {spec.quality_name} {statistics.fmean(qualities):.6f} ratio (higher is better; "
              "information, not gated: see benchmarks/README.md)")
    print(f"# drift: {_drift(spec.name, args.seed, ops)} (information only)")

    if args.trace:
        values = layer_metrics(tracer, ops, setup)
        for name in tracer.absent:
            print(f"# absent: {name} (the package no longer has this name)")
        for name in sorted(tracer.uncounted):
            print(f"# uncounted: {name} (its counter no longer fits the package)")
        for share, name in tracer.work_shares():
            print(f"# share of operation time: {name} {share:.3f}")
        trace_file = OUT_DIR / f"trace-{spec.name}-{args.seed}.csv"
        tracer.write(trace_file)
        print(f"# spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": setup.total,
            "throughput": _throughput(ops, traced=False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"# metric {entry['name']} {value:.6g} {entry['unit']} "
              f"({entry['better']} is better)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
