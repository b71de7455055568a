"""rkdg-lab benchmark: end-to-end study cost and per-module self time.

    python3 benchmarks/run.py --workload march_small --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports rkdg_lab from its
``src/``. The load is a closed loop: one client, one process, studies
back to back with jobs=1. The generated configs are written from
``--seed``, which also overrides the ``seed`` of every shipped config, as
the CLI's ``--seed`` does.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over fresh interpreters of importing rkdg_lab and
               loading and validating every config of the workload
  wall_s       wall time of one warm pass over the workload, as the sum
               of each operation's median over the timed passes
  peak_rss_mb  peak resident memory of this process
  ok_frac      operations that succeeded over operations attempted
               (1 - fail_frac; fail_frac itself is 0 at best, so it
               cannot serve as a ratio-bounded metric)
--trace 1 alternates untraced and traced passes and reports self time
and exact work counts per module (see tracing.py), the tracing overhead,
the accuracy of iterative norm estimates, and the speed-up of one extra
pass with jobs=2.

Every operation's outputs are checked. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the full record, with per-operation results, goes to
``benchmarks/.work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import machine
import tracing
import workloads

SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT_S = 150
# Self times must add up to the operation's traced wall time; the only
# slack is floating-point rounding of the subtractions.
SELF_SUM_TOLERANCE_S = 1e-6
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def preflight() -> None:
    """Refuse to run anywhere but a source checkout of rkdg-lab."""
    if not os.path.isfile(os.path.join(workloads.SRC_DIR, "rkdg_lab", "__init__.py")):
        fail(f"no rkdg_lab sources under {workloads.SRC_DIR}")
    if not os.path.isdir(workloads.CONFIG_DIR):
        fail(f"no shipped configs under {workloads.CONFIG_DIR}")
    sys.path.insert(0, workloads.SRC_DIR)
    import rkdg_lab

    if not os.path.abspath(rkdg_lab.__file__).startswith(workloads.SRC_DIR + os.sep):
        fail(f"imported rkdg_lab from {rkdg_lab.__file__}, not from the checkout")


def run_child(args: list[str], env: dict | None = None) -> str:
    """Run a helper script to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, env=env, cwd=workloads.ROOT,
    )
    if proc.returncode != 0:
        fail(f"{args[0]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(ops, seed: int) -> list[float]:
    paths = [op.path for op in ops if op.kind == "study"]
    probe = [os.path.join(workloads.BENCH_DIR, "setup_probe.py"),
             workloads.SRC_DIR, str(seed), *paths]
    run_child(probe)  # writes bytecode caches and warms the page cache
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = run_child(probe)
        samples.append(time.perf_counter() - t0)
        if out.strip() != str(len(paths)):
            fail(f"setup probe validated {out.strip()!r} configs, expected {len(paths)}")
    return samples


def tail(samples: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return {"percentile": None, "value": None}
    p = math.floor(100 * (1 - 10 / n))
    rank = max(1, math.ceil(p / 100 * n))
    return {"percentile": p, "value": sorted(samples)[rank - 1]}


def run_until(deadline: float, step) -> list:
    """Call step() until the next call would end past the deadline (a
    time.perf_counter() value); at least once. step returns (wall,
    result); returns the list of those."""
    out = [step()]
    while time.perf_counter() + statistics.median(w for w, _ in out) <= deadline:
        out.append(step())
    return out


def timed_pass(ops, seed: int, report_dir: str, span=contextlib.nullcontext):
    results = workloads.run_pass(ops, seed, 1, report_dir, span)
    return workloads.pass_wall(results), results


def median_pass_wall(passes: list) -> float:
    """Wall time of one pass as the sum of each operation's median over
    the timed passes, so that a burst of outside load during one
    operation does not count against the whole pass."""
    return sum(statistics.median(results[i].wall_s for results in passes)
               for i in range(len(passes[0])))


def check_passes(passes: list) -> list[str]:
    """Problems in any operation of any pass, and any operation whose
    outcome differs between passes (every input is fixed by the seed)."""
    problems = []
    first = {r.name: (r.ok, r.error, r.summary) for r in passes[0]}
    for results in passes:
        for r in results:
            problems += [f"{r.name}: {p}" for p in r.problems]
            if (r.ok, r.error, r.summary) != first[r.name]:
                problems.append(f"{r.name}: outcome differs between passes")
    return sorted(set(problems))


def op_records(passes: list) -> list[dict]:
    records = []
    for i, r in enumerate(passes[0]):
        records.append({
            "name": r.name,
            "ok": r.ok,
            "exception": r.error.split(":", 1)[0] if r.error else None,
            "error": r.error,
            "problems": r.problems,
            "wall_s": [results[i].wall_s for results in passes],
            **r.summary,
        })
    return records


def end_to_end(args, ops, report_dir: str) -> dict:
    setup = measure_setup(ops, args.seed)
    deadline = time.perf_counter() + args.seconds
    warm = workloads.run_pass(ops, args.seed, 1, report_dir)
    timed_passes = run_until(deadline, lambda: timed_pass(ops, args.seed, report_dir))
    walls = [w for w, _ in timed_passes]
    passes = [results for _, results in timed_passes]
    attempted = sum(len(results) for results in passes)
    failed = sum(not r.ok for results in passes for r in results)
    op_walls = [r.wall_s for results in passes for r in results]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (median_pass_wall(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": check_passes([warm] + passes),
        "detail": {
            "setup_samples_s": setup,
            "pass_samples_s": walls,
            "pass_median_s": statistics.median(walls),
            "pass_tail": tail(walls),
            "operation_latency_samples": len(op_walls),
            "operation_latency_tail": tail(op_walls),
            "fail_frac": failed / attempted,
            "operations": op_records(passes),
        },
    }


def jobs_evidence(args) -> dict:
    env = {**os.environ, **BLAS_ONE_THREAD}
    out = run_child([os.path.join(workloads.BENCH_DIR, "jobs_pass.py"),
                     args.workload, str(args.seed)], env=env)
    return json.loads(out.strip().splitlines()[-1])


def per_layer(args, ops, report_dir: str) -> dict:
    deadline = time.perf_counter() + args.seconds
    warm = workloads.run_pass(ops, args.seed, 1, report_dir)
    tracers = []

    def pair():
        plain = timed_pass(ops, args.seed, report_dir)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = timed_pass(ops, args.seed, report_dir, tracer.operation)
        tracers.append(tracer)
        return plain[0] + traced[0], (plain, traced)

    pairs = [p for _, p in run_until(deadline, pair)]
    plain_walls = [plain[0] for plain, _ in pairs]
    traced_walls = [traced[0] for _, traced in pairs]
    passes = [results for plain, traced in pairs for results in (plain[1], traced[1])]
    problems = check_passes([warm] + passes)

    counts = [dict(t.counts) for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between traced passes")
    for t in tracers:
        for name, rec in t.per_operation().items():
            if abs(rec["self_sum_s"] - rec["wall_s"]) > SELF_SUM_TOLERANCE_S:
                problems.append(f"{name}: self times sum to {rec['self_sum_s']:.9f} s, "
                                f"wall is {rec['wall_s']:.9f} s")
    jobs = jobs_evidence(args)
    if not jobs["same_results"]:
        problems.append("jobs=2 produced different study results from jobs=1")

    totals = [t.metric_totals() for t in tracers]
    metrics = {name: (statistics.median(tot[name] for tot in totals), "s")
               for name in tracing.TIME_METRICS}
    for name, unit in tracing.COUNT_METRICS.items():
        metrics[name] = (counts[0].get(name, 0), unit)
    dof_matvecs = counts[0].get("time_integration.dof_matvecs", 0)
    march = metrics["time_integration.march_s"][0]
    metrics["time_integration.ns_per_dof_matvec"] = (
        1e9 * march / dof_matvecs if dof_matvecs else 0.0, "ns")
    norm_errors = tracing.norm_errors(tracers[0].iterative_norms)
    metrics["dg_ops1d.norm_rel_err"] = (max((e["rel_err"] for e in norm_errors), default=0.0),
                                        "ratio")
    metrics["harness.jobs2_speedup"] = (jobs["jobs1_s"] / jobs["jobs2_s"], "ratio")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")

    attempted = sum(len(results) for results in passes)
    failed = sum(not r.ok for results in passes for r in results)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": {
            "wrapped": tracers[0].wrapped,
            "untraced_pass_s": plain_walls,
            "traced_pass_s": traced_walls,
            "jobs": jobs,
            "iterative_norms": norm_errors,
            "counts_per_pass": counts,
            "operations": op_records(passes),
            "traced_operations": tracers[0].per_operation(),
        },
        "spans": [dict(span, traced_pass=i)
                  for i, t in enumerate(tracers) for span in t.spans()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHIPPED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be nonnegative and --seconds positive")

    preflight()
    ops = workloads.prepare(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_dir = os.path.join(workloads.WORK_DIR, "reports", tag)
    run = (per_layer if args.trace else end_to_end)(args, ops, report_dir)

    results_dir = os.path.join(workloads.WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine.facts(),
        "attempted": run["attempted"], "failed": run["failed"],
        "problems": run["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        **run["detail"],
    }
    result_path = os.path.join(results_dir, tag + ".json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if "spans" in run:
        with open(os.path.join(results_dir, tag + "-spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in run["spans"]:
                fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_frac':40s} {run['detail']['fail_frac']:.6g} ratio "
              f"({run['failed']}/{run['attempted']})")
    for op in record["operations"]:
        if not op["ok"]:
            print(f"  failed: {op['name']}: {op['error'] or op['problems']}")
    for problem in run["problems"]:
        print(f"  wrong output: {problem}")
    print(f"  full record: {os.path.relpath(result_path, workloads.ROOT)}")
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
