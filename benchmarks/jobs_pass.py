"""One untraced pass with jobs=1 and one with jobs=2, after a warm-up
pass, for the --jobs evidence. Run it with BLAS held to one thread, so
that two worker threads never exceed two cores.

Usage: python3 jobs_pass.py WORKLOAD SEED
Prints one JSON object: both pass times, the BLAS thread count seen, and
whether the two passes produced the same outcomes.
"""

import json
import os
import sys

import machine
import workloads

workload, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, workloads.SRC_DIR)
ops = workloads.prepare(workload, seed)
report_dir = os.path.join(workloads.WORK_DIR, "reports", f"{workload}-jobs")
workloads.run_pass(ops, seed, 1, report_dir)  # warm-up: lazy imports and caches
walls, summaries = {}, {}
for jobs in (1, 2):
    results = workloads.run_pass(ops, seed, jobs, report_dir)
    walls[jobs] = workloads.pass_wall(results)
    summaries[jobs] = [(r.name, r.ok, r.error, r.summary) for r in results]
print(json.dumps({
    "jobs1_s": walls[1],
    "jobs2_s": walls[2],
    "blas_threads": machine.blas_threads(),
    "same_results": summaries[1] == summaries[2],
}))
