"""The three benchmark workloads and the pass that runs one of them.

A workload is a list of operations. An operation is either one study
config (shipped under ``configs/`` and read in place, or generated from
the benchmark seed) or one of the two check batteries. A pass runs every
operation once, back to back, through the public API only:
``load_config`` -> ``validate_config`` -> ``run_study`` -> ``write_report``
for studies, ``check_operators`` / ``check_projections`` for batteries.

Every call into the package goes through ``rkdg_lab.harness.<name>`` at
call time, so the tracer in ``tracing.py`` can rebind those names and see
the benchmark's own calls as well as the harness's.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
CONFIG_DIR = os.path.join(ROOT, "configs")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

# The 12 one-dimensional spatial configs: every shipped spatial config
# except the 2D one, which belongs to the scaling sweep.
MARCH_SMALL_CONFIGS = (
    "advection_composed_init_k1",
    "advection_upwind_k1",
    "advection_upwind_k2_perturbed",
    "central_dg_k1",
    "central_flux_degenerate_k1",
    "conserving_pair_k1",
    "dispersive_ldg_k1",
    "heat_alternating_k1",
    "spectral_wave_analytic",
    "ultraweak_k3",
    "wave_alphabeta_k1",
    "wave_flux_perturbed_k1",
)
DENSE_TIME_CONFIGS = (
    "semidiscrete_rk4",
    "semidiscrete_taylor2",
    "semidiscrete_taylor3",
    "temporal_taylor2",
    "temporal_taylor3",
    "stability_euler_skew",
    "stability_taylor3_central",
    "stability_two_step_central",
)
SWEEP_LEVELS = [128, 256, 512, 1024]
HEAT_LEVELS = [64, 128, 256, 512]
BATTERIES = ("check_operators", "check_projections")
# Workload -> the shipped configs it reads in place.
SHIPPED = {
    "march_small": MARCH_SMALL_CONFIGS,
    "spectra_scale": ("advection2d_k1",),
    "dense_time": DENSE_TIME_CONFIGS,
}


def _spatial(name, solution, scheme, grid, integrator, t_final, rate_min, seed):
    return {
        "schema": "rkdg-lab-config/1",
        "name": name,
        "study": "spatial",
        "seed": seed,
        "solution": solution,
        "scheme": scheme,
        "grid": grid,
        "time": {"integrator": integrator, "t_final": t_final, "cfl_fraction": 0.9},
        "init": {"mode": "l2"},
        "report": {"assert_rate_min": rate_min},
    }


def _centered_scan(name, n, seed):
    return {
        "schema": "rkdg-lab-config/1",
        "name": name,
        "study": "stability",
        "seed": seed,
        "scheme": {"family": "ldg", "degree": 1, "q": 1, "beta": -1.0, "theta0": 0.5},
        "grid": {"mesh": "uniform", "n": n},
        "time": {"integrator": "taylor3"},
        "scan": {"expect": "nonempty"},
    }


def generated_configs(workload: str, seed: int) -> list[dict]:
    """Configs the workload adds to the shipped ones. The assert bounds
    are those of each config's shipped sibling."""
    if workload == "spectra_scale":
        uniform = {"mesh": "uniform", "levels": SWEEP_LEVELS}
        return [
            _spatial("sweep_advection_k1", "advection_sin",
                     {"family": "ldg", "degree": 1}, uniform, "ssp3", 0.1, 1.9, seed),
            _spatial("sweep_advection_k3", "advection_sin",
                     {"family": "ldg", "degree": 3}, uniform, "ssp3", 0.1, 3.9, seed),
            _spatial("sweep_advection_k2_perturbed", "advection_sin",
                     {"family": "ldg", "degree": 2},
                     {"mesh": "perturbed", "perturbation": 0.3, "levels": SWEEP_LEVELS},
                     "ssp3", 0.1, 2.9, seed),
            _spatial("sweep_heat_k1", "heat_sin", {"family": "ldg", "degree": 1},
                     {"mesh": "uniform", "levels": HEAT_LEVELS}, "ssp3", 0.01, 1.9, seed),
        ]
    if workload == "dense_time":
        return [
            {
                "schema": "rkdg-lab-config/1",
                "name": "semidiscrete_taylor3_n160",
                "study": "temporal",
                "seed": seed,
                "solution": "advection_sin",
                "scheme": {"family": "ldg", "degree": 3},
                "grid": {"mesh": "uniform", "n": 160},
                "time": {"integrator": "taylor3", "t_final": 0.5, "tau0": 0.0025,
                         "halvings": 3, "mode": "semidiscrete"},
                "init": {"mode": "l2"},
                "report": {"assert_rate_min": 2.9},
            },
            _centered_scan("scan_taylor3_central_n250", 250, seed),
            # 2,048 dofs takes the power-iteration branch, which stalls
            # today; it stays in as a counted failure.
            _centered_scan("scan_taylor3_central_n1024", 1024, seed),
        ]
    return []


@dataclass(frozen=True)
class Operation:
    """One unit of work: a study config on disk, or a battery."""

    name: str
    kind: str  # "study" or "battery"
    path: str = ""


def prepare(workload: str, seed: int) -> list[Operation]:
    """Write the generated configs for this seed and list the operations."""
    ops = []
    for name in SHIPPED[workload]:
        path = os.path.join(CONFIG_DIR, name + ".json")
        if not os.path.isfile(path):
            raise SystemExit(f"shipped config {path} is missing")
        ops.append(Operation(name, "study", path))
    gen_dir = os.path.join(WORK_DIR, "configs", f"{workload}-seed{seed}")
    os.makedirs(gen_dir, exist_ok=True)
    for doc in generated_configs(workload, seed):
        path = os.path.join(gen_dir, doc["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        ops.append(Operation(doc["name"], "study", path))
    if workload == "march_small":
        ops.extend(Operation(name, "battery") for name in BATTERIES)
    return ops


# ---------------------------------------------------------------------------
# Running a pass and checking what it produced
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    wall_s: float
    ok: bool
    error: str | None = None
    summary: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _finite_tree(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_tree(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite_tree(v) for v in value)
    return True


def _expected_dofs(scheme: dict, n: int) -> int:
    """Unknowns per level, written out here rather than taken from the
    package, so that the check does not reuse the code it checks."""
    family = scheme["family"]
    if family == "spectral":
        return (2 * n + 1) * 2
    k1 = scheme["degree"] + 1
    if family == "advection2d":
        return n * n * k1 * k1
    fields = 2 if family in ("wave", "conserving_pair", "central") else 1
    return fields * n * k1


def check_study(result, config: dict, report_paths: list) -> list[str]:
    """Independent checks of one study's outputs; returns what failed."""
    from rkdg_lab import harness

    problems = []
    doc = harness.study_to_dict(result)
    if not _finite_tree(doc):
        problems.append("report holds a non-finite number")
    for name, check in result.assertions.items():
        if not check["passed"]:
            problems.append(f"assertion {name} failed (value {check['value']:.6g})")
    if not result.assertions:
        problems.append("study asserted nothing")
    for path in report_paths:
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"report {path} was not written")
    if result.study == "stability":
        if len(result.rows) != len(config["scan"]["lambdas"]):
            problems.append("scan row count differs from the lambdas asked for")
        return problems
    t_final = config["time"]["t_final"]
    if result.study == "spatial":
        sizes = config["grid"]["levels"]
    else:
        sizes = [config["grid"]["n"]] * len(result.levels)
    if len(result.levels) != len(sizes):
        problems.append("level count differs from the config")
        return problems
    for lv, n in zip(result.levels, sizes):
        if lv.n_dofs != _expected_dofs(config["scheme"], n):
            problems.append(f"level n={n} reports {lv.n_dofs} dofs")
        # The march covers t_final with n_steps steps of at most tau.
        if not (lv.n_steps * lv.tau >= t_final * (1 - 1e-9)
                and (lv.n_steps - 1) * lv.tau < t_final * (1 + 1e-9)):
            problems.append(f"level n={n}: {lv.n_steps} steps of {lv.tau:.3e} "
                            f"do not cover t_final {t_final}")
    # Refit the rate from the reported levels.
    x = np.array([lv.scale for lv in result.levels], dtype=float)
    y = np.log(np.maximum([lv.error for lv in result.levels], 1e-300))
    if config["scheme"]["family"] != "spectral":
        x = np.log(x)
    refit = float(np.polyfit(x, y, 1)[0])
    if not abs(refit - result.fitted_rate) <= 1e-9 * max(1.0, abs(refit)):
        problems.append(f"fitted rate {result.fitted_rate} differs from refit {refit}")
    return problems


def study_summary(result) -> dict:
    if result.study == "stability":
        return {
            "study": "stability",
            "stable_count": result.meta["stable_count"],
            "max_stable_lambda": result.meta["max_stable_lambda"],
            "operator_norm": result.meta["operator_norm"],
        }
    return {
        "study": result.study,
        "fitted_rate": result.fitted_rate,
        "dofs": [lv.n_dofs for lv in result.levels],
        "steps": [lv.n_steps for lv in result.levels],
    }


def run_operation(op: Operation, seed: int, jobs: int, report_dir: str,
                  span=contextlib.nullcontext) -> OpResult:
    """Run one operation, then check what it produced. Only the calls into
    the package are timed, inside span(op). An exception the package
    raises is a failure of that operation, not of the pass."""
    from rkdg_lab import harness

    t0 = time.perf_counter()
    try:
        with span(op):
            if op.kind == "battery":
                checks = getattr(harness, op.name)(seed=seed)
            else:
                doc = harness.load_config(op.path)
                doc["seed"] = seed
                config = harness.validate_config(doc)
                result = harness.run_study(config, jobs=jobs)
                paths = harness.write_report(result, report_dir, op.name, "both")
    except Exception as exc:  # any raise from the package counts as a failure
        wall = time.perf_counter() - t0
        return OpResult(op.name, wall, ok=False, error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    if op.kind == "battery":
        bad = [c.name for c in checks if not c.passed]
        problems = [f"check {name} failed" for name in bad]
        if not all(math.isfinite(c.value) for c in checks):
            problems.append("a check value is non-finite")
        summary = {"checks": len(checks), "failed_checks": bad}
    else:
        problems = check_study(result, config, paths)
        summary = study_summary(result)
        summary["report_bytes"] = sum(os.path.getsize(p) for p in paths)
    return OpResult(op.name, wall, ok=not problems, summary=summary, problems=problems)


def run_pass(ops: list[Operation], seed: int, jobs: int, report_dir: str,
             span=contextlib.nullcontext) -> list[OpResult]:
    """One pass over the workload; span is the tracer's per-operation
    span when traced."""
    return [run_operation(op, seed, jobs, report_dir, span) for op in ops]


def pass_wall(results: list[OpResult]) -> float:
    """Wall time of a pass: its operations' package calls, without the
    benchmark's own checks."""
    return sum(r.wall_s for r in results)
