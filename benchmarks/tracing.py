"""Spans and exact work counts at the boundaries between rkdg_lab modules.

The tracer rebinds public names in the ``rkdg_lab.harness`` namespace.
The study closures that ``build_problem`` returns, the runners and the
check batteries all look these names up there at call time, so each call
from harness into another module opens a span. ``SymbolOperator.norm``
is a method, so it is wrapped on the class; class names themselves are
never rebound, because harness passes them to ``isinstance``.

A span records its name, start, end, parent and the operation it belongs
to. Spans stay in memory; ``spans()`` hands them out when the run ends.
A span's self time is its duration minus the time its child spans cover.
The metric a span's self time adds to is ``<module>.<phase>_s``, where
the module is the one that defines the wrapped function.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# Wrapped harness name -> phase. The module half of the metric name comes
# from the function itself, so assemble_wave_alphabeta lands in
# systems.assemble_s and assemble_advection_2d in multidim.assemble_s.
PHASES = {
    "validate_config": "validate",
    "manufactured_residual": "residual",
    "build_operator": "self",
    "fit_loglog": "fit",
    "fit_semilog": "fit",
    "write_report": "report",
    "operator_norm": "norm",
    "semiboundedness_mu": "mu",
    "evolve": "march",
    "expm_reference": "expm",
    "amplification_norm": "amplification",
    "project_l2": "project",
    "composed_projection": "project",
    "pi_theta": "project",
    "d_theta_inverse_apply": "project",
    "pi_tensor_2d": "project",
    "project_l2_2d": "project",
    "fourier_truncate": "project",
    "l2_error": "error",
    "l2_error_2d": "error",
    "grid_l2_error": "error",
}
ASSEMBLE_PREFIX = "assemble_"
# operator_norm and amplification_norm switch from dense to iterative
# above this many unknowns.
DENSE_LIMIT = 2000

# Every per-layer self-time metric; a layer a workload never enters reads 0.
TIME_METRICS = (
    "time_integration.march_s",
    "time_integration.expm_s",
    "time_integration.amplification_s",
    "dg_ops1d.norm_s",
    "dg_ops1d.mu_s",
    "spectral.norm_s",
    "dg_ops1d.assemble_s",
    "systems.assemble_s",
    "multidim.assemble_s",
    "core_fem.project_s",
    "projections.project_s",
    "multidim.project_s",
    "spectral.project_s",
    "core_fem.error_s",
    "multidim.error_s",
    "spectral.error_s",
    "harness.validate_s",
    "harness.residual_s",
    "harness.fit_s",
    "harness.report_s",
    "harness.battery_s",
    "harness.self_s",
)
# Exact work counts and their units.
COUNT_METRICS = {
    "time_integration.matvecs": "count",
    "time_integration.dof_matvecs": "count",
    "time_integration.amplification_calls": "count",
    "dg_ops1d.norm_calls_dense": "count",
    "dg_ops1d.norm_calls_iterative": "count",
    "harness.operator_nnz": "count",
    "harness.residual_calls": "count",
    "harness.report_bytes": "bytes",
}
# Wrapped names whose arguments or results feed the counts above.
COUNTED = {"evolve", "operator_norm", "amplification_norm", "manufactured_residual",
           "build_operator", "write_report"}


def _n_rows(op) -> int:
    mat = getattr(op, "mat", op)
    return int(mat.shape[0])


class Tracer:
    """Install with ``with tracer.installed():``; wrap each operation in
    ``tracer.operation(op)``. Not thread safe: trace only jobs=1 runs."""

    def __init__(self):
        self._spans = []  # [name, metric, start, end, parent, op_name]
        self._stack = []
        self._op = None
        self.counts = defaultdict(int)
        self.iterative_norms = []  # (operation, operator, estimate)
        self.wrapped = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str, metric: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, metric, time.perf_counter(), None, parent, self._op])
        index = len(self._spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op):
        """Root span of one operation; its self time is harness glue."""
        self._op = op.name
        metric = "harness.battery_s" if op.kind == "battery" else "harness.self_s"
        index = self._open(op.name, metric)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def spans(self) -> list[dict]:
        keys = ("name", "metric", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self._spans]

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self._spans]
        for name, metric, start, end, parent, op in self._spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metric_totals(self) -> dict:
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for span, own in zip(self._spans, self.self_times()):
            totals[span[1]] = totals.get(span[1], 0.0) + own
        return totals

    def per_operation(self) -> dict:
        """For each operation: traced wall time, self time by metric, and
        the sum of self times (equal to the wall time up to rounding)."""
        out = {}
        for span, own in zip(self._spans, self.self_times()):
            rec = out.setdefault(span[5], {"wall_s": 0.0, "self_sum_s": 0.0, "self_s": {}})
            if span[4] is None:
                rec["wall_s"] += span[3] - span[2]
            rec["self_sum_s"] += own
            rec["self_s"][span[1]] = rec["self_s"].get(span[1], 0.0) + own
        return out

    # -- wrapping ---------------------------------------------------------

    def _count(self, name: str, args: dict, result) -> None:
        c = self.counts
        if name == "evolve":
            stages = args["scheme"].stages
            c["time_integration.matvecs"] += result.n_steps * stages
            c["time_integration.dof_matvecs"] += result.n_steps * stages * int(np.size(args["u0"]))
        elif name == "operator_norm":
            if _n_rows(args["op"]) <= DENSE_LIMIT:
                c["dg_ops1d.norm_calls_dense"] += 1
            else:
                c["dg_ops1d.norm_calls_iterative"] += 1
                self.iterative_norms.append((self._op, args["op"], float(result)))
        elif name == "amplification_norm":
            c["time_integration.amplification_calls"] += 1
        elif name == "manufactured_residual":
            c["harness.residual_calls"] += 1
        elif name == "build_operator":
            mat = getattr(result[0], "mat", None)
            if mat is not None:
                c["harness.operator_nnz"] += int(mat.nnz)
        elif name == "write_report":
            c["harness.report_bytes"] += sum(os.path.getsize(p) for p in result)

    def _wrap(self, name: str, fn, metric: str):
        signature = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if signature is not None:
                self._count(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        from rkdg_lab import harness
        from rkdg_lab.spectral import SymbolOperator

        saved = {}
        for name, fn in list(vars(harness).items()):
            phase = PHASES.get(name, "assemble" if name.startswith(ASSEMBLE_PREFIX) else None)
            if phase is None or not inspect.isfunction(fn):
                continue
            module = fn.__module__.rsplit(".", 1)[-1]
            saved[name] = fn
            setattr(harness, name, self._wrap(name, fn, f"{module}.{phase}_s"))
        self.wrapped = sorted(saved)
        norm = SymbolOperator.norm
        SymbolOperator.norm = self._wrap("SymbolOperator.norm", norm, "spectral.norm_s")
        try:
            yield self
        finally:
            SymbolOperator.norm = norm
            for name, fn in saved.items():
                setattr(harness, name, fn)


def norm_errors(iterative_norms) -> list[dict]:
    """Relative error of each iterative operator_norm estimate against a
    scipy.sparse.linalg.svds reference."""
    import scipy.sparse.linalg as sla

    out = []
    for operation, op, estimate in iterative_norms:
        mat = getattr(op, "mat", op)
        reference = float(sla.svds(mat, k=1, return_singular_vectors=False, random_state=0)[0])
        out.append({"operation": operation, "n": _n_rows(op), "estimate": estimate,
                    "reference": reference, "rel_err": abs(estimate - reference) / reference})
    return out
