"""Study drivers for the discretizations in this package.

This module owns four jobs. It fixes a small catalog of closed-form
solutions together with the evolution operator each one satisfies; it
runs every study through one runner, run_study, which assembles the
discrete problems, marches all their levels in one lockstep batch with
the requested integrator, fits convergence rates and applies the
assertions a study declares; and it bundles the operator and projection
identity checks behind the command line verification tools.

Studies arrive as plain dictionaries in the "rkdg-lab-config/1" layout.
Validation is strict about unknown keys so that a typo in a config file
fails loudly instead of silently running with a default. All randomness
flows through seeds stored in the config, and every run is serial, so a
rerun reproduces its report exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core_fem import (
    TWO_PI,
    ConfigError,
    DGFunction,
    Mesh1D,
    NumericalError,
    SmoothFunction,
    _trace_vectors,
    l2_error,
    mean_value,
    project_l2,
)
from .dg_ops1d import (
    assemble_d_theta,
    assemble_high_order_lh,
    assemble_ultraweak_third,
    check_high_order_admissible,
    high_order_flux_sequence,
    jump_energy,
    operator_norm,
    quadratic_form,
    semiboundedness_mu,
    spectrum_method,
)
from .multidim import (
    DGFunction2D,
    Mesh2D,
    assemble_advection_2d,
    l2_error_2d,
    pi_tensor_2d,
    project_l2_2d,
    tensor_projection_residuals,
)
from .projections import (
    commuting_defect,
    composed_projection,
    d_theta_inverse_apply,
    d_theta_inverse_norm,
    make_mean_zero,
    pi_theta,
)
from .spectral import (
    FourierFunction,
    SymbolOperator,
    analytic_profile,
    fourier_truncate,
    grid_l2_error,
)
from .systems import (
    assemble_central_advection,
    assemble_energy_conserving_pair,
    assemble_wave_alphabeta,
    split_fields,
    stack_fields,
)
from .time_integration import (
    DENSE_LIMIT,
    RKScheme,
    _horner,
    amplification_norm,
    check_cfl,
    evolve,
    evolve_levels,
    expm_reference,
    resolve_scheme,
    sigma_factor,
)

SCHEMA_VERSION = "rkdg-lab-config/1"
REPORT_SCHEMA = "rkdg-lab-report/1"
DEFAULT_SEED = 1729
CSV_HEADER = "scale,error,rate_pairwise"
SCAN_CSV_HEADER = "lambda,tau,amplification,stable"

# Every evolution refuses to start unless the operator is semibounded to
# this tolerance relative to its norm (round-off leaves mu/|L| near 1e-15),
# and refuses step counts past the budget below.
MU_GATE = 1.0e-10
STEP_BUDGET = 3_000_000

_RESIDUAL_GATE = 1.0e-10


class RateAssertionError(RuntimeError):
    """A fitted convergence rate violated a bound the study asserted."""


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManufacturedSolution:
    """A closed-form solution of u_t = L u on the periodic domain.

    components, time_derivatives and operator_actions hold one callable
    per field; the last two are written independently of each other so
    that manufactured_residual can cross-check them. profile exists for
    the scalar problems and maps a time to a SmoothFunction with enough
    x-derivatives for the structure-preserving projections. params pins
    the parts of the discretization that the solution identity fixes
    (the derivative order q and the sign beta, for instance) and
    supplies soft defaults for the rest.
    """

    name: str
    family: str
    dim: int
    components: tuple
    time_derivatives: tuple
    operator_actions: tuple
    profile: Callable | None = None
    params: Mapping[str, Any] = field(default_factory=dict)


def _trig(kind: str, speed: float, scale: float = 1.0, decay: float = 0.0) -> Callable:
    """Closure for scale * exp(-decay t) * sin/cos(x - speed t)."""
    base = np.sin if kind == "sin" else np.cos

    def f(x, t, base=base, speed=speed, scale=scale, decay=decay):
        amp = scale * np.exp(-decay * np.asarray(t, dtype=float))
        return amp * base(np.asarray(x, dtype=float) - speed * np.asarray(t, dtype=float))

    return f


def _zero_field(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def _sine_profile(speed: float, decay: float = 0.0, offset: float = 0.0) -> Callable:
    """SmoothFunction factory for offset + exp(-decay t) sin(x - speed t).

    Derivatives in x are phase shifts of the sine, so any order up to
    eight is available exactly.
    """

    def at_time(t: float) -> SmoothFunction:
        amp = math.exp(-decay * t)
        phase = -speed * t
        fns = []
        for order in range(9):
            def g(x, amp=amp, phase=phase, order=order):
                vals = amp * np.sin(np.asarray(x, dtype=float) + phase + 0.5 * order * np.pi)
                if order == 0:
                    vals = vals + offset
                return vals

            fns.append(g)
        return SmoothFunction(tuple(fns))

    return at_time


def _profile_slope(x):
    """Derivative of the analytic benchmark profile 1 / (2 + cos x)."""
    x = np.asarray(x, dtype=float)
    return np.sin(x) / (2.0 + np.cos(x)) ** 2


def _plane_wave(x1, x2, t):
    return np.sin(np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float) - 2.0 * t)


def _plane_wave_dt(x1, x2, t):
    return -2.0 * np.cos(np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float) - 2.0 * t)


def _characteristic_pair(sign: float) -> Callable:
    """Component (p(x - t) + sign * p(x + t)) / 2 of the coupled system."""

    def f(x, t, sign=sign):
        x = np.asarray(x, dtype=float)
        return 0.5 * (analytic_profile(x - t) + sign * analytic_profile(x + t))

    return f


def _characteristic_pair_dt(sign: float) -> Callable:
    def f(x, t, sign=sign):
        x = np.asarray(x, dtype=float)
        return 0.5 * (-_profile_slope(x - t) + sign * _profile_slope(x + t))

    return f


def _characteristic_pair_action(sign: float) -> Callable:
    # L = -A d/dx with the exchange coupling swaps the components, so
    # the action on component 1 is minus the x-derivative of component 2
    # and vice versa.
    def f(x, t, sign=sign):
        x = np.asarray(x, dtype=float)
        return -0.5 * (_profile_slope(x - t) + sign * _profile_slope(x + t))

    return f


_COUPLINGS = {"exchange": np.array([[0.0, 1.0], [1.0, 0.0]])}


@lru_cache(maxsize=1)
def solution_catalog() -> Mapping[str, ManufacturedSolution]:
    """All manufactured solutions the studies know about, keyed by name."""
    entries = [
        ManufacturedSolution(
            name="advection_sin",
            family="ldg",
            dim=1,
            components=(_trig("sin", 1.0),),
            time_derivatives=(_trig("cos", 1.0, -1.0),),
            operator_actions=(_trig("cos", 1.0, -1.0),),
            profile=_sine_profile(1.0),
            params={"q": 1, "beta": -1.0, "theta0": 1.0},
        ),
        ManufacturedSolution(
            name="heat_sin",
            family="ldg",
            dim=1,
            components=(_trig("sin", 0.0, 1.0, 1.0),),
            time_derivatives=(_trig("sin", 0.0, -1.0, 1.0),),
            operator_actions=(_trig("sin", 0.0, -1.0, 1.0),),
            profile=_sine_profile(0.0, decay=1.0),
            params={"q": 2, "beta": 1.0, "theta0": 1.0},
        ),
        ManufacturedSolution(
            name="dispersive_sin",
            family="ldg",
            dim=1,
            components=(_trig("sin", -1.0),),
            time_derivatives=(_trig("cos", -1.0),),
            operator_actions=(_trig("cos", -1.0),),
            profile=_sine_profile(-1.0),
            params={"q": 3, "beta": -1.0, "theta0": 1.0},
        ),
        ManufacturedSolution(
            name="ultraweak_sin",
            family="ultraweak3",
            dim=1,
            components=(_trig("sin", 1.0),),
            time_derivatives=(_trig("cos", 1.0, -1.0),),
            operator_actions=(_trig("cos", 1.0, -1.0),),
            profile=_sine_profile(1.0),
            params={},
        ),
        ManufacturedSolution(
            name="wave_sin",
            family="wave",
            dim=1,
            components=(_trig("sin", 1.0), _trig("sin", 1.0, -1.0)),
            time_derivatives=(_trig("cos", 1.0, -1.0), _trig("cos", 1.0)),
            operator_actions=(_trig("cos", 1.0, -1.0), _trig("cos", 1.0)),
            params={},
        ),
        ManufacturedSolution(
            name="conserving_pair_sin",
            family="conserving_pair",
            dim=1,
            components=(_trig("sin", 1.0), _zero_field),
            time_derivatives=(_trig("cos", 1.0, -1.0), _zero_field),
            operator_actions=(_trig("cos", 1.0, -1.0), _zero_field),
            params={},
        ),
        ManufacturedSolution(
            name="central_sin",
            family="central",
            dim=1,
            components=(_trig("sin", 1.0), _trig("sin", 1.0)),
            time_derivatives=(_trig("cos", 1.0, -1.0), _trig("cos", 1.0, -1.0)),
            operator_actions=(_trig("cos", 1.0, -1.0), _trig("cos", 1.0, -1.0)),
            params={},
        ),
        ManufacturedSolution(
            name="advection2d_sin",
            family="advection2d",
            dim=2,
            components=(_plane_wave,),
            time_derivatives=(_plane_wave_dt,),
            operator_actions=(_plane_wave_dt,),
            params={"theta1": 1.0, "theta2": 1.0},
        ),
        ManufacturedSolution(
            name="spectral_exchange",
            family="spectral",
            dim=1,
            components=(_characteristic_pair(1.0), _characteristic_pair(-1.0)),
            time_derivatives=(_characteristic_pair_dt(1.0), _characteristic_pair_dt(-1.0)),
            operator_actions=(_characteristic_pair_action(-1.0), _characteristic_pair_action(1.0)),
            params={"coupling": "exchange"},
        ),
    ]
    return {entry.name: entry for entry in entries}


def manufactured_residual(
    solution: ManufacturedSolution, seed: int = DEFAULT_SEED, n_samples: int = 48
) -> float:
    """Largest pointwise defect |u_t - L u| over random space-time samples.

    The catalog writes u_t and L u as separate closures, so this is a
    real consistency check on both and it runs before every study.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, TWO_PI, size=(solution.dim, n_samples))
    ts = rng.uniform(0.0, 1.0, size=n_samples)
    worst = 0.0
    for dudt, action in zip(solution.time_derivatives, solution.operator_actions):
        args = [xs[i] for i in range(solution.dim)] + [ts]
        defect = np.max(np.abs(np.asarray(dudt(*args)) - np.asarray(action(*args))))
        worst = max(worst, float(defect))
    return worst


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    """One assembled refinement level: the operator plus data plumbing."""

    op: Any
    scale: float
    n_dofs: int
    prepare: Callable  # t -> state array holding the projected exact data
    error: Callable  # (state, t) -> (total error, per-field errors)
    label: str
    extra: Mapping[str, Any] = field(default_factory=dict)


def _grid_mesh(grid: Mapping, n: int, seed: int, salt: int) -> Mesh1D:
    if grid["mesh"] == "perturbed":
        return Mesh1D.perturbed(n, rel=grid["perturbation"], seed=seed + 131 * salt + n)
    return Mesh1D.uniform(n)


def build_operator(
    scheme: Mapping, grid: Mapping, n: int, seed: int, salt: int = 0
) -> tuple[Any, tuple, float, Mapping]:
    """Assemble the operator for one level.

    Returns (operator, meshes, scale, extra). The scale is the mesh
    width for the grid-based families and the mode cutoff for the
    spectral one.
    """
    family = scheme["family"]
    if family == "spectral":
        a = _COUPLINGS[scheme["coupling"]]
        op = SymbolOperator(n, 1, (a,))
        return op, (), float(n), {}
    degree = scheme["degree"]
    if family == "advection2d":
        mesh2 = Mesh2D.uniform(n, n)
        op = assemble_advection_2d(mesh2, degree, scheme["theta1"], scheme["theta2"])
        return op, (mesh2,), float(mesh2.mesh1.h_max), {}
    mesh = _grid_mesh(grid, n, seed, salt)
    if family == "ldg":
        op = assemble_high_order_lh(
            mesh, degree, scheme["q"], scheme["beta"],
            theta0=scheme["theta0"], thetas=tuple(scheme["thetas"]),
        )
        return op, (mesh,), float(mesh.h_max), {}
    if family == "ultraweak3":
        op = assemble_ultraweak_third(mesh, degree)
        return op, (mesh,), float(mesh.h_max), {}
    if family == "wave":
        beta1, beta2 = scheme["beta1"], scheme["beta2"]
        pert = scheme.get("flux_perturbation")
        if pert is not None:
            radicand = (
                0.25 + pert["amplitude"] * mesh.h_max ** pert["exponent"]
                - scheme["alpha"] ** 2
            )
            if radicand < 0.0:
                raise ConfigError(
                    "scheme.flux_perturbation: alpha^2 exceeds 1/4 plus the "
                    "perturbation, so the dissipative branch is empty"
                )
            beta1 = beta2 = -math.sqrt(radicand)
        op = assemble_wave_alphabeta(mesh, degree, scheme["alpha"], beta1, beta2)
        return op, (mesh, mesh), float(mesh.h_max), {"beta1": beta1, "beta2": beta2}
    if family == "conserving_pair":
        op = assemble_energy_conserving_pair(mesh, degree)
        return op, (mesh, mesh), float(mesh.h_max), {}
    if family == "central":
        tau_max = scheme["tau_max_factor"] * mesh.h_min
        op, dual = assemble_central_advection(mesh, degree, tau_max)
        return op, (mesh, dual), float(mesh.h_max), {"tau_max": tau_max}
    raise ConfigError(f"scheme.family: unknown family {family!r}")


def build_problem(
    config: Mapping, solution: ManufacturedSolution, n: int, salt: int = 0
) -> Problem:
    """Assemble one level and wire the exact solution to it."""
    scheme, grid, init = config["scheme"], config["grid"], config["init"]
    mode = init["mode"]
    op, meshes, scale, extra = build_operator(scheme, grid, n, config["seed"], salt)
    family = scheme["family"]
    comps = solution.components

    if family == "spectral":
        def stacked(t: float) -> Callable:
            def f(x, t=t):
                return np.stack(
                    [np.asarray(c(x, t), dtype=complex) for c in comps], axis=-1
                )

            return f

        def prepare(t: float = 0.0):
            return fourier_truncate(stacked(t), n, dim=1).coeffs

        def error(state, t: float):
            u = FourierFunction(n, 1, np.asarray(state))
            e = grid_l2_error(u, stacked(t))
            return e, {"all": e}

        n_dofs = (2 * n + 1) * len(comps)
        return Problem(op, scale, n_dofs, prepare, error, f"n_max={n}", extra)

    degree = scheme["degree"]
    if family == "advection2d":
        mesh2 = meshes[0]

        def slice_2d(t: float) -> Callable:
            return lambda x1, x2, t=t: comps[0](x1, x2, t)

        def prepare(t: float = 0.0):
            f = slice_2d(t)
            if mode == "tensor":
                u = pi_tensor_2d(
                    f, mesh2, degree, scheme["theta1"], scheme["theta2"], npts=degree + 4
                )
            else:
                u = project_l2_2d(f, mesh2, degree, npts=degree + 4)
            return u.vector

        def error(state, t: float):
            u = DGFunction2D.from_vector(mesh2, degree, np.asarray(state))
            e = l2_error_2d(u, slice_2d(t), npts=degree + 5)
            return e, {"u": e}

        return Problem(op, scale, op.n, prepare, error, f"{n}x{n}", extra)

    if family in ("wave", "conserving_pair", "central"):
        names = ("w", "chi")

        def prepare(t: float = 0.0):
            fields = [
                project_l2(lambda x, c=c, t=t: c(x, t), m, degree, npts=degree + 6)
                for c, m in zip(comps, meshes)
            ]
            return stack_fields(*fields)

        def error(state, t: float):
            fields = split_fields(np.asarray(state), list(meshes), degree)
            errs = [
                l2_error(u, lambda x, c=c, t=t: c(x, t), npts=degree + 6)
                for u, c in zip(fields, comps)
            ]
            total = float(math.sqrt(sum(e * e for e in errs)))
            return total, dict(zip(names, errs))

        return Problem(op, scale, op.n, prepare, error, f"n={n}", extra)

    # Scalar problems on a single mesh (ldg and the ultra-weak form).
    mesh = meshes[0]

    def prepare(t: float = 0.0):
        if mode == "composed":
            u = composed_projection(
                solution.profile(t), mesh, degree, scheme["q"],
                theta0=scheme["theta0"], thetas=tuple(scheme["thetas"]),
                variant=init["variant"], npts=degree + 8,
            )
        else:
            u = project_l2(solution.profile(t), mesh, degree, npts=degree + 6)
        return u.vector

    def error(state, t: float):
        u = DGFunction.from_vector(mesh, degree, np.asarray(state))
        e = l2_error(u, lambda x, t=t: comps[0](x, t), npts=degree + 6)
        return e, {"u": e}

    return Problem(op, scale, op.n, prepare, error, f"n={n}", extra)


# ---------------------------------------------------------------------------
# Step size policy
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _ray_extent(alphas: tuple, angle_deg: int, cap: float = 12.0) -> float:
    """Largest t with |R(t e^{i angle})| <= 1 + 1e-12, by scan and bisection."""
    direction = complex(np.exp(1j * np.deg2rad(angle_deg)))

    def inside(t: float) -> bool:
        z = t * direction
        return abs(_horner(alphas, 1.0 + 0j, lambda v: z * v)) <= 1.0 + 1e-12

    grid = np.linspace(0.0, cap, 4801)
    last_good = 0.0
    hit_boundary = False
    for t in grid[1:]:
        if inside(float(t)):
            last_good = float(t)
        else:
            hit_boundary = True
            break
    if not hit_boundary:
        return float(cap)
    lo, hi = last_good, last_good + float(grid[1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def stability_budget(scheme: RKScheme) -> float:
    """Conservative bound on tau * |L| for semibounded operators.

    Takes the smallest usable stability-region extent over rays from
    the imaginary axis to the negative real axis. A ray the scheme does
    not cover, or covers only within the boundary tolerance (forward
    Euler on the imaginary axis grazes it out to sqrt(2e-12), say), is
    skipped; a scheme covering no ray cannot be stepped stably at any
    size and is rejected.
    """
    extents = [_ray_extent(scheme.alphas, phi) for phi in (90, 120, 135, 150, 180)]
    positive = [e for e in extents if e > 1e-2]
    if not positive:
        raise NumericalError(
            f"integrator {scheme.name} has no usable stability region"
        )
    return min(positive)


def _require_nonzero(where: str, op_norm: float) -> None:
    """Step sizes scale with 1 / |L|; a zero operator gives none."""
    if op_norm == 0.0:
        raise NumericalError(f"{where}: the operator is zero, so |L| sets no step size")


def _temporal_taus(time: Mapping) -> list[float]:
    """The halved steps tau0 / 2^i, each snapped to divide t_final. Refuses
    plans past STEP_BUDGET, and plans with two levels on one step (any tau0
    above 4/3 of t_final), which leave no rate to fit."""
    t_final = time["t_final"]
    counts = [
        max(1, round(t_final / (time["tau0"] / 2**i))) for i in range(time["halvings"] + 1)
    ]
    if counts[-1] > STEP_BUDGET:
        _fail("time.tau0", f"the plan needs {counts[-1]:.2e} steps, past the budget {STEP_BUDGET}")
    if len(set(counts)) < len(counts):
        _fail("time.tau0", (
            f"the halved steps snap to {counts} steps over t_final, so two levels "
            "share one step and leave no rate to fit; keep tau0 at most 4/3 of t_final"
        ))
    return [t_final / n for n in counts]


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


def _fit_log_errors(x: np.ndarray, errors: Sequence[float]) -> tuple[float, list]:
    """Least-squares slope of log error against x, plus the pairwise rates
    between consecutive levels (None for the first)."""
    y = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    slope = float(np.polyfit(x, y, 1)[0])
    pairwise: list = [None]
    for i in range(1, len(x)):
        pairwise.append(float((y[i] - y[i - 1]) / (x[i] - x[i - 1])))
    return slope, pairwise


def fit_loglog(scales: Sequence[float], errors: Sequence[float]) -> tuple[float, list]:
    """Least-squares slope of log error against log scale, plus the
    pairwise rates between consecutive levels (None for the first)."""
    return _fit_log_errors(np.log(np.asarray(scales, dtype=float)), errors)


def fit_semilog(scales: Sequence[float], errors: Sequence[float]) -> tuple[float, list]:
    """Slope of log error against the raw scale, for geometric decay."""
    return _fit_log_errors(np.asarray(scales, dtype=float), errors)


# ---------------------------------------------------------------------------
# Study results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelResult:
    scale: float
    n_dofs: int
    tau: float
    n_steps: int
    error: float
    components: Mapping[str, float]
    mu: float
    op_norm: float
    extra: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StudyResult:
    study: str
    name: str
    config: Mapping
    levels: tuple
    fitted_rate: float | None
    pairwise: tuple
    assertions: Mapping
    passed: bool | None
    flags: tuple
    meta: Mapping
    rows: tuple = ()


def _assert_rates(report: Mapping, fitted: float) -> tuple[Mapping, bool | None]:
    """One check per validated bound: assert_<what>_min/max -> <what>_min/max."""
    checks = {}
    for key, bound in report.items():
        ok = fitted >= bound if key.endswith("_min") else fitted <= bound
        checks[key.removeprefix("assert_")] = {"bound": bound, "value": fitted, "passed": bool(ok)}
    passed = all(c["passed"] for c in checks.values()) if checks else None
    return checks, passed


def _gate_mu(problem: Problem, mu: float, op_norm: float) -> None:
    if mu > MU_GATE * op_norm:
        raise NumericalError(
            f"operator at level {problem.label} is not semibounded "
            f"(mu = {mu:.3e}, |L| = {op_norm:.3e}); refusing to march it"
        )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


class _Level(NamedTuple):
    """problems[k] marched from state0 by tau. label names the level in
    flags and errors, scale is what its error is fitted against, and extra
    opens the level's report extra. An error less than 10x floor, the
    level's rounding floor when its plan estimates one, is flagged."""

    k: int
    state0: Any
    tau: float
    label: str
    scale: float
    extra: Mapping
    floor: float = 0.0


def _spatial_plan(config, scheme, budget, defect, problems, norms) -> tuple:
    """One level per operator, measured against the exact solution. Steps
    follow tau_j = c * h_j^e with one shared constant, fixed so the worst
    level exhausts exactly the requested fraction of the stability budget;
    an explicit time.tau overrides the policy."""
    tcfg, family = config["time"], config["scheme"]["family"]
    if "tau" in tcfg:
        taus, expo = [tcfg["tau"]] * len(problems), None
    else:
        expo = tcfg.get("tau_exponent")
        if expo is None:
            q_eff = config["scheme"].get("q", 3 if family == "ultraweak3" else 1)
            expo = max(q_eff, math.ceil((config["scheme"]["degree"] + 1) / scheme.order))
        for p, nrm in zip(problems, norms):
            _require_nonzero(f"level {p.label}", nrm)
        cap = tcfg["cfl_fraction"] * budget
        c = min(cap / (p.scale**expo * nrm) for p, nrm in zip(problems, norms))
        taus = [c * p.scale**expo for p in problems]
        for p, tau in zip(problems, taus):
            if tcfg["t_final"] / tau > STEP_BUDGET:
                raise NumericalError(
                    f"level {p.label} would need {tcfg['t_final'] / tau:.2e} steps; "
                    "shorten t_final or coarsen the study"
                )
    levels = [_Level(k, p.prepare(0.0), tau, p.label, p.scale, p.extra)
              for k, (p, tau) in enumerate(zip(problems, taus))]
    meta = {"manufactured_residual": defect, "cfl_budget": budget,
            "tau_exponent": expo, "integrator": scheme.name}
    return levels, lambda problem, state: problem.error(state, tcfg["t_final"]), meta, []


def _temporal_plan(config, scheme, budget, defect, problems, norms) -> tuple:
    """One operator stepped at each halved tau, with |R(tau L)| per step.
    The fully discrete error splits into a spatial and a temporal part. A
    level's error is the temporal part |R(tau L)^N u_h(0) - exp(tL) u_h(0)|,
    what is fitted; the spatial part |u(t) - exp(tL) u_h(0)| does not
    depend on tau and is reported once, as meta.spatial_error.

    A level's rounding floor is the larger of the reference's own error,
    about reference_gap * |exp(tL) u_h(0)|, and Horner's per-step rounding
    over its N steps, about sqrt(N) eps |u_h(0)|. reference_gap bounds the
    errors of the reference and its check together: at 1,600 dofs (LDG
    k=3, n=400, t=1) it is 2.0e-12, all of it the per-mode check's, while
    expm_multiply is 1.9e-14 from dense. There the floor sits about 100x
    above the reference's own error, and its flag can be a false alarm."""
    (problem,), (nrm,) = problems, norms
    t_final = config["time"]["t_final"]
    state0 = problem.prepare(0.0)
    reference, reference_gap = expm_reference(problem.op, t_final, state0)
    reference_floor = reference_gap * float(np.linalg.norm(reference))
    step_floor = np.finfo(float).eps * float(np.linalg.norm(state0))

    def measure(problem: Problem, state) -> tuple:
        err = float(np.linalg.norm(np.asarray(state) - reference))
        return err, {"semidiscrete_gap": err}

    levels = [_Level(0, state0, tau, f"tau={tau:.3e}", tau,
                     {"amplification": float(amplification_norm(problem.op, scheme, tau))},
                     max(reference_floor, math.sqrt(round(t_final / tau)) * step_floor))
              for tau in _temporal_taus(config["time"])]
    flags = [f"amplification {lv.extra['amplification']:.6f} at tau {lv.tau:.3e}"
             for lv in levels if lv.extra["amplification"] > 1 + 1e-3]
    meta = {"spatial_error": float(problem.error(reference, t_final)[0]),
            "operator_norm": float(nrm), "integrator": scheme.name,
            "manufactured_residual": defect, "reference_gap": reference_gap}
    return levels, measure, meta, flags


def _scan_stability(config: Mapping, scheme: RKScheme) -> tuple:
    """(rows, assertions, passed, meta) of a stability scan: |R(tau L)| at
    tau = lambda / |L| for each scan.lambdas entry."""
    scan = config["scan"]
    op, _, _, _ = build_operator(
        config["scheme"], config["grid"], config["grid"]["n"], config["seed"]
    )
    nrm = operator_norm(op)
    _require_nonzero("stability scan", nrm)

    def probe(lam: float) -> Mapping:
        tau = lam / nrm
        rho = amplification_norm(op, scheme, tau)
        return {
            "lambda": float(lam),
            "tau": float(tau),
            "amplification": float(rho),
            "stable": bool(rho <= 1.0 + scan["tolerance"]),
        }

    rows = [probe(lam) for lam in scan["lambdas"]]
    stable = [row["lambda"] for row in rows if row["stable"]]
    expect = scan.get("expect")
    assertions, passed = {}, None
    if expect is not None:
        passed = bool(stable) == (expect == "nonempty")
        assertions[f"expect_{expect}"] = {
            "bound": int(expect == "nonempty"), "value": len(stable), "passed": passed,
        }
    meta = {
        "operator_norm": float(nrm),
        "integrator": scheme.name,
        "stable_count": len(stable),
        "max_stable_lambda": max(stable) if stable else None,
        "spectrum": spectrum_method(op),
    }
    return rows, assertions, passed, meta


def run_study(config: Mapping, *, jobs: int = 1, strict_cfl: bool = False) -> StudyResult:
    """Validate a study configuration once and run it.

    Spatial and temporal studies go through one sequence: build the
    operators, measure |L| and mu and gate on mu, plan the levels, check
    their steps against the stability budget, march them, measure each
    error, fit and assert. What differs between the two kinds is their
    plan (levels, measure, meta, flags): measure(problem, state) gives a
    marched level's (error, components), and flags follow the budget's.
    A step past the budget is a flag and a StabilityWarning naming the
    caller, or a NumericalError under strict_cfl. jobs is accepted and
    ignored: every run is serial.
    """
    config = validate_config(config)
    scheme = resolve_scheme(config["time"]["integrator"])
    levels, fitted, pairwise, flags, rows = [], None, [], [], []
    if config["study"] == "stability":
        rows, assertions, passed, meta = _scan_stability(config, scheme)
    else:
        solution = solution_catalog()[config["solution"]]
        defect = manufactured_residual(solution, seed=config["seed"])
        if defect > _RESIDUAL_GATE:
            raise NumericalError(
                f"manufactured solution {solution.name} fails its own consistency "
                f"check: |u_t - L u| reaches {defect:.3e} at random samples"
            )
        temporal = config["study"] == "temporal"
        sizes = [config["grid"]["n"]] if temporal else config["grid"]["levels"]
        problems = [build_problem(config, solution, n, salt=i) for i, n in enumerate(sizes)]
        norms = [operator_norm(p.op) for p in problems]
        mus = [semiboundedness_mu(p.op) for p in problems]
        for problem, mu, nrm in zip(problems, mus, norms):
            _gate_mu(problem, mu, nrm)
        budget = stability_budget(scheme)
        planned, measure, meta, plan_flags = (_temporal_plan if temporal else _spatial_plan)(
            config, scheme, budget, defect, problems, norms
        )
        flags = check_cfl([(lv.label, lv.tau, norms[lv.k]) for lv in planned], budget, strict_cfl)
        flags += plan_flags
        marched = evolve_levels(
            [problems[lv.k].op for lv in planned], [lv.state0 for lv in planned],
            [lv.tau for lv in planned], config["time"]["t_final"], scheme,
        )
        for lv, march in zip(planned, marched):
            problem = problems[lv.k]
            error, parts = measure(problem, march.state)
            levels.append(LevelResult(
                scale=lv.scale, n_dofs=problem.n_dofs, tau=lv.tau,
                n_steps=march.n_steps, error=float(error),
                components={k: float(v) for k, v in parts.items()},
                mu=float(mus[lv.k]), op_norm=float(norms[lv.k]),
                extra={**lv.extra, "spectrum": spectrum_method(problem.op)},
            ))
        # A march can stay finite while its error overflows: a numerical
        # failure, not a point to fit.
        for lv, result in zip(planned, levels):
            if not math.isfinite(result.error):
                raise NumericalError(f"level {lv.label} has a non-finite error ({result.error})")
        flags += [f"level {lv.label}: error {result.error:.3e} is within 10x of its "
                  f"rounding floor {lv.floor:.3e}"
                  for lv, result in zip(planned, levels) if result.error < 10 * lv.floor]
        fit = fit_semilog if config["scheme"]["family"] == "spectral" else fit_loglog
        fitted, pairwise = fit([lv.scale for lv in levels], [lv.error for lv in levels])
        assertions, passed = _assert_rates(config["report"], fitted)
    return StudyResult(
        study=config["study"], name=config["name"], config=config,
        levels=tuple(levels), fitted_rate=fitted, pairwise=tuple(pairwise),
        assertions=assertions, passed=passed, flags=tuple(flags), meta=meta,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

# Every config section is one table {key: (check, default)} read by
# _section. A check maps (value, path) to the checked value or raises
# ConfigError. The default is a value (checked like a given one), a
# function of the values walked so far, _REQUIRED, or _OPTIONAL: the key
# stays absent, as it does when a check returns _OPTIONAL (how the
# optional blocks accept an explicit null). The rules that span keys or
# sections follow the walk in validate_config.

_REQUIRED = object()
_OPTIONAL = object()

# Parameters a manufactured solution pins outright. Everything else in
# solution.params is a soft default the config may override.
_PINNED = ("q", "beta", "coupling")

def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _section(path: str, raw, fields: Mapping) -> dict:
    """Check raw against a table; return the checked values, defaults
    filled, in table order. path is empty for the top level."""
    where = path or "config"
    if not isinstance(raw, Mapping):
        _fail(where, "expected an object")
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        _fail(where, f"unknown key(s) {unknown}; allowed keys are {sorted(fields)}")
    out: dict = {}
    for key, (check, default) in fields.items():
        sub = f"{path}.{key}" if path else key
        if key in raw:
            value = raw[key]
        elif default is _REQUIRED:
            _fail(sub, "missing required key")
        elif default is _OPTIONAL:
            continue
        else:
            value = default(out) if callable(default) else default
        value = check(value, sub)
        if value is not _OPTIONAL:
            out[key] = value
    return out


def _text(options: Sequence[str] | Mapping | None = None) -> Callable:
    def check(value, path: str) -> str:
        if not isinstance(value, str) or not value:
            _fail(path, "expected a nonempty string")
        if options is not None and value not in options:
            _fail(path, f"expected one of {sorted(options)}, got {value!r}")
        return value

    return check


def _integer(lo: int, hi: int | None = None) -> Callable:
    def check(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(path, "expected an integer")
        if value < lo:
            _fail(path, f"must be at least {lo}")
        if hi is not None and value > hi:
            _fail(path, f"must be at most {hi}")
        return int(value)

    return check


def _number(lo: float | None = None, hi: float | None = None, lo_open: bool = False) -> Callable:
    def check(value, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, "expected a number")
        try:
            v = float(value)
        except OverflowError:
            v = math.inf
        if not math.isfinite(v):
            _fail(path, "must be finite")
        if lo is not None and (v <= lo if lo_open else v < lo):
            _fail(path, f"must be {'greater than' if lo_open else 'at least'} {lo}")
        if hi is not None and v > hi:
            _fail(path, f"must be at most {hi}")
        return v

    return check


def _list(item: Callable, lo: int = 0, hi: int | None = None) -> Callable:
    def check(value, path: str) -> list:
        if not isinstance(value, (list, tuple)):
            _fail(path, "expected a list")
        if len(value) < lo:
            _fail(path, f"expected at least {lo} entries")
        if hi is not None and len(value) > hi:
            _fail(path, f"at most {hi} entries")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return check


def _nullable(check: Callable) -> Callable:
    return lambda value, path: _OPTIONAL if value is None else check(value, path)


def _dropped(check: Callable) -> Callable:
    """A retired key: checked as before, then left out of the result."""
    def drop(value, path: str):
        check(value, path)
        return _OPTIONAL

    return drop


def _integrator(value, path: str):
    if isinstance(value, (list, tuple)):
        value = _list(_number())(value, path)
    elif not isinstance(value, str):
        _fail(path, "expected an integrator name or a list of Taylor coefficients")
    try:
        resolve_scheme(value)
    except (KeyError, ValueError, TypeError) as exc:
        _fail(path, str(exc))
    return value


def _deferred(value, path: str):
    """A section checked by its own table once the study and family are known."""
    return value


_family = _text(
    ("ldg", "ultraweak3", "wave", "conserving_pair", "central", "advection2d", "spectral")
)
_FAMILY = (_family, _REQUIRED)
_DEGREE = (_integer(0, 8), _REQUIRED)
_FLUX_PERTURBATION = {
    "amplitude": (_number(0.0, lo_open=True), _REQUIRED),
    "exponent": (_number(0.0, lo_open=True), _REQUIRED),
}
_SCHEME = {
    "ldg": {
        "family": _FAMILY, "degree": _DEGREE,
        "q": (_integer(1, 4), _REQUIRED),
        "beta": (_number(), _REQUIRED),
        "theta0": (_number(), 1.0),
        "thetas": (_list(_number()), []),  # empty: copies of theta0
    },
    # Degree 0 assembles the zero operator: every term differentiates the test
    # or trial function at least once.
    "ultraweak3": {"family": _FAMILY, "degree": (_integer(1, 8), _REQUIRED)},
    "wave": {
        "family": _FAMILY, "degree": _DEGREE,
        "alpha": (_number(-2.0, 2.0), 0.5),
        "beta1": (_number(hi=0.0), 0.0),
        "beta2": (_number(hi=0.0), 0.0),
        "flux_perturbation": (
            _nullable(lambda value, path: _section(path, value, _FLUX_PERTURBATION)),
            _OPTIONAL,
        ),
    },
    "conserving_pair": {"family": _FAMILY, "degree": _DEGREE},
    "central": {
        "family": _FAMILY, "degree": _DEGREE,
        "tau_max_factor": (_number(0.0, 10.0, lo_open=True), 0.35),
    },
    "advection2d": {
        "family": _FAMILY, "degree": _DEGREE,
        "theta1": (_number(0.5, 1.5), 1.0),
        "theta2": (_number(0.5, 1.5), 1.0),
    },
    "spectral": {"family": _FAMILY, "coupling": (_text(_COUPLINGS), "exchange")},
}

_MESH = {
    "mesh": (_text(("uniform", "perturbed")), "uniform"),
    "perturbation": (_number(0.0, 0.45, lo_open=True), 0.2),  # perturbed meshes only
}
_SINGLE_GRID = {"n": (_integer(2, 2048), _REQUIRED), **_MESH}
_GRID = {
    "spatial": {"levels": (_list(_integer(2, 1024), lo=2), _REQUIRED), **_MESH},
    "temporal": _SINGLE_GRID,
    "stability": _SINGLE_GRID,
}
# Tighter per-level caps for the families whose levels cost more.
_LEVEL_CAP = {"advection2d": 64, "spectral": 96}

_T_FINAL = (_number(0.0, 100.0, lo_open=True), 1.0)
_TIME = {
    "spatial": {
        "integrator": (_integrator, "ssp3"),
        "t_final": _T_FINAL,
        "cfl_fraction": (_number(0.0, 1.0, lo_open=True), 0.9),
        "tau": (_number(0.0, 10.0, lo_open=True), _OPTIONAL),
        "tau_exponent": (_integer(1, 8), _OPTIONAL),
    },
    "temporal": {
        "integrator": (_integrator, _REQUIRED),
        "t_final": _T_FINAL,
        "tau0": (_number(0.0, 10.0, lo_open=True), _REQUIRED),
        "halvings": (_integer(1, 12), 5),
        # Accepted for configs written when temporal studies had two
        # modes; every temporal study now fits one error, so it is dropped.
        "mode": (_dropped(_text(("pde", "semidiscrete"))), _OPTIONAL),
    },
    "stability": {"integrator": (_integrator, _REQUIRED)},
}

_INIT = {
    "mode": (_text(("l2", "composed", "tensor")), "l2"),
    "variant": (_text(("direct", "reduced")), "direct"),  # composed mode only
}
_REPORT = {
    key: (_number(-64.0, 64.0), _OPTIONAL)
    for key in ("assert_rate_min", "assert_rate_max", "assert_slope_max")
}
_SCAN = {
    "lambdas": (
        _list(_number(0.0, 64.0, lo_open=True), lo=1, hi=200),
        [round(0.2 * i, 10) for i in range(1, 16)],
    ),
    "tolerance": (_number(0.0, 1e-6, lo_open=True), 1e-10),
    "expect": (_nullable(_text(("empty", "nonempty"))), _OPTIONAL),
}

_TOP = {
    "schema": (_text((SCHEMA_VERSION,)), _REQUIRED),
    "study": (_text(("spatial", "temporal", "stability")), _REQUIRED),
    "name": (_text(), lambda out: out["study"]),
    "seed": (_integer(0), DEFAULT_SEED),
    "description": (_text(), _OPTIONAL),
    "solution": (_text(solution_catalog()), _OPTIONAL),
    "scheme": (_deferred, _REQUIRED),
    "grid": (_deferred, _REQUIRED),
    "time": (_deferred, {}),
    "init": (_deferred, _OPTIONAL),
    "report": (_deferred, _OPTIONAL),
    "scan": (_deferred, _OPTIONAL),
}


def _validate_scheme(raw, solution: ManufacturedSolution | None) -> dict:
    """The family's table over the solution's soft defaults, then the
    rules no table states: pinned parameters and LDG admissibility."""
    if not isinstance(raw, Mapping):
        _fail("scheme", "expected an object")
    if "family" not in raw:
        _fail("scheme", "missing required key 'family'")
    family = _family(raw["family"], "scheme.family")
    params: Mapping = {}
    if solution is not None:
        if solution.family != family:
            _fail("scheme.family", (
                f"solution {solution.name!r} belongs to family "
                f"{solution.family!r}, not {family!r}"
            ))
        params = solution.params
    fields = _SCHEME[family]
    for key in _PINNED:
        if key in raw and key in params:
            given, pinned = fields[key][0](raw[key], f"scheme.{key}"), params[key]
            same = given == pinned if isinstance(pinned, str) else abs(given - pinned) <= 1e-12
            if not same:
                _fail(f"scheme.{key}", (
                    f"solution {solution.name!r} pins this to {pinned!r}; "
                    "drop the key or pick another solution"
                ))
    out = _section("scheme", {**params, **raw}, fields)
    if family == "ldg":
        out["thetas"] = out["thetas"] or [out["theta0"]] * (out["q"] // 2)
        try:
            check_high_order_admissible(out["q"], out["beta"], out["theta0"])
            high_order_flux_sequence(out["q"], out["theta0"], tuple(out["thetas"]))
        except ValueError as exc:
            _fail("scheme", str(exc))
    return out


def validate_config(doc: Mapping) -> dict:
    """Check a raw study description and return it with defaults filled.

    Unknown keys anywhere in the document are errors, as are values the
    assemblers would reject later. The result is JSON-serializable and
    revalidates to itself.
    """
    out = _section("", doc, _TOP)
    study = out["study"]
    solution = solution_catalog().get(out.get("solution"))
    if solution is None and study != "stability":
        _fail("solution", "missing required key (stability scans may omit it)")

    scheme = out["scheme"] = _validate_scheme(out["scheme"], solution)
    family = scheme["family"]

    raw_grid = out["grid"]
    grid = out["grid"] = _section("grid", raw_grid, _GRID[study])
    levels, cap = grid.get("levels", []), _LEVEL_CAP.get(family)
    for i, n in enumerate(levels):
        if cap is not None and n > cap:
            _fail(f"grid.levels[{i}]", f"must be at most {cap} for {family}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        _fail("grid.levels", "entries must increase strictly")
    if grid["mesh"] == "perturbed":
        if family in ("advection2d", "spectral"):
            _fail("grid.mesh", f"the {family} family runs on uniform grids only")
    else:
        if "perturbation" in raw_grid:
            _fail("grid.perturbation", "only meaningful when grid.mesh is 'perturbed'")
        del grid["perturbation"]

    # One cap for the dense-only measurements off uniform meshes, where the
    # operator has no symbols: |R(tau L)|, whose singular values cluster at
    # 1, out of a Krylov method's reach, and the dense exp(tL) that checks
    # a temporal study's reference.
    if study == "temporal" and family == "spectral":
        _fail("scheme.family", "temporal studies need a matrix operator; spectral is spatial-only")
    if study != "spatial" and grid["mesh"] == "perturbed":
        n, k1 = grid["n"], scheme["degree"] + 1
        n_fields = 2 if family in ("wave", "conserving_pair", "central") else 1
        dofs = n_fields * n * k1
        if dofs > DENSE_LIMIT:
            what = "temporal studies" if study == "temporal" else "stability scans"
            _fail("grid.n", (
                f"{what} on perturbed meshes measure |R(tau L)| densely; "
                f"{dofs} unknowns exceed the {DENSE_LIMIT} limit"
            ))

    time = out["time"] = _section("time", out["time"], _TIME[study])
    if study == "spatial" and family == "spectral" and "tau" not in time:
        _fail("time.tau", "spectral studies step with a fixed tau; set one")
    if study == "spatial" and "tau" in time and time["t_final"] / time["tau"] > STEP_BUDGET:
        _fail("time.tau", (
            f"the march needs {time['t_final'] / time['tau']:.2e} steps, "
            f"past the budget {STEP_BUDGET}; shorten t_final or lengthen tau"
        ))
    if study == "temporal":
        _temporal_taus(time)

    if study == "stability":
        for key in ("init", "report"):
            if key in out:
                _fail(key, "stability scans assert through scan.expect, not this section")
        out["scan"] = _section("scan", out.get("scan", {}), _SCAN)
        return out
    if "scan" in out:
        _fail("scan", "only stability scans take a scan section")

    raw_init = out.pop("init", {})
    init = out["init"] = _section("init", raw_init, _INIT)
    if init["mode"] == "composed":
        if family != "ldg":
            _fail("init.mode", "the composed projection applies to the ldg family only")
        seq = high_order_flux_sequence(scheme["q"], scheme["theta0"], tuple(scheme["thetas"]))
        if any(abs(t - 0.5) < 1e-3 for t in seq):
            _fail("init.mode", (
                "composed initial data needs every flux parameter away from "
                "1/2; adjust theta0/thetas or use mode 'l2'"
            ))
        if init["variant"] == "reduced" and scheme["degree"] < 1:
            _fail("init.variant", "the reduced construction needs degree >= 1")
    else:
        if "variant" in raw_init:
            _fail("init.variant", "only meaningful when init.mode is 'composed'")
        del init["variant"]
        if init["mode"] == "tensor" and family != "advection2d":
            _fail("init.mode", "tensor initial data applies to the advection2d family only")

    out["report"] = _section("report", out.pop("report", {}), _REPORT)
    spectral = family == "spectral"
    for key in out["report"]:
        if (key == "assert_slope_max") != spectral:
            _fail(f"report.{key}", (
                "spectral studies assert through assert_slope_max" if spectral
                else "only spectral studies fit a semilog slope"
            ))

    return out


def load_config(path: str) -> dict:
    """Read a JSON study description from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("rkdg-lab")
    except Exception:
        return "unknown"


def study_to_dict(result: StudyResult) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "package_version": _package_version(),
        "name": result.name,
        "study": result.study,
        "config": result.config,
        "fitted_rate": result.fitted_rate,
        "rate_pairwise": list(result.pairwise),
        "levels": [
            {
                "scale": lv.scale,
                "n_dofs": lv.n_dofs,
                "tau": lv.tau,
                "n_steps": lv.n_steps,
                "error": lv.error,
                "components": dict(lv.components),
                "mu": lv.mu,
                "op_norm": lv.op_norm,
                "extra": dict(lv.extra),
            }
            for lv in result.levels
        ],
        "assertions": dict(result.assertions),
        "passed": result.passed,
        "flags": list(result.flags),
        "meta": dict(result.meta),
    }
    if result.study == "stability":
        doc["scan"] = [dict(row) for row in result.rows]
    return doc


def write_report(result: StudyResult, out_dir: str, stem: str, fmt: str = "both") -> list[str]:
    """Serialize a study result as CSV and/or JSON; returns paths written.

    A result holding a non-finite number is a numerical failure: it is
    refused before any file is written, since JSON has no NaN.
    """
    try:
        text = json.dumps(study_to_dict(result), indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"study {result.name!r} produced a non-finite value: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, stem + ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            if result.study == "stability":
                fh.write(SCAN_CSV_HEADER + "\n")
                for row in result.rows:
                    fh.write(
                        f"{row['lambda']:.12g},{row['tau']:.12e},"
                        f"{row['amplification']:.12e},{str(row['stable']).lower()}\n"
                    )
            else:
                fh.write(CSV_HEADER + "\n")
                for lv, rate in zip(result.levels, result.pairwise):
                    cell = "" if rate is None else f"{rate:.6f}"
                    fh.write(f"{lv.scale:.12g},{lv.error:.12e},{cell}\n")
        paths.append(path)
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Check batteries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    bound: float
    passed: bool
    detail: str = ""


def _check(name: str, value: float, bound: float, detail: str = "") -> CheckResult:
    return CheckResult(name, float(value), float(bound), bool(value <= bound), detail)


def format_checks(results: Sequence[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        tag = "ok  " if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(
            f"{tag} {r.name:<{width}}  value {r.value:.3e}  bound {r.bound:.1e}{suffix}"
        )
    return "\n".join(lines)


def _derivative_jumps(u: DGFunction) -> np.ndarray:
    """Jumps of u' across interfaces, plus side minus the minus side."""
    left, right = _trace_vectors(u.mesh, u.degree, order=1)
    return np.roll((u.coeffs * left).sum(axis=1), -1) - (u.coeffs * right).sum(axis=1)


def _random_dg(mesh: Mesh1D, degree: int, rng) -> DGFunction:
    vec = rng.standard_normal(mesh.n_cells * (degree + 1))
    vec /= np.linalg.norm(vec)
    return DGFunction.from_vector(mesh, degree, vec)


def check_operators(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Structural identities of the assembled operators, plus the growth
    envelope facts the time integrators rely on."""
    rng = np.random.default_rng(seed)
    out = []

    cases = [
        (Mesh1D.uniform(16), 2, 0.3),
        (Mesh1D.perturbed(24, rel=0.25, seed=seed + 3), 1, 0.0),
        (Mesh1D.uniform(12), 3, 1.0),
    ]

    worst = 0.0
    for mesh, k, th in cases:
        a = assemble_d_theta(mesh, k, th)
        b = assemble_d_theta(mesh, k, 1.0 - th)
        worst = max(worst, float(np.max(np.abs((a.mat + b.mat.T).toarray()))))
    out.append(_check("derivative_transpose_flip", worst, 1e-12))

    worst = 0.0
    for mesh, k, th in cases:
        a = assemble_d_theta(mesh, k, th)
        u = _random_dg(mesh, k, rng)
        expected = (th - 0.5) * jump_energy(u)
        worst = max(worst, abs(quadratic_form(a, u.vector) - expected))
    out.append(_check("derivative_quadratic_form", worst, 1e-11))

    mesh16 = Mesh1D.uniform(16)
    meshp = Mesh1D.perturbed(14, rel=0.2, seed=seed + 9)
    composite_ops = {
        "advection": assemble_high_order_lh(mesh16, 2, 1, -1.0, theta0=1.0),
        "heat": assemble_high_order_lh(meshp, 2, 2, 1.0, theta0=1.0, thetas=(1.0,)),
        "dispersive": assemble_high_order_lh(mesh16, 1, 3, -1.0, theta0=1.0, thetas=(1.0,)),
        "ultraweak": assemble_ultraweak_third(meshp, 3),
        "wave": assemble_wave_alphabeta(mesh16, 1, 0.3, -0.4, -0.15),
        "pair": assemble_energy_conserving_pair(meshp, 1),
        "central": assemble_central_advection(mesh16, 1, 0.35 * mesh16.h_min)[0],
        "advection2d": assemble_advection_2d(Mesh2D.uniform(8, 8), 1, 1.0, 0.75),
    }
    worst_name, worst = "", 0.0
    for name, op in composite_ops.items():
        mu = semiboundedness_mu(op)
        if mu > worst:
            worst_name, worst = name, mu
    out.append(_check("semibounded_catalog", worst, 1e-10, detail=worst_name or "all"))

    op = assemble_ultraweak_third(meshp, 3)
    u = _random_dg(meshp, 3, rng)
    expected = -0.5 * float(np.sum(_derivative_jumps(u) ** 2))
    value = abs(quadratic_form(op, u.vector) - expected) / max(1.0, abs(expected))
    out.append(_check("ultraweak_energy_identity", value, 1e-10))

    alpha, b1, b2 = 0.3, -0.4, -0.15
    op = assemble_wave_alphabeta(mesh16, 2, alpha, b1, b2)
    vec = rng.standard_normal(op.n)
    vec /= np.linalg.norm(vec)
    w, chi = split_fields(vec, [mesh16, mesh16], 2)
    expected = b2 * jump_energy(w) + b1 * jump_energy(chi)
    out.append(_check(
        "wave_energy_identity", abs(quadratic_form(op, vec) - expected), 1e-10
    ))

    op = assemble_energy_conserving_pair(mesh16, 2)
    value = float(np.max(np.abs((op.mat + op.mat.T).toarray())))
    out.append(_check("conserving_pair_skew", value, 1e-12))

    op = assemble_central_advection(mesh16, 1, 1e30)[0]
    value = float(np.max(np.abs((op.mat + op.mat.T).toarray())))
    out.append(_check("central_transport_skew", value, 1e-12))

    # Forward Euler on a skew operator grows by exactly sqrt(1 + (tau s)^2).
    skew = assemble_high_order_lh(Mesh1D.uniform(24), 1, 1, -1.0, theta0=0.5)
    sigma = operator_norm(skew)
    tau = 0.8 / sigma
    predicted = math.sqrt(1.0 + (tau * sigma) ** 2)
    measured = amplification_norm(skew, resolve_scheme("euler"), tau)
    out.append(_check(
        "euler_skew_growth", abs(measured - predicted) / predicted, 1e-10
    ))

    value = abs(resolve_scheme("two_step_rk4").order - 4)
    out.append(_check("two_step_rk4_order", value, 0.5))

    worst = 0.0
    for a in (-3.0, -1.0, -1e-4, 1e-4, 0.5, 2.0):
        for t in (0.05, 0.7, 1.3, 3.0):
            ref = _sigma_series(a, t)
            worst = max(worst, abs(sigma_factor(a, t) - ref) / max(1.0, abs(ref)))
    out.append(_check("sigma_factor_series", worst, 1e-12))

    worst = 0.0
    for a in (-1e-12, 0.0, 1e-12):
        for t in (0.3, 1.7):
            expansion = t * (1.0 + 0.5 * a * t + a * a * t * t / 6.0)
            worst = max(worst, abs(sigma_factor(a, t) - expansion))
    out.append(_check("sigma_factor_limit", worst, 1e-9))

    heat = assemble_high_order_lh(mesh16, 1, 2, 1.0, theta0=1.0, thetas=(1.0,))
    mu = semiboundedness_mu(heat)
    nrm = operator_norm(heat)
    rk = resolve_scheme("ssp3")
    tau = 0.9 * stability_budget(rk) / nrm
    u0 = project_l2(lambda x: np.sin(x) + 0.4 * np.cos(2 * x), mesh16, 1).vector
    marched = evolve(heat, u0, tau, 1.0, rk, record_norms=True)
    worst = 0.0
    for i, nv in enumerate(marched.norms):
        t_i = min(i * tau, 1.0)
        envelope = marched.norms[0] * math.exp(max(mu, 0.0) * t_i)
        worst = max(worst, nv / envelope - 1.0)
    out.append(_check("decay_envelope", max(worst, 0.0), 1e-10))

    return out


def _sigma_series(a: float, t: float) -> float:
    """Power series sum_{n>=1} a^{n-1} t^n / n! in extended precision."""
    acc = np.longdouble(0.0)
    term = np.longdouble(t)
    for n in range(1, 45):
        acc += term
        term = term * np.longdouble(a) * np.longdouble(t) / np.longdouble(n + 1)
    return float(acc)


def check_projections(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Identities of the projection toolkit: flux interpolation, the
    inverse of the discrete derivative, and the composed construction."""
    rng = np.random.default_rng(seed)
    out = []
    w = _sine_profile(1.0, offset=0.7)(0.37)

    cases = [
        (Mesh1D.uniform(16), 1, 0.0),
        (Mesh1D.uniform(16), 2, 1.0),
        (Mesh1D.perturbed(20, rel=0.25, seed=seed + 1), 2, 0.3),
        (Mesh1D.perturbed(12, rel=0.2, seed=seed + 2), 1, 1.0),
    ]

    worst = 0.0
    for mesh, k, th in cases:
        u = pi_theta(w, mesh, k, th, npts=k + 12)
        rhs = project_l2(w.deriv(1), mesh, k, npts=k + 12)
        dop = assemble_d_theta(mesh, k, th)
        defect = np.linalg.norm(dop.apply(u.vector) - rhs.vector)
        worst = max(worst, float(defect / np.linalg.norm(rhs.vector)))
    out.append(_check("flux_projection_commutes", worst, 1e-10))

    worst = 0.0
    for mesh, k, th in cases:
        u = pi_theta(w, mesh, k, th, npts=k + 12)
        minus, plus = u.interface_values()
        target = w(mesh.interfaces)
        worst = max(worst, float(np.max(np.abs(th * minus + (1 - th) * plus - target))))
    out.append(_check("flux_projection_traces", worst, 1e-11))

    combos = [
        (Mesh1D.uniform(16), 1, 1, -1.0, 1.0),
        (Mesh1D.perturbed(14, rel=0.2, seed=seed + 4), 2, 2, 1.0, 1.0),
        (Mesh1D.uniform(12), 1, 3, -1.0, 1.0),
        (Mesh1D.perturbed(10, rel=0.15, seed=seed + 5), 2, 1, 1.0, 0.25),
    ]
    worst_direct, worst_reduced, worst_mean = 0.0, 0.0, 0.0
    for mesh, k, q, beta, th0 in combos:
        ths = (th0,) * (q // 2)
        op = assemble_high_order_lh(mesh, k, q, beta, theta0=th0, thetas=ths)
        action = lambda x, beta=beta, q=q: beta * w.deriv(q)(x)
        proj = composed_projection(w, mesh, k, q, theta0=th0, thetas=ths, npts=k + 8)
        worst_direct = max(worst_direct, commuting_defect(op, proj, action, npts=k + 8))
        worst_mean = max(worst_mean, abs(proj.mean() - mean_value(w, mesh, npts=k + 8)))
        reduced = composed_projection(
            w, mesh, k, q, theta0=th0, thetas=ths, variant="reduced", npts=k + 8
        )
        worst_reduced = max(worst_reduced, commuting_defect(op, reduced, action, npts=k + 8))
    out.append(_check("composed_projection_commutes", worst_direct, 1e-9))
    out.append(_check("composed_projection_reduced", worst_reduced, 1e-9))
    out.append(_check("composed_projection_mean", worst_mean, 1e-12))

    worst_fwd, worst_bwd, worst_mean = 0.0, 0.0, 0.0
    for mesh, k, th in cases:
        dop = assemble_d_theta(mesh, k, th)
        z = make_mean_zero(_random_dg(mesh, k, rng))
        x = d_theta_inverse_apply(th, z)
        residual = np.linalg.norm(dop.apply(x.vector) - z.vector) / np.linalg.norm(z.vector)
        worst_fwd = max(worst_fwd, float(residual))
        worst_mean = max(worst_mean, abs(x.function.integral()) / x.norm())
        u0 = make_mean_zero(_random_dg(mesh, k, rng))
        image = make_mean_zero(DGFunction.from_vector(mesh, k, dop.apply(u0.vector)))
        back = d_theta_inverse_apply(th, image)
        worst_bwd = max(
            worst_bwd,
            float(np.linalg.norm(back.vector - u0.vector) / np.linalg.norm(u0.vector)),
        )
    out.append(_check("derivative_inverse_left", worst_fwd, 1e-10))
    out.append(_check("derivative_inverse_right", worst_bwd, 1e-10))
    out.append(_check("derivative_inverse_mean", worst_mean, 1e-11))

    kappas = [d_theta_inverse_norm(Mesh1D.uniform(n), 1, 0.75) for n in (16, 32, 64, 128)]
    ratio = max(kappas) / min(kappas)
    out.append(_check(
        "derivative_inverse_bounded", ratio, 2.0,
        detail=f"kappa range {min(kappas):.3f}..{max(kappas):.3f}",
    ))

    worst = 0.0
    target = lambda x1, x2: np.sin(x1 + 2.0 * x2) + 0.4 * np.cos(x2)
    mesh2 = Mesh2D.uniform(6, 5)
    for k in (1, 2):
        u = pi_tensor_2d(target, mesh2, k, 1.0, 0.75, npts=k + 3)
        res = tensor_projection_residuals(u, target, 1.0, 0.75, npts=k + 3)
        worst = max(worst, max(res.values()))
    out.append(_check("tensor_projection_residuals", worst, 1e-10))

    return out
