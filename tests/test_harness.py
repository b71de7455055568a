"""The study harness: manufactured solutions, configuration validation,
per-level assembly, the study runner, reports, and the check batteries."""

import dataclasses
import json
import math
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from rkdg_lab import (
    ConfigError,
    DEFAULT_SEED,
    NumericalError,
    StabilityWarning,
    build_operator,
    build_problem,
    check_operators,
    check_projections,
    evolve,
    fit_loglog,
    fit_semilog,
    format_checks,
    load_config,
    manufactured_residual,
    resolve_scheme,
    run_study,
    solution_catalog,
    stability_budget,
    study_to_dict,
    validate_config,
    write_report,
)
from rkdg_lab import harness

CATALOG_NAMES = [
    "advection_sin",
    "heat_sin",
    "dispersive_sin",
    "ultraweak_sin",
    "wave_sin",
    "conserving_pair_sin",
    "central_sin",
    "advection2d_sin",
    "spectral_exchange",
]


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------


def test_catalog_contents():
    catalog = solution_catalog()
    assert sorted(catalog) == sorted(CATALOG_NAMES)
    for name, sol in catalog.items():
        assert sol.name == name
        assert len(sol.components) == len(sol.time_derivatives) == len(sol.operator_actions)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_solutions_satisfy_their_equations(name):
    """u_t and L u are written as independent closures; they must agree
    pointwise, or every rate the studies measure is meaningless."""
    assert manufactured_residual(solution_catalog()[name]) < 1e-12


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------


def test_fit_loglog_recovers_planted_slope():
    scales = np.array([0.4, 0.2, 0.1, 0.05])
    errors = 3.0 * scales ** 2.5
    slope, pairwise = fit_loglog(scales, errors)
    assert slope == pytest.approx(2.5, abs=1e-12)
    assert pairwise[0] is None
    np.testing.assert_allclose(pairwise[1:], 2.5, atol=1e-12)


def test_fit_semilog_recovers_planted_decay():
    scales = np.array([4.0, 8.0, 12.0, 16.0])
    errors = 10.0 * np.exp(-1.3 * scales)
    slope, pairwise = fit_semilog(scales, errors)
    assert slope == pytest.approx(-1.3, abs=1e-12)
    np.testing.assert_allclose(pairwise[1:], -1.3, atol=1e-12)


def test_fit_survives_an_exact_zero_error():
    slope, _ = fit_loglog([0.2, 0.1], [1e-3, 0.0])
    assert np.isfinite(slope)


# ---------------------------------------------------------------------------
# Stability budgets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected,tol",
    [
        ("euler", 1.0, 1e-6),
        ("heun", 2.0, 1e-6),
        ("taylor2", 2.0, 1e-6),
        ("ssp3", math.sqrt(3.0), 1e-6),
        ("taylor3", math.sqrt(3.0), 1e-6),
        ("rk4", 2.6225, 5e-3),
        ("taylor4", 2.6225, 5e-3),
    ],
)
def test_stability_budget_closed_forms(name, expected, tol):
    """euler: the 120-degree ray leaves the disk at radius 1. taylor2:
    tangent from outside on the imaginary axis, bound by the real axis at
    2. taylor3: |R(i t)|^2 = 1 - t^4/12 + t^6/36 crosses 1 at sqrt(3).
    taylor4: the 135-degree ray binds before the real axis does."""
    assert stability_budget(resolve_scheme(name)) == pytest.approx(expected, abs=tol)


def test_two_step_budget_doubles_the_single_step():
    """R(z) = R4(z/2)^2 scales every ray extent by exactly two."""
    two = stability_budget(resolve_scheme("two_step_rk4"))
    one = stability_budget(resolve_scheme("rk4"))
    assert two == pytest.approx(2.0 * one, abs=1e-9)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


def test_validate_fills_defaults_and_is_idempotent(tiny_advection_config):
    doc = tiny_advection_config()
    del doc["time"]
    out = validate_config(doc)
    assert out["seed"] == DEFAULT_SEED
    assert out["scheme"]["q"] == 1 and out["scheme"]["beta"] == -1.0
    assert out["scheme"]["theta0"] == 1.0
    assert out["grid"]["mesh"] == "uniform"
    assert out["time"]["integrator"] == "ssp3"
    assert out["init"]["mode"] == "l2"
    again = validate_config(json.loads(json.dumps(out)))
    assert again == out


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.pop("schema"), "schema"),
        (lambda d: d.update(schema="rkdg-lab-config/2"), "schema"),
        (lambda d: d.update(extra=1), "config"),
        (lambda d: d["scheme"].update(flux="upwind"), "scheme"),
        (lambda d: d["scheme"].update(q=2), "scheme.q"),
        (lambda d: d.update(solution="no_such_profile"), "solution"),
        (lambda d: d["grid"].update(levels=[8]), "grid.levels"),
        (lambda d: d["grid"].update(levels=[12, 8]), "grid.levels"),
        (lambda d: d["grid"].update(perturbation=0.2), "grid.perturbation"),
        (lambda d: d.update(scan={}), "scan"),
        (lambda d: d.update(init={"mode": "tensor"}), "init.mode"),
        (lambda d: d.update(init={"variant": "direct"}), "init.variant"),
        (lambda d: d.update(report={"assert_slope_max": -0.5}), "assert_slope_max"),
        (lambda d: d["time"].update(tau0=0.1), "time"),
        (lambda d: d["scheme"].update(beta=[1]), "scheme.beta"),
        (lambda d: d["scheme"].update(beta="x"), "scheme.beta"),
        (lambda d: d["scheme"].update(beta=None), "scheme.beta"),
    ],
)
def test_validate_rejects_malformed_documents(tiny_advection_config, mangle, fragment):
    doc = tiny_advection_config()
    mangle(doc)
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert fragment in str(err.value)


def test_validate_composed_init_needs_offcenter_fluxes(tiny_advection_config):
    doc = tiny_advection_config(init={"mode": "composed"})
    doc["scheme"]["theta0"] = 0.5
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "init.mode" in str(err.value)
    doc["scheme"]["theta0"] = 1.0
    out = validate_config(doc)
    assert out["init"] == {"mode": "composed", "variant": "direct"}


def test_validate_pins_solution_parameters(tiny_advection_config):
    doc = tiny_advection_config()
    doc["scheme"]["beta"] = 2.0  # advection_sin moves with beta = -1
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "scheme.beta" in str(err.value)


def _temporal_ldg3_n600(**grid):
    """LDG k=3 on 600 cells, 2,400 unknowns, past DENSE_LIMIT."""
    return {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 3},
        "grid": {"n": 600, **grid},
        "time": {"integrator": "taylor3", "tau0": 2e-4, "t_final": 0.02, "halvings": 2},
    }


def test_uniform_temporal_study_above_the_dense_limit_runs():
    """A uniform mesh needs nothing dense: the reference comes from
    expm_multiply, checked mode by mode, and |R(tau L)| from the symbols.
    Its errors sit at rounding, so it asserts no rate, and every level
    carries the rounding-floor flag."""
    result = run_study(_temporal_ldg3_n600())
    assert [lv.n_dofs for lv in result.levels] == [2400] * 3
    assert result.meta["reference_gap"] < 1e-12
    assert all(0.0 < lv.error < 1e-12 for lv in result.levels)
    assert [f.split(":")[0] for f in result.flags if "rounding floor" in f] == [
        f"level tau={lv.tau:.3e}" for lv in result.levels
    ]


def test_perturbed_temporal_study_above_the_dense_limit_is_refused():
    """A perturbed mesh has no symbols, so |R(tau L)| stays dense and capped."""
    with pytest.raises(ConfigError, match="grid.n") as err:
        validate_config(_temporal_ldg3_n600(mesh="perturbed", perturbation=0.3))
    assert "2400 unknowns exceed the 2000 limit" in str(err.value)


def _tiny_temporal(**time):
    return {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 1},
        "grid": {"n": 8},
        "time": {"integrator": "taylor2", "mode": "pde", **time},
    }


@pytest.mark.parametrize(
    "time,fragment",
    [
        # Every step snaps to one step over t_final: nothing to fit.
        ({"tau0": 10.0, "t_final": 1.0, "halvings": 1}, "share one step"),
        # The first two levels snap to one step; the third does not.
        ({"tau0": 1.4, "t_final": 1.0, "halvings": 2}, "share one step"),
        ({"tau0": 1e-4, "t_final": 100.0, "halvings": 12}, "past the budget"),
    ],
)
def test_validate_refuses_temporal_plans_it_cannot_fit(time, fragment):
    with pytest.raises(ConfigError) as err:
        validate_config(_tiny_temporal(**time))
    assert "time.tau0" in str(err.value) and fragment in str(err.value)


def test_validate_refuses_an_explicit_spatial_tau_past_the_step_budget(tiny_advection_config):
    """t_final / tau needs no |L|: the plan is refused before anything is
    assembled. The cfl_fraction policy is still checked at plan time."""
    doc = tiny_advection_config(
        time={"integrator": "ssp3", "t_final": 1.0, "tau": 1e-7},
    )
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert str(err.value).startswith("time.tau:") and "1.00e+07 steps" in str(err.value)
    doc["time"]["tau"] = 1.0 / harness.STEP_BUDGET
    assert validate_config(doc)["time"]["tau"] == 1.0 / harness.STEP_BUDGET


def test_temporal_plans_up_to_four_thirds_of_t_final_are_fitted():
    """tau0 = 1.3 t_final snaps to 1, 2 and 3 steps: three distinct levels."""
    with pytest.warns(StabilityWarning):  # steps this long pass the stability budget
        result = run_study(_tiny_temporal(tau0=1.3, t_final=1.0, halvings=2, mode="semidiscrete"))
    assert [lv.n_steps for lv in result.levels] == [1, 2, 3]
    assert all(math.isfinite(rate) for rate in result.pairwise[1:])


def test_run_study_validates_once(monkeypatch, tiny_advection_config):
    real, calls = harness.validate_config, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "validate_config", counting)
    run_study(tiny_advection_config())
    assert len(calls) == 1


def test_validate_wave_flux_perturbation_shape():
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "wave_sin",
        "scheme": {
            "family": "wave",
            "degree": 1,
            "flux_perturbation": {"amplitude": -1.0, "exponent": 1.0},
        },
        "grid": {"levels": [8, 12]},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "amplitude" in str(err.value)


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(arr))


# ---------------------------------------------------------------------------
# Level assembly
# ---------------------------------------------------------------------------


def test_build_operator_shapes_and_scales(tiny_advection_config):
    config = validate_config(tiny_advection_config())
    op, meshes, scale, extra = build_operator(config["scheme"], config["grid"], 16, config["seed"])
    assert op.n == 16 * 2
    assert len(meshes) == 1
    assert scale == pytest.approx(2.0 * np.pi / 16)

    wave = validate_config({
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "wave_sin",
        "scheme": {"family": "wave", "degree": 2},
        "grid": {"levels": [8, 12]},
    })
    op, meshes, _, _ = build_operator(wave["scheme"], wave["grid"], 8, wave["seed"])
    assert op.n == 2 * 8 * 3
    assert len(meshes) == 2

    spectral = validate_config({
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "spectral_exchange",
        "scheme": {"family": "spectral"},
        "grid": {"levels": [4, 8]},
        "time": {"tau": 0.01},
    })
    op, _, scale, _ = build_operator(spectral["scheme"], spectral["grid"], 8, spectral["seed"])
    assert scale == pytest.approx(8.0)
    assert op.symbols.shape[-1] == 2


def test_build_operator_perturbed_meshes_depend_on_seed_and_salt():
    scheme = {"family": "ldg", "degree": 1, "q": 1, "beta": -1.0, "theta0": 1.0, "thetas": []}
    grid = {"mesh": "perturbed", "perturbation": 0.3}
    _, (a,), _, _ = build_operator(scheme, grid, 12, 5)
    _, (b,), _, _ = build_operator(scheme, grid, 12, 5)
    np.testing.assert_array_equal(a.boundaries, b.boundaries)
    _, (c,), _, _ = build_operator(scheme, grid, 12, 6)
    assert np.max(np.abs(c.boundaries - a.boundaries)) > 1e-8
    _, (d,), _, _ = build_operator(scheme, grid, 12, 5, salt=1)
    assert np.max(np.abs(d.boundaries - a.boundaries)) > 1e-8


# ---------------------------------------------------------------------------
# Study drivers
# ---------------------------------------------------------------------------


def test_spatial_study_converges_and_is_deterministic(tiny_advection_config):
    result = run_study(tiny_advection_config())
    assert result.study == "spatial"
    assert len(result.levels) == 3
    errors = [lv.error for lv in result.levels]
    assert errors[0] > errors[1] > errors[2]
    assert 1.5 < result.fitted_rate < 2.5
    assert result.passed is None  # no assertions requested

    again = run_study(tiny_advection_config())
    assert [lv.error for lv in again.levels] == errors
    threaded = run_study(tiny_advection_config(), jobs=3)
    assert [lv.error for lv in threaded.levels] == errors


def test_spatial_study_rate_assertions(tiny_advection_config):
    good = run_study(tiny_advection_config(report={"assert_rate_min": 1.5}))
    assert good.passed is True
    assert good.assertions["rate_min"]["passed"] is True
    bad = run_study(tiny_advection_config(report={"assert_rate_min": 5.0}))
    assert bad.passed is False


@pytest.mark.filterwarnings("ignore")
def test_non_finite_level_error_is_a_numerical_failure():
    """Forward Euler far past its budget: both marches stay finite through
    t_final = 90, but their errors overflow. run_study raises instead of
    returning errors [inf, inf] and a NaN rate."""
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 3},
        "grid": {"levels": [8, 10]},
        "time": {"integrator": "euler", "tau": 0.25, "t_final": 90},
        "report": {"assert_rate_min": 1},
    }
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match="level n=8 has a non-finite error"
    ):
        run_study(doc)


def test_temporal_study_semidiscrete_smoke():
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 1},
        "grid": {"n": 16},
        "time": {
            "integrator": "taylor2",
            "t_final": 0.5,
            "tau0": 0.02,
            "halvings": 3,
            "mode": "semidiscrete",
        },
    }
    result = run_study(doc)
    assert result.study == "temporal"
    assert result.fitted_rate == pytest.approx(2.0, abs=0.1)
    taus = [lv.tau for lv in result.levels]
    assert taus == sorted(taus, reverse=True)


def test_time_mode_is_accepted_and_has_no_effect():
    """A temporal study fits one error whatever a legacy time.mode says:
    pde, semidiscrete and no mode give bitwise the same study."""
    results = []
    for mode in ("pde", "semidiscrete", None):
        doc = _tiny_temporal(tau0=0.05, t_final=0.4, halvings=2)
        if mode is None:
            del doc["time"]["mode"]
        else:
            doc["time"]["mode"] = mode
        assert "mode" not in validate_config(doc)["time"]
        results.append(run_study(doc))
    first = results[0]
    for other in results[1:]:
        assert other.levels == first.levels
        assert other.fitted_rate == first.fitted_rate
        assert other.meta == first.meta


def test_temporal_errors_split_the_fully_discrete_error():
    """On temporal_taylor3, each level marched by evolve is s + e or less
    from the exact solution and at least |s - e|, where s is the spatial
    part meta.spatial_error and e the level's temporal error."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "temporal_taylor3.json")
    config = validate_config(load_config(path))
    result = run_study(config)
    problem = build_problem(config, solution_catalog()[config["solution"]], config["grid"]["n"])
    scheme = resolve_scheme(config["time"]["integrator"])
    t_final, s = config["time"]["t_final"], result.meta["spatial_error"]
    assert s > 0
    for lv in result.levels:
        state = evolve(problem.op, problem.prepare(0.0), lv.tau, t_final, scheme).state
        full = problem.error(state, t_final)[0]
        assert abs(s - lv.error) - 1e-15 <= full <= s + lv.error + 1e-15


@pytest.mark.parametrize(
    "name", ["advection_upwind_k1", "semidiscrete_taylor2", "stability_taylor3_central"]
)
def test_run_study_starts_no_thread(monkeypatch, name):
    """Every study runs serially; jobs is accepted and ignored."""

    def refuse(self):
        raise AssertionError(f"run_study started a thread ({self.name})")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.json")
    run_study(load_config(path), jobs=2)


def _floor_flags(name: str) -> list:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.json")
    return [f for f in run_study(load_config(path)).flags if "rounding floor" in f]


def test_temporal_floor_flag_marks_a_level_at_rounding():
    """semidiscrete_rk4's finest level (640 steps) sits within 10x of the
    larger of reference_gap * |exp(tL) u_h(0)| and sqrt(N) eps |u_h(0)|;
    no level of semidiscrete_taylor3 comes near it."""
    (flag,) = _floor_flags("semidiscrete_rk4")
    assert flag.startswith("level tau=1.563e-03: error 9.80")
    assert _floor_flags("semidiscrete_taylor3") == []


def test_run_study_warns_at_its_caller(tiny_advection_config):
    doc = tiny_advection_config(time={"integrator": "ssp3", "t_final": 0.3, "tau": 0.15})
    with pytest.warns(StabilityWarning) as caught:
        run_study(doc)
    assert [w.filename for w in caught] == [__file__]


def test_mu_gate_scales_with_the_operator_norm():
    """q = 3, k = 3 on 128 cells: round-off leaves mu near 4e-8, far above
    any fixed tolerance, but under 1e-15 of |L|. The relative gate lets
    the study run and still refuses mu = 1e-9 |L|."""
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "dispersive_sin",
        "scheme": {"family": "ldg", "degree": 3},
        "grid": {"n": 128},
        "time": {
            "integrator": "rk4", "t_final": 1e-6, "tau0": 2e-8,
            "halvings": 1, "mode": "semidiscrete",
        },
    }
    level = run_study(doc).levels[0]
    assert level.mu > 1e-8
    assert level.mu < 1e-14 * level.op_norm

    problem = SimpleNamespace(label="n=8")
    with pytest.raises(NumericalError):
        harness._gate_mu(problem, 1e-9 * 7e7, 7e7)
    harness._gate_mu(problem, 1e-11 * 7e7, 7e7)


def test_stability_study_flags_unstable_pairings():
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "stability",
        "scheme": {"family": "ldg", "degree": 1, "q": 1, "beta": -1.0, "theta0": 0.5},
        "grid": {"n": 24},
        "time": {"integrator": "euler"},
        "scan": {"lambdas": [0.2, 0.6, 1.0], "expect": "empty"},
    }
    result = run_study(doc)
    assert result.study == "stability"
    assert result.passed is True
    assert all(not row["stable"] for row in result.rows)
    # forward euler on a skew operator amplifies by sqrt(1 + lambda^2)
    # in the worst direction; the probe should see growth above one
    assert all(row["amplification"] > 1.0 for row in result.rows)
    assert result.meta["stable_count"] == 0

    doc["time"]["integrator"] = "ssp3"
    doc["scan"] = {"lambdas": [0.2, 0.6, 1.0], "expect": "nonempty"}
    result = run_study(doc)
    assert result.passed is True
    assert result.meta["max_stable_lambda"] >= 0.6


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_write_report_formats(tmp_path, tiny_advection_config):
    result = run_study(tiny_advection_config(report={"assert_rate_min": 1.5}))
    paths = write_report(result, str(tmp_path), "tiny", fmt="both")
    assert sorted(os.path.basename(p) for p in paths) == ["tiny.csv", "tiny.json"]

    csv_lines = (tmp_path / "tiny.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "scale,error,rate_pairwise"
    assert len(csv_lines) == 4
    first = csv_lines[1].split(",")
    assert first[2] == ""  # no pairwise rate on the coarsest level
    assert float(first[1]) == pytest.approx(result.levels[0].error, rel=1e-10)

    doc = json.loads((tmp_path / "tiny.json").read_text())
    assert doc["schema"] == "rkdg-lab-report/1"
    assert doc["passed"] is True
    assert doc["config"]["schema"] == "rkdg-lab-config/1"
    assert len(doc["levels"]) == 3
    round_trip = study_to_dict(result)
    assert round_trip == doc


def test_write_report_refuses_non_finite_numbers(tmp_path, tiny_advection_config):
    """JSON has no NaN: such a result is a numerical failure, and no file
    of the report is written."""
    result = run_study(tiny_advection_config())
    broken = dataclasses.replace(result, fitted_rate=float("nan"))
    with pytest.raises(NumericalError):
        write_report(broken, str(tmp_path / "out"), "tiny")
    assert not list((tmp_path / "out").glob("*"))


def test_write_report_stability_rows(tmp_path):
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "stability",
        "scheme": {"family": "ldg", "degree": 1, "q": 1, "beta": -1.0, "theta0": 0.5},
        "grid": {"n": 16},
        "time": {"integrator": "euler"},
        "scan": {"lambdas": [0.4, 0.8]},
    }
    result = run_study(doc)
    (path,) = write_report(result, str(tmp_path), "scan", fmt="csv")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "lambda,tau,amplification,stable"
    assert len(lines) == 3
    assert lines[1].endswith("false")


# ---------------------------------------------------------------------------
# Check batteries
# ---------------------------------------------------------------------------


def test_operator_battery_is_green():
    results = check_operators()
    assert all(r.passed for r in results), format_checks(results)
    names = [r.name for r in results]
    assert "derivative_transpose_flip" in names
    assert "semibounded_catalog" in names
    assert "decay_envelope" in names


def test_projection_battery_is_green():
    results = check_projections()
    assert all(r.passed for r in results), format_checks(results)
    text = format_checks(results)
    assert "FAIL" not in text
    assert "derivative_inverse_bounded" in text


# ---------------------------------------------------------------------------
# Measurement methods, large scans and budget flags
# ---------------------------------------------------------------------------


def centered_scan(n, **grid):
    return {
        "schema": "rkdg-lab-config/1",
        "study": "stability",
        "scheme": {"family": "ldg", "degree": 1, "q": 1, "beta": -1.0, "theta0": 0.5},
        "grid": {"n": n, **grid},
        "time": {"integrator": "taylor3"},
        "scan": {"expect": "nonempty"},
    }


def stable_lambdas(result):
    return [row["lambda"] for row in result.rows if row["stable"]]


def test_centered_scan_above_the_dense_limit_runs():
    """2,048 unknowns: the per-mode path settles every probe, and the
    stable set is the one at n = 32, lambda <= 1.6 < sqrt(3)."""
    large = run_study(centered_scan(1024))
    small = run_study(centered_scan(32))
    expected = [round(0.2 * i, 10) for i in range(1, 9)]
    assert stable_lambdas(large) == stable_lambdas(small) == expected
    assert large.passed is True
    assert large.meta["spectrum"] == small.meta["spectrum"] == "modes"


@pytest.mark.parametrize("theta0", [0.5, 1.0])
def test_validate_refuses_large_stability_scans_on_perturbed_meshes(theta0):
    doc = centered_scan(1024, mesh="perturbed", perturbation=0.2)
    doc["scheme"]["theta0"] = theta0
    with pytest.raises(ConfigError, match="grid.n") as err:
        validate_config(doc)
    assert "2048 unknowns exceed the 2000 limit" in str(err.value)
    validate_config(centered_scan(1000, mesh="perturbed"))  # 2,000 unknowns: dense
    validate_config(centered_scan(1024))


def test_reports_name_the_spectrum_method(tiny_advection_config):
    uniform = run_study(tiny_advection_config())
    assert [lv.extra["spectrum"] for lv in uniform.levels] == ["modes"] * 3
    perturbed = run_study(tiny_advection_config(grid={"levels": [8, 12, 16], "mesh": "perturbed"}))
    assert [lv.extra["spectrum"] for lv in perturbed.levels] == ["krylov"] * 3
    assert study_to_dict(perturbed)["levels"][0]["extra"] == {"spectrum": "krylov"}
    scan = run_study(centered_scan(16, mesh="perturbed"))
    assert scan.meta["spectrum"] == "krylov"


@pytest.mark.parametrize("mesh", ["uniform", "perturbed"])
def test_zero_operators_are_refused(tiny_advection_config, mesh):
    """Step sizes scale with 1 / |L|. Centered piecewise constants on two
    cells assemble the zero operator: a NumericalError, not a division by
    zero. The ultraweak family is zero at degree 0 on every mesh, so
    validation refuses it."""
    scan = centered_scan(2, mesh=mesh)
    scan["scheme"]["degree"] = 0
    with pytest.raises(NumericalError, match="stability scan: the operator is zero"):
        run_study(scan)
    doc = tiny_advection_config(
        scheme={"family": "ldg", "degree": 0, "theta0": 0.5}, grid={"levels": [2, 3], "mesh": mesh}
    )
    with pytest.raises(NumericalError, match="level n=2: the operator is zero"):
        run_study(doc)
    doc = tiny_advection_config(
        solution="ultraweak_sin", scheme={"family": "ultraweak3", "degree": 0}
    )
    with pytest.raises(ConfigError, match="scheme.degree"):
        validate_config(doc)


def test_cfl_budget_excess_is_a_report_flag(tiny_advection_config):
    """ssp3's budget is sqrt(3); with tau = 0.15 only the n = 16 level,
    |L| = 15.28, steps past it. run_study flags it and warns."""
    doc = tiny_advection_config(time={"integrator": "ssp3", "t_final": 0.3, "tau": 0.15})
    with pytest.warns(StabilityWarning):
        result = run_study(doc)
    assert len(result.flags) == 1
    (flag,) = result.flags
    assert flag == "level n=16: tau * |L| = 2.2918e+00 exceeds the stability budget 1.7321e+00"
    assert run_study(tiny_advection_config()).flags == ()

    temporal = {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 1},
        "grid": {"n": 16},
        "time": {
            "integrator": "taylor2", "t_final": 0.4, "tau0": 0.2,
            "halvings": 2, "mode": "semidiscrete",
        },
    }
    with pytest.warns(StabilityWarning):
        result = run_study(temporal)
    assert [f for f in result.flags if "stability budget" in f] == [
        "level tau=2.000e-01: tau * |L| = 3.0558e+00 exceeds the stability budget 2.0000e+00"
    ]
