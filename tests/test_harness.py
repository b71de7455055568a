"""The study harness: manufactured solutions, configuration validation,
per-level assembly, the three study drivers, reports, and the check
batteries."""

import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from rkdg_lab import (
    ConfigError,
    DEFAULT_SEED,
    NumericalError,
    build_operator,
    check_operators,
    check_projections,
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


def test_validate_temporal_dense_reference_cap():
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 3},
        "grid": {"n": 600},
        "time": {"integrator": "taylor2", "tau0": 0.01},
    }
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert "grid.n" in str(err.value)


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


def test_validate_expected_study_mismatch(tiny_advection_config):
    with pytest.raises(ConfigError) as err:
        validate_config(tiny_advection_config(), expect_study="stability")
    assert "study" in str(err.value)


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
    assert op.n_components == 2


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
