"""Command-line entry points, exercised in-process through main(argv).

Exit code contract: 0 on success, 1 when a study runs but violates an
asserted rate bound, 2 for configuration problems, 3 for numerical
failures and red check batteries.
"""

import json
import os

import pytest
import scipy.io

from rkdg_lab import build_operator, cli, harness, validate_config
from rkdg_lab.cli import main


def stability_doc():
    return {
        "schema": "rkdg-lab-config/1",
        "study": "stability",
        "name": "tiny-scan",
        "scheme": {"family": "ldg", "degree": 1, "q": 1, "beta": -1.0, "theta0": 0.5},
        "grid": {"n": 16},
        "time": {"integrator": "euler"},
        "scan": {"lambdas": [0.4, 0.8], "expect": "empty"},
    }


def test_converge_writes_reports_and_prints_rates(tmp_path, capsys, write_config, tiny_advection_config):
    path = write_config(tiny_advection_config(report={"assert_rate_min": 1.5}), "tiny.json")
    code = main(["converge", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted rate" in out
    assert "assert rate_min: ok" in out
    assert (tmp_path / "out" / "tiny.csv").exists()
    assert (tmp_path / "out" / "tiny.json").exists()
    header = (tmp_path / "out" / "tiny.csv").read_text().splitlines()[0]
    assert header == "scale,error,rate_pairwise"


def test_converge_exit_one_still_writes_reports(tmp_path, capsys, write_config, tiny_advection_config):
    path = write_config(tiny_advection_config(report={"assert_rate_min": 9.0}), "hopeless.json")
    code = main(["converge", "--config", path, "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "assertion failed" in captured.err
    assert "assert rate_min: FAIL" in captured.out
    report = json.loads((tmp_path / "hopeless.json").read_text())
    assert report["passed"] is False


def test_converge_rejects_bad_configs(tmp_path, capsys, write_config, tiny_advection_config):
    assert main(["converge", "--config", str(tmp_path / "missing.json")]) == 2
    doc = tiny_advection_config()
    doc["scheme"]["family"] = "pseudo"
    path = write_config(doc, "bad.json")
    assert main(["converge", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_converge_redirects_stability_configs(capsys, write_config):
    path = write_config(stability_doc(), "scan.json")
    assert main(["converge", "--config", path]) == 2
    assert "stability-scan" in capsys.readouterr().err


def test_diverged_march_exits_three_without_reports(tmp_path, capsys, write_config):
    """Forward Euler at tau |L| of 7 to 10 times its budget overflows within
    400 steps; the run fails numerically instead of reporting NaN."""
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 3},
        "grid": {"levels": [8, 12]},
        "time": {"integrator": "euler", "tau": 0.25, "t_final": 100},
        "report": {"assert_rate_min": 1},
    }
    path = write_config(doc, "diverge.json")
    out_dir = tmp_path / "out"
    assert main(["converge", "--config", path, "--out", str(out_dir)]) == 3
    assert "diverged" in capsys.readouterr().err
    assert not list(out_dir.glob("*"))


def test_strict_cfl_exits_three_without_reports(tmp_path, capsys, write_config,
                                                tiny_advection_config):
    """With tau = 0.15 the n = 16 level steps past ssp3's budget; under
    --strict-cfl that is a numerical failure, not a flag."""
    doc = tiny_advection_config(time={"integrator": "ssp3", "t_final": 0.3, "tau": 0.15})
    path = write_config(doc, "strict.json")
    out_dir = tmp_path / "out"
    assert main(["converge", "--strict-cfl", "--config", path, "--out", str(out_dir)]) == 3
    assert "level n=16: tau * |L| = 2.2918e+00" in capsys.readouterr().err
    assert not list(out_dir.glob("*"))


def test_stability_scan_runs_and_reports(tmp_path, capsys, write_config):
    path = write_config(stability_doc(), "scan.json")
    code = main(["stability-scan", "--config", path, "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "stable" in out
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "lambda,tau,amplification,stable"

    doc = stability_doc()
    doc["scan"]["expect"] = "nonempty"  # euler never stabilizes a skew flux
    path = write_config(doc, "scan_wrong.json")
    assert main(["stability-scan", "--config", path, "--out", str(tmp_path)]) == 1


def test_stability_scan_refuses_other_studies(tmp_path, capsys, write_config,
                                             tiny_advection_config):
    path = write_config(tiny_advection_config(), "spatial.json")
    out = tmp_path / "out"
    assert main(["stability-scan", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: study: expected a stability study, got 'spatial'\n"
    assert not out.exists()


def test_compare_semidiscrete_is_gone(write_config):
    """Every temporal study fits what the subcommand used to force, so it
    was removed: argparse refuses it."""
    path = write_config(stability_doc(), "scan.json")
    with pytest.raises(SystemExit) as exc:
        main(["compare-semidiscrete", "--config", path])
    assert exc.value.code == 2


def test_format_selects_outputs(tmp_path, write_config, tiny_advection_config):
    path = write_config(tiny_advection_config(), "fmt.json")
    out = tmp_path / "reports"
    assert main(["converge", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    assert (out / "fmt.csv").exists()
    assert not (out / "fmt.json").exists()


def test_seed_override_moves_perturbed_meshes(tmp_path, write_config, tiny_advection_config):
    doc = tiny_advection_config(name="seeded")
    doc["grid"]["mesh"] = "perturbed"
    doc["grid"]["perturbation"] = 0.3
    path = write_config(doc, "seeded.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["converge", "--config", path, "--out", str(out_a), "--seed", "11"]) == 0
    assert main(["converge", "--config", path, "--out", str(out_b), "--seed", "11"]) == 0
    assert main(["converge", "--config", path, "--out", str(out_c), "--seed", "12"]) == 0
    a = (out_a / "seeded.csv").read_text()
    assert a == (out_b / "seeded.csv").read_text()
    assert a != (out_c / "seeded.csv").read_text()


def test_jobs_flag_is_gone(tmp_path, write_config, tiny_advection_config):
    """Every run is serial, so the thread-count flag was removed: argparse
    refuses it."""
    path = write_config(tiny_advection_config(), "par.json")
    for command in ("converge", "stability-scan"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2


def test_check_batteries_exit_zero(capsys):
    assert main(["check-operators"]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["check-projections"]) == 0
    assert "derivative_inverse" in capsys.readouterr().out


def test_dump_operator_round_trip(tmp_path, capsys, write_config, tiny_advection_config):
    doc = tiny_advection_config(name="dumped")
    path = write_config(doc, "dumped.json")
    code = main(["dump-operator", "--config", path, "--out", str(tmp_path), "--level", "1"])
    assert code == 0
    out = capsys.readouterr().out
    mtx = [p for p in os.listdir(tmp_path) if p.endswith(".mtx")]
    assert len(mtx) == 1
    loaded = scipy.io.mmread(str(tmp_path / mtx[0])).tocsr()

    config = validate_config(doc)
    n = config["grid"]["levels"][1]
    op, _, _, _ = build_operator(config["scheme"], config["grid"], n, config["seed"], salt=1)
    assert loaded.shape == op.mat.shape
    assert abs(loaded - op.mat).max() < 1e-15
    assert str(op.n) in out


def test_dump_operator_rejections(tmp_path, capsys, write_config, tiny_advection_config):
    path = write_config(tiny_advection_config(), "oops.json")
    assert main(["dump-operator", "--config", path, "--out", str(tmp_path), "--level", "7"]) == 2

    spectral = {
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "spectral_exchange",
        "scheme": {"family": "spectral"},
        "grid": {"levels": [4, 8]},
        "time": {"tau": 0.01},
    }
    path = write_config(spectral, "modes.json")
    assert main(["dump-operator", "--config", path, "--out", str(tmp_path)]) == 2
    assert "mode by mode" in capsys.readouterr().err

    scan = write_config(stability_doc(), "scan.json")
    assert main(["dump-operator", "--config", scan, "--out", str(tmp_path), "--level", "2"]) == 2


def test_unfittable_temporal_plan_exits_two(tmp_path, capsys, write_config):
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "temporal",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 1},
        "grid": {"n": 8},
        "time": {"integrator": "taylor2", "t_final": 1.0, "tau0": 10.0, "halvings": 1},
    }
    path = write_config(doc, "unfittable.json")
    assert main(["converge", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "time.tau0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tensor_init_at_a_centered_flux_exits_two(tmp_path, capsys, write_config):
    doc = {
        "schema": "rkdg-lab-config/1", "study": "spatial", "solution": "advection2d_sin",
        "scheme": {"family": "advection2d", "degree": 1, "theta1": 0.5},
        "grid": {"levels": [4, 6]}, "init": {"mode": "tensor"},
    }
    path = write_config(doc, "tensor_centered.json")
    assert main(["converge", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: init.mode:")
    assert not (tmp_path / "out").exists()


def test_spatial_tau_past_the_step_budget_exits_two(tmp_path, capsys, write_config,
                                                   tiny_advection_config):
    doc = tiny_advection_config(time={"integrator": "ssp3", "t_final": 1.0, "tau": 1e-7})
    path = write_config(doc, "over_budget.json")
    assert main(["converge", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: time.tau:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["converge", "dump-operator", "stability-scan"])
def test_unwritable_out_exits_two(tmp_path, capsys, write_config, tiny_advection_config, command):
    doc = stability_doc() if command == "stability-scan" else tiny_advection_config()
    path = write_config(doc, "study.json")
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    assert main([command, "--config", path, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {blocker}: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["converge", "stability-scan"])
def test_run_commands_validate_at_most_twice(tmp_path, monkeypatch, write_config,
                                             tiny_advection_config, command):
    real, calls = harness.validate_config, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "validate_config", counting)
    monkeypatch.setattr(cli, "validate_config", counting)
    doc = stability_doc() if command == "stability-scan" else tiny_advection_config()
    path = write_config(doc, "study.json")
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
    assert len(calls) <= 2
