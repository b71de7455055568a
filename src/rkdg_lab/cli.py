"""Command line front end.

Subcommands map onto the library's entry points: ``converge`` runs a
spatial or temporal refinement study from a JSON config (a temporal study
fits the temporal part of the error, measured against the matrix
exponential, and reports the spatial part once), ``stability-scan`` sweeps
amplification norms over step sizes, ``check-operators`` and
``check-projections`` run the built-in verification batteries, and
``dump-operator`` writes an assembled operator in MatrixMarket form for
outside inspection.

Exit codes: 0 success, 1 a requested rate or scan expectation failed,
2 bad configuration or arguments, 3 numerical failure (lost semiboundedness,
non-finite marching, battery check failure).
"""

from __future__ import annotations

import argparse
import os
import sys

import scipy.io

from .core_fem import ConfigError, NumericalError
from .harness import (
    DEFAULT_SEED,
    RateAssertionError,
    build_operator,
    check_operators,
    check_projections,
    format_checks,
    load_config,
    run_study,
    validate_config,
    write_report,
)


def _config_stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _load_for_run(args) -> dict:
    doc = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    return doc


def _print_summary(result, paths) -> None:
    print(f"{result.study} study {result.name!r}")
    if result.study == "stability":
        stable = [row for row in result.rows if row["stable"]]
        print(f"  stable {len(stable)}/{len(result.rows)} step sizes")
        if stable:
            print(f"  largest stable lambda {max(r['lambda'] for r in stable):g}")
    else:
        for lv, rate in zip(result.levels, result.pairwise):
            cell = "" if rate is None else f"  rate {rate:.4f}"
            print(f"  scale {lv.scale:.6g}  error {lv.error:.6e}{cell}")
        print(f"  fitted rate {result.fitted_rate:.4f}")
    for name, check in result.assertions.items():
        tag = "ok" if check["passed"] else "FAIL"
        print(f"  assert {name}: {tag} (value {check['value']:.6g}, bound {check['bound']:g})")
    for flag in result.flags:
        print(f"  note: {flag}")
    for path in paths:
        print(f"wrote {path}")


def _raise_if_failed(result) -> None:
    failed = [name for name, c in result.assertions.items() if not c["passed"]]
    if failed:
        raise RateAssertionError(
            f"study {result.name!r} failed: {', '.join(failed)}"
        )


def _run_and_report(args, doc, expect_study=None) -> int:
    if expect_study is not None:  # run_study validates doc; this checks its kind
        validate_config(doc, expect_study=expect_study)
    result = run_study(
        doc, jobs=args.jobs, strict_cfl=getattr(args, "strict_cfl", False)
    )
    try:
        paths = write_report(result, args.out, _config_stem(args.config), args.format)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot write reports there ({exc})") from exc
    _print_summary(result, paths)
    _raise_if_failed(result)
    return 0


def _cmd_converge(args) -> int:
    doc = _load_for_run(args)
    config = validate_config(doc)
    if config["study"] == "stability":
        raise ConfigError(
            "converge runs spatial or temporal studies; use stability-scan instead"
        )
    return _run_and_report(args, config)


def _cmd_stability(args) -> int:
    return _run_and_report(args, _load_for_run(args), expect_study="stability")


def _cmd_check_operators(args) -> int:
    results = check_operators(seed=args.seed)
    print(format_checks(results))
    return 0 if all(r.passed for r in results) else 3


def _cmd_check_projections(args) -> int:
    results = check_projections(seed=args.seed)
    print(format_checks(results))
    return 0 if all(r.passed for r in results) else 3


def _cmd_dump_operator(args) -> int:
    doc = _load_for_run(args)
    config = validate_config(doc)
    if config["scheme"]["family"] == "spectral":
        raise ConfigError(
            "the spectral family applies its operator mode by mode; "
            "there is no assembled matrix to dump"
        )
    if config["study"] == "spatial":
        levels = config["grid"]["levels"]
        if not 0 <= args.level < len(levels):
            raise ConfigError(
                f"--level must index grid.levels (0 to {len(levels) - 1})"
            )
        n, salt = levels[args.level], args.level
    else:
        if args.level:
            raise ConfigError("--level only applies to spatial studies")
        n, salt = config["grid"]["n"], 0
    op, _, _, _ = build_operator(
        config["scheme"], config["grid"], n, config["seed"], salt=salt
    )
    path = os.path.join(args.out, _config_stem(args.config) + ".mtx")
    mat = op.mat.tocoo()
    try:
        os.makedirs(args.out, exist_ok=True)
        scipy.io.mmwrite(
            path, mat, precision=17,
            comment=f"{config['name']} at n={n} ({mat.shape[0]} unknowns)",
        )
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot write the operator there ({exc})") from exc
    print(f"wrote {path} ({mat.shape[0]} unknowns, {mat.nnz} stored entries)")
    return 0


def _add_run_flags(parser, strict_cfl: bool) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON study config")
    parser.add_argument("--out", default=".", help="directory for report files")
    parser.add_argument(
        "--format", choices=("csv", "json", "both"), default="both",
        help="report serialization (default both)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker threads for the per-level |L| and mu measurements and scan probes (default 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config's seed"
    )
    if strict_cfl:
        parser.add_argument(
            "--strict-cfl", action="store_true",
            help="error out instead of warning when a step exceeds the stability budget",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkdg-lab",
        description="Convergence and stability studies for discontinuous Galerkin schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("converge", help="run a spatial or temporal refinement study")
    _add_run_flags(p, strict_cfl=True)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("stability-scan", help="sweep amplification norms over step sizes")
    _add_run_flags(p, strict_cfl=False)
    p.set_defaults(func=_cmd_stability)

    for name, fn in (
        ("check-operators", _cmd_check_operators),
        ("check-projections", _cmd_check_projections),
    ):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} verification battery")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.set_defaults(func=fn)

    p = sub.add_parser(
        "dump-operator", help="write an assembled operator in MatrixMarket form"
    )
    p.add_argument("--config", required=True, help="path to a JSON study config")
    p.add_argument("--out", default=".", help="directory for the .mtx file")
    p.add_argument(
        "--level", type=int, default=0,
        help="which grid.levels entry to assemble (spatial studies only)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p.set_defaults(func=_cmd_dump_operator)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RateAssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
