"""Command-line interface.

Verbs:
    run          one mesh level of a configured study, metrics to stdout
    study        full convergence study, optional CSV/JSON reports
    preset       canned multi-study bundles (see --list)
    export-mesh  write a benchmark mesh in the plain-text format

Exit codes: 0 success, 1 bad configuration, usage or output path, 2 runtime
failure (one of the package's own errors: solve, recovery, mesh, GSIF,
analytic, material, bilinear-map or error computation).  Any other exception
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .analytic import AnalyticError
from .elasticity import MaterialError
from .error import ErrorComputationError
from .gsif import GsifError
from .harness import (
    BENCHMARKS,
    PRESETS,
    ConfigError,
    StudyConfig,
    make_benchmark,
    parse_config,
    run_case,
    run_convergence_study,
    run_preset,
    emit_report,
    writing,
)
from .mesh import MeshError, save_mesh
from .quadmap import QuadMapError
from .recovery import RecoveryError
from .solver import SolveError

log = logging.getLogger(__name__)

# the package's own runtime failures; anything else is a programming error
# and keeps its traceback
RUNTIME_ERRORS = (
    SolveError,
    RecoveryError,
    MeshError,
    GsifError,
    AnalyticError,
    MaterialError,
    QuadMapError,
    ErrorComputationError,
)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="INI study configuration")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (repeatable)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothfem",
        description="smoothed-FEM error estimation studies",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a single mesh level")
    _add_config_args(p_run)
    p_run.add_argument("--level", type=int, default=None, help="mesh level (default: first configured)")

    p_study = sub.add_parser("study", help="run a convergence study")
    _add_config_args(p_study)
    p_study.add_argument("--csv", default=None, help="write CSV report here")
    p_study.add_argument("--json", default=None, help="write JSON report here")

    p_preset = sub.add_parser("preset", help="run a canned study bundle")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--out", default="reports", help="output directory")
    p_preset.add_argument("--list", action="store_true", help="list preset names")

    p_mesh = sub.add_parser("export-mesh", help="write a benchmark mesh")
    p_mesh.add_argument("--benchmark", required=True, choices=BENCHMARKS)
    p_mesh.add_argument("--level", type=int, required=True)
    p_mesh.add_argument("--grading", type=float, default=2.0, help="L-shape mesh grading")
    p_mesh.add_argument("--out", required=True, help="output file")
    return parser


def _print_case(config: StudyConfig, case) -> None:
    r = case.report
    print(
        f"{config.benchmark} level {case.level} "
        f"({config.formulation_obj().label()}, {case.variant}): "
        f"dof={r.dof} exact={r.exact:.6g} estimated={r.estimated:.6g} "
        f"theta={r.theta:.4f} mD={r.m_abs_D:.4f} sigmaD={r.sigma_D:.4f}"
    )


def _cmd_run(args) -> int:
    config = parse_config(args.config, args.overrides)
    if args.level is not None:
        config = dataclasses.replace(config, levels=(args.level,))
    case = run_case(config, config.levels[0])
    _print_case(config, case)
    return 0


def _cmd_study(args) -> int:
    config = parse_config(args.config, args.overrides)
    for path in filter(None, (args.csv, args.json)):
        with writing(path):
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    study = run_convergence_study(config)
    for case in study.cases:
        _print_case(config, case)
    for name, rate in sorted(study.rates.items()):
        print(f"rate {name}: s={rate.s:.4f} s_avg={rate.s_avg:.4f}")
    emit_report(study, csv_path=args.csv, json_path=args.json)
    return 0


def _cmd_preset(args) -> int:
    if args.list:
        for name in sorted(PRESETS):
            print(name)
        return 0
    if not args.name:
        raise ConfigError("preset name required (or --list)")
    written = run_preset(args.name, args.out)
    for path in written:
        print(path)
    return 0


def _cmd_export_mesh(args) -> int:
    benchmark = make_benchmark(
        StudyConfig(benchmark=args.benchmark, grading=args.grading, levels=(args.level,))
    )
    mesh = benchmark.mesh(args.level)
    with writing(args.out):
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        save_mesh(mesh, args.out)
    print(f"{args.out}: {mesh.n_nodes} nodes, {mesh.n_elements} elements")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "study": _cmd_study,
    "preset": _cmd_preset,
    "export-mesh": _cmd_export_mesh,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as exc:
        log.debug("traceback", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
