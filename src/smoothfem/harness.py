"""Study driver: configs, convergence runs, deterministic CSV/JSON reports.

A study is one benchmark solved over a ladder of mesh levels with one
formulation + recovery pairing.  Configuration lives in INI files with three
sections; every key has a default, unknown sections or keys are hard errors
(silent typos in a verification tool are worse than crashes):

    [problem]        name, grading
    [discretization] formulation, nc, levels
    [recovery]       variant, interior_degree, boundary_degree,
                     splitting_radius, gsif_mode

Reports are byte-stable: no timestamps, fixed float formatting, sorted JSON
keys — rerunning a preset must reproduce files exactly.
"""

from __future__ import annotations

import configparser
import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from .error import ConvergenceSeries, ErrorReport, compute_error_report, convergence_rate
from .mesh import MeshError, check_grading
from .recovery import RecoveryConfig, RecoveryError, build_recovered_field
from .solver import Formulation, SolveError, assemble_and_solve

log = logging.getLogger(__name__)

BENCHMARKS = ("cylinder", "lshape", "patch")

# INI section -> its keys; a key sets the StudyConfig field of its name,
# except [problem] name, which sets benchmark
_SECTIONS = {
    "problem": ("name", "grading"),
    "discretization": ("formulation", "nc", "levels"),
    "recovery": (
        "variant", "interior_degree", "boundary_degree", "splitting_radius", "gsif_mode"
    ),
}


class ConfigError(ValueError):
    """Malformed, unknown or inconsistent study configuration."""


# the types a StudyConfig field accepts, by the type of its default: a bool
# is no number, an int serves for a float, and numpy integers become int
_ACCEPTS = {str: str, int: (int, np.integer), float: (int, np.integer, float), tuple: tuple}


def _typed(name: str, value, kind: type):
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        want, got = kind.__name__, type(value).__name__
        raise ConfigError(f"{name} must be {want}, got {value!r} of type {got}")
    return int(value) if isinstance(value, np.integer) else value


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one convergence study."""

    benchmark: str = "cylinder"
    grading: float = 2.0
    formulation: str = "sfem"
    nc: int = 4
    levels: tuple = (1, 2, 3)
    variant: str = "SPR-CX"
    interior_degree: int = 2
    boundary_degree: int = 2
    splitting_radius: float = 0.5
    gsif_mode: str = "exact"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = _typed(f.name, getattr(self, f.name), type(f.default))
            if isinstance(value, tuple):  # levels: a tuple of ints
                value = tuple(_typed(f.name, lv, int) for lv in value)
            object.__setattr__(self, f.name, value)
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if len(self.levels) == 0:
            raise ConfigError("need at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError(f"duplicate levels in {self.levels}")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        low = {"cylinder": 1, "lshape": 0, "patch": 0}[self.benchmark]
        if self.levels[0] < low:
            raise ConfigError(
                f"{self.benchmark} levels start at {low}, got {self.levels[0]}"
            )
        if self.benchmark == "patch" and tuple(self.levels) != (0,):
            raise ConfigError(
                f"benchmark 'patch' has one mesh: levels must be (0,), got {self.levels}"
            )
        # delegate the rest of the validation to the objects themselves
        self.formulation_obj()
        try:
            check_grading(self.grading)
            self.recovery_config()
        except (MeshError, RecoveryError) as exc:
            raise ConfigError(str(exc)) from exc

    def formulation_obj(self) -> Formulation:
        try:
            return Formulation(self.formulation, self.nc)
        except SolveError as exc:
            raise ConfigError(str(exc)) from exc

    def recovery_config(self, variant: str | None = None) -> RecoveryConfig:
        return RecoveryConfig(
            variant=self.variant if variant is None else variant,
            interior_degree=self.interior_degree,
            boundary_degree=self.boundary_degree,
            splitting_radius=self.splitting_radius,
            gsif_mode=self.gsif_mode,
        )


# ---------------------------------------------------------------------------
# INI parsing
# ---------------------------------------------------------------------------


def parse_config(path, overrides=()) -> StudyConfig:
    """Load an INI study config, applying ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="ascii") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    apply_overrides(parser, overrides)
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown config section [{section}] (known: {', '.join(_SECTIONS)})"
            )
        for key, raw in parser[section].items():
            if key not in _SECTIONS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}] "
                    f"(known: {', '.join(_SECTIONS[section])})"
                )
            name = "benchmark" if key == "name" else key
            default, raw = getattr(StudyConfig, name), raw.strip()
            try:
                if isinstance(default, tuple):
                    kwargs[name] = tuple(int(tok) for tok in raw.split())
                else:
                    kwargs[name] = type(default)(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return StudyConfig(**kwargs)


def apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    """Apply repeatable CLI overrides of the form section.key=value."""
    for item in overrides:
        head, sep, value = item.partition("=")
        section, dot, key = head.partition(".")
        if not sep or not dot or not section or not key:
            raise ConfigError(
                f"override {item!r} is not of the form section.key=value"
            )
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def make_benchmark(config: StudyConfig):
    if config.benchmark == "cylinder":
        return CylinderBenchmark()
    if config.benchmark == "lshape":
        return LShapeBenchmark(grading=config.grading)
    return PatchBenchmark()


def resolve_variant(variant: str, benchmark) -> str:
    """Splitting needs a singular field; smooth problems drop the X."""
    if benchmark.singular_field is None and variant in ("SPR-X", "SPR-CX"):
        resolved = "SPR" if variant == "SPR-X" else "SPR-C"
        log.info(
            "%s has no singular field: running %s as %s",
            benchmark.name, variant, resolved,
        )
        return resolved
    return variant


@dataclass(frozen=True)
class CaseResult:
    level: int
    report: ErrorReport
    # the recovery variant that ran (see resolve_variant); not reported
    variant: str
    # intensity factors the recovery actually used (splitting variants only):
    # the configured ones under gsif_mode="exact", the extracted estimates
    # otherwise; None when no singular field entered the recovery.
    K_I: float | None = None
    K_II: float | None = None

    @property
    def dof(self) -> int:
        return self.report.dof


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    cases: tuple
    rates: dict = field(default_factory=dict)  # series name -> RateResult


def run_case(config: StudyConfig, level: int) -> CaseResult:
    """Solve + recover + error report for one mesh level of a study."""
    return _run_level(config, make_benchmark(config), level)


def _run_level(config: StudyConfig, benchmark, level: int) -> CaseResult:
    """run_case on a given benchmark object, shared by a study's levels."""
    mesh = benchmark.mesh(level)
    bcs = benchmark.boundary_conditions(mesh)
    solution = assemble_and_solve(
        mesh, benchmark.material, config.formulation_obj(), bcs
    )
    variant = resolve_variant(config.variant, benchmark)
    recovery = config.recovery_config(variant)
    singular_field = benchmark.singular_field
    recovered = build_recovered_field(
        solution,
        recovery,
        singular_field=singular_field,
        tractions=bcs.tractions,
        bcs=bcs,
    )
    report = compute_error_report(
        solution,
        recovered,
        benchmark.exact_stress,
        singular_point=benchmark.singular_vertex,
    )
    resolved_field = recovered.singular_field
    K_I = float(resolved_field.solution.K_I) if resolved_field is not None else None
    K_II = float(resolved_field.solution.K_II) if resolved_field is not None else None
    log.info(
        "%s level %d (%s, %s): dof=%d theta=%.4f",
        benchmark.name, level, config.formulation_obj().label(), variant,
        report.dof, report.theta,
    )
    return CaseResult(level=level, report=report, variant=variant, K_I=K_I, K_II=K_II)


def run_convergence_study(config: StudyConfig) -> StudyResult:
    """Run every level of the config and fit the three convergence rates.

    The levels share one benchmark object, so its set-up (the notch
    eigenvalue solve of the L-shape) runs once per study.
    """
    benchmark = make_benchmark(config)
    cases = tuple(_run_level(config, benchmark, level) for level in config.levels)
    rates = {}
    if len(cases) >= 2:
        dofs = tuple(c.dof for c in cases)
        for name in ("exact", "estimated", "recovered"):
            values = tuple(getattr(c.report, name) for c in cases)
            if all(v > 0.0 for v in values):
                rates[name] = convergence_rate(ConvergenceSeries(dofs, values))
    return StudyResult(config=config, cases=cases, rates=rates)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "level,dof,exact_error,estimated_error,recovered_error,"
    "theta,mD,sigmaD,rate_exact,rate_est"
)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def study_csv(study: StudyResult) -> str:
    """The study as CSV text; rate columns hold the step-to-step rates.

    A series without a rate (one of its values is not positive) leaves its
    rate cells empty.
    """
    lines = [CSV_COLUMNS]
    for i, case in enumerate(study.cases):
        r = case.report
        cells = [
            str(case.level),
            str(r.dof),
            _fmt(r.exact),
            _fmt(r.estimated),
            _fmt(r.recovered),
            _fmt(r.theta),
            _fmt(r.m_abs_D),
            _fmt(r.sigma_D),
        ]
        for name in ("exact", "estimated"):
            rate = study.rates.get(name)
            cells.append(_fmt(rate.pairwise[i - 1]) if i and rate is not None else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def study_json(study: StudyResult) -> str:
    """Full study record (per-element norms included), deterministic bytes."""
    cases = []
    for case in study.cases:
        r = case.report
        cases.append(
            {
                "level": case.level,
                "dof": r.dof,
                "exact_error": r.exact,
                "estimated_error": r.estimated,
                "recovered_error": r.recovered,
                "theta": r.theta,
                "m_abs_D": r.m_abs_D,
                "sigma_D": r.sigma_D,
                "excluded": r.excluded,
                "K_I": case.K_I,
                "K_II": case.K_II,
                "element_estimated": r.element_estimated.tolist(),
                "element_exact": r.element_exact.tolist(),
            }
        )
    doc = {
        "config": asdict(study.config),
        "cases": cases,
        "rates": {name: asdict(rate) for name, rate in study.rates.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_report(study: StudyResult, csv_path=None, json_path=None) -> None:
    """Write the CSV and/or JSON report files (newline-terminated ASCII)."""
    if csv_path is not None:
        with open(csv_path, "w", encoding="ascii") as f:
            f.write(study_csv(study))
    if json_path is not None:
        with open(json_path, "w", encoding="ascii") as f:
            f.write(study_json(study))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _preset_cylinder_subcells() -> tuple:
    return tuple(
        (f"nc{nc}", StudyConfig(benchmark="cylinder", nc=nc, levels=(1, 2, 3, 4)))
        for nc in (1, 2, 4, 8)
    )


def _preset_cylinder_variants() -> tuple:
    return tuple(
        (variant.lower(), StudyConfig(
            benchmark="cylinder", variant=variant, levels=(1, 2, 3, 4)
        ))
        for variant in ("SPR", "SPR-C")
    )


def _preset_cylinder_poly_order() -> tuple:
    return tuple(
        (f"p{deg}", StudyConfig(
            benchmark="cylinder",
            variant="SPR-C",
            interior_degree=deg,
            boundary_degree=deg,
            levels=(1, 2, 3, 4),
        ))
        for deg in (1, 2)
    )


def _preset_lshape_variants() -> tuple:
    return tuple(
        (variant.lower(), StudyConfig(
            benchmark="lshape", variant=variant, levels=(0, 1, 2, 3)
        ))
        for variant in ("SPR", "SPR-C", "SPR-X", "SPR-CX")
    )


PRESETS = {
    "cylinder-subcells": _preset_cylinder_subcells,
    "cylinder-variants": _preset_cylinder_variants,
    "cylinder-poly-order": _preset_cylinder_poly_order,
    "lshape-variants": _preset_lshape_variants,
}


def preset_cases(name: str) -> tuple:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r} (known: {', '.join(sorted(PRESETS))})"
        )
    return PRESETS[name]()


def run_preset(name: str, directory) -> list:
    """Run every case of a preset, writing {name}-{label}.{csv,json}.

    Returns the list of written paths.  Output is deterministic: running a
    preset twice produces byte-identical files.
    """
    cases = preset_cases(name)
    os.makedirs(directory, exist_ok=True)
    written = []
    for label, config in cases:
        study = run_convergence_study(config)
        csv_path = os.path.join(directory, f"{name}-{label}.csv")
        json_path = os.path.join(directory, f"{name}-{label}.json")
        emit_report(study, csv_path, json_path)
        written += [csv_path, json_path]
    return written
