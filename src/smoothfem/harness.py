"""Study driver: configs, convergence runs, deterministic CSV/JSON reports.

A study is one benchmark solved over a ladder of mesh levels with one
formulation + recovery pairing.  run_studies is the one runner: studies that
pose the same discrete problem share each level's solve, and run_case,
run_convergence_study and run_preset go through it.  Configuration lives in
INI files with three sections; every key has a default, unknown sections or
keys are hard errors (silent typos in a verification tool are worse than
crashes):

    [problem]        name, grading
    [discretization] formulation, nc, levels
    [recovery]       variant, interior_degree, boundary_degree,
                     splitting_radius, gsif_mode

Reports are byte-stable: no timestamps, fixed float formatting, sorted JSON
keys — rerunning a preset must reproduce files exactly.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from .error import ErrorReport, compute_error_report, convergence_rate
from .mesh import MeshError, check_grading
from .recovery import RecoveryConfig, RecoveryError, build_recovered_field
from .solver import Formulation, SolveError, assemble_and_solve

log = logging.getLogger(__name__)

BENCHMARKS = {cls.name: cls for cls in (CylinderBenchmark, LShapeBenchmark, PatchBenchmark)}

# INI section -> its keys; a key sets the StudyConfig field of its name,
# except [problem] name, which sets benchmark
_SECTIONS = {
    "problem": ("name", "grading"),
    "discretization": ("formulation", "nc", "levels"),
    "recovery": tuple(f.name for f in fields(RecoveryConfig)),
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
    grading: float = LShapeBenchmark.grading
    formulation: str = Formulation.kind
    nc: int = Formulation.nc
    levels: tuple = (1, 2, 3)
    variant: str = RecoveryConfig.variant
    interior_degree: int = RecoveryConfig.interior_degree
    boundary_degree: int = RecoveryConfig.boundary_degree
    splitting_radius: float = RecoveryConfig.splitting_radius
    gsif_mode: str = RecoveryConfig.gsif_mode

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
        accepted = BENCHMARKS[self.benchmark].levels
        if self.levels[0] < accepted.start:
            raise ConfigError(
                f"{self.benchmark} levels start at {accepted.start}, got {self.levels[0]}"
            )
        if len(accepted) == 1 and self.levels != tuple(accepted):
            raise ConfigError(
                f"benchmark {self.benchmark!r} has one mesh: "
                f"levels must be {tuple(accepted)}, got {self.levels}"
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
        kwargs = {f.name: getattr(self, f.name) for f in fields(RecoveryConfig)}
        return RecoveryConfig(**{**kwargs, "variant": self.variant if variant is None else variant})


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


def _problem(config: StudyConfig) -> tuple:
    """The benchmark class and the config's (name, value) of each field it declares too."""
    shared = {f.name for f in fields(StudyConfig)}
    cls = BENCHMARKS[config.benchmark]
    return cls, tuple((f.name, getattr(config, f.name)) for f in fields(cls) if f.name in shared)


def make_benchmark(config: StudyConfig):
    cls, posed = _problem(config)
    return cls(**dict(posed))


def resolve_variant(variant: str, benchmark) -> str:
    """Splitting needs a singular field; smooth problems drop the X."""
    if benchmark.singular_field is None and variant in ("SPR-X", "SPR-CX"):
        resolved = "SPR" if variant == "SPR-X" else "SPR-C"
        log.info("%s has no singular field: running %s as %s", benchmark.name, variant, resolved)
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


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    cases: tuple
    rates: dict = field(default_factory=dict)  # series name -> RateResult


def run_case(config: StudyConfig, level: int) -> CaseResult:
    """Solve + recover + error report for one mesh level of a study."""
    return run_studies((replace(config, levels=(level,)),))[0].cases[0]


def run_convergence_study(config: StudyConfig) -> StudyResult:
    """Run every level of the config and fit the three convergence rates."""
    return run_studies((config,))[0]


def run_studies(configs) -> tuple:
    """Run the studies, solving each discrete problem once per level.

    Configs with the same benchmark, formulation and values of the fields
    its class declares (the L-shape's grading) pose one discrete problem.
    They share one benchmark object (so the L-shape's notch eigenvalue
    solve runs once), and each level any of them has is meshed, loaded and
    solved once, in increasing order; every config with that level then
    recovers and reports on the one solution.  Nothing outlives the call,
    and the studies come back in the order of configs.
    """
    configs = tuple(configs)
    problems = {}  # (class, posed fields, formulation) -> indices into configs
    for i, config in enumerate(configs):
        key = (*_problem(config), config.formulation_obj())
        problems.setdefault(key, []).append(i)
    cases = [[] for _ in configs]
    for (_, _, formulation), members in problems.items():
        benchmark = make_benchmark(configs[members[0]])
        for level in sorted({level for i in members for level in configs[i].levels}):
            mesh = benchmark.mesh(level)
            bcs = benchmark.boundary_conditions(mesh)
            solution = assemble_and_solve(mesh, benchmark.material, formulation, bcs)
            for i in members:
                if level in configs[i].levels:
                    cases[i].append(_recover(configs[i], benchmark, level, solution, bcs))
            del mesh, bcs, solution  # not held while the next level is solved
    return tuple(_fit_rates(config, tuple(c)) for config, c in zip(configs, cases))


def _recover(config: StudyConfig, benchmark, level: int, solution, bcs) -> CaseResult:
    """One config's recovery and error report on a solved level."""
    variant = resolve_variant(config.variant, benchmark)
    recovered = build_recovered_field(
        solution, config.recovery_config(variant),
        singular_field=benchmark.singular_field, tractions=bcs.tractions, bcs=bcs,
    )
    report = compute_error_report(
        solution, recovered, benchmark.exact_stress, singular_point=benchmark.singular_vertex
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


def _fit_rates(config: StudyConfig, cases: tuple) -> StudyResult:
    """The study of the cases, with a rate for each series of positive values."""
    rates = {}
    if len(cases) >= 2:
        dofs = tuple(c.report.dof for c in cases)
        for name in ("exact", "estimated", "recovered"):
            values = tuple(getattr(c.report, name) for c in cases)
            if all(v > 0.0 for v in values):
                rates[name] = convergence_rate(dofs, values)
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


@contextlib.contextmanager
def writing(path):
    """Report an OSError from creating or writing the output path as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def emit_report(study: StudyResult, csv_path=None, json_path=None) -> None:
    """Write the CSV and/or JSON report files (newline-terminated ASCII)."""
    for path, render in ((csv_path, study_csv), (json_path, study_json)):
        if path is not None:
            with writing(path), open(path, "w", encoding="ascii") as f:
                f.write(render(study))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# preset name -> its (label, StudyConfig keywords) pairs, in run order
PRESETS = {
    "cylinder-subcells": tuple(
        (f"nc{nc}", dict(benchmark="cylinder", nc=nc, levels=(1, 2, 3, 4))) for nc in (1, 2, 4, 8)
    ),
    "cylinder-variants": tuple(
        (v.lower(), dict(benchmark="cylinder", variant=v, levels=(1, 2, 3, 4)))
        for v in ("SPR", "SPR-C")
    ),
    "cylinder-poly-order": tuple(
        (f"p{p}", dict(benchmark="cylinder", variant="SPR-C", interior_degree=p, boundary_degree=p,
                       levels=(1, 2, 3, 4)))
        for p in (1, 2)
    ),
    "lshape-variants": tuple(
        (v.lower(), dict(benchmark="lshape", variant=v, levels=(0, 1, 2, 3)))
        for v in ("SPR", "SPR-C", "SPR-X", "SPR-CX")
    ),
}


def preset_cases(name: str) -> tuple:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r} (known: {', '.join(sorted(PRESETS))})"
        )
    return tuple((label, StudyConfig(**kwargs)) for label, kwargs in PRESETS[name])


def run_preset(name: str, directory) -> list:
    """Run every study of a preset, writing {name}-{label}.{csv,json}.

    Returns the list of written paths.  Output is deterministic: running a
    preset twice produces byte-identical files.  The studies run in one
    run_studies call, so a failing study leaves no report files.
    """
    cases = preset_cases(name)
    with writing(directory):
        os.makedirs(directory, exist_ok=True)
    studies = run_studies(config for _, config in cases)
    written = []
    for (label, _), study in zip(cases, studies):
        csv_path = os.path.join(directory, f"{name}-{label}.csv")
        json_path = os.path.join(directory, f"{name}-{label}.json")
        emit_report(study, csv_path, json_path)
        written += [csv_path, json_path]
    return written
