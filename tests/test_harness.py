"""Study harness: INI configs, deterministic reports, presets, CLI."""

import importlib
import inspect
import json
import dataclasses
import pkgutil
import warnings

import numpy as np
import pytest

from smoothfem import harness
from smoothfem.benchmarks import LShapeBenchmark
from smoothfem.cli import _build_parser, main
from smoothfem.harness import (
    BENCHMARKS,
    CSV_COLUMNS,
    PRESETS,
    ConfigError,
    StudyConfig,
    StudyResult,
    apply_overrides,
    emit_report,
    make_benchmark,
    parse_config,
    preset_cases,
    resolve_variant,
    run_case,
    run_convergence_study,
    run_studies,
    study_csv,
    study_json,
)
from smoothfem.elasticity import MaterialError
from smoothfem.mesh import MeshError, save_mesh
from smoothfem.recovery import PatchFailure
from smoothfem.solver import SolveError, assemble_and_solve

GOLDEN_CSV = "tests/golden/cylinder_spr_c.csv"
GOLDEN_KWARGS = dict(
    benchmark="cylinder", formulation="sfem", nc=2, levels=(1, 2), variant="SPR-C"
)

FULL_INI = """\
[problem]
name = lshape
grading = 1.5

[discretization]
formulation = sfem
nc = 8
levels = 0 1 2

[recovery]
variant = SPR-X
interior_degree = 1
boundary_degree = 2
splitting_radius = 0.25
gsif_mode = extracted
"""


# ---------------------------------------------------------------------------
# config object
# ---------------------------------------------------------------------------


def test_defaults_are_valid():
    cfg = StudyConfig()
    assert cfg.benchmark == "cylinder"
    assert cfg.levels == (1, 2, 3)
    assert cfg.recovery_config().variant == "SPR-CX"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(benchmark="plate"),
        dict(levels=()),
        dict(levels=(1, 1)),
        dict(levels=(2, 1)),
        dict(levels=(1.5, 2)),
        dict(benchmark="cylinder", levels=(0, 1)),  # annulus starts at 1
        dict(formulation="xfem"),
        dict(formulation="sfem", nc=3),
        dict(variant="SPR-Q"),
        dict(interior_degree=3),
        dict(gsif_mode="guessed"),
        dict(benchmark="lshape", levels=(0,), grading=0.5),
        dict(benchmark="lshape", levels=(0,), grading=float("nan")),
        dict(benchmark="lshape", levels=(0,), grading=21.0),
        dict(benchmark="lshape", levels=(0,), variant="SPR-X", splitting_radius=float("nan")),
        # wrong types, each named with its value and type
        dict(benchmark="lshape", levels=(0,), grading="2"),
        dict(benchmark="lshape", levels=(0,), variant="SPR-X", splitting_radius="0.5"),
        dict(nc="4"),
        dict(nc=True),
        dict(nc=4.0),
        dict(grading=True),
        dict(levels=(True, 2)),
        dict(levels=[1, 2]),
        dict(variant=None),
    ],
)
def test_invalid_configs_raise(kwargs):
    with pytest.raises(ConfigError):
        StudyConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(grading="2"), "grading must be float, got '2' of type str"),
        (dict(splitting_radius="0.5"), "splitting_radius must be float, got '0.5' of type str"),
        (dict(nc="4"), "nc must be int, got '4' of type str"),
        (dict(nc=True), "nc must be int, got True of type bool"),
        (dict(nc=4.0), "nc must be int, got 4.0 of type float"),
        (dict(levels=(1, 2.0)), "levels must be int, got 2.0 of type float"),
        (dict(levels=[1, 2]), "levels must be tuple, got [1, 2] of type list"),
    ],
)
def test_a_wrongly_typed_field_is_named_with_its_value_and_type(kwargs, message):
    with pytest.raises(ConfigError) as info:
        StudyConfig(**kwargs)
    assert str(info.value) == message


def test_numpy_integers_are_stored_as_int_and_an_int_serves_for_a_float():
    cfg = StudyConfig(nc=np.int64(8), levels=(np.int64(1), np.int32(2)), grading=3)
    assert cfg == StudyConfig(nc=8, levels=(1, 2), grading=3.0)
    assert type(cfg.nc) is int and all(type(lv) is int for lv in cfg.levels)


def test_numpy_integer_levels_round_trip_through_the_json_report():
    cfg = StudyConfig(benchmark="patch", levels=(np.int64(0),))
    doc = json.loads(study_json(run_convergence_study(cfg)))
    assert doc["config"]["levels"] == [0]
    assert StudyConfig(**{**doc["config"], "levels": tuple(doc["config"]["levels"])}) == cfg


@pytest.mark.parametrize("levels", [(0, 1), (1,), (2,)])
def test_patch_benchmark_has_one_level(levels, patch_bm):
    # the patch test has one mesh: a ladder of levels would solve it repeatedly
    with pytest.raises(ConfigError, match="'patch' has one mesh"):
        StudyConfig(benchmark="patch", levels=levels)
    with pytest.raises(MeshError, match="patch benchmark has one mesh"):
        patch_bm.mesh(levels[-1])


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_declared_level_ranges_agree_with_the_mesh_builders(name):
    cls = BENCHMARKS[name]
    with pytest.raises(ConfigError, match="levels start at"):
        StudyConfig(benchmark=name, levels=(cls.levels.start - 1,))
    with pytest.raises(MeshError):
        cls().mesh(cls.levels.start - 1)
    assert StudyConfig(benchmark=name, levels=(cls.levels.start,)).levels == (cls.levels.start,)
    if len(cls.levels) == 1:
        with pytest.raises(MeshError):
            cls().mesh(cls.levels.stop)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("grading", [1.0, 1.5])
def test_make_benchmark_builds_the_class_from_its_declared_fields_only(name, grading):
    cls = BENCHMARKS[name]
    config = StudyConfig(benchmark=name, grading=grading, levels=(cls.levels.start,))
    declared = {f.name for f in dataclasses.fields(cls)}
    posed = {k: v for k, v in dataclasses.asdict(config).items() if k in declared}
    assert make_benchmark(config) == cls(**posed)
    assert set(posed) == ({"grading"} if name == "lshape" else set())


def test_a_benchmarks_fields_are_study_config_keys():
    # a study config poses the whole problem; every other value is a constant
    keys = {f.name for f in dataclasses.fields(StudyConfig)}
    for cls in BENCHMARKS.values():
        assert {f.name for f in dataclasses.fields(cls)} <= keys, cls.name


def test_as_dict_round_trips():
    cfg = StudyConfig(**GOLDEN_KWARGS)
    assert StudyConfig(**dataclasses.asdict(cfg)) == cfg


# ---------------------------------------------------------------------------
# INI parsing
# ---------------------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "study.ini"
    path.write_text(text, encoding="ascii")
    return str(path)


def test_parse_full_ini(tmp_path):
    cfg = parse_config(write_config(tmp_path, FULL_INI))
    assert cfg == StudyConfig(
        benchmark="lshape",
        grading=1.5,
        formulation="sfem",
        nc=8,
        levels=(0, 1, 2),
        variant="SPR-X",
        interior_degree=1,
        boundary_degree=2,
        splitting_radius=0.25,
        gsif_mode="extracted",
    )


def test_missing_sections_fall_back_to_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, "[problem]\nname = lshape\n"))
    assert cfg.benchmark == "lshape"
    assert cfg.nc == StudyConfig.nc
    assert cfg.variant == StudyConfig.variant


def test_unknown_section_and_key_are_hard_errors(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(write_config(tmp_path, "[solver]\ntol = 1e-9\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_config(tmp_path, "[problem]\nmaterial = steel\n"))


def test_bad_values_raise(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(write_config(tmp_path, "[discretization]\nnc = four\n"))
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(write_config(tmp_path, "[discretization]\nlevels = 1 two\n"))
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(write_config(tmp_path, "problem]\nname = lshape\n"))


def test_overrides_win(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text(FULL_INI, encoding="ascii")
    cfg = parse_config(
        path, overrides=["discretization.nc=2", "recovery.variant=SPR"]
    )
    assert cfg.nc == 2
    assert cfg.variant == "SPR"
    assert cfg.benchmark == "lshape"  # untouched keys survive


def test_override_format_is_checked():
    import configparser

    parser = configparser.ConfigParser()
    for bad in ("nc=2", "discretization.nc", "=3", "discretization.=3"):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides(parser, [bad])


def test_missing_config_file_raises(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# benchmarks and variant resolution
# ---------------------------------------------------------------------------


def test_make_benchmark_dispatch():
    assert make_benchmark(StudyConfig(benchmark="cylinder")).name == "cylinder"
    assert make_benchmark(StudyConfig(benchmark="patch", levels=(0,))).name == "patch"
    bm = make_benchmark(StudyConfig(benchmark="lshape", grading=1.25, levels=(0,)))
    assert bm.name == "lshape"
    assert bm.grading == 1.25


def test_variant_resolution_drops_splitting_without_singularity():
    cyl = make_benchmark(StudyConfig(benchmark="cylinder"))
    lsh = make_benchmark(StudyConfig(benchmark="lshape", levels=(0,)))
    assert resolve_variant("SPR-X", cyl) == "SPR"
    assert resolve_variant("SPR-CX", cyl) == "SPR-C"
    assert resolve_variant("SPR-C", cyl) == "SPR-C"
    assert resolve_variant("SPR-CX", lsh) == "SPR-CX"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_golden_csv_bytes(study_cached):
    study = study_cached(**GOLDEN_KWARGS)
    with open(GOLDEN_CSV, encoding="ascii") as f:
        assert study_csv(study) == f.read()


def test_csv_rate_column_matches_hand_computation(study_cached):
    study = study_cached(**GOLDEN_KWARGS)
    rows = study_csv(study).strip().split("\n")
    head = rows[0].split(",")
    first = dict(zip(head, rows[1].split(",")))
    second = dict(zip(head, rows[2].split(",")))
    assert first["rate_exact"] == "" and first["rate_est"] == ""
    d1, d2 = float(first["dof"]), float(second["dof"])
    e1, e2 = float(first["exact_error"]), float(second["exact_error"])
    expect = -(np.log(e2) - np.log(e1)) / (np.log(d2) - np.log(d1))
    assert abs(float(second["rate_exact"]) - expect) < 1e-9


def test_csv_leaves_the_rate_cells_of_a_series_with_a_zero_empty(monkeypatch, study_cached):
    study = study_cached(**GOLDEN_KWARGS)
    cases = {case.level: case for case in study.cases}

    def zero_exact_error(config, benchmark, level, solution, bcs):
        case = cases[level]
        if level == config.levels[-1]:
            case = dataclasses.replace(case, report=dataclasses.replace(case.report, exact=0.0))
        return case

    monkeypatch.setattr(harness, "_recover", zero_exact_error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log(0)
        zeroed = run_convergence_study(study.config)
        rows = [line.split(",") for line in study_csv(zeroed).splitlines()[1:]]
    assert set(zeroed.rates) == {"estimated", "recovered"}
    before = [line.split(",") for line in study_csv(study).splitlines()[1:]]
    assert [row[-2] for row in rows] == ["", ""]
    assert [row[-1] for row in rows] == [row[-1] for row in before]
    assert rows[1][-1] != ""


def test_empty_study_is_header_only():
    study = StudyResult(config=StudyConfig(**GOLDEN_KWARGS), cases=())
    assert study_csv(study) == CSV_COLUMNS + "\n"
    doc = json.loads(study_json(study))
    assert doc["cases"] == [] and doc["rates"] == {}


def test_json_structure_and_config_round_trip(study_cached):
    study = study_cached(**GOLDEN_KWARGS)
    doc = json.loads(study_json(study))
    assert doc["config"] == {**dataclasses.asdict(study.config), "levels": list(study.config.levels)}
    d = dict(doc["config"])
    d["levels"] = tuple(d["levels"])
    assert StudyConfig(**d) == study.config
    case = doc["cases"][0]
    assert case["K_I"] is None and case["K_II"] is None  # no singular field
    assert len(case["element_estimated"]) == len(case["element_exact"])
    np_est = np.asarray(case["element_estimated"])
    assert abs(np.sqrt((np_est**2).sum()) - case["estimated_error"]) < 1e-12
    assert set(doc["rates"]) == {"exact", "estimated", "recovered"}


def test_json_echoes_configured_gsifs(study_cached):
    study = study_cached(
        benchmark="lshape", levels=(0, 1), variant="SPR-CX", gsif_mode="exact"
    )
    doc = json.loads(study_json(study))
    for case in doc["cases"]:
        assert case["K_I"] == 1.0
        assert case["K_II"] == 0.0


def test_emit_report_writes_both_files(tmp_path, study_cached):
    study = study_cached(**GOLDEN_KWARGS)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    emit_report(study, csv_path=csv_path, json_path=json_path)
    assert csv_path.read_text(encoding="ascii") == study_csv(study)
    assert json_path.read_text(encoding="ascii") == study_json(study)


def _assert_same_report(a, b):
    """Bitwise: every float and every per-element array identical (nan
    entries of theta_e and D compare equal to nan)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert x == y, f.name


def test_a_study_makes_one_benchmark_for_all_its_levels(monkeypatch):
    made = []

    def counting_make_benchmark(config):
        made.append(config.levels)
        return make_benchmark(config)

    monkeypatch.setattr(harness, "make_benchmark", counting_make_benchmark)
    for levels in ((0,), (0, 1, 2)):
        config = StudyConfig(benchmark="lshape", levels=levels)
        study = run_convergence_study(config)
        assert made == [levels]
        made.clear()
    # sharing the benchmark changes no number: each case equals its run_case
    for case in study.cases:
        alone = run_case(config, case.level)
        _assert_same_report(case.report, alone.report)
        assert (case.K_I, case.K_II) == (alone.K_I, alone.K_II)


def test_run_studies_solves_each_discrete_problem_once_per_level(monkeypatch):
    configs = [
        dataclasses.replace(config, levels=levels)
        for name, levels in (("lshape-variants", (0, 1)), ("cylinder-variants", (1, 2)))
        for _, config in preset_cases(name)
    ]
    alone = [run_convergence_study(config) for config in configs]
    made, solved = [], []

    def counting_make_benchmark(config):
        made.append(config.benchmark)
        return make_benchmark(config)

    def counting_solve(mesh, material, formulation, bcs):
        solved.append((mesh.n_elements, formulation))
        return assemble_and_solve(mesh, material, formulation, bcs)

    monkeypatch.setattr(harness, "make_benchmark", counting_make_benchmark)
    monkeypatch.setattr(harness, "assemble_and_solve", counting_solve)
    together = run_studies(configs)
    assert made == ["lshape", "cylinder"]
    assert len(solved) == 4 and len(set(solved)) == 4
    # a study's reports do not depend on the studies that share its solves
    assert [s.config for s in together] == configs
    for shared, own in zip(together, alone):
        assert study_csv(shared) == study_csv(own)
        assert study_json(shared) == study_json(own)


def test_run_studies_solves_fem_configs_that_differ_only_in_nc_once(monkeypatch):
    # FEM has no smoothing cells, so its nc poses no other discrete problem
    configs = [
        StudyConfig(benchmark="cylinder", formulation="fem", nc=nc, levels=(1, 2), variant="SPR-C")
        for nc in (2, 4)
    ]
    alone = [run_convergence_study(config) for config in configs]
    solved = []

    def counting_solve(mesh, material, formulation, bcs):
        solved.append(mesh.n_elements)
        return assemble_and_solve(mesh, material, formulation, bcs)

    monkeypatch.setattr(harness, "assemble_and_solve", counting_solve)
    together = run_studies(configs)
    assert solved == [16, 64]
    # each study still reports the nc it was configured with
    assert [s.config.nc for s in together] == [2, 4]
    for shared, own in zip(together, alone):
        assert study_csv(shared) == study_csv(own)
        assert study_json(shared) == study_json(own)


def test_run_studies_solves_configs_that_differ_only_in_an_unread_grading_once(monkeypatch):
    # the cylinder and the patch ignore grading; the L-shape's mesh reads it
    configs = [
        StudyConfig(benchmark=name, grading=grading, levels=levels, variant="SPR-C")
        for name, levels in (("cylinder", (1,)), ("patch", (0,)), ("lshape", (0,)))
        for grading in (1.0, 2.0)
    ]
    solved = []

    def counting_solve(mesh, material, formulation, bcs):
        solved.append(mesh.n_elements)
        return assemble_and_solve(mesh, material, formulation, bcs)

    monkeypatch.setattr(harness, "assemble_and_solve", counting_solve)
    studies = run_studies(configs)
    # one solve each for the cylinder and the patch, two for the L-shape
    assert solved == [16, 16, 48, 48]
    for a, b in (studies[0:2], studies[2:4]):
        assert study_csv(a) == study_csv(b)
        for x, y in zip(a.cases, b.cases):
            _assert_same_report(x.report, y.report)


def test_run_studies_of_no_configs_is_empty():
    assert run_studies(()) == ()


def test_run_case_is_deterministic():
    cfg = StudyConfig(**GOLDEN_KWARGS)
    a = run_case(cfg, 1)
    b = run_case(cfg, 1)
    _assert_same_report(a.report, b.report)
    assert a.K_I == b.K_I


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_names_and_labels():
    assert set(PRESETS) == {
        "cylinder-subcells",
        "cylinder-variants",
        "cylinder-poly-order",
        "lshape-variants",
    }
    labels = [label for label, _ in preset_cases("cylinder-subcells")]
    assert labels == ["nc1", "nc2", "nc4", "nc8"]
    for _, cfg in preset_cases("lshape-variants"):
        assert cfg.benchmark == "lshape"
        assert cfg.levels == (0, 1, 2, 3)


def test_a_preset_with_a_failing_study_writes_no_files(tmp_path, monkeypatch):
    recover = harness._recover

    def fail_spr_c(config, *args):
        if config.variant == "SPR-C":
            raise SolveError("SPR-C failed")
        return recover(config, *args)

    monkeypatch.setattr(harness, "_recover", fail_spr_c)
    with pytest.raises(SolveError, match="SPR-C failed"):
        harness.run_preset("cylinder-variants", tmp_path / "out")
    assert list((tmp_path / "out").iterdir()) == []


def test_unknown_preset_raises():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_cases("cube-variants")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_succeeds(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[problem]\nname = cylinder\n"
        "[discretization]\nnc = 2\nlevels = 1\n"
        "[recovery]\nvariant = SPR-C\n",
    )
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "cylinder level 1" in out
    assert "theta=" in out


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "[problem]\nname = plate\n")
    assert main(["run", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, good, bad", [("cylinder", 1, 0), ("patch", 0, 2)])
def test_cli_run_rejects_a_level_the_benchmark_lacks(tmp_path, capsys, name, good, bad):
    # a bad --level is a usage error (exit 1), not a runtime failure
    cfg = write_config(tmp_path, f"[problem]\nname = {name}\n[discretization]\nlevels = {good}\n")
    assert main(["run", "--config", cfg, "--level", str(bad)]) == 1
    assert name in capsys.readouterr().err


@pytest.mark.parametrize(
    "override", ["problem.grading=0.5", "problem.grading=nan", "recovery.splitting_radius=nan"]
)
def test_cli_run_rejects_a_bad_grading_or_radius(tmp_path, capsys, override):
    # a bad grading or splitting radius is a configuration error (exit 1):
    # neither a mesh failure (exit 2) nor, for NaN, a silent SPR-C run
    cfg = write_config(tmp_path, "[problem]\nname = lshape\n[discretization]\nlevels = 0\n")
    assert main(["run", "--config", cfg, "--set", override]) == 1
    assert override.split(".")[1].split("=")[0].replace("_", " ") in capsys.readouterr().err


def test_cli_reports_runtime_failures(tmp_path, capsys, monkeypatch):
    import smoothfem.cli as cli_mod

    def boom(config, level):
        raise SolveError("system is singular")

    monkeypatch.setattr(cli_mod, "run_case", boom)
    cfg = write_config(tmp_path, "[problem]\nname = cylinder\n")
    assert main(["run", "--config", cfg]) == 2
    assert "singular" in capsys.readouterr().err


def package_exceptions():
    """Every exception class that a smoothfem module defines."""
    import smoothfem

    found = []
    for info in pkgutil.iter_modules(smoothfem.__path__):
        module = importlib.import_module(f"smoothfem.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                found.append(cls)
    return found


def test_cli_maps_every_package_error_to_its_exit_code(capsys, monkeypatch):
    # a configuration error exits 1; every other error the package defines
    # is a runtime failure, exit 2, never a traceback
    import smoothfem.cli as cli_mod

    errors = package_exceptions()
    assert {ConfigError, MaterialError, PatchFailure} <= set(errors)
    for cls in errors:
        exc = cls.__new__(cls)  # raisable whatever its constructor takes
        exc.args = (f"{cls.__name__} raised",)

        def boom(args, exc=exc):
            raise exc

        monkeypatch.setitem(cli_mod._COMMANDS, "preset", boom)
        assert main(["preset", "--list"]) == (1 if cls is ConfigError else 2), cls
        assert f"error: {cls.__name__} raised" in capsys.readouterr().err


def test_cli_prints_the_variant_that_ran(tmp_path, capsys, monkeypatch):
    import smoothfem.cli as cli_mod

    # the cylinder has no singular field, so SPR-CX runs as SPR-C
    text = (
        "[problem]\nname = cylinder\n"
        "[discretization]\nnc = 2\nlevels = 1\n"
        "[recovery]\nvariant = SPR-CX\n"
    )
    cfg = write_config(tmp_path, text)
    case = run_case(parse_config(cfg), 1)
    assert case.variant == "SPR-C"
    assert run_case(StudyConfig(benchmark="lshape", levels=(0,)), 0).variant == "SPR-CX"
    for verb in ("run", "study"):
        assert main([verb, "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "(sfem2, SPR-C):" in out
        assert "SPR-CX" not in out

    # the CLI prints the variant the case carries; it does not resolve again
    monkeypatch.setattr(
        cli_mod, "run_case", lambda config, level: dataclasses.replace(case, variant="SPR")
    )
    assert main(["run", "--config", cfg]) == 0
    assert "(sfem2, SPR):" in capsys.readouterr().out


def test_cli_programming_errors_keep_their_traceback(tmp_path, monkeypatch):
    import smoothfem.cli as cli_mod

    def broken(config, level):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli_mod, "run_case", broken)
    cfg = write_config(tmp_path, "[problem]\nname = cylinder\n")
    with pytest.raises(TypeError):
        main(["run", "--config", cfg])


def test_cli_study_writes_reports(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[problem]\nname = cylinder\n"
        "[discretization]\nnc = 2\nlevels = 1 2\n"
        "[recovery]\nvariant = SPR-C\n",
    )
    csv_path = tmp_path / "study.csv"
    assert main(["study", "--config", cfg, "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "rate exact:" in out
    with open(GOLDEN_CSV, encoding="ascii") as f:
        assert csv_path.read_text(encoding="ascii") == f.read()


def test_cli_study_creates_the_parents_of_its_reports(tmp_path, capsys):
    cfg = write_config(tmp_path, "[problem]\nname = cylinder\n[discretization]\nlevels = 1\n")
    csv_path, json_path = tmp_path / "new" / "study.csv", tmp_path / "newer" / "a" / "study.json"
    assert main(["study", "--config", cfg, "--csv", str(csv_path), "--json", str(json_path)]) == 0
    assert csv_path.read_text(encoding="ascii").startswith(CSV_COLUMNS)
    assert json.loads(json_path.read_text(encoding="ascii"))["config"]["levels"] == [1]


def test_cli_unusable_output_paths_are_configuration_errors(tmp_path, capsys, monkeypatch):
    import smoothfem.cli as cli_mod

    def unreachable(*args):
        raise AssertionError("ran before checking its output path")

    monkeypatch.setattr(cli_mod, "run_convergence_study", unreachable)
    monkeypatch.setattr(harness, "run_studies", unreachable)
    cfg = write_config(tmp_path, "[problem]\nname = cylinder\n[discretization]\nlevels = 1\n")
    a_file = tmp_path / "file"
    a_file.write_text("taken\n", encoding="ascii")
    for argv, path in [
        (["study", "--config", cfg, "--csv", str(a_file / "x.csv")], a_file / "x.csv"),
        (["preset", "cylinder-variants", "--out", str(a_file)], a_file),
        (["export-mesh", "--benchmark", "cylinder", "--level", "1", "--out", str(tmp_path)],
         tmp_path),
    ]:
        assert main(argv) == 1, argv
        assert f"error: cannot write {path}: " in capsys.readouterr().err
    assert a_file.read_text(encoding="ascii") == "taken\n"


def test_cli_preset_list(capsys):
    assert main(["preset", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert names == sorted(PRESETS)


def test_cli_preset_requires_name(capsys):
    assert main(["preset"]) == 1
    assert "preset name required" in capsys.readouterr().err


def test_cli_export_mesh(tmp_path, capsys, cylinder_bm):
    out = tmp_path / "meshes" / "cyl1.mesh"
    rc = main(
        ["export-mesh", "--benchmark", "cylinder", "--level", "1", "--out", str(out)]
    )
    assert rc == 0
    assert "16 elements" in capsys.readouterr().out
    save_mesh(cylinder_bm.mesh(1), tmp_path / "expected.mesh")
    assert out.read_bytes() == (tmp_path / "expected.mesh").read_bytes()


def test_cli_export_mesh_grading_default_is_the_lshape_benchmarks(tmp_path, capsys):
    # one owner of the default grading: the exported mesh is the study's
    args = _build_parser().parse_args(
        ["export-mesh", "--benchmark", "lshape", "--level", "1", "--out", "m"]
    )
    assert args.grading == LShapeBenchmark.grading == StudyConfig().grading
    out = tmp_path / "lshape1.mesh"
    assert main(["export-mesh", "--benchmark", "lshape", "--level", "1", "--out", str(out)]) == 0
    save_mesh(LShapeBenchmark().mesh(1), tmp_path / "expected.mesh")
    assert out.read_bytes() == (tmp_path / "expected.mesh").read_bytes()


def test_cli_export_mesh_bad_level(tmp_path, capsys):
    out = tmp_path / "bad.mesh"
    rc = main(["export-mesh", "--benchmark", "cylinder", "--level", "0", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    # an out-of-range grading is a configuration error too
    rc = main(["export-mesh", "--benchmark", "lshape", "--level", "0", "--grading", "0.5",
               "--out", str(out)])
    assert rc == 1
    assert "grading must lie in [1, 20], got 0.5" in capsys.readouterr().err
    assert not out.exists()


def test_cli_export_mesh_patch_has_level_0_only(tmp_path, capsys, patch_bm):
    out = tmp_path / "patch.mesh"
    rc = main(["export-mesh", "--benchmark", "patch", "--level", "2", "--out", str(out)])
    assert rc == 1
    assert "'patch' has one mesh" in capsys.readouterr().err
    assert not out.exists()
    assert main(["export-mesh", "--benchmark", "patch", "--level", "0", "--out", str(out)]) == 0
    save_mesh(patch_bm.mesh(0), tmp_path / "expected.mesh")
    assert out.read_bytes() == (tmp_path / "expected.mesh").read_bytes()
