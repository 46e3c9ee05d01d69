"""The README's examples run as written: the Python API example prints sane
numbers, and the INI example parses and runs through the CLI."""

import os
import re

from smoothfem.cli import main
from smoothfem.harness import StudyConfig, parse_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks(language):
    with open(README, encoding="utf-8") as f:
        return re.findall(rf"```{language}\n(.*?)```", f.read(), re.S)


def test_readme_python_example_runs(capsys):
    blocks = readme_blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.split("\n")
    theta, m_abs_D = map(float, lines[0].split())
    K_I = float(lines[1])
    # SPR-CX on the level-2 L-shape: a near-unit effectivity and the unit
    # amplitude of the loading eigenfield, extracted
    assert 0.9 < theta < 1.1 and 0.0 < m_abs_D < 0.5
    assert abs(K_I - 1.0) < 0.05


def test_readme_ini_example_parses_and_runs(tmp_path):
    blocks = readme_blocks("ini")
    assert len(blocks) == 1
    path = tmp_path / "study.ini"
    path.write_text(blocks[0], encoding="ascii")
    # the trailing "; ..." comments are not part of the values
    assert parse_config(path) == StudyConfig(
        benchmark="lshape",
        grading=2.0,
        formulation="sfem",
        nc=4,
        levels=(0, 1, 2, 3),
        variant="SPR-CX",
        interior_degree=2,
        boundary_degree=2,
        splitting_radius=0.5,
        gsif_mode="exact",
    )
    assert main(["run", "--config", str(path), "--level", "0"]) == 0
