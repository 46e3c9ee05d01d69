"""Conformance over the documented input space, at each benchmark's coarsest level.

The grid is every combination README documents: cylinder level 1 and L-shape
level 0 at grading 1 and 20; FEM and SFEM with 1, 2, 4 or 8 smoothing cells;
all four recovery variants; fitting degrees 1 and 2; and both GSIF modes on
the L-shape (the cylinder has no singular field).  That is 200 configs.
"""

import itertools
import math

from smoothfem.harness import StudyConfig, run_case
from smoothfem.recovery import VARIANTS
from smoothfem.solver import SolveError

FORMULATIONS = (("fem", 4), ("sfem", 1), ("sfem", 2), ("sfem", 4), ("sfem", 8))
LOADED_MODES = "3 zero-energy mode(s) are unrestrained and loaded"


def documented_configs(levels=(1, 0), gradings=(1.0, 20.0)):
    """The documented-input grid; `levels` are the (cylinder, L-shape) mesh levels."""
    cylinder_level, lshape_level = levels
    for (formulation, nc), variant, degree in itertools.product(FORMULATIONS, VARIANTS, (1, 2)):
        common = dict(
            formulation=formulation, nc=nc, variant=variant,
            interior_degree=degree, boundary_degree=degree,
        )
        yield StudyConfig(benchmark="cylinder", levels=(cylinder_level,), **common)
        for grading, mode in itertools.product(gradings, ("exact", "extracted")):
            yield StudyConfig(
                benchmark="lshape", grading=grading, levels=(lshape_level,), gsif_mode=mode,
                **common,
            )


def test_every_documented_config_runs_or_raises_the_documented_failure():
    # One SFEM cell per element leaves zero-energy (hourglass) modes.  The
    # cylinder's load is orthogonal to its one global mode, so it solves;
    # the L-shape's is not, so its 32 nc = 1 configs raise SolveError naming
    # the three unrestrained, loaded modes of its assembled stiffness.
    failures, raised, ran = [], 0, 0
    for config in documented_configs():
        singular = config.benchmark == "lshape" and config.formulation == "sfem" and config.nc == 1
        try:
            report = run_case(config, config.levels[0]).report
        except SolveError as exc:
            if not (singular and str(exc).startswith(LOADED_MODES)):
                failures.append(f"{config}: {exc}")
            raised += 1
            continue
        ran += 1
        values = (report.theta, report.estimated, report.exact, report.recovered,
                  report.m_abs_D, report.sigma_D)
        if singular:
            failures.append(f"{config}: ran, but was expected to raise SolveError")
        elif not all(map(math.isfinite, values)) or not 0.5 < report.theta < 1.5:
            failures.append(f"{config}: theta {report.theta}, metrics {values}")
    assert (ran, raised) == (168, 32)
    assert not failures, "\n".join(failures)
