"""Shared fixtures: benchmark objects and session-cached solves, and the
deterministic Hypothesis profile.

Solving the benchmark meshes dominates the suite's runtime, so discrete
solutions and whole convergence studies are computed once per session and
handed out by key.  Everything returned from these fixtures is shared —
treat it as read-only.
"""

import numpy as np
import pytest
from hypothesis import settings

from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from smoothfem.harness import StudyConfig, run_convergence_study
from smoothfem.mesh import BoundaryEdge, Mesh, NEUMANN
from smoothfem.quadmap import invert_map
from smoothfem.solver import Formulation, assemble_and_solve

# Every run draws the same examples (seeded from each test function), so a
# property test passes on every run or fails on every run, never by the luck
# of a seed; explicit @example cases still run first.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

BENCHMARKS = {
    "cylinder": CylinderBenchmark(),
    "lshape": LShapeBenchmark(),
    "patch": PatchBenchmark(),
}


@pytest.fixture(scope="session")
def cylinder_bm():
    return BENCHMARKS["cylinder"]


@pytest.fixture(scope="session")
def lshape_bm():
    return BENCHMARKS["lshape"]


@pytest.fixture(scope="session")
def patch_bm():
    return BENCHMARKS["patch"]


@pytest.fixture(scope="session")
def solve_cached():
    """(benchmark, level, kind, nc) -> (mesh, bcs, solution), solved once."""
    cache = {}

    def get(benchmark, level, kind="sfem", nc=4):
        key = (benchmark, level, kind, nc)
        if key not in cache:
            bm = BENCHMARKS[benchmark]
            mesh = bm.mesh(level)
            bcs = bm.boundary_conditions(mesh)
            solution = assemble_and_solve(
                mesh, bm.material, Formulation(kind, nc), bcs
            )
            cache[key] = (mesh, bcs, solution)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def study_cached():
    """StudyConfig kwargs -> StudyResult, one run per distinct config."""
    cache = {}

    def get(**kwargs):
        key = tuple(sorted(kwargs.items()))
        if key not in cache:
            cache[key] = run_convergence_study(StudyConfig(**kwargs))
        return cache[key]

    return get


def single_element_mesh(corners) -> Mesh:
    """One quad element with all four edges tagged as traction-free.

    Mesh construction insists the tagged boundary covers the topological
    boundary exactly, so even throwaway single-element meshes carry tags.
    """
    corners = np.asarray(corners, dtype=float)
    boundary = [
        BoundaryEdge(0, k, (k, (k + 1) % 4), NEUMANN, "free") for k in range(4)
    ]
    return Mesh(corners, np.array([[0, 1, 2, 3]]), boundary)


def evaluate_at(field, element_id, point):
    """A recovered field's sigma* at a physical point inside an element."""
    xi = invert_map(field.mesh.element_corners(element_id), np.asarray(point, float))
    assert np.all(np.abs(xi) <= 1.0 + 1e-9), f"{point} lies outside element {element_id}"
    return field.evaluate_at_parents([element_id], xi[None])[0, 0]
