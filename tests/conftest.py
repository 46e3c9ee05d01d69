"""Shared fixtures: benchmark objects and session-cached solves, and the
deterministic Hypothesis profile.

Solving the benchmark meshes dominates the suite's runtime, so discrete
solutions and whole convergence studies are computed once per session and
handed out by key.  Everything returned from these fixtures is shared —
treat it as read-only.
"""

import cProfile
import gc
import pathlib
import pstats
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from smoothfem.harness import StudyConfig, run_convergence_study
from smoothfem.mesh import BoundaryEdge, Mesh, NEUMANN
from smoothfem.quadmap import invert_map, shape_gradients
from smoothfem.solver import DiscreteSolution, Formulation, _element_operators, assemble_and_solve

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


TESTS_DIR = pathlib.Path(__file__).resolve().parent


def benchmark_variant(cls, **constants):
    """An instance of a subclass of benchmark ``cls`` whose class constants
    (load, material, geometry) are ``constants``: a variant of its problem."""
    return type(cls.__name__, (cls,), constants)()


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item, nextitem):
    """Collect garbage once, after the last test of this directory.

    By then the process holds ~1e5 objects (session caches, collected
    items, reports), and the cyclic collector owes a full pass over them
    (50-80 ms).
    Left pending, it lands inside whichever timed pass of
    perfbench/test_counts.py first allocates enough, outside every layer
    span, and breaks that test's span-coverage check.  perfbench/run.py
    starts each pass with gc.collect() for the same reason.
    """
    if nextitem is None or TESTS_DIR not in nextitem.path.resolve().parents:
        gc.collect()


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


def interpolate_solution(mesh, material, formulation, displacement) -> DiscreteSolution:
    """The DiscreteSolution whose nodal values interpolate ``displacement``
    (positions (n, 2) -> (n, 2)); nothing is solved, so residual_rel is 0."""
    u_nodes = np.asarray(displacement(mesh.coords), dtype=float)
    assert u_nodes.shape == (mesh.n_nodes, 2), u_nodes.shape
    B, _ = _element_operators(mesh, material, formulation)
    return DiscreteSolution(mesh, material, formulation, u_nodes.ravel(), B, 0.0)


def python_calls(*calls):
    """Python calls (cProfile's total_calls) made by running each (fn, *args)
    of ``calls`` once, in order, in one profile.

    The cyclic collector is off while profiling: a collection inside the
    profile would add the callbacks other libraries put in gc.callbacks
    (Hypothesis does) to the count.
    """
    profile = cProfile.Profile()
    gc.disable()
    try:
        for fn, *args in calls:
            profile.runcall(fn, *args)
    finally:
        gc.enable()
    return pstats.Stats(profile).total_calls


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes that stdlib tracemalloc traced while it
    ran: the most memory the call held at once beyond what was allocated
    before it, its result included.  numpy reports its array buffers to
    tracemalloc, so they count."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


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


def einsum_jacobian(corners, xi, eta):
    """Q4 Jacobian (..., 2, 2) by the einsum over the (..., 4, 2) gradient and
    corner stacks: the oracle that the componentwise Jacobian kernels must
    equal bit for bit."""
    return np.einsum("...ij,...ik->...kj", shape_gradients(xi, eta), np.asarray(corners, float))


def random_quads(rng, n):
    """n randomly distorted, rotated, scaled and shifted convex quads (n, 4, 2)."""
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    local = square + rng.uniform(-0.3, 0.3, size=(n, 4, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    cos, sin = np.cos(angle), np.sin(angle)
    rotation = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1, 1))
    shift = rng.uniform(-100.0, 100.0, size=(n, 1, 2))
    return scale * (local @ rotation.swapaxes(-1, -2)) + shift


def evaluate_at(field, element_id, point):
    """A recovered field's sigma* at a physical point inside an element."""
    mesh = field.mesh
    xi = invert_map(mesh.coords[mesh.elements[element_id]], np.asarray(point, float))
    assert np.all(np.abs(xi) <= 1.0 + 1e-9), f"{point} lies outside element {element_id}"
    # a point on the element's boundary may invert a rounding outside the square
    return field.evaluate_at_parents([element_id], np.clip(xi, -1.0, 1.0)[None])[0, 0]
