"""Results do not depend on where the domain sits or how it is turned.

The L-shape is rotated and translated as a whole, with the notch frame's
vertex and bisector moved to match, so the same physical problem is posed
in another frame.  Every stage then works on moved data: subcell geometry,
sampling positions, the patches' scaled frames (their scale is a largest
coordinate offset, which a rotation changes), the traction collocation
rows, the split of the singular field and the extraction of its
intensity.  Theta and K_I must come out the same to 1e-10 relative.

Two things limit which motions a test can use.  The benchmark removes
rigid motion with pins on global displacement components, and after a turn
by a general angle no set of component pins is the rotated set; the
discrete solution then changes by a rigid motion of the size of the
discretization error.  So the full pipeline is moved by translations and
quarter turns, which map the pins onto pins; general angles carry the
solved displacements along instead (no re-solve) and test the recovery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interpolate_solution
from smoothfem.analytic import NotchFrame, SingularField
from smoothfem.benchmarks import LShapeBenchmark
from smoothfem.error import compute_error_report
from smoothfem.mesh import Mesh
from smoothfem.recovery import RecoveryConfig, build_recovered_field
from smoothfem.solver import (
    BoundaryConditions,
    Formulation,
    assemble_and_solve,
)

BM = LShapeBenchmark()
LEVEL = 1
FORMULATION = Formulation("sfem", 4)

# the constrained fits minimize sxx^2 + syy^2 + sxy^2 residuals, which a
# turn by a general angle does not preserve (the tensor norm counts sxy
# twice); weighting the sxy block by 2 makes them invariant, but changes
# every constrained result
FRAME_DEPENDENT = pytest.mark.xfail(
    strict=True,
    reason="the constrained fit's least-squares objective weights sxy once, "
    "not twice as the stress tensor norm does, so it depends on the frame",
)


def _zero_traction(points, normal):
    return np.zeros_like(np.asarray(points, dtype=float))


def moved_problem(angle=0.0, shift=(0.0, 0.0)):
    """(mesh, singular field, bcs, rotation) of the L-shape turned and moved."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    shift = np.asarray(shift, dtype=float)
    base = BM.mesh(LEVEL)
    mesh = Mesh(base.coords @ rot.T + shift, base.elements, base.boundary)
    field = SingularField(
        BM.singular_field.solution,
        NotchFrame(vertex=tuple(shift), bisector_angle=BM.frame.bisector_angle + angle),
    )
    # the benchmark's pins: both components at one corner, and at a second
    # corner the component along which a rigid rotation about the first moves it
    corner = mesh.find_node(rot @ [-1.0, -1.0] + shift)
    upper = mesh.find_node(rot @ [-1.0, 1.0] + shift)
    arm = mesh.coords[upper] - mesh.coords[corner]
    comp = int(np.argmax(np.abs([arm[1], arm[0]])))
    u = field.displacement(mesh.coords[[corner, upper]])
    bcs = BoundaryConditions(
        tractions={"outer": field.traction, "notch": _zero_traction},
        dirichlet={},
        pins=((corner, 0, u[0, 0]), (corner, 1, u[0, 1]), (upper, comp, u[1, comp])),
    )
    return mesh, field, bcs, rot


def theta_and_K_I(sol, field, bcs, variant):
    """Effectivity and (splitting variants) the extracted K_I of one recovery."""
    rec = build_recovered_field(
        sol, RecoveryConfig(variant=variant, gsif_mode="extracted"),
        singular_field=field, tractions=bcs.tractions, bcs=bcs,
    )
    report = compute_error_report(sol, rec, field.stress, singular_point=field.frame.vertex)
    K_I = None if rec.singular_field is None else rec.singular_field.solution.K_I
    return report.theta, K_I


def solved_run(angle=0.0, shift=(0.0, 0.0)):
    """theta and K_I of SPR-CX on the moved problem, solved afresh."""
    mesh, field, bcs, _ = moved_problem(angle, shift)
    sol = assemble_and_solve(mesh, BM.material, FORMULATION, bcs)
    return theta_and_K_I(sol, field, bcs, "SPR-CX")


def carried_run(angle, variant):
    """theta and K_I with the unmoved solution's displacements turned along."""
    base, _, base_bcs, _ = moved_problem()
    U = assemble_and_solve(base, BM.material, FORMULATION, base_bcs).U.reshape(-1, 2)
    mesh, field, bcs, rot = moved_problem(angle)
    sol = interpolate_solution(mesh, BM.material, FORMULATION, lambda p: U @ rot.T)
    return theta_and_K_I(sol, field, bcs, variant)


def assert_close(got, want, rtol=1e-10):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert abs(g - w) <= rtol * abs(w)


@pytest.fixture(scope="module")
def natural():
    return solved_run()


def test_unmoved_run_is_the_benchmark_case(natural):
    mesh = BM.mesh(LEVEL)
    bcs = BM.boundary_conditions(mesh)
    sol = assemble_and_solve(mesh, BM.material, FORMULATION, bcs)
    assert theta_and_K_I(sol, BM.singular_field, bcs, "SPR-CX") == natural


@settings(max_examples=6, deadline=None)
@given(
    quarter_turns=st.integers(0, 3),
    dx=st.floats(-3.0, 3.0),
    dy=st.floats(-3.0, 3.0),
)
def test_theta_and_K_I_are_invariant_under_rigid_motion(natural, quarter_turns, dx, dy):
    assert_close(solved_run(0.5 * np.pi * quarter_turns, (dx, dy)), natural)


@pytest.mark.parametrize(
    "variant",
    ["SPR", "SPR-X",
     pytest.param("SPR-C", marks=FRAME_DEPENDENT),
     pytest.param("SPR-CX", marks=FRAME_DEPENDENT)],
)
def test_recovery_turns_with_the_solution(variant):
    want = carried_run(0.0, variant)
    for angle in (0.3, 1.0, -2.5):
        assert_close(carried_run(angle, variant), want)
