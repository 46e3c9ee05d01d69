"""Notch opening angles other than the L-shape's 3 pi / 2, end to end.

The L-shape grid is stretched in angle about its corner, (r, phi) ->
(r, phi * omega / (3 pi / 2)), which keeps its topology, boundary names and
grading and opens the material to the angle omega.  At omega = 2 pi the two
faces coincide: a crack with distinct nodes on each face.  The problem is
loaded by the exact two-mode eigenfield of that angle, as the L-shape is, so
the extracted intensity factors must approach the unit amplitudes.
"""

import numpy as np
import pytest

from smoothfem.analytic import NotchFrame, SingularField, make_singular_solution
from smoothfem.benchmarks import LShapeBenchmark
from smoothfem.error import compute_error_report
from smoothfem.gsif import extract_gsifs
from smoothfem.mesh import Mesh
from smoothfem.recovery import VARIANTS, RecoveryConfig, build_recovered_field
from smoothfem.solver import BoundaryConditions, Formulation, assemble_and_solve

BM = LShapeBenchmark()
FORMULATION = Formulation("sfem", 4)
OPENINGS = (1.25 * np.pi, 1.75 * np.pi, 2.0 * np.pi)


def _zero_traction(points, normal):
    return np.zeros_like(np.asarray(points, dtype=float))


def notch_problem(omega, level):
    """(mesh, singular field, bcs) of the L-shape opened to the angle omega."""
    base = BM.mesh(level)
    x, y = base.coords.T
    r = np.hypot(x, y)
    phi = np.arctan2(y, x)  # the face on the negative y-axis reads -pi/2
    phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi) * (omega / (1.5 * np.pi))
    coords = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    mesh = Mesh(coords, base.elements, base.boundary)
    field = SingularField(
        make_singular_solution(omega, BM.material, 1.0, 1.0),
        NotchFrame(vertex=(0.0, 0.0), bisector_angle=0.5 * omega),
    )
    # the benchmark's pins, on the nodes that were its corners
    corner = base.find_node((-1.0, -1.0))
    upper = base.find_node((-1.0, 1.0))
    u = field.displacement(coords[[corner, upper]])
    bcs = BoundaryConditions(
        tractions={"outer": field.traction, "notch": _zero_traction},
        dirichlet={},
        pins=((corner, 0, u[0, 0]), (corner, 1, u[0, 1]), (upper, 0, u[1, 0])),
    )
    return mesh, field, bcs


@pytest.mark.parametrize("omega", OPENINGS, ids=("1.25pi", "1.75pi", "2pi"))
def test_every_variant_runs_with_extracted_gsifs(omega):
    mesh, field, bcs = notch_problem(omega, 1)
    sol = assemble_and_solve(mesh, BM.material, FORMULATION, bcs)
    for variant in VARIANTS:
        config = RecoveryConfig(variant=variant, gsif_mode="extracted")
        recovered = build_recovered_field(
            sol, config, singular_field=field, tractions=bcs.tractions, bcs=bcs
        )
        report = compute_error_report(
            sol, recovered, field.stress, singular_point=(0.0, 0.0)
        )
        assert 0.5 < report.theta < 1.5, variant


@pytest.mark.parametrize("omega", OPENINGS, ids=("1.25pi", "1.75pi", "2pi"))
def test_extracted_gsifs_approach_the_unit_amplitudes(omega):
    mesh, field, bcs = notch_problem(omega, 2)
    sol = assemble_and_solve(mesh, BM.material, FORMULATION, bcs)
    est = extract_gsifs(sol, field, bcs)
    assert abs(est.K_I - 1.0) < 0.03
    assert abs(est.K_II - 1.0) < 0.03
