"""Results do not depend on how nodes and elements are numbered.

A random renumbering of a benchmark mesh changes only the order of
summation (assembly, patch sums), so the pipeline's numbers may move by
round-off and no more: theta, the global norms and the extracted K_I to
1e-12 relative; the per-element norms and the D statistics, which average
per-element ratios of nearly cancelling error norms, to 1e-10.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark
from smoothfem.error import compute_error_report
from smoothfem.mesh import BoundaryEdge, Mesh
from smoothfem.recovery import RecoveryConfig, build_recovered_field
from smoothfem.solver import Formulation, assemble_and_solve

CASES = {
    "lshape": (
        LShapeBenchmark(), 1, Formulation("sfem", 4),
        RecoveryConfig(variant="SPR-CX", gsif_mode="extracted"),
    ),
    "cylinder": (CylinderBenchmark(), 2, Formulation("fem"), RecoveryConfig(variant="SPR-C")),
}
TIGHT = ("theta", "estimated", "exact", "K_I")
LOOSE = ("m_abs_D", "sigma_D", "element_estimated", "element_exact")


def renumbered(mesh, node_perm, elem_perm):
    """The same mesh with node i called node_perm[i], element e elem_perm[e]."""
    coords = np.empty_like(mesh.coords)
    coords[node_perm] = mesh.coords
    elements = np.empty_like(mesh.elements)
    elements[elem_perm] = node_perm[mesh.elements]
    boundary = [
        BoundaryEdge(
            int(elem_perm[be.element_id]),
            be.local_edge,
            tuple(int(node_perm[n]) for n in be.node_ids),
            be.kind,
            be.name,
        )
        for be in mesh.boundary
    ]
    return Mesh(coords, elements, boundary)


def run(name, seed=None):
    """Summary numbers of one case, on a renumbered mesh unless seed is None."""
    bm, level, formulation, recovery = CASES[name]
    mesh = bm.mesh(level)
    elem_perm = np.arange(mesh.n_elements)
    if seed is not None:
        rng = np.random.default_rng(seed)
        elem_perm = rng.permutation(mesh.n_elements)
        mesh = renumbered(mesh, rng.permutation(mesh.n_nodes), elem_perm)
    bcs = bm.boundary_conditions(mesh)
    sol = assemble_and_solve(mesh, bm.material, formulation, bcs)
    field = build_recovered_field(
        sol, recovery, singular_field=bm.singular_field, tractions=bcs.tractions, bcs=bcs
    )
    report = compute_error_report(sol, field, bm.exact_stress, singular_point=bm.singular_vertex)
    out = {k: getattr(report, k) for k in ("theta", "estimated", "exact", "m_abs_D", "sigma_D")}
    out["K_I"] = None if field.singular_field is None else field.singular_field.solution.K_I
    # per-element norms in the natural element order
    out["element_estimated"] = report.element_estimated[elem_perm]
    out["element_exact"] = report.element_exact[elem_perm]
    return out


@pytest.fixture(scope="module")
def natural():
    return {name: run(name) for name in CASES}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_numbering(natural, name, seed):
    want = natural[name]
    got = run(name, seed)
    for key, rtol in [(k, 1e-12) for k in TIGHT] + [(k, 1e-10) for k in LOOSE]:
        if want[key] is None:
            assert got[key] is None
            continue
        assert np.all(np.abs(got[key] - want[key]) <= rtol * np.abs(want[key])), key
