"""Strain operators, stiffness assembly, and the solve path.

The independent checks here are the load-bearing ones for everything else in
the suite: the patch test (exact reproduction of linear fields), the smoothed
operator's analytic value on the unit square, agreement of the many-subcell
smoothed stiffness with the standard FEM one, and the strain energy of the
cylinder against a closed-form oracle integral.
"""

from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

import smoothfem.mesh as mesh_mod
from conftest import single_element_mesh
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from smoothfem.elasticity import Material, PLANE_STRAIN, elasticity_matrix
from smoothfem.mesh import (
    BoundaryEdge,
    Mesh,
    NEUMANN,
    SubcellGeometry,
    build_square_mesh,
    subcell_geometry,
)
from smoothfem.quadmap import (
    gauss_points_2d,
    invert_map,
    jacobian,
    map_point,
    shape_functions,
    shape_gradients,
)
from smoothfem.solver import (
    BoundaryConditions,
    DiscreteSolution,
    Formulation,
    SolveError,
    _element_operators,
    _neumann_vector,
    _scatter,
    assemble_and_solve,
    interpolate_solution,
    smoothed_strain_matrices,
    strain_matrix,
)

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
DISTORTED = np.array([[0.0, 0.0], [1.1, -0.1], [1.3, 0.9], [-0.2, 1.2]])
MAT = Material(100.0, 0.3, PLANE_STRAIN)
D = elasticity_matrix(MAT)

# exact strain energy of the quarter cylinder (a=5, b=20, P=1, E=3e7,
# nu=0.3, plane strain): 1/2 int sigma^T D^-1 sigma dA on the quadrant,
# evaluated by 60x60 Gauss-Legendre quadrature in polar coordinates of the
# closed-form Lame stresses -- fully independent of the FE machinery.
# (The solver's .energy() is U^T K U = 2 x strain energy = work done.)
CYLINDER_EXACT_UKU = 1.8605209826259367e-06


def zero_mode_count(K: np.ndarray) -> int:
    w = np.linalg.eigvalsh(K)
    return int(np.sum(np.abs(w) < 1e-12 * np.abs(w).max()))


def smoothed_B(corners, nc) -> np.ndarray:
    """Smoothed B (nc, 3, 8) of the subcells of a one-element mesh."""
    m = single_element_mesh(corners)
    return smoothed_strain_matrices(m.coords[m.elements], subcell_geometry(m, nc))[0]


def element_K(corners, kind, nc=4) -> np.ndarray:
    """8x8 stiffness of a one-element mesh."""
    ops = _element_operators(single_element_mesh(corners), MAT, Formulation(kind, nc))
    return ops.K[0]


# ---------------------------------------------------------------------------
# smoothed strain-displacement operator
# ---------------------------------------------------------------------------


def test_smoothed_operator_unit_square_analytic_value():
    # single-cell smoothing of the unit square: the operator equals the
    # element average of the compatible gradient; for node 0 at the origin,
    # grad N = (-(1-y), -(1-x)) averages to (-1/2, -1/2)
    (B,) = smoothed_B(UNIT, 1)
    assert B.shape == (3, 8)
    node0 = B[:, 0:2]
    assert_allclose(node0, [[-0.5, 0.0], [0.0, -0.5], [-0.5, -0.5]], atol=1e-14)


def test_smoothed_operator_rows_sum_to_zero():
    # translations produce zero smoothed strain: the four per-node blocks
    # cancel exactly
    for nc in (1, 2, 4, 8):
        for B in smoothed_B(DISTORTED, nc):
            block_sum = B[:, 0::2].sum(axis=1), B[:, 1::2].sum(axis=1)
            assert np.abs(np.concatenate(block_sum)).max() < 1e-12


def test_smoothed_operator_scales_inversely_with_size():
    (B1,) = smoothed_B(DISTORTED, 1)
    (B2,) = smoothed_B(2.0 * DISTORTED, 1)
    assert_allclose(B2, 0.5 * B1, rtol=1e-12)


# ---------------------------------------------------------------------------
# element stiffness
# ---------------------------------------------------------------------------


def test_element_stiffness_symmetry_and_kernel():
    cases = [("fem", None, 3)]
    for nc in (2, 4, 8):
        cases.append(("sfem", nc, 3))
    for kind, nc, expected_zero in cases:
        K = element_K(DISTORTED, kind, nc or 4)
        assert_allclose(K, K.T, atol=0.0)  # symmetrized exactly
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-12 * w.max()  # positive semidefinite
        assert zero_mode_count(K) == expected_zero


def test_single_cell_smoothing_has_spurious_modes():
    # nc=1 cannot see the two hourglass patterns: 2 extra zero modes
    K = element_K(DISTORTED, "sfem", 1)
    assert zero_mode_count(K) == 5


def test_rigid_rotation_is_zero_energy():
    for kind in ("sfem", "fem"):
        K = element_K(DISTORTED, kind, 4)
        u_rot = np.stack([-DISTORTED[:, 1], DISTORTED[:, 0]], axis=-1).ravel()
        assert np.abs(K @ u_rot).max() < 1e-10 * np.abs(K).max()


def test_many_subcells_approach_fem_stiffness(monkeypatch):
    # smoothing over an 8x8 subcell grid nearly restores pointwise
    # integration; entrywise agreement within 1% on a distorted quad
    monkeypatch.setitem(mesh_mod._SUBCELL_GRID, 64, (8, 8))
    m = single_element_mesh(DISTORTED)
    cells = subcell_geometry(m, 64)
    K_smooth = np.zeros((8, 8))
    for B, area in zip(smoothed_strain_matrices(DISTORTED[None], cells)[0], cells.areas[0]):
        K_smooth += B.T @ D @ B * area
    K_fem = element_K(DISTORTED, "fem")
    assert np.abs(K_smooth - K_fem).max() < 0.01 * np.abs(K_fem).max()


def test_formulation_validation():
    with pytest.raises(SolveError):
        Formulation("xfem")
    with pytest.raises(SolveError):
        Formulation("sfem", 3)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembled_stiffness_exactly_symmetric(cylinder_bm):
    mesh = cylinder_bm.mesh(1)
    for kind in ("sfem", "fem"):
        K = _scatter(mesh, _element_operators(mesh, cylinder_bm.material, Formulation(kind, 4)))
        skew = np.abs((K - K.T).toarray()).max()
        assert skew == 0.0


def named_edge_quad(corners):
    """One quad whose four edges are Neumann boundaries of their own names."""
    names = ("bottom", "right", "top", "left")
    boundary = [BoundaryEdge(0, k, (k, (k + 1) % 4), NEUMANN, names[k]) for k in range(4)]
    return Mesh(corners, np.array([[0, 1, 2, 3]]), boundary)


def hand_loads():
    # unit traction (1, 0) on the right edge, the other three free
    def pull(points, normal):
        return np.broadcast_to([1.0, 0.0], np.shape(points)).copy()

    def free(points, normal):
        return np.zeros_like(np.asarray(points, float))

    return BoundaryConditions(
        tractions={"right": pull, "bottom": free, "top": free, "left": free}
    )


def swirl_loads():
    # a traction depending nonlinearly on the position and on the normal
    def swirl(points, normal):
        p = np.asarray(points, float)
        return np.stack([np.sin(p[..., 1]) + normal[..., 0], p[..., 0] ** 3 - normal[..., 1]], -1)

    return BoundaryConditions(tractions=dict.fromkeys(("bottom", "right", "top", "left"), swirl))


def test_neumann_vector_hand_values():
    # each of the two right-hand nodes receives half the resultant
    f = _neumann_vector(named_edge_quad(UNIT), hand_loads())
    expected = np.zeros(8)
    expected[2] = 0.5  # node 1, x
    expected[4] = 0.5  # node 2, x
    assert_allclose(f, expected, atol=1e-14)


def per_edge_neumann_vector(mesh, bcs):
    """Reference for _neumann_vector: one edge and Gauss point at a time."""
    from smoothfem.quadmap import gauss_points_1d

    f = np.zeros(2 * mesh.n_nodes)
    gp, gw = gauss_points_1d(2)
    for be in mesh.boundary:
        if be.kind != NEUMANN:
            continue
        t_fn = bcs.tractions[be.name]
        a, b = be.node_ids
        pa, pb = mesh.coords[a], mesh.coords[b]
        half = 0.5 * (pb - pa)
        midpoint = 0.5 * (pa + pb)
        jac = np.linalg.norm(half)
        normal = np.array([half[1], -half[0]]) / jac
        for s, w in zip(gp, gw):
            x = midpoint + s * half
            t = np.asarray(t_fn(x[None, :], normal), dtype=float).reshape(2)
            Na, Nb = 0.5 * (1.0 - s), 0.5 * (1.0 + s)
            f[2 * a : 2 * a + 2] += Na * t * w * jac
            f[2 * b : 2 * b + 2] += Nb * t * w * jac
    return f


@pytest.mark.parametrize("case", ["square", "distorted-quad", "lshape-2", "cylinder-3"])
def test_neumann_vector_matches_the_per_edge_loop_bit_for_bit(case):
    if case == "square":
        mesh, bcs = named_edge_quad(UNIT), hand_loads()
    elif case == "distorted-quad":
        mesh, bcs = named_edge_quad(DISTORTED), swirl_loads()
    else:
        name, level = case.split("-")
        bm = {"lshape": LShapeBenchmark(), "cylinder": CylinderBenchmark()}[name]
        mesh = bm.mesh(int(level))
        bcs = bm.boundary_conditions(mesh)
    f = _neumann_vector(mesh, bcs)
    assert np.array_equal(f, per_edge_neumann_vector(mesh, bcs))
    assert np.count_nonzero(f) > 0


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda p, n: np.full(np.shape(p), np.nan), "non-finite"),
        (lambda p, n: np.array([1.0, 0.0]), "shape"),
        (lambda p, n: np.zeros((len(p), 3)), "shape"),
    ],
    ids=["nan", "one-vector", "three-columns"],
)
@pytest.mark.parametrize("name", ["outer", "notch"])
def test_bad_traction_output_names_the_boundary(lshape_bm, bad, match, name):
    mesh = lshape_bm.mesh(1)
    bcs = lshape_bm.boundary_conditions(mesh)
    bcs = BoundaryConditions(tractions={**bcs.tractions, name: bad}, pins=bcs.pins)
    with pytest.raises(SolveError, match=rf"boundary '{name}'.*{match}"):
        assemble_and_solve(mesh, lshape_bm.material, Formulation("sfem", 4), bcs)


# ---------------------------------------------------------------------------
# the patch test
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,nc", [("fem", 4), ("sfem", 1), ("sfem", 2), ("sfem", 4), ("sfem", 8)]
)
def test_patch_test_reproduces_linear_field(patch_bm, kind, nc):
    mesh = patch_bm.mesh()
    bcs = patch_bm.boundary_conditions(mesh)
    sol = assemble_and_solve(mesh, patch_bm.material, Formulation(kind, nc), bcs)
    exact = patch_bm.exact_displacement(mesh.coords)
    assert np.abs(sol.U.reshape(-1, 2) - exact).max() < 1e-10

    sigma = patch_bm.exact_stress(np.zeros((1, 2)))[0]
    assert np.abs(sol.cell_stress - sigma).max() < 1e-10


def test_fem_and_sfem_agree_on_rectangles_under_constant_strain():
    bm = PatchBenchmark(n=3, distortion=0.0)
    mesh = bm.mesh()
    bcs = bm.boundary_conditions(mesh)
    U = [
        assemble_and_solve(mesh, bm.material, Formulation(kind, 4), bcs).U
        for kind in ("fem", "sfem")
    ]
    assert np.abs(U[0] - U[1]).max() < 1e-10


def test_zero_displacement_zero_stress(patch_bm):
    mesh = patch_bm.mesh()
    sol = interpolate_solution(
        mesh, patch_bm.material, Formulation("sfem", 4), lambda p: np.zeros_like(p)
    )
    assert np.abs(sol.cell_stress).max() == 0.0
    assert sol.energy() == 0.0


# ---------------------------------------------------------------------------
# cylinder: energy oracle, work balance, wall-stress regression
# ---------------------------------------------------------------------------


def test_cylinder_energy_against_closed_form(solve_cached):
    _, _, sol = solve_cached("cylinder", 1, "sfem", 4)
    dev = abs(sol.energy() - CYLINDER_EXACT_UKU) / CYLINDER_EXACT_UKU
    assert dev < 0.10  # measured 0.082 on the level-1 mesh


def test_work_balance(solve_cached):
    # homogeneous symmetry constraints do no work, so U^T K U = U^T f holds
    # with the Neumann vector alone
    mesh, bcs, sol = solve_cached("cylinder", 2, "sfem", 4)
    f = _neumann_vector(mesh, bcs)
    work = float(sol.U @ f)
    assert abs(sol.energy() - work) < 1e-9 * abs(work)


def test_inner_wall_radial_stress_regression(solve_cached, cylinder_bm):
    # sigma_rr of the wall-adjacent subcells vs the applied -P.  The exact
    # field itself deviates ~40% at the level-2 subcell centroids (steep
    # 1/r^2 gradient), so the frozen bands track the measured baseline:
    # 0.409 at level 2, 0.235 at level 3, improving under refinement.
    P = cylinder_bm.P
    devs = {}
    for level, bound in ((2, 0.45), (3, 0.25)):
        mesh, _, sol = solve_cached("cylinder", level, "sfem", 4)
        worst = 0.0
        for be in mesh.boundary:
            if be.name != "pressure":
                continue
            e = be.element_id
            for c, corners in enumerate(sol.operators.cells.corners[e]):
                centroid = corners.mean(axis=0)
                r = np.linalg.norm(centroid)
                n = centroid / r
                s = sol.cell_stress[e, c]
                srr = (
                    s[0] * n[0] ** 2 + s[1] * n[1] ** 2 + 2.0 * s[2] * n[0] * n[1]
                )
                worst = max(worst, abs(srr + P) / P)
        devs[level] = worst
        assert worst < bound
    assert devs[3] < devs[2]


# ---------------------------------------------------------------------------
# solve-path diagnostics and misc
# ---------------------------------------------------------------------------


def test_unconstrained_problem_names_rigid_modes():
    m = single_element_mesh(UNIT)
    bcs = BoundaryConditions(
        tractions={"free": lambda p, n: np.zeros_like(np.asarray(p, float))}
    )
    with pytest.raises(SolveError, match="rigid"):
        assemble_and_solve(m, MAT, Formulation("sfem", 4), bcs)


def test_rigid_mode_diagnosis_names_the_loose_modes():
    from smoothfem.solver import _diagnose_rigid_modes

    m = single_element_mesh(UNIT)
    K = _scatter(m, _element_operators(m, MAT, Formulation("fem")))
    all_free = np.arange(8)
    assert set(_diagnose_rigid_modes(m, K, all_free)) == {
        "translation-x", "translation-y", "rotation",
    }
    pinned_node0 = np.arange(2, 8)  # node 0 fully fixed: rotation survives
    names = _diagnose_rigid_modes(m, K, pinned_node0)
    assert any("rotation" in n for n in names)


def test_torque_on_pinned_corner_does_not_return_garbage():
    # one pinned corner leaves the rotation free; loading it with a couple
    # must end in a SolveError (never a silently wrong solution)
    m = single_element_mesh(UNIT)

    def torque(points, normal):
        p = np.asarray(points, float) - 0.5
        return np.stack([-p[..., 1], p[..., 0]], axis=-1)

    bcs = BoundaryConditions(
        tractions={"free": torque}, pins=((0, 0, 0.0), (0, 1, 0.0))
    )
    with pytest.raises(SolveError):
        assemble_and_solve(m, MAT, Formulation("fem"), bcs)


def test_exact_error_decreases_under_refinement(study_cached):
    cyl = study_cached(
        benchmark="cylinder", formulation="sfem", nc=4, levels=(1, 2, 3, 4),
        variant="SPR-CX",
    )
    errors = [c.report.exact for c in cyl.cases]
    assert all(a > b for a, b in zip(errors, errors[1:]))

    lshape = study_cached(
        benchmark="lshape", formulation="sfem", nc=4, levels=(0, 1, 2, 3),
        variant="SPR-CX", gsif_mode="exact",
    )
    errors = [c.report.exact for c in lshape.cases]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_interpolate_solution_contract(patch_bm):
    mesh = patch_bm.mesh()
    sol = interpolate_solution(
        mesh, patch_bm.material, Formulation("sfem", 4), patch_bm.exact_displacement
    )
    assert_allclose(
        sol.U.reshape(-1, 2), patch_bm.exact_displacement(mesh.coords), rtol=1e-15
    )
    with pytest.raises(SolveError):
        interpolate_solution(
            mesh, patch_bm.material, Formulation("fem"), lambda p: np.zeros(3)
        )


def test_solution_vector_is_read_only(solve_cached):
    _, _, sol = solve_cached("cylinder", 1, "sfem", 4)
    with pytest.raises(ValueError):
        sol.U[0] = 1.0


def test_solution_stresses_and_operators_are_read_only():
    mesh = build_square_mesh(2, distortion=0.2, seed=3)
    for form in (Formulation("sfem", 4), Formulation("fem")):
        sol = interpolate_solution(mesh, MAT, form, lambda p: 0.01 * p)
        ops = sol.operators
        arrays = [sol.cell_stress, ops.K, ops.B, ops.dofs]
        if form.kind == "sfem":
            cells = ops.cells
            arrays += [
                cells.corners, cells.areas,
                cells.edge_midpoints, cells.edge_normals, cells.edge_lengths,
            ]
        else:
            arrays.append(ops.detw)
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1


# ---------------------------------------------------------------------------
# batch invariance: a kernel's output for an element does not depend on the
# batch it is computed in
# ---------------------------------------------------------------------------

BATCH_MESHES = {"lshape": LShapeBenchmark().mesh(1), "cylinder": CylinderBenchmark().mesh(2)}


# Scalar per-element / per-point reference formulas: the batched kernels
# must reproduce them bit for bit.


def _reference_inverse(corners, point):
    xi = np.zeros(2)
    for _ in range(20):
        res = map_point(corners, xi[0], xi[1]) - point
        J = jacobian(corners, xi[0], xi[1])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        step = np.array(
            [J[1, 1] * res[0] - J[0, 1] * res[1], -J[1, 0] * res[0] + J[0, 0] * res[1]]
        ) / det
        xi = xi - step
        if np.hypot(step[0], step[1]) < 1e-12:
            return xi
    raise AssertionError("reference Newton did not converge")


def _reference_cells(corners, rects):
    out = []
    for x0, x1, e0, e1 in rects:
        pc = np.array([[x0, e0], [x1, e0], [x1, e1], [x0, e1]])
        phys = map_point(corners, pc[:, 0], pc[:, 1])
        x, y = phys[:, 0], phys[:, 1]
        area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        nxt = np.roll(phys, -1, axis=0)
        tang = nxt - phys
        lengths = np.linalg.norm(tang, axis=1)
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=-1) / lengths[:, None]
        out.append((area, 0.5 * (phys + nxt), normals, lengths))
    return out


def _reference_smoothed_B(corners, mids, normals, lengths, area):
    B = np.zeros((3, 8))
    for mid, (nx, ny), length in zip(mids, normals, lengths):
        xi = _reference_inverse(corners, mid)
        w = length * shape_functions(xi[0], xi[1])
        B[0, 0::2] += nx * w
        B[1, 1::2] += ny * w
        B[2, 0::2] += ny * w
        B[2, 1::2] += nx * w
    return B / area


def _reference_fem_B(corners, xi, eta):
    G = shape_gradients(xi, eta)
    J = jacobian(corners, xi, eta)
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    invJ = np.array([[J[1, 1], -J[0, 1]], [-J[1, 0], J[0, 0]]]) / det
    dN = G @ invJ
    B = np.zeros((3, 8))
    B[0, 0::2] = dN[:, 0]
    B[1, 1::2] = dN[:, 1]
    B[2, 0::2] = dN[:, 1]
    B[2, 1::2] = dN[:, 0]
    return B, float(det)


@pytest.mark.parametrize("name", sorted(BATCH_MESHES))
@pytest.mark.parametrize("kind,nc", [("sfem", 2), ("sfem", 8), ("fem", 4)])
def test_kernels_match_the_scalar_reference_bit_for_bit(name, kind, nc):
    mesh = BATCH_MESHES[name]
    full = _element_operators(mesh, MAT, Formulation(kind, nc))
    pts, wts = gauss_points_2d(2)
    for e in np.random.default_rng(7).permutation(mesh.n_elements)[:12]:
        corners = mesh.element_corners(e)
        Ke = np.zeros((8, 8))
        if kind == "sfem":
            cells = _reference_cells(corners, mesh_mod.subcell_parent_rects(nc))
            for c, (area, mids, normals, lengths) in enumerate(cells):
                assert area == full.cells.areas[e, c]
                assert np.array_equal(mids, full.cells.edge_midpoints[e, c])
                assert np.array_equal(normals, full.cells.edge_normals[e, c])
                assert np.array_equal(lengths, full.cells.edge_lengths[e, c])
                B = _reference_smoothed_B(corners, mids, normals, lengths, area)
                assert np.array_equal(B, full.B[e, c])
                Ke += B.T @ D @ B * area
        else:
            for g, ((xi, eta), w) in enumerate(zip(pts, wts)):
                B, det = _reference_fem_B(corners, xi, eta)
                assert np.array_equal(B, full.B[e, g])
                assert det * w == full.detw[e, g]
                Ke += B.T @ D @ B * det * w
        assert np.array_equal(0.5 * (Ke + Ke.T), full.K[e])


@pytest.mark.parametrize("name", sorted(BATCH_MESHES))
@pytest.mark.parametrize(
    "kind,nc", [("sfem", 1), ("sfem", 2), ("sfem", 4), ("sfem", 8), ("fem", 4)]
)
def test_kernels_are_batch_invariant(name, kind, nc):
    mesh = BATCH_MESHES[name]
    full = _element_operators(mesh, MAT, Formulation(kind, nc))
    rng = np.random.default_rng(nc + 10 * len(name))
    subset = rng.permutation(mesh.n_elements)[: mesh.n_elements // 3]
    corners = mesh.coords[mesh.elements[subset]]
    if kind == "sfem":
        geometry = subcell_geometry(mesh, nc)
        cells = SubcellGeometry(*(getattr(geometry, f.name)[subset] for f in fields(geometry)))
        for field in ("corners", "areas", "edge_midpoints", "edge_normals", "edge_lengths"):
            assert np.array_equal(getattr(cells, field), getattr(full.cells, field)[subset])
        assert np.array_equal(smoothed_strain_matrices(corners, cells), full.B[subset])
    else:
        pts, _ = gauss_points_2d(2)
        n_g = len(pts)
        B, det = strain_matrix(
            np.repeat(corners, n_g, axis=0),
            np.tile(pts[:, 0], len(subset)),
            np.tile(pts[:, 1], len(subset)),
        )
        assert np.array_equal(B.reshape(-1, n_g, 3, 8), full.B[subset])
        _, w = gauss_points_2d(2)
        assert np.array_equal(det.reshape(-1, n_g) * w, full.detw[subset])
    # batches of one: one-element meshes, and single points for FEM B
    for e in subset[:8]:
        c = mesh.element_corners(e)
        one = _element_operators(single_element_mesh(c), MAT, Formulation(kind, nc))
        assert np.array_equal(one.B[0], full.B[e])
        assert np.array_equal(one.K[0], full.K[e])
        if kind == "fem":
            for g, (xi, eta) in enumerate(pts):
                B, _ = strain_matrix(c[None], np.array([xi]), np.array([eta]))
                assert np.array_equal(B[0], full.B[e, g])


def test_fem_point_stresses_are_batch_invariant():
    mesh = BATCH_MESHES["cylinder"]
    bm = CylinderBenchmark()
    sol = interpolate_solution(mesh, bm.material, Formulation("fem"), bm.exact_displacement)
    pts, _ = gauss_points_2d(4)
    rng = np.random.default_rng(5)
    for e in rng.permutation(mesh.n_elements)[:10]:
        batch = sol.stress_at_parents([e], pts)[0]
        order = rng.permutation(len(pts))
        assert np.array_equal(sol.stress_at_parents([e], pts[order])[0], batch[order])
        q = sol.U[sol.operators.dofs[e]]
        for k in order[:3]:
            B, _ = _reference_fem_B(mesh.element_corners(e), *pts[k])
            assert np.array_equal(sol.D @ (B @ q), batch[k])


@pytest.mark.parametrize("kind", ["sfem", "fem"])
def test_point_fields_are_invariant_under_element_subsets(solve_cached, kind):
    mesh, bcs, sol = solve_cached("lshape", 1, kind, 4)
    rng = np.random.default_rng(13)
    pts = np.vstack([gauss_points_2d(4)[0], rng.uniform(-1.0, 1.0, size=(5, 2))])
    subset = rng.permutation(mesh.n_elements)[: mesh.n_elements // 3]
    for method in (sol.stress_at_parents, sol.displacement_at_parents):
        full = method(np.arange(mesh.n_elements), pts)
        assert np.array_equal(method(subset, pts), full[subset])
        assert np.array_equal(method(subset[::-1], pts), full[subset[::-1]])
        for e in subset[:6]:
            assert np.array_equal(method([e], pts)[0], full[e])


def test_single_point_inversion_matches_the_batch():
    mesh = BATCH_MESHES["lshape"]
    rng = np.random.default_rng(8)
    elems = rng.integers(0, mesh.n_elements, size=200)
    corners = mesh.coords[mesh.elements[elems]]
    parent = rng.uniform(-1.0, 1.0, size=(200, 2))
    points = np.array([map_point(c, x, y) for c, (x, y) in zip(corners, parent)])
    batch = invert_map(corners, points)
    assert batch.shape == (200, 2)
    assert_allclose(batch, parent, atol=1e-10)
    for p in rng.permutation(200)[:25]:
        single = invert_map(corners[p], points[p])
        assert single.shape == (2,)
        assert np.array_equal(single, batch[p])
