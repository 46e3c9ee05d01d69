"""Strain operators, stiffness assembly, and the solve path.

The independent checks here are the load-bearing ones for everything else in
the suite: the patch test (exact reproduction of linear fields), the smoothed
operator's analytic value on the unit square, agreement of the many-subcell
smoothed stiffness with the standard FEM one, and the strain energy of the
cylinder against a closed-form oracle integral.
"""

import itertools
import re

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import smoothfem.mesh as mesh_mod
import smoothfem.solver as solver_mod
from conftest import (
    BENCHMARKS,
    benchmark_variant,
    einsum_jacobian,
    interpolate_solution,
    random_quads,
    single_element_mesh,
    traced_peak,
)
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from smoothfem.elasticity import Material, PLANE_STRAIN, elasticity_matrix
from smoothfem.error import _singular_elements
from smoothfem.mesh import (
    DIRICHLET,
    BoundaryEdge,
    Mesh,
    NEUMANN,
    build_square_mesh,
    subcell_corners,
    subcell_geometry,
)
from smoothfem.quadmap import (
    gauss_points_2d,
    invert_map,
    map_point,
    mapped_rule,
    shape_functions,
    shape_gradients,
)
from smoothfem.solver import (
    BoundaryConditions,
    DirichletSpec,
    Formulation,
    SolveError,
    _backward_error,
    _dirichlet_values,
    _element_operators,
    _free_rigid_modes,
    _neumann_vector,
    _scatter,
    assemble_and_solve,
    boundary_values,
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
# (U^T K U, as strain_work computes it, is 2 x strain energy = work done.)
CYLINDER_EXACT_UKU = 1.8605209826259367e-06


def strain_work(sol) -> float:
    """U^T K U of a solution, from its globally assembled stiffness."""
    _, stiffnesses = _element_operators(sol.mesh, sol.material, sol.formulation)
    K = _scatter(sol.mesh, stiffnesses)
    return float(sol.U @ (K @ sol.U))


def zero_mode_count(K: np.ndarray) -> int:
    w = np.linalg.eigvalsh(K)
    return int(np.sum(np.abs(w) < 1e-12 * np.abs(w).max()))


def smoothed_B(corners, nc) -> np.ndarray:
    """Smoothed B (nc, 3, 8) of the subcells of one quad."""
    quads = corners[None]
    return smoothed_strain_matrices(quads, subcell_geometry(quads, nc))[0]


def element_K(corners, kind, nc=4) -> np.ndarray:
    """8x8 stiffness of a one-element mesh."""
    _, K = _element_operators(single_element_mesh(corners), MAT, Formulation(kind, nc))
    return K[0]


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
    cells = subcell_geometry(DISTORTED[None], 64)
    K_smooth = np.zeros((8, 8))
    for B, area in zip(smoothed_strain_matrices(DISTORTED[None], cells)[0], cells.areas[0]):
        K_smooth += B.T @ D @ B * area
    K_fem = element_K(DISTORTED, "fem")
    assert np.abs(K_smooth - K_fem).max() < 0.01 * np.abs(K_fem).max()


def test_formulation_validation():
    with pytest.raises(SolveError):
        Formulation("xfem")
    # 4.0 and True equal the table keys 4 and 1; they would label as
    # sfem4.0 and sfemTrue and fail inside numpy at the solve
    for nc in (3, 4.0, True, "4", None):
        with pytest.raises(SolveError, match=r"^subcell count must be 1, 2, 4 or 8, got "):
            Formulation("sfem", nc)
    assert Formulation("sfem", np.int64(8)).label() == "sfem8"


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assembled_stiffness_exactly_symmetric(cylinder_bm):
    mesh = cylinder_bm.mesh(1)
    for kind in ("sfem", "fem"):
        _, Ke = _element_operators(mesh, cylinder_bm.material, Formulation(kind, 4))
        K = _scatter(mesh, Ke)
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


def per_edge_dirichlet_values(mesh, bcs):
    """Reference for _dirichlet_values: one edge and node at a time."""
    fixed = {}
    for be in mesh.boundary:
        if be.kind != DIRICHLET:
            continue
        spec = bcs.dirichlet[be.name]
        for node in be.node_ids:
            pos = mesh.coords[node]
            if spec.value is None:
                vals = np.zeros(2)
            else:
                vals = np.asarray(spec.value(pos[None, :]), dtype=float).reshape(2)
            for comp in spec.components:
                fixed[2 * node + comp] = float(vals[comp])
    for node, comp, value in bcs.pins:
        fixed[2 * int(node) + int(comp)] = float(value)
    return fixed


def clamped_corner_quad():
    """One quad whose bottom and left edges are Dirichlet boundaries that
    prescribe different values at the corner node 0 they share; a pin
    overrides one component of node 3, which the left edge also holds."""
    kinds = (DIRICHLET, NEUMANN, NEUMANN, DIRICHLET)
    names = ("bottom", "right", "top", "left")
    boundary = [BoundaryEdge(0, k, (k, (k + 1) % 4), kinds[k], names[k]) for k in range(4)]
    mesh = Mesh(DISTORTED, np.array([[0, 1, 2, 3]]), boundary)

    def free(points, normal):
        return np.zeros_like(np.asarray(points, float))

    bcs = BoundaryConditions(
        tractions={"right": free, "top": free},
        dirichlet={
            "bottom": DirichletSpec(components=(0, 1), value=lambda p: np.sin(p) + 2.0),
            "left": DirichletSpec(components=(1, 0), value=lambda p: np.exp(-p)),
        },
        pins=((3, 0, 0.25),),
    )
    return mesh, bcs


@pytest.mark.parametrize("case", ["patch", "cylinder-3", "lshape-1", "clamped-corner"])
def test_dirichlet_values_match_the_per_edge_loop_bit_for_bit(case):
    if case == "clamped-corner":
        mesh, bcs = clamped_corner_quad()
    else:
        name, _, level = case.partition("-")
        bm = {"patch": PatchBenchmark(), "lshape": LShapeBenchmark(),
              "cylinder": CylinderBenchmark()}[name]
        mesh = bm.mesh(int(level or 0))
        bcs = bm.boundary_conditions(mesh)
    dofs, vals = _dirichlet_values(mesh, bcs)
    want = per_edge_dirichlet_values(mesh, bcs)
    assert dofs.tolist() == sorted(want)
    assert np.array_equal(vals, [want[d] for d in sorted(want)])
    assert len(want) > 0


def test_dirichlet_corner_keeps_the_last_edge_and_pins_override():
    mesh, bcs = clamped_corner_quad()
    dofs, vals = _dirichlet_values(mesh, bcs)
    fixed = dict(zip(dofs.tolist(), vals.tolist()))
    # node 0 is on "bottom" (edge 0) and "left" (edge 3): the left edge wins
    assert fixed[0] == fixed[1] == 1.0
    assert fixed[6] == 0.25 and fixed[7] == np.exp(-DISTORTED[3, 1])
    assert sorted(fixed) == [0, 1, 2, 3, 6, 7]


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda p: np.full(np.shape(p), np.nan), "non-finite"),
        (lambda p: np.array([0.0, 0.0, 0.0]), "shape"),
        (lambda p: np.zeros((len(p), 3)), "shape"),
    ],
    ids=["nan", "three-vector", "three-columns"],
)
def test_bad_dirichlet_value_names_the_boundary(patch_bm, bad, match):
    mesh = patch_bm.mesh()
    bcs = BoundaryConditions(dirichlet={"exact": DirichletSpec(components=(0, 1), value=bad)})
    with pytest.raises(SolveError, match=rf"boundary 'exact'.*{match}"):
        assemble_and_solve(mesh, patch_bm.material, Formulation("sfem", 4), bcs)


@pytest.mark.parametrize("component", [2, -1])
def test_bad_dirichlet_component_names_the_boundary(patch_bm, component):
    # 2 used to end in numpy's IndexError, -1 to constrain u_y silently
    mesh = patch_bm.mesh()
    bcs = BoundaryConditions(dirichlet={"exact": DirichletSpec(components=(0, component))})
    with pytest.raises(SolveError, match=rf"boundary 'exact': component {component} is not"):
        assemble_and_solve(mesh, patch_bm.material, Formulation("sfem", 4), bcs)


@pytest.mark.parametrize(
    "pin, match",
    [
        ((0, 2, 0.0), "component 2 is not"),
        ((0, 0, np.nan), "value nan is not finite"),
        ((4, 0, 0.0), r"node 4 is not a node id in \[0, 4\)"),
        ((-1, 1, 0.0), r"node -1 is not a node id"),
    ],
    ids=["component", "nan-value", "node-past-the-mesh", "negative-node"],
)
def test_bad_pin_names_its_index_and_field(pin, match):
    # before the check, component 2 pinned node 1's u_x, a NaN value ended in
    # "non-finite values" from the solve and a node past the mesh in a
    # message that named no pin
    mesh, bcs = clamped_corner_quad()
    bad = BoundaryConditions(bcs.tractions, bcs.dirichlet, bcs.pins + (pin,))
    with pytest.raises(SolveError, match=rf"pin 1: {match}"):
        assemble_and_solve(mesh, Material(100.0, 0.3, PLANE_STRAIN), Formulation("sfem", 4), bad)


# ---------------------------------------------------------------------------
# the boundary-data evaluator and its four consumers
# ---------------------------------------------------------------------------


def counting(fns):
    """fns with each callable wrapped to record its name and arguments."""
    calls = []

    def wrap(name, fn):
        def counted(*args):
            calls.append((name, [np.array(a) for a in args]))
            return fn(*args)

        return counted

    return {name: wrap(name, fn) for name, fn in fns.items()}, calls


class BoundaryDataError(Exception):
    pass


def test_boundary_values_contract():
    names = np.array(["b", "a", "b", "c", "a"])
    points = np.arange(10.0).reshape(5, 2)
    normals = -points
    fns, calls = counting({n: (lambda p, nrm: p + nrm[:, ::-1]) for n in "abc"})
    t = boundary_values(fns, names, points, normals, BoundaryDataError)
    assert [name for name, _ in calls] == ["b", "a", "c"]
    for name, (p, nrm) in calls:
        assert np.array_equal(p, points[names == name])
        assert np.array_equal(nrm, normals[names == name])
    assert np.array_equal(t, points + normals[:, ::-1])
    # a Dirichlet value gets the points alone
    fns, calls = counting({n: (lambda p: -p) for n in "abc"})
    assert np.array_equal(boundary_values(fns, names, points), -points)
    assert [len(args) for _, args in calls] == [1, 1, 1]
    # a missing or None callable raises the caller's error, naming the boundary
    for fns in ({"a": np.add, "b": np.add}, {"a": np.add, "b": np.add, "c": None}):
        with pytest.raises(BoundaryDataError, match="no traction supplied for boundary 'c'"):
            boundary_values(fns, names, points, normals, BoundaryDataError)


def consumer_calls(consumer, solve_cached, lshape_bm):
    """(calls, names in order of first appearance) of one consumer."""
    from smoothfem.gsif import PlateauFunction, _boundary_terms
    from smoothfem.recovery import collocation_rows, neumann_edges

    if consumer == "dirichlet":
        mesh, bcs = clamped_corner_quad()
        fns, calls = counting({n: s.value for n, s in bcs.dirichlet.items()})
        specs = {n: DirichletSpec(s.components, fns[n]) for n, s in bcs.dirichlet.items()}
        _dirichlet_values(mesh, BoundaryConditions(bcs.tractions, specs, bcs.pins))
        return calls, ["bottom", "left"]
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    tractions, calls = counting(bcs.tractions)
    counted = BoundaryConditions(tractions, bcs.dirichlet, bcs.pins)
    if consumer == "neumann":
        _neumann_vector(mesh, counted)
    elif consumer == "gsif":
        # the wide plateau reaches the outer square as well as the notch
        vertex = lshape_bm.singular_field.frame.vertex
        plateau = PlateauFunction(center=vertex, r_plateau=0.45, r_outer=1.1)
        _boundary_terms(sol, counted, lshape_bm.singular_field, plateau)
    else:
        neumann = neumann_edges(mesh, tractions)
        nodes = np.nonzero(neumann.on[:, 0] >= 0)[0]
        collocation_rows(
            mesh, neumann, nodes, 2, scale=np.ones(len(nodes)),
            split=np.zeros(len(nodes), dtype=bool),
        )
    return calls, list(dict.fromkeys(mesh.boundary_arrays.names.tolist()))


@pytest.mark.parametrize("consumer", ["neumann", "dirichlet", "gsif", "collocation"])
def test_each_consumer_calls_each_callable_once_per_name(solve_cached, lshape_bm, consumer):
    calls, names = consumer_calls(consumer, solve_cached, lshape_bm)
    assert len(names) == 2
    assert [name for name, _ in calls] == names


def test_missing_traction_names_the_boundary(lshape_bm):
    mesh = lshape_bm.mesh(1)
    bcs = lshape_bm.boundary_conditions(mesh)
    bcs = BoundaryConditions(tractions={"outer": bcs.tractions["outer"]}, pins=bcs.pins)
    with pytest.raises(SolveError, match="no traction supplied for boundary 'notch'"):
        assemble_and_solve(mesh, lshape_bm.material, Formulation("sfem", 4), bcs)


def test_missing_dirichlet_spec_names_the_boundary(cylinder_bm):
    mesh = cylinder_bm.mesh(1)
    bcs = cylinder_bm.boundary_conditions(mesh)
    bcs = BoundaryConditions(bcs.tractions, {"sym_y": bcs.dirichlet["sym_y"]}, bcs.pins)
    with pytest.raises(SolveError, match="no constraint spec for Dirichlet boundary 'sym_x'"):
        assemble_and_solve(mesh, cylinder_bm.material, Formulation("sfem", 4), bcs)


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
    bm = benchmark_variant(PatchBenchmark, n=3, distortion=0.0)
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
    assert strain_work(sol) == 0.0


# ---------------------------------------------------------------------------
# cylinder: energy oracle, work balance, wall-stress regression
# ---------------------------------------------------------------------------


def test_cylinder_energy_against_closed_form(solve_cached):
    _, _, sol = solve_cached("cylinder", 1, "sfem", 4)
    dev = abs(strain_work(sol) - CYLINDER_EXACT_UKU) / CYLINDER_EXACT_UKU
    assert dev < 0.10  # measured 0.082 on the level-1 mesh


def test_work_balance(solve_cached):
    # homogeneous symmetry constraints do no work, so U^T K U = U^T f holds
    # with the Neumann vector alone
    mesh, bcs, sol = solve_cached("cylinder", 2, "sfem", 4)
    f = _neumann_vector(mesh, bcs)
    work = float(sol.U @ f)
    assert abs(strain_work(sol) - work) < 1e-9 * abs(work)


def test_inner_wall_radial_stress_regression(solve_cached, cylinder_bm):
    # sigma_rr of the wall-adjacent subcells vs the applied -P.  The exact
    # field itself deviates ~40% at the level-2 subcell centroids (steep
    # 1/r^2 gradient), so the frozen bands track the measured baseline:
    # 0.409 at level 2, 0.235 at level 3, improving under refinement.
    P = cylinder_bm.P
    devs = {}
    for level, bound in ((2, 0.45), (3, 0.25)):
        mesh, _, sol = solve_cached("cylinder", level, "sfem", 4)
        cells = subcell_corners(mesh.coords[mesh.elements], 4)
        worst = 0.0
        for be in mesh.boundary:
            if be.name != "pressure":
                continue
            e = be.element_id
            for c, corners in enumerate(cells[e]):
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


@pytest.mark.parametrize("level", [0, 1])
def test_one_cell_sfem_lshape_names_its_hourglass_modes(lshape_bm, level):
    # one smoothing cell per element leaves the assembled Kff three
    # zero-energy modes that the L-shape's three pins do not restrain and
    # its load excites: the LU's tiny pivots count exactly the dense
    # matrix's zero eigenvalues
    mesh = lshape_bm.mesh(level)
    bcs = lshape_bm.boundary_conditions(mesh)
    form = Formulation("sfem", 1)
    with pytest.raises(SolveError, match=r"^3 zero-energy mode\(s\) are unrestrained and loaded"):
        assemble_and_solve(mesh, lshape_bm.material, form, bcs)
    free = np.setdiff1d(np.arange(2 * mesh.n_nodes), _dirichlet_values(mesh, bcs)[0])
    _, Ke = _element_operators(mesh, lshape_bm.material, form)
    K = _scatter(mesh, Ke)
    ev = np.linalg.eigvalsh(K[free][:, free].toarray())
    assert len(free) == {0: 127, 1: 447}[level]
    assert np.count_nonzero(ev <= 1e-12 * ev[-1]) == 3


@pytest.mark.parametrize("grading", [2.0, 10.0, 20.0])
def test_one_cell_sfem_lshape_counts_three_modes_at_every_grading(grading):
    # at level 2 the third round-off pivot of the loaded modes reaches
    # 3.3e-13 / 5.4e-13 / 5.2e-13 of the largest, the closest any measured
    # singular pivot comes to the regular ones (2.8e-8 and up)
    bm = LShapeBenchmark(grading=grading)
    mesh = bm.mesh(2)
    with pytest.raises(SolveError, match=r"^3 zero-energy mode\(s\) are unrestrained and loaded"):
        assemble_and_solve(mesh, bm.material, Formulation("sfem", 1), bm.boundary_conditions(mesh))


def test_one_cell_sfem_cylinder_still_solves(solve_cached):
    # the cylinder's Dirichlet symmetry edges restrain the same modes
    _, _, sol = solve_cached("cylinder", 2, "sfem", 1)
    assert sol.residual_rel < 1e-9


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the consistent one-cell Kff is singular, and the solve "
    "returns a U with an arbitrary null-space part (0.143 / 0.439 at L2 / L3)",
)
@pytest.mark.parametrize("level", [2, 3])
def test_one_cell_sfem_cylinder_displacement_converges_like_two_cells(
    solve_cached, cylinder_bm, level
):
    # max |U - u_exact| / max |u_exact| is 0.0148 / 0.0039 with two cells;
    # the null-space projection of item 2 brings one cell to 0.022 / 0.0057
    exact = cylinder_bm.exact_displacement(solve_cached("cylinder", level, "sfem", 1)[0].coords)
    err = {}
    for nc in (1, 2):
        U = solve_cached("cylinder", level, "sfem", nc)[2].U.reshape(-1, 2)
        err[nc] = np.abs(U - exact).max() / np.abs(exact).max()
    assert err[1] <= 2.0 * err[2]


@pytest.mark.parametrize("grading, solves, residual", [(20.0, 2, 8.2e-12), (2.0, 1, 5.3e-14)])
def test_iterative_refinement_runs_when_the_first_residual_is_above_1e_12(
    monkeypatch, grading, solves, residual
):
    # the strongly graded L-shape's first solve leaves a residual above
    # 1e-12, so one refinement step (a second solve) follows; the default
    # grading stops after one solve
    calls = []
    splu = solver_mod.spla.splu

    class CountingLU:
        def __init__(self, A, **kwargs):
            self.lu = splu(A, **kwargs)

        def solve(self, rhs):
            calls.append(len(rhs))
            return self.lu.solve(rhs)

    monkeypatch.setattr(solver_mod.spla, "splu", CountingLU)
    bm = LShapeBenchmark(grading=grading)
    mesh = bm.mesh(3)
    sol = assemble_and_solve(
        mesh, bm.material, Formulation("sfem", 4), bm.boundary_conditions(mesh)
    )
    assert len(calls) == solves
    # measured 8.2e-12 and 5.3e-14; round-off may vary with the BLAS build
    assert residual / 10 < sol.residual_rel < residual * 10


def graded_square(span):
    """16 x 16 unit square graded geometrically toward both centre lines, the
    L-shape's tensor grading, element sizes spanning ``span``: the left edge
    clamped, a unit x traction on the right edge, the rest free."""
    t = mesh_mod.graded_intervals(1, span)
    ax = 0.5 + 0.5 * np.concatenate([-t[::-1], t[1:]])

    def classify(p0, p1):
        left, right = (p0[:, 0] == 0.0) & (p1[:, 0] == 0.0), (p0[:, 0] == 1.0) & (p1[:, 0] == 1.0)
        names = np.select([left, right], ["clamp", "load"], "free")
        return np.where(left, DIRICHLET, NEUMANN), names

    mesh = mesh_mod._grid_mesh(*np.meshgrid(ax, ax, indexing="ij"), classify)
    bcs = BoundaryConditions(
        tractions={"load": lambda x, n: 0 * x + [1.0, 0.0], "free": lambda x, n: 0 * x},
        dirichlet={"clamp": DirichletSpec((0, 1))},
    )
    return mesh, bcs


def test_strongly_graded_square_solves_to_a_small_backward_error():
    # elements 1e7 times longer than wide make ||K|| ||u|| >> ||b||, so the
    # relative residual stays above 1e-9 after refinement; the solve is
    # backward stable all the same and is accepted
    mesh, bcs = graded_square(1e7)
    sol = assemble_and_solve(mesh, MAT, Formulation("sfem", 4), bcs)
    assert sol.residual_rel > 1e-9
    free = np.setdiff1d(np.arange(2 * mesh.n_nodes), _dirichlet_values(mesh, bcs)[0])
    _, Ke = _element_operators(mesh, MAT, Formulation("sfem", 4))
    K = _scatter(mesh, Ke)[free]
    f = _neumann_vector(mesh, bcs)[free]
    # the componentwise backward error of Oettli and Prager
    omega = np.abs(K @ sol.U - f) / (abs(K) @ np.abs(sol.U) + np.abs(f))
    assert omega.max() <= 1e-12


def test_a_solve_that_is_not_backward_stable_names_its_backward_error(monkeypatch):
    # an LU whose solves come out 1.5 times too long leaves a residual of a
    # quarter of the load after refinement; its pivots are the true ones
    splu = solver_mod.spla.splu

    class LongLU:
        def __init__(self, A, **kwargs):
            self.lu = splu(A, **kwargs)
            self.U = self.lu.U

        def solve(self, rhs):
            return 1.5 * self.lu.solve(rhs)

    monkeypatch.setattr(solver_mod.spla, "splu", LongLU)
    mesh, bcs = clamped_corner_quad()
    with pytest.raises(SolveError, match=r"^componentwise backward error .* above 1e-12"):
        assemble_and_solve(mesh, MAT, Formulation("sfem", 4), bcs)


def test_backward_error_counts_a_row_with_a_zero_denominator_as_zero():
    # row 0 has |K||x| + |b| = 0 (x vanishes on its support, b_0 = 0): its
    # residual is 0 too, and 0 / 0 must not become nan
    K = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
    x = np.array([0.0, 1.0])
    b = np.array([0.0, 1.5])
    assert _backward_error(K, x, b) == 0.5 / 2.5
    assert _backward_error(K, np.zeros(2), np.zeros(2)) == 0.0


@pytest.mark.xfail(
    strict=True, raises=mesh_mod.MeshError,
    reason="ROADMAP item 6: the shoelace sum of absolute coordinates cancels "
    "(non-positive smoothing-cell area in the quad with corners of element 119)",
)
def test_smoothing_cells_of_tiny_elements_away_from_the_origin():
    # element 119 is 4.6e-9 wide at (0.5, 0.5); the mesh accepts it.  The
    # rectangles' areas are exact products of exact coordinate differences;
    # 1e-6 leaves room for cell corners rounded at |x| = 0.5 (today the
    # cells' areas are off by 9e-4 already at a span of 1e6)
    mesh, _ = graded_square(1e8)
    corners = mesh.coords[mesh.elements]
    width, height = np.ptp(corners[..., 0], axis=1), np.ptp(corners[..., 1], axis=1)
    cells = subcell_geometry(corners, 4)
    assert_allclose(cells.areas.sum(axis=1), width * height, rtol=1e-6)


def test_a_later_slice_names_the_quad_with_a_non_positive_cell_area(monkeypatch):
    # element 119 lies in the third slice of 50; the message names its
    # corners, not its place in the slice
    mesh, _ = graded_square(1e8)
    monkeypatch.setattr(solver_mod, "ELEMENT_SLICE", 50)
    corners = re.escape(str(mesh.coords[mesh.elements[119]].tolist()))
    with pytest.raises(mesh_mod.MeshError, match=f"cell area in the quad with corners {corners}$"):
        _element_operators(mesh, MAT, Formulation("sfem", 4))


def test_rigid_mode_diagnosis_names_the_loose_modes(cylinder_bm):
    # decided from the constrained dofs alone, before any assembly
    m = single_element_mesh(UNIT)
    nothing = np.array([], dtype=int)
    assert set(_free_rigid_modes(m, nothing)) == {"translation-x", "translation-y", "rotation"}
    assert _free_rigid_modes(m, np.array([0, 1])) == ["rotation about (0, 0)"]
    # one u_x pin at node 2 = (1, 1): u_y is free everywhere, and a rotation
    # about any point at the pin's y leaves its u_x at zero
    assert _free_rigid_modes(m, np.array([4])) == ["translation-y", "rotation about (0.5, 1)"]

    mesh = cylinder_bm.mesh(2)
    for name, comp, loose in (("sym_y", 1, "translation-x"), ("sym_x", 0, "translation-y")):
        specs = {n: DirichletSpec(components=()) for n in ("sym_x", "sym_y")}
        specs[name] = DirichletSpec(components=(comp,))
        fixed, _ = _dirichlet_values(mesh, BoundaryConditions(dirichlet=specs))
        assert _free_rigid_modes(mesh, fixed) == [loose]


@pytest.mark.parametrize(
    "bm, level", [("cylinder", 1), ("cylinder", 5), ("lshape", 0), ("lshape", 3), ("patch", 0)]
)
def test_benchmark_constraints_restrain_every_rigid_mode(bm, level):
    bm = BENCHMARKS[bm]
    mesh = bm.mesh(level)
    fixed, _ = _dirichlet_values(mesh, bm.boundary_conditions(mesh))
    assert _free_rigid_modes(mesh, fixed) == []


def pinned_corner_loads(traction):
    """Node 0 of the unit square pinned in both components: the rotation
    about (0, 0) stays free."""
    return BoundaryConditions(tractions={"free": traction}, pins=((0, 0, 0.0), (0, 1, 0.0)))


def forbid_factorization(monkeypatch):
    def splu(*args, **kwargs):
        raise AssertionError("SuperLU was called on a rigidly unrestrained system")

    monkeypatch.setattr(solver_mod.spla, "splu", splu)


def test_torque_on_pinned_corner_does_not_return_garbage(monkeypatch):
    # loading the free rotation with a couple must end in a SolveError
    # (never a silently wrong solution), raised before any factorization
    forbid_factorization(monkeypatch)

    def torque(points, normal):
        p = np.asarray(points, float) - 0.5
        return np.stack([-p[..., 1], p[..., 0]], axis=-1)

    for form in [Formulation("fem")] + [Formulation("sfem", nc) for nc in (1, 2, 4, 8)]:
        with pytest.raises(SolveError, match=r"rigid mode\(s\): rotation about \(0, 0\)") as err:
            assemble_and_solve(single_element_mesh(UNIT), MAT, form, pinned_corner_loads(torque))
        assert "zero-energy" not in str(err.value)


def test_unloaded_pinned_corner_raises(monkeypatch):
    # with no load the system used to solve to U = 0; a free rotation is an
    # ill-posed problem whatever the load
    forbid_factorization(monkeypatch)
    bcs = pinned_corner_loads(lambda p, n: np.zeros_like(np.asarray(p, float)))
    with pytest.raises(SolveError, match=r"rigid mode\(s\): rotation about \(0, 0\)$"):
        assemble_and_solve(single_element_mesh(UNIT), MAT, Formulation("fem"), bcs)


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


def test_solution_vector_is_read_only(solve_cached):
    _, _, sol = solve_cached("cylinder", 1, "sfem", 4)
    with pytest.raises(ValueError):
        sol.U[0] = 1.0


def test_solution_stresses_and_operators_are_read_only():
    mesh = build_square_mesh(2, distortion=0.2, seed=3)
    for form in (Formulation("sfem", 4), Formulation("fem")):
        sol = interpolate_solution(mesh, MAT, form, lambda p: 0.01 * p)
        B, K = _element_operators(mesh, MAT, form)
        arrays = [sol.cell_stress, sol.dofs, B, K]
        if form.kind == "sfem":
            cells = subcell_geometry(mesh.coords[mesh.elements], form.nc)
            arrays += [cells.areas, cells.edge_midpoints, cells.edge_normals, cells.edge_lengths]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1


# ---------------------------------------------------------------------------
# batch invariance: a kernel's output for an element does not depend on the
# batch it is computed in
# ---------------------------------------------------------------------------

BATCH_MESHES = {"lshape": LShapeBenchmark().mesh(1), "cylinder": CylinderBenchmark().mesh(2)}


# Scalar per-element / per-point reference formulas: the batched kernels
# must reproduce them bit for bit.  Their Jacobians come from the einsum
# oracle, so the componentwise kernels are not checked against themselves.


def _reference_inverse(corners, point):
    xi = np.zeros(2)
    for _ in range(20):
        res = map_point(corners, xi[0], xi[1]) - point
        J = einsum_jacobian(corners, xi[0], xi[1])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        step = np.array(
            [J[1, 1] * res[0] - J[0, 1] * res[1], -J[1, 0] * res[0] + J[0, 0] * res[1]]
        ) / det
        xi = xi - step
        if np.hypot(step[0], step[1]) < 1e-12:
            return xi
    raise AssertionError("reference Newton did not converge")


def _reference_cells(corners, parent_corners):
    out = []
    for pc in parent_corners:
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
    J = einsum_jacobian(corners, xi, eta)
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
@pytest.mark.parametrize(
    "kind,nc", [("sfem", 1), ("sfem", 2), ("sfem", 4), ("sfem", 8), ("fem", 4)]
)
def test_kernels_match_the_scalar_reference_bit_for_bit(name, kind, nc):
    mesh = BATCH_MESHES[name]
    full_B, full_K = _element_operators(mesh, MAT, Formulation(kind, nc))
    full_cells = subcell_geometry(mesh.coords[mesh.elements], nc)
    pts, wts = gauss_points_2d(2)
    _, wdet, _ = mapped_rule(mesh.coords[mesh.elements], 2)  # FEM recovery weights
    for e in np.random.default_rng(7).permutation(mesh.n_elements)[:12]:
        corners = mesh.coords[mesh.elements[e]]
        Ke = np.zeros((8, 8))
        if kind == "sfem":
            cells = _reference_cells(corners, mesh_mod.subcell_parent_corners(nc))
            for c, (area, mids, normals, lengths) in enumerate(cells):
                assert area == full_cells.areas[e, c]
                assert np.array_equal(mids, full_cells.edge_midpoints[e, c])
                assert np.array_equal(normals, full_cells.edge_normals[e, c])
                assert np.array_equal(lengths, full_cells.edge_lengths[e, c])
                B = _reference_smoothed_B(corners, mids, normals, lengths, area)
                assert np.array_equal(B, full_B[e, c])
                Ke += B.T @ D @ B * area
        else:
            for g, ((xi, eta), w) in enumerate(zip(pts, wts)):
                B, det = _reference_fem_B(corners, xi, eta)
                assert np.array_equal(B, full_B[e, g])
                assert det * w == wdet[e, g]
                Ke += B.T @ D @ B * det * w
        assert np.array_equal(0.5 * (Ke + Ke.T), full_K[e])


def test_strain_matrix_matches_the_einsum_oracle_on_distorted_quads():
    rng = np.random.default_rng(23)
    corners = random_quads(rng, 100)
    xi, eta = rng.uniform(-1.0, 1.0, size=(2, 100))
    B, det = strain_matrix(corners, xi, eta)
    for p in range(100):
        B_ref, det_ref = _reference_fem_B(corners[p], xi[p], eta[p])
        assert np.array_equal(B[p], B_ref)
        assert det[p] == det_ref


@pytest.mark.parametrize("level", [1, 3])
@pytest.mark.parametrize("nc", [1, 2, 4, 8])
def test_smoothed_operators_invert_every_edge_slot_in_one_call(monkeypatch, level, nc):
    # one Newton call per slice of the operator build, on the midpoints of
    # all 4 nc (cell, edge) slots (m, nc, 4, 2) of the slice's m elements
    # against each element's own quad (m, 1, 1, 4, 2): one slice at level 1,
    # three at level 3
    mesh = LShapeBenchmark().mesh(level)
    calls = []

    def counting_invert_map(corners, points):
        xi = invert_map(corners, points)
        calls.append((corners.shape, points.shape, xi))
        return xi

    monkeypatch.setattr(solver_mod, "invert_map", counting_invert_map)
    _element_operators(mesh, MAT, Formulation("sfem", nc))
    cells = subcell_geometry(mesh.coords[mesh.elements], nc)
    n, step = mesh.n_elements, solver_mod.ELEMENT_SLICE
    sizes = [min(step, n - start) for start in range(0, n, step)]
    assert len(sizes) == (1 if level == 1 else 3)
    assert [c[:2] for c in calls] == [((m, 1, 1, 4, 2), (m, nc, 4, 2)) for m in sizes]
    # the two slots of an edge between cells hold bit-equal midpoints, so
    # they get equal parent coordinates
    xi = np.concatenate([c[2] for c in calls])
    pc = mesh_mod.subcell_parent_corners(nc)
    parent_mids = (0.5 * (pc + np.roll(pc, -1, axis=1))).reshape(-1, 2)
    for a, b in itertools.combinations(range(4 * nc), 2):
        if np.array_equal(parent_mids[a], parent_mids[b]):
            (ca, ka), (cb, kb) = divmod(a, 4), divmod(b, 4)
            assert np.array_equal(cells.edge_midpoints[:, ca, ka], cells.edge_midpoints[:, cb, kb])
            assert np.array_equal(xi[:, ca, ka], xi[:, cb, kb])


@pytest.mark.parametrize("name", sorted(BATCH_MESHES))
@pytest.mark.parametrize(
    "kind,nc", [("sfem", 1), ("sfem", 2), ("sfem", 4), ("sfem", 8), ("fem", 4)]
)
def test_kernels_are_batch_invariant(monkeypatch, name, kind, nc):
    mesh = BATCH_MESHES[name]
    full_B, full_K = _element_operators(mesh, MAT, Formulation(kind, nc))
    rng = np.random.default_rng(nc + 10 * len(name))
    subset = rng.permutation(mesh.n_elements)[: mesh.n_elements // 3]
    corners = mesh.coords[mesh.elements[subset]]
    if kind == "sfem":
        quads = mesh.coords[mesh.elements]
        assert np.array_equal(subcell_corners(corners, nc), subcell_corners(quads, nc)[subset])
        cells, full_cells = subcell_geometry(corners, nc), subcell_geometry(quads, nc)
        for field in ("areas", "edge_midpoints", "edge_normals", "edge_lengths"):
            assert np.array_equal(getattr(cells, field), getattr(full_cells, field)[subset])
        assert np.array_equal(smoothed_strain_matrices(corners, cells), full_B[subset])
    else:
        pts, w = gauss_points_2d(2)
        B, det = strain_matrix(corners[:, None], pts[:, 0], pts[:, 1])
        assert np.array_equal(B, full_B[subset])
        _, wdet, _ = mapped_rule(mesh.coords[mesh.elements], 2)
        assert np.array_equal(det * w, wdet[subset])
    # batches of one: one-element meshes, and single points for FEM B
    for e in subset[:8]:
        c = mesh.coords[mesh.elements[e]]
        one_B, one_K = _element_operators(single_element_mesh(c), MAT, Formulation(kind, nc))
        assert np.array_equal(one_B[0], full_B[e])
        assert np.array_equal(one_K[0], full_K[e])
        if kind == "fem":
            for g, (xi, eta) in enumerate(pts):
                B, _ = strain_matrix(c[None], np.array([xi]), np.array([eta]))
                assert np.array_equal(B[0], full_B[e, g])
                assert np.array_equal(strain_matrix(c, xi, eta)[0], full_B[e, g])
    # the mesh fits in one slice; slices of 7 elements, the last one short,
    # give the same rows
    assert mesh.n_elements <= solver_mod.ELEMENT_SLICE and mesh.n_elements % 7
    monkeypatch.setattr(solver_mod, "ELEMENT_SLICE", 7)
    sliced_B, sliced_K = _element_operators(mesh, MAT, Formulation(kind, nc))
    assert np.array_equal(sliced_B, full_B)
    assert np.array_equal(sliced_K, full_K)


@pytest.mark.parametrize("kind,nc", [("fem", 4), ("sfem", 8)])
def test_operator_working_memory_does_not_grow_with_the_mesh(cylinder_bm, kind, nc):
    # the traced peak beyond the outputs B and K is a slice's temporaries,
    # the smoothing cells included: cylinder L5 (4096 elements, 4 slices)
    # takes about what L4 (1024, one slice) takes; built whole, L5 took 4x
    # L4's, and whole-mesh smoothing cells grew with the mesh too
    def working_memory(level):
        (B, K), peak = traced_peak(
            _element_operators, cylinder_bm.mesh(level), cylinder_bm.material,
            Formulation(kind, nc),
        )
        return peak - B.nbytes - K.nbytes

    assert working_memory(5) <= 1.5 * working_memory(4)


@pytest.mark.parametrize("name", sorted(BATCH_MESHES))
def test_strain_matrix_broadcasts_as_the_per_point_batch(name):
    # the former layouts, one quad per point: np.repeat/np.tile over the
    # Gauss points, and np.full of one point over all elements
    mesh = BATCH_MESHES[name]
    corners = mesh.coords[mesh.elements]
    n = len(corners)
    pts, _ = gauss_points_2d(2)
    B, det = strain_matrix(corners[:, None], pts[:, 0], pts[:, 1])
    assert B.shape == (n, len(pts), 3, 8) and det.shape == (n, len(pts))
    B_ref, det_ref = strain_matrix(
        np.repeat(corners, len(pts), axis=0), np.tile(pts[:, 0], n), np.tile(pts[:, 1], n)
    )
    assert np.array_equal(B, B_ref.reshape(B.shape))
    assert np.array_equal(det, det_ref.reshape(det.shape))
    for xi, eta in np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 2)):
        B, det = strain_matrix(corners, xi, eta)
        B_ref, det_ref = strain_matrix(corners, np.full(n, xi), np.full(n, eta))
        assert np.array_equal(B, B_ref)
        assert np.array_equal(det, det_ref)


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
        q = sol.U[sol.dofs[e]]
        for k in order[:3]:
            B, _ = _reference_fem_B(mesh.coords[mesh.elements[e]], *pts[k])
            assert np.array_equal(sol.D @ (B @ q), batch[k])


def _per_point_fem_stress(sol, ids, pts):
    """Reference FEM stress_at_parents: one strain_matrix call per parent
    point over all n elements, so B stays (n, 3, 8)."""
    corners = sol.mesh.coords[sol.mesh.elements[ids]]
    u = sol.U[sol.dofs[ids]][..., None]
    out = np.empty((len(ids), len(pts), 3))
    for k, (xi, eta) in enumerate(pts):
        B, _ = strain_matrix(corners, xi, eta)
        out[:, k] = np.matmul(sol.D, np.matmul(B, u))[..., 0]
    return out


def _error_batches(bm, sol):
    """The (element ids, rule order) batches of the error quadrature: 4x4
    away from the singular vertex, 16x16 on the elements touching it."""
    vertex = _singular_elements(sol, bm.singular_vertex)
    return (np.nonzero(~vertex)[0], 4), (np.nonzero(vertex)[0], 16)


@pytest.mark.parametrize("name, level", [("cylinder", 5), ("lshape", 3)])
def test_blocked_fem_stresses_match_the_per_point_loop(solve_cached, name, level):
    # every block's broadcasting strain_matrix call computes each entry as
    # the per-point loop does, so the arrays agree bit for bit
    _, _, sol = solve_cached(name, level, "fem")
    batches = _error_batches(BENCHMARKS[name], sol)
    if name == "cylinder":  # no vertex: the 16x16 rule on 3 elements
        batches = batches[:1] + ((np.array([0, 2047, 4095]), 16),)
    for ids, order in batches:
        pts = gauss_points_2d(order)[0]
        assert len(ids) and np.array_equal(
            sol.stress_at_parents(ids, pts), _per_point_fem_stress(sol, ids, pts)
        )


@pytest.mark.parametrize("kind", ["sfem", "fem"])
def test_per_element_parent_points_match_shared_ones(solve_cached, kind):
    mesh, _, sol = solve_cached("lshape", 1, kind, 4)
    ids = np.random.default_rng(21).permutation(mesh.n_elements)[:40]
    pts = gauss_points_2d(4)[0]
    per_element = np.broadcast_to(pts, (len(ids),) + pts.shape)
    own = np.random.default_rng(22).uniform(-1.0, 1.0, size=(len(ids), 3, 2))
    for method in (sol.stress_at_parents, sol.displacement_at_parents):
        assert np.array_equal(method(ids, per_element), method(ids, pts))
        batch = method(ids, own)
        for i, e in enumerate(ids):
            assert np.array_equal(batch[i], method([e], own[i])[0])
    with pytest.raises(SolveError, match=r"must be a \(q, 2\) or \(40, q, 2\) array"):
        sol.stress_at_parents(ids, own[:39])


def test_fem_stresses_call_strain_matrix_at_most_min_n_q_times(solve_cached, monkeypatch):
    # one call per block of ceil(n / q) elements: 16 on the 4x4 rule, 3 on
    # the L-shape's 16x16 vertex batch (the per-point loop made 256)
    calls = []
    monkeypatch.setattr(
        solver_mod, "strain_matrix", lambda *args: calls.append(args) or strain_matrix(*args)
    )
    counts = []
    for name, level in (("lshape", 3), ("cylinder", 5)):
        sol = solve_cached(name, level, "fem")[2]
        for ids, order in _error_batches(BENCHMARKS[name], sol):
            calls.clear()
            sol.stress_at_parents(ids, gauss_points_2d(order)[0])
            assert len(calls) == min(len(ids), order**2)
            counts.append(len(calls))
    assert counts == [16, 3, 16, 0]


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


@pytest.mark.parametrize("kind", ["sfem", "fem"])
@pytest.mark.parametrize(
    "bad", [(-3.0, 0.5), (1.0 + 1e-12, 0.0), (0.0, -1.5), (np.nan, 0.0), (0.0, np.inf)]
)
def test_parent_fields_reject_points_outside_the_parent_square(solve_cached, kind, bad):
    _, _, sol = solve_cached("lshape", 1, kind, 4)
    pts = np.array([[0.0, 0.0], [1.0, -1.0], bad])
    for method in (sol.stress_at_parents, sol.displacement_at_parents):
        assert method([0, 1], pts[:2]).shape[:2] == (2, 2)  # the closed square is fine
        with pytest.raises(SolveError, match=r"parent point \[.*\] is not a finite point"):
            method([0, 1], pts)


@pytest.mark.parametrize("kind", ["sfem", "fem"])
def test_parent_fields_reject_element_ids_out_of_range(solve_cached, kind):
    # -1 used to read the last element's fields, n_elements a bare IndexError
    mesh, _, sol = solve_cached("cylinder", 1, kind, 4)
    n = mesh.n_elements
    pts = np.zeros((1, 2))
    for method in (sol.stress_at_parents, sol.displacement_at_parents):
        assert method([0, n - 1], pts).shape[:2] == (2, 1)
        for bad in (-1, n):
            with pytest.raises(SolveError, match=rf"element id {bad} is not in \[0, {n}\)"):
                method([0, bad], pts)
        with pytest.raises(SolveError, match=r"element ids must be a \(n,\) array"):
            method(0, pts)


def test_sfem_operators_of_a_small_element_far_from_the_origin():
    # a 1e-4 element at (1, 1): the Newton of the edge midpoints stops at the
    # round-off floor of its parent increments, and the smoothed strains of a
    # linear field stay exact
    mesh = single_element_mesh(1.0 + 1e-4 * DISTORTED)
    sol = interpolate_solution(mesh, MAT, Formulation("sfem", 4), lambda p: 0.01 * (p - 1.0))
    want = np.broadcast_to(D @ [0.01, 0.01, 0.0], (1, 4, 3))
    assert_allclose(sol.cell_stress, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())
