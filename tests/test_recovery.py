"""Patch recovery: sampling, constrained fitting, splitting, blending.

The constrained fit is checked against an independent dense KKT solve, the
equilibrium/traction constraints against finite differences and direct
evaluation of the blended field, and the singular/smooth splitting against
exact eigenfield data (where the smooth part must cancel to round-off).
"""

import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import single_element_mesh
from smoothfem.analytic import NotchFrame, SingularField, make_singular_solution
from smoothfem.benchmarks import LShapeBenchmark, PatchBenchmark
from smoothfem.elasticity import Material, PLANE_STRAIN, compliance_matrix
from smoothfem.error import element_error_squares, estimated_error_norm
from smoothfem.recovery import (
    RecoveryConfig,
    RecoveryError,
    _sampling_arrays,
    build_recovered_field,
    collocation_points,
    constraint_rows,
    edge_normal,
    fit_patch,
    singular_stress_estimate,
    smooth_part,
)
from smoothfem.quadmap import gauss_points_2d, shape_functions
from smoothfem.solver import Formulation, interpolate_solution

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = Material(100.0, 0.3, PLANE_STRAIN)


def linear_solution(kind="sfem", nc=4, coeffs=(0.1, 0.02, 0.035, -0.04, 0.012, -0.009)):
    bm = PatchBenchmark(coeffs=tuple(coeffs))
    mesh = bm.mesh()
    sol = interpolate_solution(mesh, bm.material, Formulation(kind, nc), bm.exact_displacement)
    return bm, mesh, sol


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_layout_single_cell():
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("sfem", 1), lambda p: 0.01 * p)
    pos, _, _, _ = _sampling_arrays(sol)
    assert len(pos) == 4
    g = 0.5 + np.array([-1.0, 1.0]) / (2.0 * np.sqrt(3.0))
    expected = sorted((x, y) for x in g for y in g)
    got = sorted(map(tuple, np.round(pos, 12)))
    assert_allclose(got, expected, atol=1e-12)


def test_sampling_layout_two_cells():
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("sfem", 2), lambda p: 0.01 * p)
    assert len(_sampling_arrays(sol)[0]) == 8  # 2x2 per half


def test_sampling_fem_gauss_points():
    bm, mesh, sol = linear_solution(kind="fem")
    pos, _, _, _ = _sampling_arrays(sol)
    assert len(pos) == 4 * mesh.n_elements


def test_constant_stress_gives_identical_samples():
    # pure shear-free uniform strain: all sampling stresses equal
    bm, mesh, sol = linear_solution()
    _, stresses, _, _ = _sampling_arrays(sol)
    assert np.abs(stresses - stresses[0]).max() < 1e-12


# ---------------------------------------------------------------------------
# singular-stress evaluator
# ---------------------------------------------------------------------------


def lshape_field(K_I=1.0, K_II=0.0):
    sol = make_singular_solution(1.5 * np.pi, MAT, K_I, K_II)
    return SingularField(sol, NotchFrame(vertex=(0.0, 0.0), bisector_angle=0.75 * np.pi))


def test_exact_gsif_mode_is_passthrough():
    field = lshape_field(1.0, 0.0)
    bm, mesh, sol = linear_solution()
    est = singular_stress_estimate(field, sol, "exact")
    pts = np.array([[0.3, 0.2], [-0.1, 0.4]])
    assert_allclose(est.stress(pts), field.stress(pts), rtol=1e-15)


def test_singular_estimate_linearity():
    field = lshape_field(1.0, 0.5)
    doubled = field.with_gsifs(2.0, 1.0)
    pts = np.array([[0.25, 0.1]])
    assert_allclose(doubled.stress(pts), 2.0 * field.stress(pts), rtol=1e-14)


def test_singular_estimate_is_divergence_free():
    field = lshape_field(1.0, 0.3)
    r, phi = 0.3, 0.2
    x, y = r * np.cos(phi), r * np.sin(phi)
    h = 1e-6 * r

    def s(px, py):
        return field.stress(np.array([[px, py]]))[0]

    dx = (s(x + h, y) - s(x - h, y)) / (2 * h)
    dy = (s(x, y + h) - s(x, y - h)) / (2 * h)
    div = np.array([dx[0] + dy[2], dx[2] + dy[1]])
    scale = np.abs(s(x, y)).max() / r
    assert np.abs(div).max() < 1e-4 * scale


# ---------------------------------------------------------------------------
# smooth part of the splitting
# ---------------------------------------------------------------------------


def test_smooth_part_with_zero_singular_field_is_identity():
    field = lshape_field(0.0, 0.0)
    rng = np.random.default_rng(2)
    pos = rng.uniform(-0.9, -0.1, size=(30, 2))
    stresses = rng.normal(size=(30, 3))
    assert_allclose(smooth_part(pos, stresses, field), stresses, rtol=0, atol=0)


def test_smooth_part_cancels_exact_input():
    field = lshape_field(1.0, 0.25)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-2.3, 2.3, size=40)
    r = rng.uniform(0.05, 0.8, size=40)
    pos = np.stack(
        [r * np.cos(phi + 0.75 * np.pi), r * np.sin(phi + 0.75 * np.pi)], axis=-1
    )
    exact = field.stress(pos)
    residual = smooth_part(pos, exact, field)
    assert np.abs(residual).max() < 1e-10 * np.abs(exact).max()


def test_zero_radius_degenerates_to_constrained_variant(solve_cached, lshape_bm):
    # with rho = 0 no patch is split, so SPR-CX must equal SPR-C exactly
    mesh, bcs, sol = solve_cached("lshape", 0, "sfem", 4)
    fields = {}
    for variant in ("SPR-C", "SPR-CX"):
        cfg = RecoveryConfig(variant=variant, splitting_radius=0.0)
        fields[variant] = build_recovered_field(
            sol, cfg, singular_field=lshape_bm.singular_field, tractions=bcs.tractions
        )
    est_c, _, _ = element_error_squares(sol, recovered_field=fields["SPR-C"])
    est_cx, _, _ = element_error_squares(sol, recovered_field=fields["SPR-CX"])
    assert np.array_equal(est_c, est_cx)


# ---------------------------------------------------------------------------
# collocation geometry and constraint rows
# ---------------------------------------------------------------------------


def test_edge_normal_is_outward_unit():
    n = edge_normal(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert_allclose(n, [0.0, -1.0], atol=1e-15)  # CCW edge: outward is right


def test_collocation_single_edge():
    t = lambda p, n: np.zeros_like(np.asarray(p, float))
    pa, pb = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    pts = collocation_points(pa, [(pa, pb, t)], degree=2)
    assert len(pts) == 3
    positions = np.array([p for p, _, _ in pts])
    assert_allclose(sorted(positions[:, 0]), [0.0, 0.5, 1.0], atol=1e-15)
    assert len(collocation_points(pa, [(pa, pb, t)], degree=1)) == 2


def test_collocation_corner_same_vs_different_tractions():
    t1 = lambda p, n: np.zeros_like(np.asarray(p, float))
    t2 = lambda p, n: np.zeros_like(np.asarray(p, float))
    node = np.array([1.0, 0.0])
    edges_same = [
        (np.array([0.0, 0.0]), node, t1),
        (node, np.array([1.0, 1.0]), t1),
    ]
    edges_diff = [
        (np.array([0.0, 0.0]), node, t1),
        (node, np.array([1.0, 1.0]), t2),
    ]
    # same traction object: 2 midpoints + the corner with averaged normal
    assert len(collocation_points(node, edges_same, degree=2)) == 3
    # direction-dependent corner traction: the shared point is skipped
    assert len(collocation_points(node, edges_diff, degree=2)) == 2


def test_constraint_row_counts():
    Dinv = compliance_matrix(MAT)
    C1, d1 = constraint_rows(
        degree=1, center=np.zeros(2), scale=1.0, compliance=Dinv, collocation=[]
    )
    # linear stresses: div sigma is constant, one scalar row per equation,
    # touching only the four gradient coefficients
    assert C1.shape == (2, 9)
    assert np.count_nonzero(np.any(C1 != 0.0, axis=0)) == 4
    assert_allclose(d1, 0.0, atol=0)

    C2, _ = constraint_rows(
        degree=2, center=np.zeros(2), scale=1.0, compliance=Dinv, collocation=[]
    )
    # quadratic stresses: div sigma is linear (3 rows per equation) plus one
    # compatibility row
    assert C2.shape == (7, 18)


def test_interior_spr_patch_has_no_constraints(solve_cached):
    # plain SPR never constrains anything: the recovered field on a linear
    # field is already exact, which is only possible with free fits
    bm, mesh, sol = linear_solution()
    cfg = RecoveryConfig(variant="SPR")
    field = build_recovered_field(sol, cfg)
    exact = bm.exact_stress(mesh.coords)
    for node in range(mesh.n_nodes):
        assert_allclose(field.fits[node](mesh.coords[node]), exact[node], atol=1e-9)


# ---------------------------------------------------------------------------
# patch fitting
# ---------------------------------------------------------------------------


def linear_stress_samples(n=12, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(n, 2))
    coeff = np.array([[1.0, 0.2, -0.3], [0.4, -0.1, 0.25], [-0.2, 0.05, 0.15]])
    stresses = coeff[:, 0] + pos[:, :1] * coeff[:, 1] + pos[:, 1:2] * coeff[:, 2]
    return pos, stresses


def test_fit_reproduces_linear_field():
    pos, stresses = linear_stress_samples()
    fit = fit_patch(0, pos, stresses, np.ones(len(pos)), degree=1)
    assert np.abs(fit(pos) - stresses).max() < 1e-10


def test_fit_with_consistent_constraints_unchanged():
    # the linear field used above happens to be non-equilibrated, so build
    # an equilibrated one: sigma = (y, x, 0) has div sigma = 0
    rng = np.random.default_rng(5)
    pos = rng.uniform(-1.0, 1.0, size=(10, 2))
    stresses = np.stack([pos[:, 1], pos[:, 0], np.zeros(len(pos))], axis=-1)
    Dinv = compliance_matrix(MAT)
    center, scale = np.zeros(2), 1.0
    C, d = constraint_rows(
        degree=1, center=center, scale=scale, compliance=Dinv, collocation=[]
    )
    free = fit_patch(0, pos, stresses, np.ones(10), 1, center=center, scale=scale)
    tied = fit_patch(
        0, pos, stresses, np.ones(10), 1, constraints=(C, d), center=center, scale=scale
    )
    assert_allclose(tied.coeffs, free.coeffs, atol=1e-10)
    assert np.abs(tied(pos) - stresses).max() < 1e-10


def test_fit_matches_dense_kkt_oracle():
    # independent re-derivation of the same weighted KKT system, solved by
    # a bordered dense factorization
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1.0, 1.0, size=(15, 2))
    stresses = rng.normal(size=(15, 3))
    weights = rng.uniform(0.5, 2.0, size=15)
    Dinv = compliance_matrix(MAT)
    C, d = constraint_rows(
        degree=2, center=np.zeros(2), scale=1.0, compliance=Dinv, collocation=[]
    )
    fit = fit_patch(
        3, pos, stresses, weights, 2, constraints=(C, d),
        center=np.zeros(2), scale=1.0,
    )

    # oracle: minimize sum_s w_s |P(x_s) a_j - sigma_j|^2 s.t. C a = d
    x, y = pos[:, 0], pos[:, 1]
    P = np.stack([np.ones(15), x, y, x * x, x * y, y * y], axis=-1)
    m = P.shape[1]
    W = np.diag(weights / weights.sum())
    M = P.T @ W @ P
    A = np.zeros((3 * m, 3 * m))
    rhs = np.zeros(3 * m)
    for j in range(3):
        A[j * m:(j + 1) * m, j * m:(j + 1) * m] = M
        rhs[j * m:(j + 1) * m] = P.T @ W @ stresses[:, j]
    k = len(C)
    KKT = np.zeros((3 * m + k, 3 * m + k))
    KKT[:3 * m, :3 * m] = A
    KKT[:3 * m, 3 * m:] = C.T
    KKT[3 * m:, :3 * m] = C
    sol = np.linalg.solve(KKT, np.concatenate([rhs, d]))
    assert np.abs(fit.coeffs - sol[:3 * m].reshape(3, m)).max() < 1e-9


def test_singular_fit_raises():
    pos = np.zeros((6, 2))  # all samples at one point
    with pytest.raises(RecoveryError, match="singular"):
        fit_patch(0, pos, np.zeros((6, 3)), np.ones(6), 2)


# ---------------------------------------------------------------------------
# the blended field
# ---------------------------------------------------------------------------


def test_identical_constant_fits_blend_to_constant():
    from smoothfem.recovery import PatchFit, RecoveredStressField

    bm, mesh, sol = linear_solution()
    c = np.array([2.0, -1.0, 0.5])
    coeffs = np.zeros((3, 3))
    coeffs[:, 0] = c
    fits = [
        PatchFit(i, 1, np.zeros(2), 1.0, coeffs.copy()) for i in range(mesh.n_nodes)
    ]
    field = RecoveredStressField(mesh, fits)
    probe = mesh.element_corners(2).mean(axis=0)
    assert_allclose(field.evaluate(2, probe), c, rtol=1e-14)


def test_vertex_value_is_nodal_polynomial(solve_cached):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    e = 5
    for k, node in enumerate(mesh.elements[e]):
        xi, eta = [(-1, -1), (1, -1), (1, 1), (-1, 1)][k]
        blended = field.evaluate_at_parents([e], np.array([[xi, eta]], float))[0, 0]
        assert_allclose(blended, field.fits[node](mesh.coords[node]), atol=1e-12)


def _per_element_blend(field, e, pts):
    """Reference for evaluate_at_parents: one element, node by node."""
    N = shape_functions(pts[:, 0], pts[:, 1])
    x = N @ field.mesh.element_corners(e)
    conn = field.mesh.elements[e]
    any_split = field.singular_field is not None and field.split_flags[conn].any()
    out = np.zeros((len(pts), 3))
    for k, node in enumerate(conn):
        vals = field.fits[node](x)
        if any_split and field.split_flags[node]:
            vals = vals + field.singular_field.stress(x)
        out += N[:, k, None] * vals
    return out


@pytest.mark.parametrize("interior_degree", [1, 2])
def test_blend_matches_the_per_element_loop_and_any_subset(solve_cached, lshape_bm, interior_degree):
    # split patches, elements touching them and (degree 1 inside) both
    # degree groups in one batch
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-CX", interior_degree=interior_degree),
        singular_field=lshape_bm.singular_field, tractions=bcs.tractions,
    )
    assert field.split_flags.any() and not field.split_flags.all()
    rng = np.random.default_rng(14)
    pts = np.vstack([gauss_points_2d(4)[0], rng.uniform(-1.0, 1.0, size=(5, 2))])
    full = field.evaluate_at_parents(np.arange(mesh.n_elements), pts)
    subset = rng.permutation(mesh.n_elements)[: mesh.n_elements // 3]
    assert np.array_equal(field.evaluate_at_parents(subset, pts), full[subset])
    assert np.array_equal(field.evaluate_at_parents(subset[::-1], pts), full[subset[::-1]])
    for e in subset[:6]:
        assert np.array_equal(field.evaluate_at_parents([e], pts)[0], full[e])
    for e in range(mesh.n_elements):
        assert np.array_equal(full[e], _per_element_blend(field, e, pts))


def test_recovered_field_continuity_across_edges(solve_cached):
    # sigma* from the two elements sharing an edge, evaluated at the shared
    # midpoint, must agree: same vertex fits, same partition-of-unity values
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    owners = {}
    for e in range(mesh.n_elements):
        conn = mesh.elements[e]
        for k in range(4):
            key = tuple(sorted((int(conn[k]), int(conn[(k + 1) % 4]))))
            owners.setdefault(key, []).append(e)
    checked = 0
    for (n1, n2), elems in owners.items():
        if len(elems) != 2:
            continue
        mid = 0.5 * (mesh.coords[n1] + mesh.coords[n2])
        va = field.evaluate(elems[0], mid)
        vb = field.evaluate(elems[1], mid)
        assert np.abs(va - vb).max() < 1e-10
        checked += 1
    assert checked > 10


def test_blended_field_matches_imposed_tractions(solve_cached, cylinder_bm):
    # at edge midpoints of the pressurized wall both adjacent patch fits are
    # collocated to sigma.n = -P n, and the blend inherits it
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    P = cylinder_bm.P
    for be in mesh.boundary:
        if be.name != "pressure":
            continue
        pa, pb = mesh.coords[list(be.node_ids)]
        n = edge_normal(pa, pb)
        mid = 0.5 * (pa + pb)
        s = field.evaluate(be.element_id, mid)
        t = np.array([s[0] * n[0] + s[2] * n[1], s[2] * n[0] + s[1] * n[1]])
        assert np.abs(t - (-P * n)).max() < 1e-8 * P


def test_constrained_fits_satisfy_equilibrium_inside_patch(solve_cached):
    # central differences of a quadratic are exact, so the FD divergence is
    # an independent check of the equilibrium constraint rows
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    h = 1e-5
    rng = np.random.default_rng(12)
    for node in rng.choice(mesh.n_nodes, size=8, replace=False):
        fit = field.fits[int(node)]
        x0 = mesh.coords[int(node)] + rng.uniform(-0.1, 0.1, size=2)
        sx = (fit(x0 + [h, 0]) - fit(x0 - [h, 0])) / (2 * h)
        sy = (fit(x0 + [0, h]) - fit(x0 - [0, h])) / (2 * h)
        div = np.array([sx[0] + sy[2], sx[2] + sy[1]])
        scale = max(np.abs(fit.coeffs).max() / fit.scale, 1e-30)
        assert np.abs(div).max() < 1e-9 * scale


def test_polynomial_reproduction_zeroes_the_estimate():
    bm, mesh, sol = linear_solution()
    field = build_recovered_field(sol, RecoveryConfig(variant="SPR-C"))
    assert estimated_error_norm(sol, field) < 1e-9


# ---------------------------------------------------------------------------
# splitting consistency and extracted amplitudes
# ---------------------------------------------------------------------------


def exactify_stresses(solution, exact_stress):
    """Replace every cell stress with the exact field at its centroid.

    The solution's own stress array is read-only, so the exact values go
    into a fresh array that takes its place.
    """
    stress = solution.cell_stress.copy()
    for e, corners in enumerate(solution.operators.cells.corners):
        stress[e] = exact_stress(corners.mean(axis=1))
    stress.setflags(write=False)
    solution.cell_stress = stress
    return solution


def test_splitting_beats_plain_spr_on_exact_data(lshape_bm):
    # with exact GSIFs and exact input stresses the split recovery absorbs
    # the r^(lambda-1) part exactly; plain SPR has to chase it with
    # polynomials and loses inside the splitting radius
    mesh = lshape_bm.mesh(1)
    bcs = lshape_bm.boundary_conditions(mesh)
    sol = interpolate_solution(
        mesh, lshape_bm.material, Formulation("sfem", 4),
        lshape_bm.exact_displacement,
    )
    exactify_stresses(sol, lshape_bm.exact_stress)
    rho = 0.5
    inside = [
        e for e in range(mesh.n_elements)
        if np.linalg.norm(mesh.element_corners(e).mean(axis=0)) < rho
    ]
    errors = {}
    for variant in ("SPR", "SPR-CX"):
        cfg = RecoveryConfig(variant=variant, splitting_radius=rho)
        field = build_recovered_field(
            sol, cfg, singular_field=lshape_bm.singular_field,
            tractions=bcs.tractions,
        )
        _, _, rec2 = element_error_squares(
            sol, recovered_field=field, exact_stress=lshape_bm.exact_stress,
            singular_point=lshape_bm.singular_vertex,
        )
        errors[variant] = float(np.sqrt(rec2[inside].sum()))
    assert errors["SPR-CX"] < errors["SPR"]


def test_extracted_gsif_mode(solve_cached, lshape_bm):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    cfg = RecoveryConfig(variant="SPR-CX", gsif_mode="extracted")
    field = build_recovered_field(
        sol, cfg, singular_field=lshape_bm.singular_field,
        tractions=bcs.tractions, bcs=bcs,
    )
    assert abs(field.singular_field.solution.K_I - 1.0) < 0.05
    assert abs(field.singular_field.solution.K_II) < 0.05


def test_degree_fallback_on_starved_corner_patch(caplog):
    # a lone element smoothed with one cell gives corner patches 4 samples:
    # too few for the quadratic basis, so the fit must drop to degree 1
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("sfem", 1), lambda p: 0.01 * p)
    with caplog.at_level(logging.WARNING, logger="smoothfem.recovery"):
        field = build_recovered_field(sol, RecoveryConfig(variant="SPR"))
    assert all(fit.degree == 1 for fit in field.fits)
    assert any("falling back" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(RecoveryError):
        RecoveryConfig(variant="SPR-Q")
    with pytest.raises(RecoveryError):
        RecoveryConfig(interior_degree=3)
    with pytest.raises(RecoveryError):
        RecoveryConfig(variant="SPR-X", splitting_radius=-0.1)
    with pytest.raises(RecoveryError):
        RecoveryConfig(gsif_mode="guessed")


def test_splitting_requires_singular_field():
    bm, mesh, sol = linear_solution()
    with pytest.raises(RecoveryError, match="singular field"):
        build_recovered_field(sol, RecoveryConfig(variant="SPR-X"))
