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
    PatchFailure,
    RecoveryConfig,
    RecoveryError,
    _basis,
    _orthonormalize_constraints,
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


def patch_values(fit, points):
    """A patch polynomial at physical points (..., 2); (..., 3)."""
    return _basis(np.asarray(points, float), fit.center, fit.scale, fit.degree) @ fit.coeffs.T


def fit_one(node_id, positions, stresses, weights, degree, constraints=None,
            center=None, scale=None):
    """fit_patch on a batch of one patch."""
    return fit_patch(
        [node_id], positions[None], stresses[None], weights[None], degree,
        constraints=None if constraints is None else tuple(a[None] for a in constraints),
        center=None if center is None else np.asarray(center, float)[None],
        scale=None if scale is None else np.array([scale], float),
    )[0]


def shared_constraints(degree, compliance):
    """The constraint rows of one patch without collocation, at scale 1."""
    C, d = constraint_rows(degree=degree, scale=np.ones(1), compliance=compliance)
    return C[0], d[0]


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
    C1, d1 = shared_constraints(1, Dinv)
    # linear stresses: div sigma is constant, one scalar row per equation,
    # touching only the four gradient coefficients
    assert C1.shape == (2, 9)
    assert np.count_nonzero(np.any(C1 != 0.0, axis=0)) == 4
    assert_allclose(d1, 0.0, atol=0)

    C2, _ = shared_constraints(2, Dinv)
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
        assert_allclose(patch_values(field.fits[node], mesh.coords[node]), exact[node], atol=1e-9)


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
    fit = fit_one(0, pos, stresses, np.ones(len(pos)), degree=1)
    assert np.abs(patch_values(fit, pos) - stresses).max() < 1e-10


def test_fit_with_consistent_constraints_unchanged():
    # the linear field used above happens to be non-equilibrated, so build
    # an equilibrated one: sigma = (y, x, 0) has div sigma = 0
    rng = np.random.default_rng(5)
    pos = rng.uniform(-1.0, 1.0, size=(10, 2))
    stresses = np.stack([pos[:, 1], pos[:, 0], np.zeros(len(pos))], axis=-1)
    Dinv = compliance_matrix(MAT)
    center, scale = np.zeros(2), 1.0
    C, d = shared_constraints(1, Dinv)
    free = fit_one(0, pos, stresses, np.ones(10), 1, center=center, scale=scale)
    tied = fit_one(
        0, pos, stresses, np.ones(10), 1, constraints=(C, d), center=center, scale=scale
    )
    assert_allclose(tied.coeffs, free.coeffs, atol=1e-10)
    assert np.abs(patch_values(tied, pos) - stresses).max() < 1e-10


def test_fit_matches_dense_kkt_oracle():
    # independent re-derivation of the same weighted KKT system, solved by
    # a bordered dense factorization
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1.0, 1.0, size=(15, 2))
    stresses = rng.normal(size=(15, 3))
    weights = rng.uniform(0.5, 2.0, size=15)
    Dinv = compliance_matrix(MAT)
    C, d = shared_constraints(2, Dinv)
    fit = fit_one(
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
        fit_one(0, pos, np.zeros((6, 3)), np.ones(6), 2)


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
        assert_allclose(blended, patch_values(field.fits[node], mesh.coords[node]), atol=1e-12)


def _per_element_blend(field, e, pts):
    """Reference for evaluate_at_parents: one element, node by node."""
    N = shape_functions(pts[:, 0], pts[:, 1])
    x = N @ field.mesh.element_corners(e)
    conn = field.mesh.elements[e]
    any_split = field.singular_field is not None and field.split_flags[conn].any()
    out = np.zeros((len(pts), 3))
    for k, node in enumerate(conn):
        vals = patch_values(field.fits[node], x)
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
        sx = (patch_values(fit, x0 + [h, 0]) - patch_values(fit, x0 - [h, 0])) / (2 * h)
        sy = (patch_values(fit, x0 + [0, h]) - patch_values(fit, x0 - [0, h])) / (2 * h)
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
    # one warning per fallen-back patch, in node order
    fallen = [r.args[0] for r in caplog.records if "falling back" in r.getMessage()]
    assert fallen == [fit.node_id for fit in field.fits] == [0, 1, 2, 3]


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


# ---------------------------------------------------------------------------
# the batched fits against the per-node loop
# ---------------------------------------------------------------------------


def reference_constraint_rows(degree, center, scale, compliance, collocation,
                              singular_field, split, body_force):
    """One patch's constraint rows, built row by row as the per-node loop did."""
    from smoothfem.recovery import _MONOMIALS, _derivative_matrix

    m = len(_MONOMIALS[degree])
    rows, rhs = [], []
    Dx, Dy = _derivative_matrix(degree, 0), _derivative_matrix(degree, 1)
    zero = np.zeros_like(Dx)
    const = np.zeros(Dx.shape[0])
    const[0] = 1.0
    for block, b in ((np.hstack([Dx, zero, Dy]), body_force[0]),
                     (np.hstack([zero, Dy, Dx]), body_force[1])):
        for k in range(block.shape[0]):
            rows.append(block[k])
            rhs.append(-b * scale * const[k])
    for x, n, traction in collocation:
        x = np.asarray(x, float)
        if split and singular_field is not None:
            r = np.hypot(*(x - np.asarray(singular_field.frame.vertex)))
            if r < 1e-14 * (1.0 + scale):
                continue
        t = np.asarray(traction(x[None, :], n), dtype=float).reshape(2)
        if split and singular_field is not None:
            t = t - singular_field.traction(x[None, :], n).reshape(2)
        p = _basis(x[None, :], center, scale, degree)[0]
        z = np.zeros(m)
        rows.append(np.concatenate([n[0] * p, z, n[1] * p]))
        rhs.append(t[0])
        rows.append(np.concatenate([z, n[1] * p, n[0] * p]))
        rhs.append(t[1])
    if degree >= 2:
        mono = _MONOMIALS[2]
        i_xx, i_xy, i_yy = mono.index((2, 0)), mono.index((1, 1)), mono.index((0, 2))
        row = np.zeros(3 * m)
        for j in range(3):
            row[j * m + i_yy] += 2.0 * compliance[0, j]
            row[j * m + i_xx] += 2.0 * compliance[1, j]
            row[j * m + i_xy] -= compliance[2, j]
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def reference_orthonormalize(C, d, node):
    """Scalar Gram-Schmidt over one patch's rows."""
    kept_C, kept_d = [], []
    for row, val in zip(C, d):
        norm0 = np.linalg.norm(row)
        if norm0 == 0.0:
            if abs(val) > 1e-9:
                raise RecoveryError(f"inconsistent constraint (0 = {val:.3e}) in patch {node}")
            continue
        v, w = row / norm0, val / norm0
        for u, e in zip(kept_C, kept_d):
            proj = v @ u
            v = v - proj * u
            w = w - proj * e
        nv = np.linalg.norm(v)
        if nv < 1e-10:
            if abs(w) > 1e-8:
                raise RecoveryError(f"inconsistent dependent constraint in patch {node}")
            continue
        kept_C.append(v / nv)
        kept_d.append(w / nv)
    if not kept_C:
        return np.zeros((0, C.shape[1])), np.zeros(0)
    return np.array(kept_C), np.array(kept_d)


def reference_fit(node, pos, sig, w, degree, constraints, center, scale):
    """One patch's KKT fit with the full SVD conditioning check; None if singular."""
    P = _basis(pos, center, scale, degree)
    m = P.shape[1]
    wtot = w.sum()
    M = (P * w[:, None]).T @ P / wtot
    b = (P * w[:, None]).T @ sig / wtot
    A = np.zeros((3 * m, 3 * m))
    rb = np.zeros(3 * m)
    for j in range(3):
        A[j * m:(j + 1) * m, j * m:(j + 1) * m] = M
        rb[j * m:(j + 1) * m] = b[:, j]
    if constraints is not None and len(constraints[0]):
        C, d = constraints
        k = len(C)
        KKT = np.zeros((3 * m + k, 3 * m + k))
        KKT[:3 * m, :3 * m] = A
        KKT[:3 * m, 3 * m:] = C.T
        KKT[3 * m:, :3 * m] = C
        rhs = np.concatenate([rb, d])
    else:
        KKT, rhs = A, rb
    sv = np.linalg.svd(KKT, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        return None
    return np.linalg.solve(KKT, rhs)[:3 * m].reshape(3, m)


def reference_fits(sol, config, singular_field, tractions, bcs):
    """(degree, center, scale, coeffs) of every node, one node at a time."""
    mesh = sol.mesh
    if config.with_splitting:
        singular_field = singular_stress_estimate(singular_field, sol, config.gsif_mode, bcs=bcs)
    positions, stresses, weights, k = _sampling_arrays(sol)
    split = np.zeros(mesh.n_nodes, dtype=bool)
    smooth = stresses
    if config.with_splitting:
        smooth = smooth_part(positions, stresses, singular_field)
        split = np.linalg.norm(mesh.coords - np.asarray(singular_field.frame.vertex), axis=1) \
            < config.splitting_radius
    edges = {}
    for be in mesh.boundary:
        if be.kind == "neumann" and config.with_constraints:
            pa, pb = mesh.coords[be.node_ids[0]], mesh.coords[be.node_ids[1]]
            for n in be.node_ids:
                edges.setdefault(n, []).append((pa, pb, tractions[be.name]))
    boundary_nodes = {n for be in mesh.boundary for n in be.node_ids}
    compliance = compliance_matrix(sol.material)
    out = []
    for node in range(mesh.n_nodes):
        patch = np.asarray(mesh.node_patch(node))
        idx = (patch[:, None] * k + np.arange(k)).ravel()
        pos, w = positions[idx], weights[idx]
        sig = (smooth if split[node] else stresses)[idx]
        center = mesh.coords[node]
        scale = max(np.abs(pos - center).max(), 1e-30)
        degree = config.boundary_degree if node in boundary_nodes else config.interior_degree
        while True:
            constraints = None
            if config.with_constraints:
                C, d = reference_constraint_rows(
                    degree, center, scale, compliance,
                    collocation_points(center, edges.get(node, []), degree),
                    singular_field, bool(split[node]), (0.0, 0.0),
                )
                constraints = reference_orthonormalize(C, d, node)
            coeffs = reference_fit(node, pos, sig, w, degree, constraints, center, scale)
            if coeffs is not None:
                break
            assert degree > 1, f"node {node} singular at degree 1"
            degree = 1
        out.append((degree, center, scale, coeffs))
    return out


RECOVERY_CASES = [
    (name, level, kind, nc, RecoveryConfig(variant=variant))
    for name, level, kind, nc in (
        ("cylinder", 2, "fem", 4), ("cylinder", 2, "sfem", 4), ("lshape", 1, "sfem", 4)
    )
    for variant in ("SPR", "SPR-C", "SPR-X", "SPR-CX")
    if name == "lshape" or "X" not in variant
] + [
    ("lshape", 1, "sfem", 4, RecoveryConfig(variant="SPR-CX", interior_degree=1)),
    ("lshape", 1, "sfem", 4, RecoveryConfig(variant="SPR-C", interior_degree=1)),
    ("lshape", 1, "sfem", 4, RecoveryConfig(variant="SPR-CX", gsif_mode="extracted")),
    ("lshape", 1, "fem", 4, RecoveryConfig(variant="SPR-CX")),
]


@pytest.mark.parametrize(
    "name, level, kind, nc, config", RECOVERY_CASES,
    ids=[f"{c[0]}{c[1]}-{c[2]}-{c[4].variant}-d{c[4].interior_degree}-{c[4].gsif_mode}"
         for c in RECOVERY_CASES],
)
def test_batched_fits_match_the_per_node_loop_bit_for_bit(
    solve_cached, cylinder_bm, lshape_bm, name, level, kind, nc, config
):
    # the splitting variants on the cylinder have no notch to split at; every
    # other combination runs, including degree-1 interiors (two degree groups)
    # and the cylinder's starved corner patches, which fall back to degree 1
    bm = {"cylinder": cylinder_bm, "lshape": lshape_bm}[name]
    mesh, bcs, sol = solve_cached(name, level, kind, nc)
    field = build_recovered_field(
        sol, config, singular_field=bm.singular_field, tractions=bcs.tractions, bcs=bcs
    )
    want = reference_fits(sol, config, bm.singular_field, bcs.tractions, bcs)
    assert len(field.fits) == mesh.n_nodes
    for node, (fit, (degree, center, scale, coeffs)) in enumerate(zip(field.fits, want)):
        assert fit.node_id == node
        assert fit.degree == degree
        assert np.array_equal(fit.center, center)
        assert fit.scale == scale
        assert np.array_equal(fit.coeffs, coeffs), node


def test_orthonormalize_masks_each_patch_separately():
    # three patches in one batch: one keeps every row, one has a dependent
    # row (dropped), one a zero row (dropped); each must equal its own
    # scalar Gram-Schmidt bit for bit
    rng = np.random.default_rng(21)
    C = rng.normal(size=(3, 4, 9))
    d = rng.normal(size=(3, 4))
    C[1, 2] = 2.0 * C[1, 0] - C[1, 1]
    d[1, 2] = 2.0 * d[1, 0] - d[1, 1]
    C[2, 1] = 0.0
    d[2, 1] = 0.0
    Q, e, rank = _orthonormalize_constraints(C, d, [5, 6, 7])
    assert rank.tolist() == [4, 3, 3]
    for i in range(3):
        Qi, ei = reference_orthonormalize(C[i], d[i], i)
        assert np.array_equal(Q[i, : rank[i]], Qi)
        assert np.array_equal(e[i, : rank[i]], ei)
        assert not Q[i, rank[i]:].any() and not e[i, rank[i]:].any()


def test_inconsistent_collocation_row_names_its_node(solve_cached, monkeypatch):
    # a second traction value at a node's first collocation point repeats
    # that point's rows with a conflicting right-hand side; the recovery
    # must refuse and name the lowest such node
    import smoothfem.recovery as recovery

    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    bad = {int(mesh.find_node((-1.0, 0.0))), int(mesh.find_node((0.0, 1.0)))}
    original = recovery.collocation_points

    def with_conflict(node_pos, edges, degree):
        points = original(node_pos, edges, degree)
        if mesh.find_node(node_pos) in bad:
            x, n, fn = points[0]
            points.append((x, n, lambda p, nrm, fn=fn: fn(p, nrm) + 1.0))
        return points

    monkeypatch.setattr(recovery, "collocation_points", with_conflict)
    with pytest.raises(RecoveryError, match=rf"inconsistent dependent constraint in patch {min(bad)} ") as exc:
        build_recovered_field(sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions)
    assert isinstance(exc.value, PatchFailure)
    assert set(exc.value.failures) == bad
