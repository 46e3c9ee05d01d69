"""Reciprocal-work GSIF extraction.

The extraction functional pairs the discrete solution with a dual
(negative-exponent) eigenfield through a plateau-weighted domain integral.
Checked here: the plateau weight itself, the dual field's traction-free
faces, radius independence and mode orthogonality of the calibration
pairing, exactness on interpolated eigenfields, linearity, and the
convergence of extracted amplitudes on solved problems (frozen regression
values).
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothfem.analytic import (
    MODE_I,
    MODE_II,
    AnalyticError,
    angular_displacement_eigenfunction,
    angular_stress_eigenfunction,
    q_constant,
    stress_traction,
)
from smoothfem.benchmarks import LShapeBenchmark
from smoothfem.elasticity import elastic_constants
from smoothfem.gsif import (
    PAIRING_QUAD_ORDER,
    GsifError,
    PlateauFunction,
    _BoundaryTerm,
    _DomainTerm,
    _dual_for,
    calibration_constant,
    contour_pairing,
    extract_gsifs,
)
from smoothfem.mesh import DIRICHLET, NEUMANN, Mesh
from smoothfem.quadmap import (
    PARENT_CORNERS,
    gauss_points_1d,
    gauss_points_2d,
    jacobian_det,
    map_point,
)
from smoothfem.solver import BoundaryConditions, Formulation, interpolate_solution

BM = LShapeBenchmark()

# calibration pairings of the 3pi/2 notch in the benchmark material,
# frozen from a converged Gauss evaluation (radius-independent, see below)
C_I = 0.019631389706144267
C_II = 0.006408638275563891


def interpolated(benchmark, level=2):
    mesh = benchmark.mesh(level)
    bcs = benchmark.boundary_conditions(mesh)
    sol = interpolate_solution(
        mesh, benchmark.material, Formulation("sfem", 4),
        benchmark.exact_displacement,
    )
    return sol, bcs


# ---------------------------------------------------------------------------
# plateau weight
# ---------------------------------------------------------------------------


def test_plateau_values():
    q = PlateauFunction(center=(1.0, 2.0), r_plateau=0.4, r_outer=0.8)
    pts = np.array([
        [1.0, 2.0],        # center
        [1.3, 2.0],        # on the plateau
        [1.6, 2.0],        # ramp midpoint
        [1.8, 2.0],        # at r_outer
        [3.0, 2.0],        # outside
    ])
    assert_allclose(q.value(pts), [1.0, 1.0, 0.5, 0.0, 0.0], atol=1e-15)


def test_plateau_gradient_support_and_direction():
    q = PlateauFunction(center=(0.0, 0.0), r_plateau=0.45, r_outer=0.9)
    g = q.gradient(np.array([[0.2, 0.1], [2.0, 0.0]]))
    assert_allclose(g, 0.0, atol=0)
    g_ramp = q.gradient(np.array([[0.6, 0.0], [0.0, -0.7]]))
    assert_allclose(g_ramp[0], [-1.0 / 0.45, 0.0], atol=1e-12)
    assert_allclose(g_ramp[1], [0.0, 1.0 / 0.45], atol=1e-12)


def test_plateau_gradient_matches_finite_differences():
    q = PlateauFunction(center=(0.3, -0.2), r_plateau=0.3, r_outer=1.0)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.4, 1.0, size=(20, 2))
    h = 1e-7
    for p in pts:
        r = np.hypot(*(p - [0.3, -0.2]))
        if abs(r - 0.3) < 1e-3 or abs(r - 1.0) < 1e-3:
            continue  # kink
        gx = (q.value(p + [h, 0]) - q.value(p - [h, 0])) / (2 * h)
        gy = (q.value(p + [0, h]) - q.value(p - [0, h])) / (2 * h)
        assert_allclose(q.gradient(p), [gx, gy], atol=1e-6)


def test_plateau_validation():
    with pytest.raises(GsifError, match="0 < r_plateau < r_outer"):
        PlateauFunction(r_plateau=0.9, r_outer=0.45)
    with pytest.raises(GsifError, match="0 < r_plateau < r_outer"):
        PlateauFunction(r_plateau=0.5, r_outer=0.4)
    with pytest.raises(GsifError, match="0 < r_plateau < r_outer"):
        PlateauFunction(r_plateau=0.0, r_outer=0.5)


# ---------------------------------------------------------------------------
# the dual extraction field
# ---------------------------------------------------------------------------


def test_dual_faces_are_traction_free():
    from smoothfem.gsif import _dual_for

    # notch faces of the benchmark: the +x axis (outward normal -y) and the
    # -y axis (outward normal +x)
    for mode in (MODE_I, MODE_II):
        dual = _dual_for(BM.singular_field.solution, BM.singular_field.frame, mode)
        for pts, n in [
            (np.array([[0.3, 0.0], [0.9, 0.0]]), np.array([0.0, -1.0])),
            (np.array([[0.0, -0.3], [0.0, -0.9]]), np.array([1.0, 0.0])),
        ]:
            _, s = dual.fields(pts)
            t = np.stack(
                [s[:, 0] * n[0] + s[:, 2] * n[1], s[:, 2] * n[0] + s[:, 1] * n[1]],
                axis=-1,
            )
            assert np.abs(t).max() < 1e-10 * np.abs(s).max()


def test_dual_scales_like_negative_exponent():
    from smoothfem.gsif import _dual_for

    dual = _dual_for(BM.singular_field.solution, BM.singular_field.frame, MODE_I)
    lam = BM.singular_field.solution.lambda_I
    p1 = np.array([[-0.2, 0.3]])
    (u1, s1), (u2, s2) = dual.fields(p1), dual.fields(2.0 * p1)
    assert_allclose(u2, u1 * 2.0 ** (-lam), rtol=1e-12)
    assert_allclose(s2, s1 * 2.0 ** (-lam - 1.0), rtol=1e-12)


def test_dual_rejects_the_vertex():
    from smoothfem.gsif import _dual_for

    dual = _dual_for(BM.singular_field.solution, BM.singular_field.frame, MODE_I)
    with pytest.raises(AnalyticError, match="at the vertex"):
        dual.fields(np.array([[0.0, 0.0]]))
    with pytest.raises(AnalyticError, match="at the vertex"):
        dual.fields(np.array([[0.3, 0.2], [0.0, 0.0]]))


def _former_dual_fields(dual, points):
    """The former ExtractionDual.displacement and .stress, each with its own
    polar map and its own copy of the unit-mode formula."""
    r, phi = dual.frame.to_polar(points)
    psi = angular_displacement_eigenfunction(-dual.lam, dual.Q_dual, dual.mode, phi, dual.kappa)
    v = r[..., None] ** (-dual.lam) * psi / (2.0 * dual.mu)
    Phi = angular_stress_eigenfunction(-dual.lam, dual.Q_dual, dual.mode, phi)
    tau = -dual.lam * r[..., None] ** (-dual.lam - 1.0) * Phi
    return dual.frame.vector_to_global(v), dual.frame.stress_to_global(tau)


@pytest.mark.parametrize("mode", [MODE_I, MODE_II])
def test_dual_fields_equal_the_former_formulas_bit_for_bit(solve_cached, mode):
    # the points both extraction terms evaluate the dual at: the ring's
    # quadrature points and the boundary edges' Gauss points in the support
    _, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    field = BM.singular_field
    dual = _dual_for(field.solution, field.frame, mode)
    plateau = PlateauFunction(center=field.frame.vertex, r_plateau=0.45, r_outer=1.1)
    for points in (_DomainTerm(sol, plateau, 6).phys, _BoundaryTerm(sol, bcs, plateau).x):
        assert len(points)
        for got, want in zip(dual.fields(points), _former_dual_fields(dual, points)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# calibration pairing
# ---------------------------------------------------------------------------


def test_pairing_is_radius_independent():
    sol = BM.singular_field.solution
    base = contour_pairing(sol, MODE_I, MODE_I, r=1.0)
    for r in (0.25, 0.5, 2.0, 7.5):
        assert abs(contour_pairing(sol, MODE_I, MODE_I, r=r) - base) < 1e-12 * abs(base)


def test_cross_mode_pairings_vanish():
    sol = BM.singular_field.solution
    assert abs(contour_pairing(sol, MODE_I, MODE_II)) < 1e-15
    assert abs(contour_pairing(sol, MODE_II, MODE_I)) < 1e-15


def _former_contour_pairing(solution, primal_mode, dual_mode, r=1.0):
    """contour_pairing as it was, with the four mode fields written inline."""
    mu, kappa = elastic_constants(solution.material)
    lam_p = solution.lambda_I if primal_mode == MODE_I else solution.lambda_II
    Q_p = solution.Q_I if primal_mode == MODE_I else solution.Q_II
    lam_d = solution.lambda_I if dual_mode == MODE_I else solution.lambda_II
    Q_d = q_constant(solution.alpha, -lam_d, dual_mode)
    x, w = gauss_points_1d(PAIRING_QUAD_ORDER)
    half = 0.5 * solution.alpha
    phi = half * x
    w = half * w
    u = r**lam_p * angular_displacement_eigenfunction(lam_p, Q_p, primal_mode, phi, kappa) / (2.0 * mu)
    sig = lam_p * r ** (lam_p - 1.0) * angular_stress_eigenfunction(lam_p, Q_p, primal_mode, phi)
    v = r ** (-lam_d) * angular_displacement_eigenfunction(-lam_d, Q_d, dual_mode, phi, kappa) / (2.0 * mu)
    tau = -lam_d * r ** (-lam_d - 1.0) * angular_stress_eigenfunction(-lam_d, Q_d, dual_mode, phi)
    rhat = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    integrand = np.einsum("ki,ki->k", stress_traction(tau, rhat), u) - np.einsum(
        "ki,ki->k", stress_traction(sig, rhat), v
    )
    return float(np.sum(w * integrand) * r)


@pytest.mark.parametrize("r", [1.0, 0.5, 7.5])
def test_pairing_equals_the_former_inline_fields_bit_for_bit(r):
    sol = BM.singular_field.solution
    for primal in (MODE_I, MODE_II):
        for dual in (MODE_I, MODE_II):
            assert contour_pairing(sol, primal, dual, r=r) == _former_contour_pairing(
                sol, primal, dual, r=r
            )


def test_calibration_constants_frozen():
    sol = BM.singular_field.solution
    assert_allclose(calibration_constant(sol, MODE_I), C_I, rtol=1e-12)
    assert_allclose(calibration_constant(sol, MODE_II), C_II, rtol=1e-12)


# ---------------------------------------------------------------------------
# extraction on interpolated eigenfields (no solver error in the way)
# ---------------------------------------------------------------------------


def test_interpolated_mode_one_recovers_unit_amplitude():
    sol, bcs = interpolated(BM)
    est = extract_gsifs(sol, BM.singular_field, bcs)
    assert abs(est.K_I - 1.0015738054985355) < 1e-9  # frozen
    assert abs(est.K_II) < 1e-12
    assert est.ring_elements > 0
    assert est.plateau.center == (0.0, 0.0)
    assert_allclose([est.C_I, est.C_II], [C_I, C_II], rtol=1e-12)
    # nothing imposes traction inside the plateau support, so the boundary
    # correction is numerically nil
    assert max(abs(b) for b in est.boundary_terms) < 1e-12


def test_interpolated_mode_two_is_orthogonal():
    bm2 = LShapeBenchmark(K_I=0.0, K_II=1.0)
    sol, bcs = interpolated(bm2)
    est = extract_gsifs(sol, bm2.singular_field, bcs)
    assert abs(est.K_I) < 1e-12
    assert abs(est.K_II - 1.0) < 2e-3


def test_extraction_is_linear_in_the_solution():
    sol1, bcs1 = interpolated(LShapeBenchmark(K_I=1.0, K_II=0.0), level=1)
    sol2, bcs2 = interpolated(LShapeBenchmark(K_I=2.0, K_II=0.0), level=1)
    e1 = extract_gsifs(sol1, BM.singular_field, bcs1)
    e2 = extract_gsifs(sol2, BM.singular_field, bcs2)
    assert_allclose(e2.K_I, 2.0 * e1.K_I, rtol=1e-12)


def test_mixed_mode_amplitudes_separate():
    bm = LShapeBenchmark(K_I=0.7, K_II=-0.4)
    sol, bcs = interpolated(bm, level=1)
    est = extract_gsifs(sol, bm.singular_field, bcs)
    assert abs(est.K_I - 0.7) < 0.02
    assert abs(est.K_II + 0.4) < 0.02


def test_plateau_size_barely_matters():
    sol, bcs = interpolated(BM)
    base = extract_gsifs(sol, BM.singular_field, bcs).K_I
    wide = PlateauFunction(center=(0.0, 0.0), r_plateau=0.45, r_outer=1.1)
    k_wide = extract_gsifs(sol, BM.singular_field, bcs, plateau=wide).K_I
    assert abs(k_wide - base) / abs(base) < 0.01


# ---------------------------------------------------------------------------
# extraction on solved problems
# ---------------------------------------------------------------------------


def test_solved_sequence_converges_to_unit_gsif(solve_cached):
    # frozen from this discretization; the point is the monotone approach
    expected = {1: 0.9855385644898265, 2: 0.9947002440430427, 3: 0.9963207149423241}
    got = {}
    for level, k_ref in expected.items():
        mesh, bcs, sol = solve_cached("lshape", level, "sfem", 4)
        est = extract_gsifs(sol, BM.singular_field, bcs)
        got[level] = est.K_I
        assert abs(est.K_I - k_ref) < 1e-6
        assert abs(est.K_II) < 1e-3
    errs = [abs(got[l] - 1.0) for l in (1, 2, 3)]
    assert errs[0] > errs[1] > errs[2]


def test_single_mode_wrapper(solve_cached):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    full = extract_gsifs(sol, BM.singular_field, bcs)
    # each mode's factor is its own functional over its own calibration
    assert full.K_I == (full.domain_terms[0] + full.boundary_terms[0]) / full.C_I
    assert full.K_II == (full.domain_terms[1] + full.boundary_terms[1]) / full.C_II


def _per_element_domain_term(sol, dual, plateau, order):
    """Reference for _domain_term: one element at a time, summed in order."""
    pts, w = gauss_points_2d(order)
    total, n_ring = 0.0, 0
    for e in range(sol.mesh.n_elements):
        corners = sol.mesh.coords[sol.mesh.elements[e]]
        phys = map_point(corners, pts[:, 0], pts[:, 1])
        gq = plateau.gradient(phys)
        if not np.any(gq):
            continue
        n_ring += 1
        det = jacobian_det(corners, pts[:, 0], pts[:, 1])
        u_h = sol.displacement_at_parents([e], pts)[0]
        s_h = sol.stress_at_parents([e], pts)[0]
        v, tau = dual.fields(phys)
        F = np.stack(
            [
                tau[:, 0] * u_h[:, 0] + tau[:, 2] * u_h[:, 1]
                - (s_h[:, 0] * v[:, 0] + s_h[:, 2] * v[:, 1]),
                tau[:, 2] * u_h[:, 0] + tau[:, 1] * u_h[:, 1]
                - (s_h[:, 2] * v[:, 0] + s_h[:, 1] * v[:, 1]),
            ],
            axis=-1,
        )
        total += float(np.sum(w * det * np.einsum("ki,ki->k", gq, F)))
    return -total, n_ring


@pytest.mark.parametrize("kind", ["sfem", "fem"])
@pytest.mark.parametrize("mode", [MODE_I, MODE_II])
def test_domain_term_matches_the_per_element_loop_bit_for_bit(solve_cached, kind, mode):
    mesh, bcs, sol = solve_cached("lshape", 1, kind, 4)
    field = BM.singular_field
    dual = _dual_for(field.solution, field.frame, mode)
    plateau = PlateauFunction(center=field.frame.vertex)
    term = _DomainTerm(sol, plateau, 6)
    got = (term(dual), term.ring_elements)
    assert got == _per_element_domain_term(sol, dual, plateau, 6)
    assert 0 < got[1] < mesh.n_elements  # elements both on and off the ring


def test_empty_ring_raises(solve_cached):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    needle = PlateauFunction(center=(0.0, 0.0), r_plateau=1e-7, r_outer=2e-7)
    with pytest.raises(GsifError, match="widen the plateau"):
        extract_gsifs(sol, BM.singular_field, bcs, plateau=needle)


def _per_edge_boundary_term(sol, dual, bcs, plateau):
    """Reference for _BoundaryTerm: one boundary edge at a time, summed in order."""
    mesh = sol.mesh
    gp, gw = gauss_points_1d(4)
    total = 0.0
    for be in mesh.boundary:
        a, b = be.node_ids
        pa, pb = mesh.coords[a], mesh.coords[b]
        half = 0.5 * (pb - pa)
        x = 0.5 * (pa + pb) + gp[:, None] * half
        q = plateau.value(x)
        if not np.any(q > 0.0):
            continue
        jac = np.linalg.norm(half)
        tang = half / jac
        normal = np.array([tang[1], -tang[0]])
        u_a = sol.U[2 * a : 2 * a + 2]
        u_b = sol.U[2 * b : 2 * b + 2]
        u_h = np.outer(0.5 * (1.0 - gp), u_a) + np.outer(0.5 * (1.0 + gp), u_b)
        if be.kind == NEUMANN:
            t = np.asarray(bcs.tractions[be.name](x, normal), dtype=float).reshape(-1, 2)
        else:
            pc0 = PARENT_CORNERS[be.local_edge]
            pc1 = PARENT_CORNERS[(be.local_edge + 1) % 4]
            par = np.outer(0.5 * (1.0 - gp), pc0) + np.outer(0.5 * (1.0 + gp), pc1)
            t = stress_traction(sol.stress_at_parents([be.element_id], par)[0], normal)
        v, tau = dual.fields(x)
        tau_n = stress_traction(tau, normal)
        integrand = np.einsum("ki,ki->k", tau_n, u_h) - np.einsum("ki,ki->k", t, v)
        total += float(np.sum(gw * jac * q * integrand))
    return total


def notch_clamped(level, kind):
    """The interpolated L-shape eigenfield with the notch faces tagged
    Dirichlet, so the boundary term takes the discrete traction there."""
    mesh = BM.mesh(level)
    tags = [replace(be, kind=DIRICHLET) if be.name == "notch" else be for be in mesh.boundary]
    mesh = Mesh(mesh.coords, mesh.elements, tags)
    sol = interpolate_solution(mesh, BM.material, Formulation(kind, 4), BM.exact_displacement)
    return sol, BM.boundary_conditions(mesh)


@pytest.mark.parametrize("kind", ["sfem", "fem"])
@pytest.mark.parametrize("mode", [MODE_I, MODE_II])
@pytest.mark.parametrize("notch", [NEUMANN, DIRICHLET])
def test_boundary_term_matches_the_per_edge_loop_bit_for_bit(solve_cached, kind, mode, notch):
    # the wide plateau reaches the outer square too, so Neumann edges of
    # both names (and, with the notch clamped, Dirichlet edges) are inside
    if notch == NEUMANN:
        _, bcs, sol = solve_cached("lshape", 1, kind, 4)
    else:
        sol, bcs = notch_clamped(1, kind)
    field = BM.singular_field
    dual = _dual_for(field.solution, field.frame, mode)
    for plateau in (
        PlateauFunction(center=field.frame.vertex),
        PlateauFunction(center=field.frame.vertex, r_plateau=0.45, r_outer=1.1),
    ):
        got = _BoundaryTerm(sol, bcs, plateau)(dual)
        assert got == _per_edge_boundary_term(sol, dual, bcs, plateau)
    if notch == DIRICHLET and mode == MODE_I:
        # the discrete traction on the clamped faces is not zero
        assert abs(got) > 1e-3


def lshape_bcs_with(bcs, **tractions):
    return BoundaryConditions(tractions={**bcs.tractions, **tractions}, pins=bcs.pins)


def test_missing_traction_inside_the_support_names_the_boundary(solve_cached):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    only_outer = BoundaryConditions(tractions={"outer": bcs.tractions["outer"]}, pins=bcs.pins)
    with pytest.raises(GsifError, match="'notch'"):
        extract_gsifs(sol, BM.singular_field, only_outer)


@pytest.mark.parametrize(
    "bad, match",
    [
        (lambda p, n: np.full(np.shape(p), np.nan), "non-finite"),
        (lambda p, n: np.zeros(2), "shape"),
        (lambda p, n: np.zeros((len(p), 3)), "shape"),
    ],
    ids=["nan", "one-vector", "three-columns"],
)
def test_bad_traction_output_names_the_boundary(solve_cached, bad, match):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    with pytest.raises(GsifError, match=rf"'notch'.*{match}|{match}.*'notch'"):
        extract_gsifs(sol, BM.singular_field, lshape_bcs_with(bcs, notch=bad))
