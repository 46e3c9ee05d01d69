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

import smoothfem.gsif as gsif_mod
from conftest import benchmark_variant, interpolate_solution, python_calls
from smoothfem.analytic import (
    MODE_I,
    MODE_II,
    AnalyticError,
    NotchFrame,
    angular_displacement_eigenfunction,
    angular_stress_eigenfunction,
    q_constant,
    stress_traction,
)
from smoothfem.benchmarks import LShapeBenchmark
from smoothfem.elasticity import elastic_constants
from smoothfem.gsif import (
    DOMAIN_QUAD_ORDER,
    PAIRING_QUAD_ORDER,
    GsifError,
    PlateauFunction,
    _boundary_terms,
    _domain_terms,
    _dual_fields,
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
from smoothfem.solver import BoundaryConditions, Formulation

BM = LShapeBenchmark()

# calibration pairings of the 3pi/2 notch in the benchmark material,
# frozen from a converged Gauss evaluation (radius-independent, see below)
C_I = 0.019631389706144267
C_II = 0.006408638275563891


def interpolated(benchmark, level=2, formulation=Formulation("sfem", 4)):
    mesh = benchmark.mesh(level)
    bcs = benchmark.boundary_conditions(mesh)
    sol = interpolate_solution(mesh, benchmark.material, formulation, benchmark.exact_displacement)
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


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(center=(np.nan, 0.0)), "center"),
        (dict(center=(0.0, np.inf)), "center"),
        (dict(center=(0.0, 0.0, 0.0)), "center"),
        (dict(r_outer=np.inf), "r_outer"),
    ],
)
def test_plateau_rejects_a_non_finite_center_or_outer_radius(kwargs, match):
    # these used to construct, and extraction then asked to widen the plateau
    with pytest.raises(GsifError, match=match):
        PlateauFunction(**kwargs)


# ---------------------------------------------------------------------------
# the dual extraction field
# ---------------------------------------------------------------------------


def dual(mode, points):
    """The benchmark notch's extraction dual (v, tau) of one mode."""
    frame = BM.singular_field.frame
    return _dual_fields(BM.singular_field.solution, frame, mode, frame.to_polar(points))


def test_dual_faces_are_traction_free():
    # notch faces of the benchmark: the +x axis (outward normal -y) and the
    # -y axis (outward normal +x)
    for mode in (MODE_I, MODE_II):
        for pts, n in [
            (np.array([[0.3, 0.0], [0.9, 0.0]]), np.array([0.0, -1.0])),
            (np.array([[0.0, -0.3], [0.0, -0.9]]), np.array([1.0, 0.0])),
        ]:
            _, s = dual(mode, pts)
            t = np.stack(
                [s[:, 0] * n[0] + s[:, 2] * n[1], s[:, 2] * n[0] + s[:, 1] * n[1]],
                axis=-1,
            )
            assert np.abs(t).max() < 1e-10 * np.abs(s).max()


def test_dual_scales_like_negative_exponent():
    lam = BM.singular_field.solution.lambda_I
    p1 = np.array([[-0.2, 0.3]])
    (u1, s1), (u2, s2) = dual(MODE_I, p1), dual(MODE_I, 2.0 * p1)
    assert_allclose(u2, u1 * 2.0 ** (-lam), rtol=1e-12)
    assert_allclose(s2, s1 * 2.0 ** (-lam - 1.0), rtol=1e-12)


def test_dual_rejects_the_vertex():
    with pytest.raises(AnalyticError, match="at the vertex"):
        dual(MODE_I, np.array([[0.0, 0.0]]))
    with pytest.raises(AnalyticError, match="at the vertex"):
        dual(MODE_I, np.array([[0.3, 0.2], [0.0, 0.0]]))


def _former_dual_fields(solution, frame, mode, points):
    """The former ExtractionDual.displacement and .stress, each with its own
    polar map and its own copy of the unit-mode formula, with the constants
    the former _dual_for gave the dual."""
    mu, kappa = elastic_constants(solution.material)
    lam = solution.lambda_I if mode == MODE_I else solution.lambda_II
    Q_dual = q_constant(solution.alpha, -lam, mode)
    r, phi = frame.to_polar(points)
    psi = angular_displacement_eigenfunction(-lam, Q_dual, mode, phi, kappa)
    v = r[..., None] ** (-lam) * psi / (2.0 * mu)
    Phi = angular_stress_eigenfunction(-lam, Q_dual, mode, phi)
    tau = -lam * r[..., None] ** (-lam - 1.0) * Phi
    return frame.vector_to_global(v), frame.stress_to_global(tau)


def recorded_dual_points(monkeypatch):
    """A list that gets (mode, points) of every later _dual_fields call
    extraction makes; the points are those NotchFrame.to_polar mapped to the
    polar the call got."""
    mapped, calls = [], []
    to_polar = NotchFrame.to_polar

    def recording_polar(frame, points):
        polar = to_polar(frame, points)
        mapped.append((polar, points))
        return polar

    def recording(solution, frame, mode, polar):
        calls.append((mode, next(p for q, p in mapped if q is polar)))
        return _dual_fields(solution, frame, mode, polar)

    monkeypatch.setattr(NotchFrame, "to_polar", recording_polar)
    monkeypatch.setattr(gsif_mod, "_dual_fields", recording)
    return calls


@pytest.mark.parametrize("mode", [MODE_I, MODE_II])
def test_dual_fields_equal_the_former_formulas_bit_for_bit(solve_cached, monkeypatch, mode):
    # the points both extraction terms evaluate the dual at: the ring's
    # quadrature points and the boundary edges' Gauss points in the support
    _, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    field = BM.singular_field
    plateau = PlateauFunction(center=field.frame.vertex, r_plateau=0.45, r_outer=1.1)
    calls = recorded_dual_points(monkeypatch)
    extract_gsifs(sol, field, bcs, plateau)
    points = [p for m, p in calls if m == mode]
    assert [p.shape[1:] for p in points] == [(DOMAIN_QUAD_ORDER**2, 2), (4, 2)]
    for p in points:
        assert len(p)
        former = _former_dual_fields(field.solution, field.frame, mode, p)
        for got, want in zip(dual(mode, p), former):
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
    bm2 = benchmark_variant(LShapeBenchmark, K_I=0.0, K_II=1.0)
    sol, bcs = interpolated(bm2)
    est = extract_gsifs(sol, bm2.singular_field, bcs)
    assert abs(est.K_I) < 1e-12
    assert abs(est.K_II - 1.0) < 2e-3


def test_extraction_is_linear_in_the_solution():
    sol1, bcs1 = interpolated(benchmark_variant(LShapeBenchmark, K_I=1.0, K_II=0.0), level=1)
    sol2, bcs2 = interpolated(benchmark_variant(LShapeBenchmark, K_I=2.0, K_II=0.0), level=1)
    e1 = extract_gsifs(sol1, BM.singular_field, bcs1)
    e2 = extract_gsifs(sol2, BM.singular_field, bcs2)
    assert_allclose(e2.K_I, 2.0 * e1.K_I, rtol=1e-12)


def test_mixed_mode_amplitudes_separate():
    bm = benchmark_variant(LShapeBenchmark, K_I=0.7, K_II=-0.4)
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


def _per_element_domain_term(sol, mode, plateau):
    """Reference for _domain_terms: one element at a time, summed in order."""
    pts, w = gauss_points_2d(DOMAIN_QUAD_ORDER)
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
        v, tau = dual(mode, phys)
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
    plateau = PlateauFunction(center=BM.singular_field.frame.vertex)
    terms, ring_elements = _domain_terms(sol, BM.singular_field, plateau)
    got = (terms[(MODE_I, MODE_II).index(mode)], ring_elements)
    assert got == _per_element_domain_term(sol, mode, plateau)
    assert 0 < got[1] < mesh.n_elements  # elements both on and off the ring


@pytest.mark.parametrize(
    "kind, levels", [("sfem", (1, 3)), ("fem", (3, 4))], ids=["sfem-L1-L3", "fem-L3-L4"]
)
def test_extraction_python_calls_do_not_grow_with_the_mesh(kind, levels):
    # both sums are array operations over the ring and the support edges, so
    # extraction takes the same number of Python calls at every level.  FEM
    # stress_at_parents makes at most q = 36 blocks, one strain_matrix call
    # each, so FEM reaches its constant count once the ring has 36 elements
    # (at L3; L1 and L2 make fewer calls)
    def calls(level):
        sol, bcs = interpolated(BM, level, Formulation(kind, 4))
        extract_gsifs(sol, BM.singular_field, bcs)  # warm up caches
        return python_calls((extract_gsifs, sol, BM.singular_field, bcs))

    assert calls(levels[0]) == calls(levels[1])


def test_empty_ring_raises(solve_cached):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    needle = PlateauFunction(center=(0.0, 0.0), r_plateau=1e-7, r_outer=2e-7)
    with pytest.raises(GsifError, match="widen the plateau"):
        extract_gsifs(sol, BM.singular_field, bcs, plateau=needle)


def _per_edge_boundary_term(sol, mode, bcs, plateau):
    """Reference for _boundary_terms: one boundary edge at a time, summed in order."""
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
        v, tau = dual(mode, x)
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
    for plateau in (
        PlateauFunction(center=field.frame.vertex),
        PlateauFunction(center=field.frame.vertex, r_plateau=0.45, r_outer=1.1),
    ):
        got = _boundary_terms(sol, bcs, field, plateau)[(MODE_I, MODE_II).index(mode)]
        assert got == _per_edge_boundary_term(sol, mode, bcs, plateau)
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
