"""Energy-norm errors, effectivity statistics, convergence rates.

The estimator itself is exercised end-to-end elsewhere; this module pins the
arithmetic: quadrature exactness on fields with known energy, the symmetric
local-deviation map, exclusion handling, additivity of element squares, and
the log-log rate fit.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import smoothfem.error as error_mod
from conftest import benchmark_variant, interpolate_solution, single_element_mesh, traced_peak
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from smoothfem.elasticity import Material, PLANE_STRAIN, compliance_matrix
from smoothfem.error import (
    EffectivityStats,
    ErrorComputationError,
    compute_error_report,
    convergence_rate,
    effectivity,
    element_error_squares,
    local_deviation,
)
from smoothfem.quadmap import gauss_points_2d, jacobian_det, map_point, mapped_rule
from smoothfem.recovery import RecoveryConfig, build_recovered_field
from smoothfem.solver import Formulation, assemble_and_solve

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = Material(100.0, 0.3, PLANE_STRAIN)


class ConstantField:
    """Duck-typed stand-in for a recovered field: one stress everywhere."""

    def __init__(self, stress):
        self.stress = np.asarray(stress, float)

    def evaluate_at_parents(self, ids, pts):
        return np.broadcast_to(self.stress, (len(ids), len(pts), 3)).copy()


def zero_stress(points):
    """An exact stress of zero everywhere: points (..., 2) -> (..., 3)."""
    return np.zeros(np.shape(points)[:-1] + (3,))


# the recovered field of the tests that read only the exact square
ZERO_FIELD = ConstantField([0.0, 0.0, 0.0])


class EchoField:
    """Returns the solution's own stress: the estimate must vanish."""

    def __init__(self, solution):
        self.solution = solution

    def evaluate_at_parents(self, ids, pts):
        return self.solution.stress_at_parents(ids, pts)


# ---------------------------------------------------------------------------
# local deviation
# ---------------------------------------------------------------------------


def test_local_deviation_anchor_points():
    assert local_deviation(1.0) == 0.0
    assert local_deviation(2.0) == 1.0
    assert local_deviation(0.5) == -1.0


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_local_deviation_is_antisymmetric_in_log_theta(theta):
    assert local_deviation(theta) == pytest.approx(-local_deviation(1.0 / theta), abs=1e-9)


# ---------------------------------------------------------------------------
# element quadrature
# ---------------------------------------------------------------------------


def test_constant_offset_has_closed_form_energy():
    # sigma* - sigma_h = (delta, 0, 0) on a unit square: the squared energy
    # norm is delta^2 * Dinv[0,0] * area
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("fem"), lambda p: np.zeros_like(p))
    delta = 0.37
    est2, _, _ = element_error_squares(sol, ConstantField([delta, 0.0, 0.0]), zero_stress)
    est = np.sqrt(est2.sum())
    Dinv = compliance_matrix(MAT)
    assert_allclose(est, delta * np.sqrt(Dinv[0, 0]), rtol=1e-13)


def test_echo_field_gives_zero_estimate(solve_cached, cylinder_bm):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    est2, _, _ = element_error_squares(sol, EchoField(sol), cylinder_bm.exact_stress)
    assert np.sqrt(est2.sum()) == 0.0


def test_exact_error_vanishes_when_interpolant_is_exact():
    bm = PatchBenchmark()
    mesh = bm.mesh()
    sol = interpolate_solution(
        mesh, bm.material, Formulation("sfem", 4), bm.exact_displacement
    )
    _, ex2, _ = element_error_squares(sol, ZERO_FIELD, bm.exact_stress)
    assert np.sqrt(ex2.sum()) < 1e-10


def test_element_squares_are_additive(solve_cached, cylinder_bm):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    est2, _, _ = element_error_squares(sol, field, cylinder_bm.exact_stress)
    again, _, _ = element_error_squares(sol, field, cylinder_bm.exact_stress)
    total = np.sqrt(again.sum())
    assert_allclose(total**2, est2.sum(), rtol=1e-12)
    # region splitting: squares over disjoint regions add up to the total
    half = mesh.n_elements // 2
    a = np.sqrt(again[:half].sum())
    b = np.sqrt(again[half:].sum())
    assert_allclose(a**2 + b**2, total**2, rtol=1e-12)
    # a single-element region
    one = np.sqrt(again[[3]].sum())
    assert_allclose(one**2, est2[3], rtol=1e-12)


def test_quadrature_is_converged_for_smooth_fields():
    # doubling the Gauss order must not move the norm (FEM stresses are
    # smooth inside each element; the smoothed variants are intentionally
    # piecewise constant and are not held to this)
    cb = CylinderBenchmark()
    mesh = cb.mesh(1)
    bcs = cb.boundary_conditions(mesh)
    sol = assemble_and_solve(mesh, cb.material, Formulation("fem"), bcs)
    base = np.sqrt(element_error_squares(sol, ZERO_FIELD, cb.exact_stress)[1].sum())
    orig = error_mod.mapped_rule
    error_mod.mapped_rule = lambda corners, order: orig(corners, 2 * order)
    try:
        doubled = np.sqrt(element_error_squares(sol, ZERO_FIELD, cb.exact_stress)[1].sum())
    finally:
        error_mod.mapped_rule = orig
    assert abs(doubled - base) < 1e-4 * base


def test_singular_elements_get_the_fine_rule(solve_cached, lshape_bm, monkeypatch):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    calls = []
    orig = error_mod.mapped_rule

    def spy(corners, order):
        calls.append((corners, order))
        return orig(corners, order)

    monkeypatch.setattr(error_mod, "mapped_rule", spy)
    element_error_squares(
        sol, ZERO_FIELD, lshape_bm.exact_stress,
        singular_point=lshape_bm.singular_vertex,
    )
    vertex = mesh.find_node(lshape_bm.singular_vertex)
    lo, hi = mesh.patch_offsets[vertex], mesh.patch_offsets[vertex + 1]
    vertex_elems = np.unique(mesh.patch_elements[lo:hi])
    assert len(vertex_elems)  # sanity
    others = np.setdiff1d(np.arange(mesh.n_elements), vertex_elems)
    # one rule per order, each on exactly its elements' quads, in element order
    all_corners = mesh.coords[mesh.elements]
    assert [order for _, order in calls] == [4, 16]
    assert np.array_equal(calls[0][0], all_corners[others])
    assert np.array_equal(calls[1][0], all_corners[vertex_elems])


def _element_quadrature(solution, element_ids, order):
    """The error quadrature's former rule, written out by hand: the oracle
    that mapped_rule must equal bit for bit."""
    pts, w = gauss_points_2d(order)
    corners = solution.mesh.coords[solution.mesh.elements[element_ids]]
    det = jacobian_det(corners[:, None], pts[:, 0], pts[:, 1])
    phys = map_point(corners, pts[:, 0], pts[:, 1])
    return pts, w * det, phys


@pytest.mark.parametrize("order", [2, 4, 6, 16])
@pytest.mark.parametrize("name,level,kind", [("cylinder", 2, "fem"), ("lshape", 1, "sfem")])
def test_mapped_rule_equals_the_former_element_quadrature(solve_cached, name, level, kind, order):
    mesh, _, sol = solve_cached(name, level, kind, 4)
    ids = np.random.default_rng(order).permutation(mesh.n_elements)[: mesh.n_elements // 2]
    got = mapped_rule(mesh.coords[mesh.elements[ids]], order)
    for a, b in zip(got, _element_quadrature(sol, ids, order)):
        assert np.array_equal(a, b)


def _per_element_squares(sol, field, exact_stress, singular_point):
    """Reference for element_error_squares: one element at a time."""
    mesh = sol.mesh
    Dinv = compliance_matrix(sol.material)
    out = np.zeros((3, mesh.n_elements))
    for e in range(mesh.n_elements):
        corners = mesh.coords[mesh.elements[e]]
        at_vertex = singular_point is not None and np.any(
            np.linalg.norm(corners - singular_point, axis=1) < 1e-12
        )
        pts, w = gauss_points_2d(16 if at_vertex else 4)
        wdet = w * jacobian_det(corners, pts[:, 0], pts[:, 1])
        sh = sol.stress_at_parents([e], pts)[0]
        s_star = field.evaluate_at_parents([e], pts)[0]
        s_ex = exact_stress(map_point(corners, pts[:, 0], pts[:, 1]))
        for i, d in enumerate((s_star - sh, s_ex - sh, s_star - s_ex)):
            out[i, e] = np.sum(wdet * np.einsum("ki,ij,kj->k", d, Dinv, d))
    return out


@pytest.mark.parametrize(
    "name,level,kind,variant,step",
    [
        pytest.param("cylinder", 2, "fem", "SPR-C", None, id="cylinder-2-fem-SPR-C"),
        pytest.param("lshape", 1, "sfem", "SPR-CX", None, id="lshape-1-sfem-SPR-CX"),
        pytest.param("cylinder", 2, "fem", "SPR-C", 2, id="cylinder-2-fem-SPR-C-sliced"),
        pytest.param("lshape", 1, "sfem", "SPR-CX", 2, id="lshape-1-sfem-SPR-CX-sliced"),
    ],
)
def test_grouped_quadrature_matches_the_per_element_loop_bit_for_bit(
    solve_cached, monkeypatch, name, level, kind, variant, step
):
    mesh, bcs, sol = solve_cached(name, level, kind, 4)
    bm = {"cylinder": CylinderBenchmark(), "lshape": LShapeBenchmark()}[name]
    field = build_recovered_field(
        sol, RecoveryConfig(variant=variant), singular_field=bm.singular_field,
        tractions=bcs.tractions,
    )
    vertex = bm.singular_vertex
    singular = error_mod._singular_elements(sol, vertex)
    rules = []
    if step is not None:
        # slices of two elements: a slice boundary falls inside each rule
        # group, the 4x4 one and (L-shape) the 16x16 one at the vertex
        monkeypatch.setattr(error_mod, "ELEMENT_SLICE", step)
        orig = error_mod.mapped_rule

        def spy(corners, order):
            rules.append((len(corners), order))
            return orig(corners, order)

        monkeypatch.setattr(error_mod, "mapped_rule", spy)
    squares = element_error_squares(sol, field, bm.exact_stress, singular_point=vertex)
    reference = _per_element_squares(sol, field, bm.exact_stress, vertex)
    for got, want in zip(squares, reference):
        assert np.array_equal(got, want)
    if step is not None:
        want = []
        for count, order in ((np.sum(~singular), 4), (np.sum(singular), 16)):
            assert count == 0 or count > step
            want += [(min(step, count - s), order) for s in range(0, count, step)]
        assert rules == want
    if vertex is not None:
        # both rule groups and split patches are exercised
        assert 0 < singular.sum() < mesh.n_elements
        assert field.split_flags.any() and not field.split_flags.all()


def test_error_quadrature_working_memory_does_not_grow_with_the_mesh(solve_cached, cylinder_bm):
    # the traced peak of an error report is a slice's (n, q, 3) stacks:
    # cylinder L5 (4096 elements, 4 slices) takes about what L4 (1024, one
    # slice) takes; in one batch per rule order, L5 took 4x L4's
    def peak(level):
        _, bcs, sol = solve_cached("cylinder", level, "fem")
        field = build_recovered_field(
            sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
        )
        return traced_peak(compute_error_report, sol, field, cylinder_bm.exact_stress)[1]

    assert peak(5) <= 1.5 * peak(4)


# ---------------------------------------------------------------------------
# effectivity statistics
# ---------------------------------------------------------------------------


def test_perfect_estimator_statistics():
    stats = effectivity(np.ones(5), np.ones(5))
    assert isinstance(stats, EffectivityStats)
    assert stats.theta == 1.0
    assert stats.m_abs_D == 0.0
    assert stats.sigma_D == 0.0
    assert stats.excluded == 0


def test_hand_computed_statistics():
    # th = (1, 2) -> D = (0, 1): m|D| = 0.5, population sigma = 0.5
    stats = effectivity(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert_allclose(stats.theta, np.sqrt(5.0 / 2.0), rtol=1e-15)
    assert stats.m_abs_D == 0.5
    assert stats.sigma_D == 0.5
    assert stats.D.tolist() == [0.0, 1.0]


def test_near_zero_exact_elements_are_excluded():
    est = np.array([1.0, 1.0, 0.5])
    ex = np.array([1.0, 1e-20, 1.0])
    stats = effectivity(est, ex)
    assert stats.excluded == 1
    assert np.isnan(stats.theta_e[1])
    assert np.isnan(stats.D[1])
    # D stats come from the two surviving elements: D = (0, -1)
    assert stats.m_abs_D == 0.5
    assert stats.sigma_D == 0.5


def reference_effectivity(est, ex):
    """The per-element loop effectivity ran before it became array code:
    (theta, theta_e, D, m_abs_D, sigma_D, excluded)."""
    global_est = float(np.sqrt(np.sum(est**2)))
    global_ex = float(np.sqrt(np.sum(ex**2)))
    theta_e, D, Ds = [], [], []
    for e_est, e_ex in zip(est, ex):
        if e_ex <= 1e-14 * global_ex:
            theta_e.append(np.nan)
            D.append(np.nan)
            continue
        th = float(e_est / e_ex)
        d = th - 1.0 if th >= 1.0 else 1.0 - 1.0 / th
        theta_e.append(th)
        D.append(d)
        Ds.append(d)
    Ds = np.asarray(Ds)
    return (
        global_est / global_ex, np.array(theta_e), np.array(D),
        float(np.mean(np.abs(Ds))), float(np.std(Ds)), len(est) - len(Ds),
    )


@pytest.mark.parametrize("seed", range(6))
def test_effectivity_matches_the_per_element_loop(seed):
    rng = np.random.default_rng(seed)
    n = 50
    ex = rng.lognormal(0.0, 2.0, n)
    est = ex * rng.lognormal(0.0, 0.7, n)
    exact = rng.choice(n, 3, replace=False)
    est[exact] = ex[exact]  # theta_e == 1 exactly
    ex[rng.choice(n, 4, replace=False)] = [0.0, 1e-300, 1e-20, 0.0]  # excluded
    theta, theta_e, D, m_abs_D, sigma_D, excluded = reference_effectivity(est, ex)
    stats = effectivity(est, ex)
    assert excluded == 4 and stats.excluded == excluded
    assert np.array_equal(stats.theta_e, theta_e, equal_nan=True)
    assert np.array_equal(stats.D, D, equal_nan=True)
    assert (stats.theta, stats.m_abs_D, stats.sigma_D) == (theta, m_abs_D, sigma_D)


def test_local_deviation_is_elementwise():
    theta = np.array([0.25, 0.5, 1.0, 2.0, 4.0, np.nan])
    D = local_deviation(theta)
    assert np.array_equal(D[:-1], [-3.0, -1.0, 0.0, 1.0, 3.0])
    assert np.isnan(D[-1])
    assert [local_deviation(t) for t in theta[:-1]] == D[:-1].tolist()


@pytest.mark.parametrize("est, ex, match", [
    ([1.0, np.nan], [1.0, 1.0], "estimated error norm of element 1 is nan"),
    ([1.0, 1.0], [np.inf, 1.0], "exact error norm of element 0 is inf"),
    ([1.0, -0.5], [1.0, 1.0], "estimated error norm of element 1 is -0.5"),
    ([1.0, 1.0, 1.0], [1.0, 1.0, -1.0], "exact error norm of element 2"),
    ([0.0, 1.0], [1.0, 1.0], "element 0 has a zero estimated error"),
    ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0], "element 2 has a zero estimated error"),
])
def test_bad_element_norms_raise(est, ex, match):
    with pytest.raises(ErrorComputationError, match=match):
        effectivity(est, ex)


@pytest.mark.parametrize("est, ex", [([1.0, 1.0], [1.0]), ([[1.0]], [[1.0]])])
def test_mismatched_norm_arrays_raise(est, ex):
    with pytest.raises(ErrorComputationError, match=r"two \(n_e,\) arrays"):
        effectivity(est, ex)


def test_zero_estimate_on_an_excluded_element_is_allowed():
    stats = effectivity(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert stats.excluded == 1
    assert stats.D[0] == 0.0 and np.isnan(stats.D[1])


def test_zero_global_exact_error_raises():
    with pytest.raises(ErrorComputationError, match="theta undefined"):
        effectivity(np.ones(3), np.zeros(3))


def test_report_on_zero_error_field_raises():
    # an identically zero problem has zero exact error: theta is 0/0
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("fem"), lambda p: np.zeros_like(p))
    field = build_recovered_field(sol, RecoveryConfig(variant="SPR"))
    with pytest.raises(ErrorComputationError, match="theta undefined"):
        compute_error_report(sol, field, lambda pts: np.zeros((len(pts), 3)))


def test_report_fields(solve_cached, cylinder_bm):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    rep = compute_error_report(sol, field, cylinder_bm.exact_stress)
    assert rep.dof == 2 * mesh.n_nodes
    for name in ("element_estimated", "element_exact", "theta_e", "D"):
        a = getattr(rep, name)
        assert a.shape == (mesh.n_elements,), name
        assert not a.flags.writeable, name
    assert 0.9 < rep.theta < 1.2
    assert rep.estimated > 0 and rep.exact > 0 and rep.recovered > 0
    assert_allclose(rep.theta, rep.estimated / rep.exact, rtol=1e-15)


def test_theta_is_invariant_under_load_scaling():
    # doubling the pressure scales every stress by exactly two (a power of
    # two, so even the linear solve scales bitwise) and cancels from theta
    reports = {}
    for P in (1.0, 2.0):
        b = benchmark_variant(CylinderBenchmark, P=P)
        m = b.mesh(1)
        bc = b.boundary_conditions(m)
        s = assemble_and_solve(m, b.material, Formulation("sfem", 4), bc)
        f = build_recovered_field(
            s, RecoveryConfig(variant="SPR-C"), tractions=bc.tractions
        )
        reports[P] = compute_error_report(s, f, b.exact_stress)
    assert abs(reports[2.0].theta - reports[1.0].theta) < 1e-12
    assert_allclose(reports[2.0].exact, 2.0 * reports[1.0].exact, rtol=1e-12)


# ---------------------------------------------------------------------------
# interpolation error of the corner eigenfield
# ---------------------------------------------------------------------------


def test_interpolation_error_is_singularity_limited():
    # on the graded meshes the energy error of the interpolated eigenfield
    # decays slower than O(h) (the vertex contribution) but faster than
    # O(h^lambda) (grading helps); both bounds are strict here
    bm = LShapeBenchmark()
    errs = []
    for lvl in (1, 2, 3):
        mesh = bm.mesh(lvl)
        sol = interpolate_solution(
            mesh, bm.material, Formulation("sfem", 4), bm.exact_displacement
        )
        _, ex2, _ = element_error_squares(
            sol, ZERO_FIELD, bm.exact_stress, singular_point=bm.singular_vertex
        )
        errs.append(np.sqrt(ex2.sum()))
    assert errs[0] > errs[1] > errs[2]
    rates = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
    lam = bm.singular_field.solution.lambda_I
    assert np.all(rates > lam)
    assert np.all(rates < 1.0)


# ---------------------------------------------------------------------------
# convergence rates
# ---------------------------------------------------------------------------


def test_rate_of_exact_power_law():
    dofs = (100, 400, 1600, 6400)
    values = tuple(d**-0.5 for d in dofs)
    r = convergence_rate(dofs, values)
    assert_allclose(r.s, 0.5, rtol=1e-12)
    assert_allclose(r.pairwise, 0.5, rtol=1e-12)
    assert_allclose(r.s_avg, 0.5, rtol=1e-12)


def test_rate_handles_non_uniform_refinement():
    dofs = (50, 130, 700)
    values = tuple(3.7 * d**-0.42 for d in dofs)
    r = convergence_rate(dofs, values)
    assert_allclose(r.s, 0.42, rtol=1e-12)
    assert len(r.pairwise) == 2


def test_series_validation():
    with pytest.raises(ErrorComputationError):
        convergence_rate((10, 20), (1.0,))
    with pytest.raises(ErrorComputationError):
        convergence_rate((20, 10), (1.0, 2.0))
    with pytest.raises(ErrorComputationError):
        convergence_rate((10,), (1.0,))
    with pytest.raises(ErrorComputationError):
        convergence_rate((10, 20), (1.0, 0.0))
