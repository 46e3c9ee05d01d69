"""Closed-form reference solutions: V-notch eigenfields and the Lame cylinder.

Notch eigenpairs
----------------
For a reentrant corner of opening angle alpha, the characteristic equations

    mode I:  sin(lambda alpha) + lambda sin(alpha) = 0
    mode II: sin(lambda alpha) - lambda sin(alpha) = 0

have smallest positive roots lambda_I, lambda_II in (1/2, 1) for
alpha in (pi, 2 pi).  The frozen high-precision values below were computed
with mpmath (50-digit working precision, bisection to 1e-30, then the Q
ratio evaluated symbolically) for alpha = 3 pi / 2:

    lambda_I  = 0.5444837367824639291408769
    lambda_II = 0.9085291898460988186603687
    Q_I       = 0.5430755788367364691703393
    Q_II      = -0.218923236248780480103584

and for the dual (negative) exponents used by extraction integrals:

    Q(-lambda_I,  I)  =  1.84136433117097987249169
    Q(-lambda_II, II) = -4.567811152141099122743792

At alpha = 2 pi (the crack) the mode-I Q formula becomes 0/0; the analytic
limit is 1/3 for lambda = 1/2 and 3 for the dual exponent -1/2.

Pressurized thick-wall cylinder (plane strain)
----------------------------------------------
u_r = P (1+nu) / (E (c^2-1)) (r (1-2 nu) + b^2/r),  c = b/a
sigma_r     = P (1 - b^2/r^2) / (c^2 - 1)
sigma_theta = P (1 + b^2/r^2) / (c^2 - 1)
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import benchmark_variant
from smoothfem.analytic import (
    MODE_I,
    MODE_II,
    AnalyticError,
    NotchFrame,
    SingularField,
    SingularSolution,
    angular_stress_eigenfunction,
    characteristic_residual,
    make_singular_solution,
    q_constant,
    solve_singularity_eigenvalue,
    stress_traction,
    williams_displacement,
    williams_stress,
)
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark
from smoothfem.elasticity import PLANE_STRAIN, Material
from smoothfem.mesh import MeshError

ALPHA = 1.5 * np.pi

# mpmath oracle values, see module docstring
LAMBDA_I = 0.5444837367824639291408769
LAMBDA_II = 0.9085291898460988186603687
Q_I = 0.5430755788367364691703393
Q_II = -0.218923236248780480103584
Q_DUAL_I = 1.84136433117097987249169
Q_DUAL_II = -4.567811152141099122743792

MAT = Material(1000.0, 0.3, PLANE_STRAIN)


def make_field(K_I=1.0, K_II=0.0, vertex=(0.0, 0.0), bisector=0.0):
    sol = make_singular_solution(ALPHA, MAT, K_I, K_II)
    return SingularField(sol, NotchFrame(vertex=vertex, bisector_angle=bisector))


# ---------------------------------------------------------------------------
# eigenvalues and Q constants
# ---------------------------------------------------------------------------


def test_eigenvalues_match_high_precision_oracle():
    assert abs(solve_singularity_eigenvalue(ALPHA, MODE_I) - LAMBDA_I) < 1e-12
    assert abs(solve_singularity_eigenvalue(ALPHA, MODE_II) - LAMBDA_II) < 1e-12


def test_crack_limit_is_one_half():
    assert abs(solve_singularity_eigenvalue(2.0 * np.pi, MODE_I) - 0.5) < 1e-12


@given(alpha=st.floats(np.pi, 2.0 * np.pi, exclude_min=True))
@example(4.4921875)  # mode II root within 1e-3 of the spurious lambda = 1
@example(np.pi + 1e-4)  # mode II root in (1.999, 2), above the grid's last point
@settings(max_examples=40, deadline=None)
def test_eigenvalue_residual_and_range(alpha):
    for mode in (MODE_I, MODE_II):
        lam = solve_singularity_eigenvalue(alpha, mode)
        assert 0.0 < lam < 2.0
        assert abs(characteristic_residual(lam, alpha, mode)) < 1e-12


def test_singular_solution_just_above_pi():
    # lambda_II -> 2 as alpha -> pi from above: the search must reach 2
    for alpha in (np.nextafter(np.pi, 4.0), np.pi + 1e-4, np.pi + 7e-4):
        sol = make_singular_solution(alpha, MAT, 1.0, 1.0)
        assert 1.999 < sol.lambda_II < 2.0


def test_merged_mode_two_root_says_its_eigenfunction_vanishes():
    # at tan(alpha) = alpha the genuine mode-II root merges with the
    # spurious lambda = 1, so the only root found is rejected
    alpha_star = 4.493409457909064
    assert abs(np.tan(alpha_star) - alpha_star) < 1e-9
    with pytest.raises(AnalyticError, match="vanishing stress eigenfunction"):
        solve_singularity_eigenvalue(alpha_star, MODE_II)


def test_q_constants_match_oracle():
    assert abs(q_constant(ALPHA, LAMBDA_I, MODE_I) - Q_I) < 1e-12
    assert abs(q_constant(ALPHA, LAMBDA_II, MODE_II) - Q_II) < 1e-12
    # dual exponents (the extraction integrals evaluate these)
    assert abs(q_constant(ALPHA, -LAMBDA_I, MODE_I) - Q_DUAL_I) < 1e-11
    assert abs(q_constant(ALPHA, -LAMBDA_II, MODE_II) - Q_DUAL_II) < 1e-11


def test_q_crack_degenerate_limit():
    # the formula is 0/0 at alpha = 2 pi for the crack's roots; the closed-form
    # limit is exact for the primal, the extraction dual and mode II's lambda = 1
    assert q_constant(2.0 * np.pi, 0.5, MODE_I) == 1.0 / 3.0
    assert q_constant(2.0 * np.pi, -0.5, MODE_I) == 3.0
    assert q_constant(2.0 * np.pi, 1.0, MODE_II) == 0.0
    # an infinite limit is refused, not divided out
    with pytest.raises(AnalyticError, match="denominator vanishes"):
        q_constant(2.0 * np.pi, -1.0, MODE_II)
    # and it continues the regular formula just below the crack
    alpha = 2.0 * np.pi - 1e-4
    lam = solve_singularity_eigenvalue(alpha, MODE_I)
    assert abs(q_constant(alpha, lam, MODE_I) - 1.0 / 3.0) < 1e-6
    assert abs(q_constant(alpha, -lam, MODE_I) - 3.0) < 1e-6


@given(alpha=st.floats(np.pi, 2.0 * np.pi, exclude_min=True))
@example(2.0 * np.pi)  # the crack, where Q is the 0/0 limit
@settings(max_examples=40, deadline=None)
def test_primal_and_dual_eigenfunctions_are_traction_free(alpha):
    # sigma.n = 0 on both faces phi = +-alpha/2, for the primal exponent and
    # for the extraction dual -lambda, which solves the same equation
    phi = np.linspace(-alpha / 2.0, alpha / 2.0, 201)
    faces = np.array([-alpha / 2.0, alpha / 2.0])
    normals = np.stack([-np.sin(faces), np.cos(faces)], axis=-1)
    for mode in (MODE_I, MODE_II):
        lam = solve_singularity_eigenvalue(alpha, mode)
        for exponent in (lam, -lam):
            Q = q_constant(alpha, exponent, mode)
            scale = np.abs(angular_stress_eigenfunction(exponent, Q, mode, phi)).max()
            on_faces = angular_stress_eigenfunction(exponent, Q, mode, faces)
            traction = stress_traction(on_faces, normals)
            assert np.abs(traction).max() <= 1e-10 * scale, (mode, exponent)


def _former_angular_stress(lam, Q, mode, phi):
    """angular_stress_eigenfunction as it was, with cos and sin called
    twice: the oracle for the one-call-each form."""
    a, b, q1 = (lam - 1.0) * phi, (lam - 3.0) * phi, Q * (lam + 1.0)
    if mode == MODE_I:
        sxx = (2.0 - q1) * np.cos(a) - (lam - 1.0) * np.cos(b)
        syy = (2.0 + q1) * np.cos(a) + (lam - 1.0) * np.cos(b)
        sxy = q1 * np.sin(a) + (lam - 1.0) * np.sin(b)
    else:
        sxx = (2.0 - q1) * np.sin(a) - (lam - 1.0) * np.sin(b)
        syy = (2.0 + q1) * np.sin(a) + (lam - 1.0) * np.sin(b)
        sxy = -q1 * np.cos(a) - (lam - 1.0) * np.cos(b)
    return np.stack([sxx, syy, sxy], axis=-1)


@pytest.mark.parametrize("mode", [MODE_I, MODE_II])
def test_angular_stress_eigenfunction_equals_its_former_form(mode):
    phi = np.random.default_rng(2).uniform(-ALPHA / 2.0, ALPHA / 2.0, size=(7, 33))
    for lam in (0.5444837367824639, -0.9085291898460988):
        got = angular_stress_eigenfunction(lam, 0.3, mode, phi)
        assert np.array_equal(got, _former_angular_stress(lam, 0.3, mode, phi))


def test_angular_stress_eigenfunction_checks_the_mode_first():
    # a bad mode is named before any phi is read
    with pytest.raises(AnalyticError, match="mode must be 'I' or 'II', got 'III'"):
        angular_stress_eigenfunction(0.5, 0.3, "III", object())


# ---------------------------------------------------------------------------
# Williams eigenfields
# ---------------------------------------------------------------------------


def test_mode_one_symmetry_on_bisector():
    sol = make_singular_solution(ALPHA, MAT, 1.0, 0.0)
    u = williams_displacement(sol, np.array([0.7]), np.array([0.0]))
    assert abs(u[0, 1]) < 1e-15


def test_displacement_linearity_and_homogeneity():
    sol1 = make_singular_solution(ALPHA, MAT, 1.0, 0.0)
    sol2 = make_singular_solution(ALPHA, MAT, 2.0, 0.0)
    r = np.array([0.4])
    phi = np.array([0.3])
    assert_allclose(
        williams_displacement(sol2, r, phi),
        2.0 * williams_displacement(sol1, r, phi),
        rtol=1e-14,
    )
    # u(2r) / u(r) = 2^lambda_I componentwise for a pure mode-I field
    u1 = williams_displacement(sol1, r, phi)
    u2 = williams_displacement(sol1, 2.0 * r, phi)
    assert_allclose(u2, 2.0**LAMBDA_I * u1, rtol=1e-13)


def test_displacement_vertex_and_negative_radius():
    sol = make_singular_solution(ALPHA, MAT, 1.0, 0.5)
    u0 = williams_displacement(sol, np.array([0.0]), np.array([0.2]))
    assert_allclose(u0, 0.0, atol=1e-300)  # r^lambda with lambda > 0
    with pytest.raises(AnalyticError):
        williams_displacement(sol, np.array([-0.1]), np.array([0.0]))


def test_stress_scaling_in_r():
    sol = make_singular_solution(ALPHA, MAT, 1.0, 0.0)
    r = np.array([0.5])
    phi = np.array([-0.4])
    s1 = williams_stress(sol, r, phi)
    s2 = williams_stress(sol, 2.0 * r, phi)
    assert_allclose(s2, 2.0 ** (LAMBDA_I - 1.0) * s1, rtol=1e-13)


def test_notch_faces_are_traction_free():
    # the defining property of the eigenfunctions: sigma.n = 0 on both faces
    for K in ((1.0, 0.0), (0.0, 1.0)):
        sol = make_singular_solution(ALPHA, MAT, *K)
        scale = np.abs(williams_stress(sol, np.array([0.3]), np.array([0.0]))).max()
        for sign in (+1.0, -1.0):
            phi = np.array([sign * ALPHA / 2.0])
            s = williams_stress(sol, np.array([0.3]), phi)[0]
            # face normal in the notch frame at phi = +-alpha/2
            n = np.array([-np.sin(phi[0]), np.cos(phi[0])]) * sign
            t = np.array(
                [s[0] * n[0] + s[2] * n[1], s[2] * n[0] + s[1] * n[1]]
            )
            assert np.abs(t).max() < 1e-10 * scale


def test_stress_equilibrium_by_finite_differences():
    field = make_field(K_I=1.0, K_II=0.7)

    def div_at(x, y, h):
        def s(px, py):
            return field.stress(np.array([[px, py]]))[0]

        dx = (s(x + h, y) - s(x - h, y)) / (2 * h)
        dy = (s(x, y + h) - s(x, y - h)) / (2 * h)
        return np.array([dx[0] + dy[2], dx[2] + dy[1]])

    for (x, y) in [(0.4, 0.1), (-0.3, 0.25), (0.05, -0.4)]:
        r = np.hypot(x, y)
        scale = np.abs(field.stress(np.array([[x, y]]))[0]).max() / r
        assert np.abs(div_at(x, y, 1e-6 * r)).max() < 1e-4 * scale


def test_displacement_stress_consistency():
    # strain from the displacement gradient, mapped through D, must match
    # the stress evaluator (the two are coded independently)
    from smoothfem.elasticity import elasticity_matrix

    field = make_field(K_I=1.0, K_II=0.4)
    D = elasticity_matrix(MAT)
    h = 1e-6
    for r0, phi0 in [(0.1, 0.3), (0.5, -0.6), (1.0, 1.1)]:
        x, y = r0 * np.cos(phi0), r0 * np.sin(phi0)

        def u(px, py):
            return field.displacement(np.array([[px, py]]))[0]

        dux = (u(x + h, y) - u(x - h, y)) / (2 * h)
        duy = (u(x, y + h) - u(x, y - h)) / (2 * h)
        eps = np.array([dux[0], duy[1], dux[1] + duy[0]])
        sigma_fd = D @ eps
        sigma = field.stress(np.array([[x, y]]))[0]
        assert_allclose(sigma_fd, sigma, rtol=1e-4)


def test_singular_solution_rejects_wrong_eigenvalue():
    with pytest.raises(AnalyticError):
        SingularSolution(ALPHA, 0.6, LAMBDA_II, Q_I, Q_II, 1.0, 0.0, MAT)


# ---------------------------------------------------------------------------
# notch frame placement
# ---------------------------------------------------------------------------


def test_frame_polar_round_trip():
    frame = NotchFrame(vertex=(1.0, -2.0), bisector_angle=0.6)
    pts = np.array([[1.5, -1.7], [0.2, -2.4]])
    r, phi = frame.to_polar(pts)
    back = frame.vector_to_global(
        np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)
    ) + np.array(frame.vertex)
    assert_allclose(back, pts, atol=1e-14)


def test_frame_rotations_preserve_invariants():
    frame = NotchFrame(bisector_angle=0.75 * np.pi)
    v = np.array([0.3, -1.2])
    assert_allclose(
        np.linalg.norm(frame.vector_to_global(v)), np.linalg.norm(v), rtol=1e-14
    )
    sig = np.array([2.0, -1.0, 0.5])
    rot = frame.stress_to_global(sig)
    assert_allclose(rot[0] + rot[1], sig[0] + sig[1], rtol=1e-14)  # trace
    assert_allclose(
        rot[0] * rot[1] - rot[2] ** 2,
        sig[0] * sig[1] - sig[2] ** 2,
        rtol=1e-12,
    )  # determinant


# ---------------------------------------------------------------------------
# cylinder closed form
# ---------------------------------------------------------------------------

CYL = benchmark_variant(CylinderBenchmark, a=5.0, b=20.0, P=1.0, E=3.0e7, nu=0.3)


def test_cylinder_displacement_at_inner_wall():
    E, nu, P = CYL.E, CYL.nu, CYL.P
    a, b = CYL.a, CYL.b
    c2 = (b / a) ** 2
    ux_exact = P * (1 + nu) / (E * (c2 - 1)) * (a * (1 - 2 * nu) + b**2 / a)
    u = CYL.exact_displacement(np.array([[a, 0.0]]))
    assert u.shape == (1, 2)
    assert_allclose(u[0], [ux_exact, 0.0], rtol=1e-14, atol=1e-30)


def test_cylinder_displacement_diagonal_symmetry():
    x = 8.0 / np.sqrt(2.0)
    u = CYL.exact_displacement(np.array([[x, x]]))
    assert_allclose(u[0, 0], u[0, 1], rtol=1e-14)


def test_cylinder_displacement_ratio_independent_of_pressure():
    heavy = benchmark_variant(CylinderBenchmark, P=7.25)

    def ratio(bm):
        ua = bm.exact_displacement(np.array([[bm.a, 0.0]]))
        ub = bm.exact_displacement(np.array([[bm.b, 0.0]]))
        return ub[0, 0] / ua[0, 0]

    assert_allclose(ratio(CYL), ratio(heavy), rtol=1e-14)


def radial_stress(r):
    """(sigma_r, sigma_theta) at radii r: on the x-axis they are sigma_xx, sigma_yy."""
    sig = CYL.exact_stress(np.stack([r, np.zeros_like(r)], axis=-1))
    assert sig.shape == r.shape + (3,)
    return sig[..., 0], sig[..., 1]


def test_cylinder_wall_stresses():
    sr_a, _ = radial_stress(np.array([CYL.a]))
    sr_b, _ = radial_stress(np.array([CYL.b]))
    assert_allclose(sr_a, -CYL.P, rtol=1e-14)
    assert_allclose(sr_b, 0.0, atol=1e-16)


def test_cylinder_stress_sum_invariant():
    c2 = (CYL.b / CYL.a) ** 2
    for r in (5.0, 9.0, 17.5, 20.0):
        sr, st = radial_stress(np.array([r]))
        assert_allclose(sr + st, 2.0 * CYL.P / (c2 - 1.0), rtol=1e-13)


def test_cylinder_radial_equilibrium():
    # d sigma_r / dr + (sigma_r - sigma_t) / r = 0
    h = 1e-5
    for r in (6.0, 11.0, 18.0):
        srp, _ = radial_stress(np.array([r + h]))
        srm, _ = radial_stress(np.array([r - h]))
        sr, st = radial_stress(np.array([r]))
        residual = (srp - srm) / (2 * h) + (sr - st) / r
        assert np.abs(residual) < 1e-6 * np.abs(st)


def test_cylinder_linearity_in_pressure():
    double = benchmark_variant(CylinderBenchmark, P=2.0)
    p = np.array([[9.0, 4.0]])
    assert_allclose(double.exact_stress(p), 2.0 * CYL.exact_stress(p), rtol=1e-14)
    assert_allclose(
        double.exact_displacement(p), 2.0 * CYL.exact_displacement(p), rtol=1e-14
    )


def test_cylinder_rejects_bad_geometry_and_points():
    for exact in (CYL.exact_stress, CYL.exact_displacement):
        with pytest.raises(AnalyticError, match="outside the annulus"):
            exact(np.array([[1.0, 0.0]]))  # in the hole


def test_lshape_and_patch_reject_bad_input_at_construction():
    with pytest.raises(MeshError, match="grading"):
        LShapeBenchmark(grading=0.5)


def test_material_rejects_a_non_finite_modulus():
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            Material(E=bad, nu=0.3)
