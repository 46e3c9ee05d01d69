"""Patch recovery: sampling, constrained fitting, splitting, blending.

The constrained fit is checked against an independent dense KKT solve, the
equilibrium/traction constraints against finite differences and direct
evaluation of the blended field, and the singular/smooth splitting against
exact eigenfield data (where the smooth part must cancel to round-off).
"""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import benchmark_variant, evaluate_at, interpolate_solution, single_element_mesh
from test_renumbering import renumbered
from smoothfem.analytic import NotchFrame, SingularField, make_singular_solution
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark, PatchBenchmark
from smoothfem.elasticity import Material, PLANE_STRAIN, compliance_matrix
from smoothfem.error import element_error_squares
from smoothfem.gsif import extract_gsifs
from smoothfem.mesh import Mesh, build_square_mesh, subcell_corners
from smoothfem.recovery import (
    CERTIFIED_RATIO,
    CHUNK,
    VARIANTS,
    PatchFailure,
    PatchFits,
    RecoveredStressField,
    RecoveryConfig,
    RecoveryError,
    _MONOMIALS,
    _basis,
    _certified,
    _compatibility_rows,
    _equilibrium_rows,
    _orthonormalize_constraints,
    _patch_scales,
    _sampling_arrays,
    build_recovered_field,
    collocation_points,
    collocation_rows,
    edge_normal,
    fit_patch,
    neumann_edges,
)
from smoothfem.quadmap import gauss_points_2d, mapped_rule, shape_functions
from smoothfem.solver import Formulation

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
MAT = Material(100.0, 0.3, PLANE_STRAIN)


def poly_values(coeffs, points, center, scale):
    """A patch polynomial, coefficients (3, m), at physical points (..., 2); (..., 3)."""
    degree = {3: 1, 6: 2}[coeffs.shape[-1]]
    return _basis(np.asarray(points, float), center, scale, degree) @ coeffs.T


def patch_values(field, node, points):
    """A node's patch polynomial in a recovered field at physical points (..., 2)."""
    fits = field.fits
    return poly_values(fits.coeffs[node], points, field.mesh.coords[node], fits.scales[node])


def fit_one(node_id, positions, stresses, weights, degree, constraints=None,
            center=None, scale=None):
    """fit_patch on a batch of one patch; (coefficients (3, m) or None, failures).

    constraints default to none (zero rows), center and scale to the sample
    mean and the largest sample offset.
    """
    if constraints is None:
        constraints = np.zeros((0, 3 * len(_MONOMIALS[degree]))), np.zeros(0)
    if center is None:
        center = positions.mean(axis=0)
    if scale is None:
        scale = max(np.abs(positions - center).max(), 1e-30)
    coeffs, failures = fit_patch(
        [node_id], positions[None], stresses[None], weights[None], degree,
        constraints=tuple(a[None] for a in constraints),
        center=np.asarray(center, float)[None], scale=np.array([scale], float),
    )
    return (coeffs[0] if len(coeffs) else None), failures


def shared_constraints(degree, compliance):
    """The constraint rows of one patch without collocation, at scale 1."""
    C = np.vstack([_equilibrium_rows(degree), _compatibility_rows(degree, compliance)])
    return C, np.zeros(len(C))


def linear_solution(kind="sfem", nc=4, coeffs=(0.1, 0.02, 0.035, -0.04, 0.012, -0.009)):
    bm = benchmark_variant(PatchBenchmark, coeffs=tuple(coeffs))
    mesh = bm.mesh()
    sol = interpolate_solution(mesh, bm.material, Formulation(kind, nc), bm.exact_displacement)
    return bm, mesh, sol


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_layout_single_cell():
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("sfem", 1), lambda p: 0.01 * p)
    pos, _, _ = _sampling_arrays(sol)
    assert pos.shape == (1, 4, 2)
    g = 0.5 + np.array([-1.0, 1.0]) / (2.0 * np.sqrt(3.0))
    expected = sorted((x, y) for x in g for y in g)
    got = sorted(map(tuple, np.round(pos[0], 12)))
    assert_allclose(got, expected, atol=1e-12)


def test_sampling_layout_two_cells():
    m = single_element_mesh(UNIT)
    sol = interpolate_solution(m, MAT, Formulation("sfem", 2), lambda p: 0.01 * p)
    assert _sampling_arrays(sol)[0].shape == (1, 8, 2)  # 2x2 per half


def test_sampling_fem_gauss_points():
    bm, mesh, sol = linear_solution(kind="fem")
    pos, _, _ = _sampling_arrays(sol)
    assert pos.shape == (mesh.n_elements, 4, 2)


def test_constant_stress_gives_identical_samples():
    # pure shear-free uniform strain: all sampling stresses equal
    bm, mesh, sol = linear_solution()
    _, stresses, _ = _sampling_arrays(sol)
    assert np.abs(stresses - stresses[0, 0]).max() < 1e-12


# ---------------------------------------------------------------------------
# singular-stress evaluator
# ---------------------------------------------------------------------------


def lshape_field(K_I=1.0, K_II=0.0):
    sol = make_singular_solution(1.5 * np.pi, MAT, K_I, K_II)
    return SingularField(sol, NotchFrame(vertex=(0.0, 0.0), bisector_angle=0.75 * np.pi))


def test_exact_gsif_mode_is_passthrough():
    field = lshape_field(1.0, 0.0)
    bm, mesh, sol = linear_solution()
    config = RecoveryConfig(variant="SPR-X", gsif_mode="exact")
    assert build_recovered_field(sol, config, singular_field=field).singular_field is field


def test_extracted_gsif_mode_needs_the_bcs(solve_cached, lshape_bm):
    mesh, bcs, sol = solve_cached("lshape", 0, "sfem", 4)
    config = RecoveryConfig(variant="SPR-CX", gsif_mode="extracted")
    with pytest.raises(RecoveryError, match="extracted gsif_mode needs"):
        build_recovered_field(
            sol, config, singular_field=lshape_bm.singular_field, tractions=bcs.tractions
        )


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
    # a zero-amplitude eigenfield has zero stress: subtracting it leaves the
    # samples bit for bit
    field = lshape_field(0.0, 0.0)
    rng = np.random.default_rng(2)
    pos = rng.uniform(-0.9, -0.1, size=(30, 2))
    stresses = rng.normal(size=(30, 3))
    assert not field.stress(pos).any()
    assert_allclose(stresses - field.stress(pos), stresses, rtol=0, atol=0)


def test_smooth_part_cancels_exact_input(lshape_bm):
    # FEM samples that are the eigenfield itself: the split patches fit
    # sigma_h - sigma_sing, which cancels to round-off, so their
    # polynomials vanish
    field = lshape_bm.singular_field
    mesh = lshape_bm.mesh(1)
    sol = interpolate_solution(
        mesh, lshape_bm.material, Formulation("fem", 4), lshape_bm.exact_displacement
    )
    exact = field.stress(_sampling_arrays(sol)[0])
    sol.cell_stress = exact.reshape(sol.cell_stress.shape)
    rec = build_recovered_field(sol, RecoveryConfig(variant="SPR-X"), singular_field=field)
    split = rec.split_flags
    assert split.any() and not split.all()
    assert np.abs(rec.fits.coeffs[split]).max() < 1e-10 * np.abs(exact).max()


def test_zero_radius_degenerates_to_constrained_variant(solve_cached, lshape_bm):
    # with rho = 0 no patch is split, so SPR-CX must equal SPR-C exactly
    mesh, bcs, sol = solve_cached("lshape", 0, "sfem", 4)
    fields = {}
    for variant in ("SPR-C", "SPR-CX"):
        cfg = RecoveryConfig(variant=variant, splitting_radius=0.0)
        fields[variant] = build_recovered_field(
            sol, cfg, singular_field=lshape_bm.singular_field, tractions=bcs.tractions
        )
    est_c, _, _ = element_error_squares(sol, fields["SPR-C"], lshape_bm.exact_stress)
    est_cx, _, _ = element_error_squares(sol, fields["SPR-CX"], lshape_bm.exact_stress)
    assert np.array_equal(est_c, est_cx)


# ---------------------------------------------------------------------------
# collocation geometry and constraint rows
# ---------------------------------------------------------------------------


def test_edge_normal_is_outward_unit():
    n = edge_normal(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert_allclose(n, [0.0, -1.0], atol=1e-15)  # CCW edge: outward is right


def test_edge_normals_batch_like_single_edges():
    rng = np.random.default_rng(5)
    pa, pb = rng.normal(size=(2, 7, 2))
    batched = edge_normal(pa, pb)
    for i in range(7):
        assert np.array_equal(batched[i], edge_normal(pa[i], pb[i]))


def node_collocation(node, edges, same, degree):
    """collocation_points of one node on one or two edges ((pa, pb) pairs)."""
    ends = np.array([edges[0], edges[-1]], float)[None]
    points, normals, second, valid = collocation_points(
        np.asarray(node, float)[None], ends, np.array([len(edges) == 2]),
        np.array([same]), degree,
    )
    return points[0][valid[0]], normals[0][valid[0]], second[0][valid[0]]


def test_collocation_single_edge():
    pa, pb = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    positions, normals, second = node_collocation(pa, [(pa, pb)], True, degree=2)
    assert len(positions) == 3
    assert_allclose(sorted(positions[:, 0]), [0.0, 0.5, 1.0], atol=1e-15)
    assert_allclose(normals, [[0.0, -1.0]] * 3, atol=1e-15)
    assert not second.any()
    assert len(node_collocation(pa, [(pa, pb)], True, degree=1)[0]) == 2


def test_collocation_corner_same_vs_different_tractions():
    node = np.array([1.0, 0.0])
    edges = [(np.array([0.0, 0.0]), node), (node, np.array([1.0, 1.0]))]
    # same traction object: 2 midpoints + the corner with averaged normal
    positions, normals, second = node_collocation(node, edges, True, degree=2)
    assert_allclose(positions, [[0.5, 0.0], [1.0, 0.5], [1.0, 0.0]], atol=1e-15)
    assert_allclose(normals[2], [np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-15)
    assert second.tolist() == [False, True, False]
    # direction-dependent corner traction: the shared point is skipped
    assert len(node_collocation(node, edges, False, degree=2)[0]) == 2
    assert len(node_collocation(node, edges, True, degree=1)[0]) == 2


def test_collocation_skips_the_corner_of_a_slit():
    # two faces of a slit meet with opposite normals: no averaged normal
    node = np.array([0.0, 0.0])
    edges = [(np.array([1.0, 0.0]), node), (node, np.array([1.0, 0.0]))]
    positions, _, _ = node_collocation(node, edges, True, degree=2)
    assert_allclose(positions, [[0.5, 0.0], [0.5, 0.0]], atol=1e-15)


def test_neumann_edges_per_node():
    # the L-shape's corner (-1, -1) joins two outer edges; the vertex joins
    # the two notch faces, whose traction is one callable
    mesh = LShapeBenchmark().mesh(0)
    bcs = LShapeBenchmark().boundary_conditions(mesh)
    neumann = neumann_edges(mesh, bcs.tractions)
    corner, vertex = mesh.find_node((-1.0, -1.0)), mesh.find_node((0.0, 0.0))
    for node, name in ((corner, "outer"), (vertex, "notch")):
        first, second = neumann.on[node]
        assert first < second
        assert node in neumann.ends[first] and node in neumann.ends[second]
        assert neumann.names[first] == neumann.names[second] == name
    assert len(set(neumann.traction_ids.tolist())) == 2
    with pytest.raises(RecoveryError, match="'notch'"):
        neumann_edges(mesh, {"outer": bcs.tractions["outer"]})


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
        assert_allclose(patch_values(field, node, mesh.coords[node]), exact[node], atol=1e-9)


# ---------------------------------------------------------------------------
# patch fitting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2])
def test_basis_equals_the_power_form_bit_for_bit(degree):
    # products 1, x, x x in place of x**0, x**1, x**2: equal with sign bits,
    # on random points and on +-0, +-inf and nan
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-200, -1e200, 3.0])
    points = np.concatenate([
        rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-8, 8, size=(200, 1)),
        np.stack(np.meshgrid(special, special), axis=-1).reshape(-1, 2),
    ])
    with np.errstate(all="ignore"):  # inf * 0 and overflow are part of the check
        for center, scale in [(np.array([0.0, -0.0]), 1.0), (np.array([0.3, -1.7]), 0.45)]:
            got = _basis(points, center, scale, degree)
            xh, yh = (points - center).T / scale
            want = np.stack([xh**i * yh**j for i, j in _MONOMIALS[degree]], axis=-1)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_patch_scales_equal_the_per_sample_maximum(offset):
    # each element's sample bounds measured from its corners give the same
    # scales, bit for bit, as every sample measured from every corner, also
    # for samples outside their element and far from the origin
    mesh = build_square_mesh(5, distortion=0.2, seed=3)
    mesh = Mesh(mesh.coords + offset, mesh.elements, mesh.boundary)
    rng = np.random.default_rng(8)
    positions = offset + rng.uniform(-0.5, 1.5, size=(mesh.n_elements, 16, 2))
    want = np.zeros(mesh.n_nodes)
    for k in range(4):
        corner = mesh.elements[:, k]
        reach = np.abs(positions - mesh.coords[corner][:, None, :]).max(axis=(1, 2))
        np.maximum.at(want, corner, reach)
    assert np.array_equal(_patch_scales(mesh, positions), np.maximum(want, 1e-30))


@pytest.mark.parametrize(
    "bm, level", [(CylinderBenchmark(), 2), (LShapeBenchmark(), 1)], ids=["cylinder", "lshape"]
)
def test_patch_scales_equal_the_maximum_over_each_patch(bm, level):
    # on a randomly renumbered mesh, each node's scale is the brute-force
    # maximum over the samples of every element that holds the node
    rng = np.random.default_rng(11)
    mesh = bm.mesh(level)
    mesh = renumbered(mesh, rng.permutation(mesh.n_nodes), rng.permutation(mesh.n_elements))
    positions = mapped_rule(mesh.coords[mesh.elements], 3)[2]
    want = [
        np.abs(positions[np.any(mesh.elements == node, axis=1)] - mesh.coords[node]).max()
        for node in range(mesh.n_nodes)
    ]
    assert np.array_equal(_patch_scales(mesh, positions), np.maximum(want, 1e-30))


def linear_stress_samples(n=12, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1.0, 1.0, size=(n, 2))
    coeff = np.array([[1.0, 0.2, -0.3], [0.4, -0.1, 0.25], [-0.2, 0.05, 0.15]])
    stresses = coeff[:, 0] + pos[:, :1] * coeff[:, 1] + pos[:, 1:2] * coeff[:, 2]
    return pos, stresses


def test_fit_reproduces_linear_field():
    pos, stresses = linear_stress_samples()
    center = pos.mean(axis=0)
    scale = np.abs(pos - center).max()
    fit, _ = fit_one(0, pos, stresses, np.ones(len(pos)), 1, center=center, scale=scale)
    assert np.abs(poly_values(fit, pos, center, scale) - stresses).max() < 1e-10


def test_fit_with_consistent_constraints_unchanged():
    # the linear field used above happens to be non-equilibrated, so build
    # an equilibrated one: sigma = (y, x, 0) has div sigma = 0
    rng = np.random.default_rng(5)
    pos = rng.uniform(-1.0, 1.0, size=(10, 2))
    stresses = np.stack([pos[:, 1], pos[:, 0], np.zeros(len(pos))], axis=-1)
    Dinv = compliance_matrix(MAT)
    center, scale = np.zeros(2), 1.0
    C, d = shared_constraints(1, Dinv)
    free, _ = fit_one(0, pos, stresses, np.ones(10), 1, center=center, scale=scale)
    tied, _ = fit_one(
        0, pos, stresses, np.ones(10), 1, constraints=(C, d), center=center, scale=scale
    )
    assert_allclose(tied, free, atol=1e-10)
    assert np.abs(poly_values(tied, pos, center, scale) - stresses).max() < 1e-10


def test_fit_matches_dense_kkt_oracle():
    # independent re-derivation of the same weighted KKT system, solved by
    # a bordered dense factorization
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1.0, 1.0, size=(15, 2))
    stresses = rng.normal(size=(15, 3))
    weights = rng.uniform(0.5, 2.0, size=15)
    Dinv = compliance_matrix(MAT)
    C, d = shared_constraints(2, Dinv)
    fit, _ = fit_one(
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
    assert np.abs(fit - sol[:3 * m].reshape(3, m)).max() < 1e-9


def test_singular_fit_raises():
    # all samples at one point: the patch comes back as a failure, unsolved
    pos = np.zeros((6, 2))
    fit, failures = fit_one(0, pos, np.zeros((6, 3)), np.ones(6), 2)
    assert fit is None
    assert list(failures) == [0] and "singular" in failures[0]


def test_singular_patch_is_masked_out_of_its_batch():
    # five constrained degree-2 patches, the middle one singular: exactly
    # that node fails, and the other four equal their batch-of-one fits
    rng = np.random.default_rng(30)
    nodes = [10, 11, 12, 13, 14]
    pos = rng.uniform(-1.0, 1.0, size=(5, 12, 2))
    pos[2] = [0.3, -0.2]
    sig = rng.normal(size=(5, 12, 3))
    w = rng.uniform(0.5, 2.0, size=(5, 12))
    center = rng.uniform(-0.1, 0.1, size=(5, 2))
    scale = rng.uniform(0.8, 1.2, size=5)
    C, d = shared_constraints(2, compliance_matrix(MAT))
    Cb, db = np.broadcast_to(C, (5,) + C.shape), np.broadcast_to(d, (5,) + d.shape)
    coeffs, failures = fit_patch(nodes, pos, sig, w, 2, (Cb, db), center=center, scale=scale)
    assert list(failures) == [12] and "singular" in failures[12]
    assert coeffs.shape == (4, 3, 6)
    for fit, i in zip(coeffs, [0, 1, 3, 4]):
        alone, failed = fit_one(nodes[i], pos[i], sig[i], w[i], 2, (C, d), center[i], scale[i])
        assert not failed
        assert np.array_equal(fit, alone)


def kkt_matrix(M, C):
    """The dense KKT matrix [[I3 (x) M, C^T], [C, 0]] of one patch."""
    m, k = len(M), len(C)
    K = np.zeros((3 * m + k, 3 * m + k))
    for j in range(3):
        K[j * m : (j + 1) * m, j * m : (j + 1) * m] = M
    K[: 3 * m, 3 * m :] = C.T
    K[3 * m :, : 3 * m] = C
    return K


def svd_ratio(K):
    sv = np.linalg.svd(K, compute_uv=False)
    return sv[-1] / sv[0] if sv[0] > 0 else 0.0


def random_kkt_blocks(seed, m, k, m_kind, c_kind):
    """M (m, m), C (k, 3m) and M's eigenvalues for the bound's property test.

    M = U diag(lam) U^T has eigenvalues spread over 14 decades (some zero for
    the semidefinite kinds) and C an independent scale, with orthonormal,
    dependent or zero rows, before _orthonormalize_constraints keeps its
    independent ones, as every fit does.
    """
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(m, m)))[0]
    lam = 10.0 ** rng.uniform(-14.0, 0.0, size=m) * 10.0 ** rng.uniform(-3.0, 3.0)
    if m_kind == "psd":
        lam[rng.integers(m)] = 0.0
    elif m_kind == "rank-1":
        lam[1:] = 0.0
    elif m_kind == "zero":
        lam[:] = 0.0
    n = 3 * m
    C = rng.normal(size=(k, n))
    if c_kind == "orthonormal" and k <= n:
        C = np.linalg.qr(rng.normal(size=(n, k)))[0].T
    elif c_kind == "rank-deficient" and k > 1:
        r = int(rng.integers(1, k))
        C = rng.normal(size=(k, r)) @ rng.normal(size=(r, n))
    elif c_kind == "zero-row" and k:
        C[rng.integers(k)] = 0.0
    if c_kind != "orthonormal":
        C *= 10.0 ** rng.uniform(-3.0, 3.0)
    Q, _, rank, failures = _orthonormalize_constraints(C[None], np.zeros((1, k)), [0])
    assert not failures
    return (U * lam) @ U.T, Q[0, : rank[0]], lam


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([3, 6]),
    k=st.integers(0, 13),
    m_kind=st.sampled_from(["spd", "psd", "rank-1", "zero"]),
    c_kind=st.sampled_from(["random", "orthonormal", "rank-deficient", "zero-row"]),
)
@example(seed=1, m=6, k=0, m_kind="rank-1", c_kind="random")
@example(seed=2, m=3, k=5, m_kind="rank-1", c_kind="zero-row")
@example(seed=3, m=6, k=4, m_kind="spd", c_kind="zero-row")
@example(seed=4, m=3, k=0, m_kind="zero", c_kind="random")
@example(seed=5, m=6, k=13, m_kind="zero", c_kind="zero-row")
# a zero row, which the Gram-Schmidt drops: C keeps 3 of its 4 rows
@example(seed=892, m=3, k=4, m_kind="spd", c_kind="zero-row")
@settings(max_examples=300, deadline=None)
def test_certified_kkt_keeps_a_third_of_the_certified_ratio(seed, m, k, m_kind, c_kind):
    # degenerate draws must not warn either: tier-1 turns a RuntimeWarning
    # into an error
    M, C, lam = random_kkt_blocks(seed, m, k, m_kind, c_kind)
    certified = _certified(M[None], len(C))
    assert isinstance(certified, bool)
    if certified:
        # C C^T is I only to rounding, which the factor of 3 covers
        assert svd_ratio(kkt_matrix(M, C)) >= CERTIFIED_RATIO / 3
    t = lam.sum()
    h = 0.5 * (t + np.hypot(t, 2.0)) if len(C) else t
    shift = CERTIFIED_RATIO * h + (m + 1) ** 2 * np.finfo(float).eps * t
    if m_kind == "spd" and lam.min() > 4 * shift:
        # the certificate is not vacuous: a definite M well above the shift clears
        assert certified


def diagonal_kkt_block(m, k, f):
    """diag(1, .., 1, mu) (m, m) with mu = f CERTIFIED_RATIO h for its h."""
    t = m - 1.0  # mu moves t by about 1e-10 relative, far below f's steps
    h = 0.5 * (t + np.hypot(t, 2.0)) if k else t
    return np.diag([1.0] * (m - 1) + [f * CERTIFIED_RATIO * h])


@pytest.mark.parametrize("m, k", [(3, 0), (6, 0), (3, 4), (6, 7)])
def test_certificate_is_tight_at_certified_ratio_h(m, k):
    # mu- just above CERTIFIED_RATIO h clears the stack, just below it does
    # not: the (m + 1)^2 eps t slack is at most 1e-4 of the shift here
    C = np.linalg.qr(np.random.default_rng(3).normal(size=(3 * m, k)))[0].T
    above, below = diagonal_kkt_block(m, k, 1.001), diagonal_kkt_block(m, k, 0.999)
    assert _certified(above[None], k) and not _certified(below[None], k)
    assert not _certified(np.stack([above, below]), k)  # one verdict per stack
    assert svd_ratio(kkt_matrix(above, C)) >= CERTIFIED_RATIO


def test_large_M_is_certified_only_without_constraints():
    # M = 1e6 I factors after any shift, but with constraint rows the KKT
    # matrix also has eigenvalues near -1 / h, so its ratio is about 1 / h^2
    M = 1e6 * np.eye(3)
    C = np.eye(9)[:1]
    assert _certified(M[None], 0) and not _certified(M[None], 1)
    assert svd_ratio(kkt_matrix(M, C)) < CERTIFIED_RATIO


@pytest.fixture
def svd_systems(monkeypatch):
    """Shapes of the arrays passed to np.linalg.svd while the test runs."""
    calls = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


@pytest.mark.parametrize("eps, regular", [(1e-5, True), (1e-7, False)])
def test_kkt_between_the_thresholds_reaches_the_svd(svd_systems, eps, regular):
    # degree 1 on samples squeezed towards a line: M's eigenvalue ratio is
    # about eps^2, so the certificate cannot clear the patch and the SVD
    # decides, as it always did
    rng = np.random.default_rng(11)
    pos = np.stack([rng.uniform(-1.0, 1.0, 12), eps * rng.uniform(-1.0, 1.0, 12)], axis=-1)
    sig = rng.normal(size=(12, 3))
    w = np.ones(12)
    P = _basis(pos, np.zeros(2), 1.0, 1)
    M = P.T @ P / 12
    ratio = svd_ratio(kkt_matrix(M, np.zeros((0, 9))))
    assert (1e-12 < ratio < 1e-10) if regular else (ratio < 1e-12)
    svd_systems.clear()
    fit, failures = fit_one(0, pos, sig, w, 1, center=np.zeros(2), scale=1.0)
    assert svd_systems == [(1, 9, 9)]
    want = reference_fit(0, pos, sig, w, 1, None, np.zeros(2), 1.0)
    if regular:
        assert not failures and np.array_equal(fit, want)
    else:
        assert fit is None and want is None and list(failures) == [0]


def count_rank_deficient_M(monkeypatch):
    """Wraps fit_patch to count the patches whose M is rank deficient."""
    count = [0]

    def counting(node_ids, positions, stresses, weights, degree, constraints, **kw):
        P = _basis(positions, kw["center"][:, None], kw["scale"][:, None], degree)
        M = np.matmul((P * weights[..., None]).swapaxes(-1, -2), P)
        count[0] += sum(np.linalg.matrix_rank(Mi) < P.shape[-1] for Mi in M)
        return fit_patch(node_ids, positions, stresses, weights, degree, constraints, **kw)

    monkeypatch.setattr("smoothfem.recovery.fit_patch", counting)
    return count


@pytest.mark.parametrize(
    "name, level, kind, variant",
    [("cylinder", 2, "fem", "SPR-C"), ("lshape", 1, "sfem", "SPR-CX")],
)
def test_only_patches_with_singular_M_reach_the_svd(
    solve_cached, cylinder_bm, lshape_bm, svd_systems, monkeypatch, name, level, kind, variant
):
    # the constraint rows are orthonormal, so every patch whose M is definite
    # is certified; the cylinder's Neumann patches whose samples cannot fit
    # y^2 (and its starved corners) still go to the SVD
    bm = {"cylinder": cylinder_bm, "lshape": lshape_bm}[name]
    mesh, bcs, sol = solve_cached(name, level, kind)
    deficient = count_rank_deficient_M(monkeypatch)
    build_recovered_field(
        sol, RecoveryConfig(variant=variant), singular_field=bm.singular_field,
        tractions=bcs.tractions, bcs=bcs,
    )
    systems = sum(shape[0] for shape in svd_systems)
    assert systems == deficient[0]
    assert (systems > 0) == (name == "cylinder")


# ---------------------------------------------------------------------------
# the blended field
# ---------------------------------------------------------------------------


def constant_fits(n_nodes, c):
    """Degree-1 PatchFits whose every patch polynomial is the constant c (3,)."""
    coeffs = np.zeros((n_nodes, 3, 6))
    coeffs[:, :, 0] = c
    return PatchFits(np.ones(n_nodes, dtype=int), np.ones(n_nodes), coeffs)


def test_identical_constant_fits_blend_to_constant():
    bm, mesh, sol = linear_solution()
    c = np.array([2.0, -1.0, 0.5])
    field = RecoveredStressField(
        mesh, constant_fits(mesh.n_nodes, c), None, np.zeros(mesh.n_nodes, dtype=bool)
    )
    probe = mesh.coords[mesh.elements[2]].mean(axis=0)
    assert_allclose(evaluate_at(field, 2, probe), c, rtol=1e-14)


def test_patch_fits_are_read_only(solve_cached):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    config = RecoveryConfig(variant="SPR-C")
    fits = build_recovered_field(sol, config, tractions=bcs.tractions).fits
    assert len(fits) == mesh.n_nodes
    assert fits.coeffs.shape == (mesh.n_nodes, 3, 6)
    for a in (fits.degrees, fits.scales, fits.coeffs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_field_needs_one_fit_per_node():
    bm, mesh, sol = linear_solution()
    for n_nodes in (mesh.n_nodes - 1, mesh.n_nodes + 1):
        with pytest.raises(RecoveryError, match="one patch fit per mesh node"):
            RecoveredStressField(
                mesh, constant_fits(n_nodes, np.ones(3)), None, np.zeros(n_nodes, dtype=bool)
            )


def test_vertex_value_is_nodal_polynomial(solve_cached):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions
    )
    e = 5
    for k, node in enumerate(mesh.elements[e]):
        xi, eta = [(-1, -1), (1, -1), (1, 1), (-1, 1)][k]
        blended = field.evaluate_at_parents([e], np.array([[xi, eta]], float))[0, 0]
        assert_allclose(blended, patch_values(field, node, mesh.coords[node]), atol=1e-12)


def _per_element_blend(field, e, pts):
    """Reference for evaluate_at_parents: one element, node by node."""
    N = shape_functions(pts[:, 0], pts[:, 1])
    x = N @ field.mesh.coords[field.mesh.elements[e]]
    conn = field.mesh.elements[e]
    any_split = field.singular_field is not None and field.split_flags[conn].any()
    out = np.zeros((len(pts), 3))
    for k, node in enumerate(conn):
        vals = patch_values(field, node, x)
        if any_split and field.split_flags[node]:
            vals = vals + field.singular_field.stress(x)
        out += N[:, k, None] * vals
    return out


@pytest.mark.parametrize(
    "bad", [(-3.0, 0.5), (1.0 + 1e-12, 0.0), (0.0, -1.5), (np.nan, 0.0), (0.0, np.inf)]
)
def test_blend_rejects_points_outside_the_parent_square(solve_cached, bad):
    _, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(sol, RecoveryConfig(variant="SPR"), tractions=bcs.tractions)
    pts = np.array([[0.0, 0.0], [1.0, -1.0], bad])
    assert field.evaluate_at_parents([0], pts[:2]).shape == (1, 2, 3)  # the closed square is fine
    with pytest.raises(RecoveryError, match=r"parent point \[.*\] is not a finite point"):
        field.evaluate_at_parents([0], pts)


def test_blend_rejects_element_ids_out_of_range(solve_cached):
    mesh, bcs, sol = solve_cached("cylinder", 1, "sfem", 4)
    field = build_recovered_field(sol, RecoveryConfig(variant="SPR"), tractions=bcs.tractions)
    n, pts = mesh.n_elements, np.zeros((1, 2))
    assert field.evaluate_at_parents([n - 1], pts).shape == (1, 1, 3)
    for bad in (-1, n):
        with pytest.raises(RecoveryError, match=rf"element id {bad} is not in \[0, {n}\)"):
            field.evaluate_at_parents([0, bad], pts)


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
    per_element = np.broadcast_to(pts, (len(subset),) + pts.shape)
    assert np.array_equal(field.evaluate_at_parents(subset, per_element), full[subset])
    for e in subset[:6]:
        assert np.array_equal(field.evaluate_at_parents([e], pts)[0], full[e])
    for e in range(mesh.n_elements):
        assert np.array_equal(full[e], _per_element_blend(field, e, pts))


def _per_degree_blend(field, pts):
    """Reference for evaluate_at_parents on every element: each corner's
    nodes gathered per degree, with that degree's basis and a contiguous
    (n_nodes, 3, m) coefficient array, as the blend was once evaluated."""
    mesh, fits = field.mesh, field.fits
    per_degree = {d: np.ascontiguousarray(fits.coeffs[:, :, : len(_MONOMIALS[d])]) for d in (1, 2)}
    conn = mesh.elements
    N = shape_functions(pts[:, 0], pts[:, 1])
    phys = N @ mesh.coords[conn]
    split = field.split_flags[conn]
    touched = np.nonzero(split.any(axis=1))[0]
    sing = field.singular_field.stress(phys[touched])
    out = np.zeros(phys.shape[:-1] + (3,))
    for k in range(4):
        nodes = conn[:, k]
        vals = np.empty_like(out)
        for degree, coeffs in per_degree.items():
            sel = fits.degrees[nodes] == degree
            group = nodes[sel]
            P = _basis(phys[sel], mesh.coords[group, None], fits.scales[group, None], degree)
            vals[sel] = np.matmul(P, coeffs[group].swapaxes(-1, -2))
        hit = split[touched, k]
        vals[touched[hit]] += sing[hit]
        vals *= N[..., k, None]
        out += vals
    return out


def test_degree_one_fits_fill_the_first_three_columns(solve_cached, lshape_bm, caplog):
    # the degree-1 monomials are the degree-2 ones' first three, so one
    # (n_nodes, 3, 6) array holds both degrees
    assert _MONOMIALS[1] == _MONOMIALS[2][:3]
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    mixed = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-CX", boundary_degree=1),
        singular_field=lshape_bm.singular_field, tractions=bcs.tractions,
    )
    # unconstrained, the cylinder's starved corner patches fall back from
    # degree 2 to 1
    mesh, bcs, sol = solve_cached("cylinder", 2, "fem", 4)
    with caplog.at_level(logging.WARNING, logger="smoothfem.recovery"):
        fallen = build_recovered_field(sol, RecoveryConfig(variant="SPR"))
    assert any("falling back" in r.getMessage() for r in caplog.records)
    for field in (mixed, fallen):
        one = field.fits.degrees == 1
        assert one.any() and not one.all()
        assert field.fits.coeffs[one, :, :3].any() and field.fits.coeffs[~one, :, 3:].any()
        assert not field.fits.coeffs[one, :, 3:].any()


@pytest.mark.parametrize("q", [2, 3, 16])
def test_mixed_degree_blend_equals_the_per_degree_evaluation(solve_cached, lshape_bm, q):
    # split patches and both degrees (degree 1 on the boundary) in one
    # batch: the zero-padded (q, 6) @ (6, 3) products of the degree-1 nodes
    # round exactly as their (q, 3) @ (3, 3) ones for q >= 2
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    field = build_recovered_field(
        sol, RecoveryConfig(variant="SPR-CX", boundary_degree=1),
        singular_field=lshape_bm.singular_field, tractions=bcs.tractions,
    )
    assert set(field.fits.degrees.tolist()) == {1, 2} and field.split_flags.any()
    if q == 16:
        pts = gauss_points_2d(4)[0]
    else:
        pts = np.random.default_rng(q).uniform(-1.0, 1.0, size=(q, 2))
    full = field.evaluate_at_parents(np.arange(mesh.n_elements), pts)
    assert np.array_equal(full, _per_degree_blend(field, pts))


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
        va = evaluate_at(field, elems[0], mid)
        vb = evaluate_at(field, elems[1], mid)
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
        s = evaluate_at(field, be.element_id, mid)
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
        x0 = mesh.coords[node] + rng.uniform(-0.1, 0.1, size=2)
        v = patch_values(field, node, x0 + np.array([[h, 0], [-h, 0], [0, h], [0, -h]]))
        sx, sy = (v[0] - v[1]) / (2 * h), (v[2] - v[3]) / (2 * h)
        div = np.array([sx[0] + sy[2], sx[2] + sy[1]])
        scale = max(np.abs(field.fits.coeffs[node]).max() / field.fits.scales[node], 1e-30)
        assert np.abs(div).max() < 1e-9 * scale


def test_polynomial_reproduction_zeroes_the_estimate():
    bm, mesh, sol = linear_solution()
    field = build_recovered_field(sol, RecoveryConfig(variant="SPR-C"))
    est2, _, _ = element_error_squares(sol, field, bm.exact_stress)
    assert np.sqrt(est2.sum()) < 1e-9


def airy_stress(p):
    """The stress (phi_yy, phi_xx, -phi_xy) of the biharmonic Airy function
    phi = x^4 - 6 x^2 y^2 + y^4 + x^3 y - x y^3: a statically admissible
    quadratic field (equilibrium and compatibility hold exactly)."""
    x, y = p[..., 0], p[..., 1]
    sxx = -12 * x**2 + 12 * y**2 - 6 * x * y
    return np.stack([sxx, -sxx, 24 * x * y - 3 * x**2 + 3 * y**2], axis=-1)


@pytest.mark.parametrize(
    "aspect",
    [
        1.0,
        pytest.param(1e7, marks=pytest.mark.xfail(
            strict=True, raises=PatchFailure,
            reason="ROADMAP item 10: one basis scale per patch makes a patch 1e7 times "
            "longer than wide singular (PatchFailure at node 0)",
        )),
    ],
)
def test_stretched_block_reproduces_a_quadratic_airy_stress(lshape_bm, aspect):
    # a 2 x 2 FEM block of [2, 3] x [0, 1 / aspect] sampled exactly from
    # the Airy field at its Gauss points; the centre node's 4-element patch
    # has enough samples for degree 2 in every variant (the other patches
    # fall back for want of samples at any aspect), and the splitting
    # variants split nothing this far from the L-shape's notch
    square = build_square_mesh(2)
    mesh = Mesh(square.coords * [1.0, 1.0 / aspect] + [2.0, 0.0], square.elements,
                square.boundary_arrays)
    sol = interpolate_solution(mesh, MAT, Formulation("fem"), np.zeros_like)
    points = mapped_rule(mesh.coords[mesh.elements], 2)[2]
    sol.cell_stress = airy_stress(points)
    for variant in VARIANTS:
        field = build_recovered_field(
            sol, RecoveryConfig(variant=variant), singular_field=lshape_bm.singular_field
        )
        assert field.fits.degrees[4] == 2, variant
        assert_allclose(
            patch_values(field, 4, points), sol.cell_stress,
            atol=1e-10 * np.abs(sol.cell_stress).max(), err_msg=variant,
        )


# ---------------------------------------------------------------------------
# splitting consistency and extracted amplitudes
# ---------------------------------------------------------------------------


def exactify_stresses(solution, exact_stress):
    """Replace every cell stress with the exact field at its centroid.

    The solution's own stress array is read-only, so the exact values go
    into a fresh array that takes its place.
    """
    stress = solution.cell_stress.copy()
    mesh, nc = solution.mesh, solution.formulation.nc
    for e, corners in enumerate(subcell_corners(mesh.coords[mesh.elements], nc)):
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
        if np.linalg.norm(mesh.coords[mesh.elements[e]].mean(axis=0)) < rho
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
    assert np.array_equal(field.fits.degrees, [1, 1, 1, 1])
    assert not field.fits.coeffs[:, :, 3:].any()
    assert any("falling back" in r.message for r in caplog.records)
    # one warning per fallen-back patch, in node order
    fallen = [r.args[0] for r in caplog.records if "falling back" in r.getMessage()]
    assert fallen == [0, 1, 2, 3]


def test_one_fit_pass_per_degree_refits_fallen_patches(monkeypatch, caplog):
    # degree 2 runs first, and its singular corner patches join the degree-1
    # patches in the one degree-1 pass: one Gram-Schmidt per degree
    import smoothfem.recovery as recovery

    mesh = build_square_mesh(2)
    sol = interpolate_solution(mesh, MAT, Formulation("sfem", 1), lambda p: 0.01 * p)
    orth, calls = recovery._orthonormalize_constraints, []

    def counted_orth(C, d, node_ids):
        calls.append(len(C))
        return orth(C, d, node_ids)

    monkeypatch.setattr(recovery, "_orthonormalize_constraints", counted_orth)
    config = RecoveryConfig(variant="SPR-C", interior_degree=1, boundary_degree=2)
    with caplog.at_level(logging.WARNING, logger="smoothfem.recovery"):
        field = build_recovered_field(sol, config, tractions={})
    assert len(calls) == 2
    assert np.bincount(field.fits.degrees).tolist() == [0, 5, 4]
    fallen = [r.args[0] for r in caplog.records if "falling back" in r.getMessage()]
    assert fallen == [0, 2, 6, 8]


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
    with pytest.raises(RecoveryError, match="splitting radius must be >= 0, got nan"):
        RecoveryConfig(variant="SPR-CX", splitting_radius=float("nan"))
    with pytest.raises(RecoveryError):
        RecoveryConfig(gsif_mode="guessed")


def test_splitting_requires_singular_field():
    bm, mesh, sol = linear_solution()
    with pytest.raises(RecoveryError, match="singular field"):
        build_recovered_field(sol, RecoveryConfig(variant="SPR-X"))


# ---------------------------------------------------------------------------
# the batched fits against the per-node loop
# ---------------------------------------------------------------------------


def reference_collocation_points(node_pos, edges, degree):
    """One node's (point, normal, traction_fn) list, as the per-node loop built it."""
    def normal(pa, pb):
        tang = pb - pa
        return np.array([tang[1], -tang[0]]) / np.hypot(tang[0], tang[1])

    if not edges:
        return []
    if len(edges) == 1:
        pa, pb, fn = edges[0]
        n = normal(pa, pb)
        pts = [pa, pb] if degree == 1 else [pa, 0.5 * (pa + pb), pb]
        return [(p, n, fn) for p in pts]
    (pa1, pb1, f1), (pa2, pb2, f2) = edges
    n1, n2 = normal(pa1, pb1), normal(pa2, pb2)
    out = [(0.5 * (pa1 + pb1), n1, f1), (0.5 * (pa2 + pb2), n2, f2)]
    if degree >= 2 and f1 is f2:
        nav = n1 + n2
        nrm = np.hypot(nav[0], nav[1])
        if nrm > 1e-12:
            out.append((np.asarray(node_pos, float), nav / nrm, f1))
    return out


def reference_collocation_rows(degree, center, scale, collocation, singular_field, split):
    """One patch's traction collocation rows, built point by point."""
    from smoothfem.recovery import _MONOMIALS

    m = len(_MONOMIALS[degree])
    rows, rhs = [], []
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
    return np.array(rows).reshape(-1, 3 * m), np.array(rhs)


def reference_constraint_rows(degree, center, scale, compliance, collocation,
                              singular_field, split):
    """One patch's constraint rows, built row by row as the per-node loop did."""
    from smoothfem.recovery import _MONOMIALS, _derivative_matrix

    m = len(_MONOMIALS[degree])
    rows, rhs = [], []
    Dx, Dy = _derivative_matrix(degree, 0), _derivative_matrix(degree, 1)
    zero = np.zeros_like(Dx)
    for block in (np.hstack([Dx, zero, Dy]), np.hstack([zero, Dy, Dx])):
        for k in range(block.shape[0]):
            rows.append(block[k])
            rhs.append(0.0)
    R, r = reference_collocation_rows(degree, center, scale, collocation, singular_field, split)
    rows.extend(R)
    rhs.extend(r)
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


def reference_edges(mesh, tractions):
    """Node id -> its Neumann edges' (pa, pb, traction_fn), in boundary order."""
    edges = {}
    for be in mesh.boundary:
        if be.kind == "neumann":
            pa, pb = mesh.coords[be.node_ids[0]], mesh.coords[be.node_ids[1]]
            for n in be.node_ids:
                edges.setdefault(n, []).append((pa, pb, tractions[be.name]))
    return edges


def reference_fits(sol, config, singular_field, tractions, bcs):
    """(degree, scale, coeffs) of every node, one node at a time."""
    mesh = sol.mesh
    if config.with_splitting and config.gsif_mode == "extracted":
        est = extract_gsifs(sol, singular_field, bcs)
        singular_field = singular_field.with_gsifs(est.K_I, est.K_II)
    positions, stresses, weights = _sampling_arrays(sol)
    split = np.zeros(mesh.n_nodes, dtype=bool)
    smooth = stresses
    if config.with_splitting:
        flat = singular_field.stress(positions.reshape(-1, 2))
        smooth = stresses - flat.reshape(stresses.shape)
        split = np.linalg.norm(mesh.coords - np.asarray(singular_field.frame.vertex), axis=1) \
            < config.splitting_radius
    edges = reference_edges(mesh, tractions) if config.with_constraints else {}
    boundary_nodes = {n for be in mesh.boundary for n in be.node_ids}
    compliance = compliance_matrix(sol.material)
    out = []
    for node in range(mesh.n_nodes):
        patch = mesh.patch_elements[mesh.patch_offsets[node] : mesh.patch_offsets[node + 1]]
        pos, w = positions[patch].reshape(-1, 2), weights[patch].ravel()
        sig = (smooth if split[node] else stresses)[patch].reshape(-1, 3)
        center = mesh.coords[node]
        scale = max(np.abs(pos - center).max(), 1e-30)
        degree = config.boundary_degree if node in boundary_nodes else config.interior_degree
        while True:
            constraints = None
            if config.with_constraints:
                C, d = reference_constraint_rows(
                    degree, center, scale, compliance,
                    reference_collocation_points(center, edges.get(node, []), degree),
                    singular_field, bool(split[node]),
                )
                constraints = reference_orthonormalize(C, d, node)
            coeffs = reference_fit(node, pos, sig, w, degree, constraints, center, scale)
            if coeffs is not None:
                break
            assert degree > 1, f"node {node} singular at degree 1"
            degree = 1
        out.append((degree, scale, coeffs))
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
    fits = field.fits
    assert len(fits) == mesh.n_nodes
    assert np.array_equal(fits.degrees, [degree for degree, _, _ in want])
    assert np.array_equal(fits.scales, [scale for _, scale, _ in want])
    for node, (degree, _, coeffs) in enumerate(want):
        m = len(_MONOMIALS[degree])
        assert np.array_equal(fits.coeffs[node, :, :m], coeffs), node
        # a degree-1 node's degree-2 columns stay zero
        assert not fits.coeffs[node, :, m:].any(), node


def test_orthonormalize_masks_each_patch_separately():
    # four patches in one batch: one keeps every row, one has a dependent
    # row (dropped), one a zero row (dropped), and one a zero row with a
    # nonzero right-hand side (a failure); each of the first three must
    # equal its own scalar Gram-Schmidt bit for bit
    rng = np.random.default_rng(21)
    C = rng.normal(size=(4, 4, 9))
    d = rng.normal(size=(4, 4))
    C[1, 2] = 2.0 * C[1, 0] - C[1, 1]
    d[1, 2] = 2.0 * d[1, 0] - d[1, 1]
    C[2, 1] = 0.0
    d[2, 1] = 0.0
    C[3, 1] = 0.0
    d[3, 1] = 0.5
    Q, e, rank, failures = _orthonormalize_constraints(C, d, [5, 6, 7, 8])
    assert list(failures) == [8] and "inconsistent constraint" in failures[8]
    assert rank.tolist()[:3] == [4, 3, 3]
    for i in range(3):
        Qi, ei = reference_orthonormalize(C[i], d[i], i)
        assert np.array_equal(Q[i, : rank[i]], Qi)
        assert np.array_equal(e[i, : rank[i]], ei)
        assert not Q[i, rank[i]:].any() and not e[i, rank[i]:].any()
    # patch 2's zero row, in the middle of its rows, leaves it as the
    # Gram-Schmidt of its other rows alone
    Q2, e2, rank2, _ = _orthonormalize_constraints(
        np.delete(C[2], 1, axis=0)[None], np.delete(d[2], 1)[None], [7]
    )
    assert rank2.tolist() == [rank[2]]
    assert np.array_equal(Q[2, :3], Q2[0]) and np.array_equal(e[2, :3], e2[0])


def record_fit_calls(monkeypatch):
    """Wraps the fit passes: one ("stack", (Q, e, rank, member, failures),
    nodes) per _constraints call and one ("fit", node_ids, (C, d)) per
    fit_patch call."""
    import smoothfem.recovery as recovery

    calls = []
    constraints, fit_patch_ = recovery._constraints, recovery.fit_patch

    def recording_constraints(mesh, neumann, nodes, *args):
        stack = constraints(mesh, neumann, nodes, *args)
        calls.append(("stack", stack, nodes))
        return stack

    def recording_fit_patch(node_ids, positions, stresses, weights, degree, constraints, **kw):
        calls.append(("fit", np.asarray(node_ids), constraints))
        return fit_patch_(node_ids, positions, stresses, weights, degree, constraints, **kw)

    monkeypatch.setattr(recovery, "_constraints", recording_constraints)
    monkeypatch.setattr(recovery, "fit_patch", recording_fit_patch)
    return calls


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", ["cylinder", "lshape"])
def test_shared_basis_equals_the_per_chunk_gram_schmidt(solve_cached, monkeypatch, name, degree):
    # the interior basis (member 0 of a fit pass's stack) must be, bit for
    # bit, what the Gram-Schmidt of a full broadcast chunk gives each of its
    # patches, with the compliance of each benchmark's material; every
    # interior chunk fits exactly those rows, every other chunk its own
    # patches' members
    mesh, bcs, sol = solve_cached(name, 1, "fem", 4)
    calls = record_fit_calls(monkeypatch)
    config = RecoveryConfig(variant="SPR-C", interior_degree=degree, boundary_degree=degree)
    build_recovered_field(sol, config, tractions=bcs.tractions)
    assert [kind for kind, *_ in calls].count("stack") == 1
    _, (Qs, es, rank, member, _), nodes = calls[0]
    Q, e = Qs[0, : rank[0]], es[0, : rank[0]]
    interior = 0
    for _, chunk, (C, d) in calls[1:]:
        m = member[np.searchsorted(nodes, chunk)]
        assert np.array_equal(C, Qs[m, : C.shape[1]]) and np.array_equal(d, es[m, : C.shape[1]])
        if not m.any():
            interior += 1
            assert np.array_equal(C, np.broadcast_to(Q, (len(chunk),) + Q.shape))
            assert np.array_equal(d, np.broadcast_to(e, (len(chunk),) + e.shape))
    assert interior >= 1
    C, d = shared_constraints(degree, compliance_matrix(sol.material))
    Qc, ec, rank, failures = _orthonormalize_constraints(
        np.broadcast_to(C, (CHUNK,) + C.shape), np.broadcast_to(d, (CHUNK,) + d.shape),
        np.arange(CHUNK),
    )
    assert not failures and np.all(rank == len(Q))
    assert np.array_equal(Qc[:, : len(Q)], np.broadcast_to(Q, (CHUNK,) + Q.shape))
    assert np.array_equal(ec[:, : len(e)], np.broadcast_to(e, (CHUNK,) + e.shape))
    assert not Qc[:, len(Q) :].any() and not ec[:, len(e) :].any()


@pytest.mark.parametrize("interior_degree", [1, 2])
def test_gram_schmidt_runs_once_per_fit_call(solve_cached, monkeypatch, interior_degree):
    # one Gram-Schmidt per fit pass (one _constraints call), over the shared
    # interior rows and every collocated patch at once, whatever the mesh
    # level; interior and collocated chunks alike fit members of that one
    # stack
    import smoothfem.recovery as recovery

    orth, constraints = recovery._orthonormalize_constraints, recovery._constraints
    fit_patch_ = recovery.fit_patch
    counts = []
    for level in (2, 4):
        mesh, bcs, sol = solve_cached("cylinder", level, "fem", 4)
        events = []
        neumann = neumann_edges(mesh, bcs.tractions)

        def counted_orth(C, d, node_ids):
            events.append("orth")
            return orth(C, d, node_ids)

        def counted_constraints(*args):
            events.append("fit")
            return constraints(*args)

        def counted_fit_patch(node_ids, *args, **kwargs):
            on = neumann.on[np.asarray(node_ids), 0] >= 0
            events.append("collocated" if on.all() else "interior" if not on.any() else "mixed")
            return fit_patch_(node_ids, *args, **kwargs)

        monkeypatch.setattr(recovery, "_orthonormalize_constraints", counted_orth)
        monkeypatch.setattr(recovery, "_constraints", counted_constraints)
        monkeypatch.setattr(recovery, "fit_patch", counted_fit_patch)
        config = RecoveryConfig(variant="SPR-C", interior_degree=interior_degree)
        build_recovered_field(sol, config, tractions=bcs.tractions)
        assert events.count("fit") == (2 if interior_degree == 1 else 1)
        assert events.count("interior") >= 1 and events.count("collocated") >= 1
        for before, after in zip(events, events[1:] + [None]):
            assert (after == "orth") == (before == "fit"), events
        counts.append(events.count("orth"))
    assert counts[0] == counts[1] == events.count("fit")


@pytest.mark.parametrize(
    "name, level, kind, variant",
    [("cylinder", 2, "fem", "SPR-C"), ("cylinder", 4, "fem", "SPR-C"),
     ("lshape", 1, "sfem", "SPR-CX"), ("lshape", 2, "sfem", "SPR-CX")],
)
def test_every_stack_member_is_orthonormal(
    solve_cached, cylinder_bm, lshape_bm, monkeypatch, name, level, kind, variant
):
    # _certified takes C C^T = I for every fitted patch: pin it far
    # tighter than the ||C C^T - I|| <= 1/2 that its certificate needs
    bm = {"cylinder": cylinder_bm, "lshape": lshape_bm}[name]
    mesh, bcs, sol = solve_cached(name, level, kind)
    calls = record_fit_calls(monkeypatch)
    build_recovered_field(
        sol, RecoveryConfig(variant=variant), singular_field=bm.singular_field,
        tractions=bcs.tractions,
    )
    stacks = [stack for kind, stack, _ in calls if kind == "stack"]
    assert stacks
    for Q, _, rank, *_ in stacks:
        assert rank.min() > 0
        for q, r in zip(Q, rank):
            assert np.abs(q[:r] @ q[:r].T - np.eye(r)).max() <= 1e-12


@pytest.mark.parametrize("variant", ["SPR", "SPR-CX"])
def test_each_fit_patch_call_takes_one_cholesky_of_M(solve_cached, lshape_bm, monkeypatch, variant):
    # the conditioning certificate reads M alone: exactly one cholesky call
    # per fit_patch call, on the (B, m, m) stack of M, no eigvalsh, and
    # every call gets constraint rows (zero rows for the plain variants)
    import smoothfem.recovery as recovery

    mesh, bcs, sol = solve_cached("lshape", 1, "sfem")
    factored, fit_patch_ = [], recovery.fit_patch

    def recording(name):
        real = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            factored.append((name, np.shape(a)))
            return real(a, *args, **kwargs)

        return wrapped

    def counted_fit_patch(node_ids, positions, stresses, weights, degree, constraints, **kw):
        assert constraints is not None
        C, d = constraints
        assert C.shape[:2] == d.shape and (C.shape[1] > 0) == (variant == "SPR-CX")
        factored.clear()
        out = fit_patch_(node_ids, positions, stresses, weights, degree, constraints, **kw)
        m = len(_MONOMIALS[degree])
        assert factored == [("cholesky", (len(positions), m, m))]
        calls.append(len(positions))
        return out

    calls = []
    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    monkeypatch.setattr(recovery, "fit_patch", counted_fit_patch)
    build_recovered_field(
        sol, RecoveryConfig(variant=variant), singular_field=lshape_bm.singular_field,
        tractions=bcs.tractions,
    )
    assert sum(calls) == mesh.n_nodes


def test_padded_gram_schmidt_stack_equals_each_patch_alone():
    # patches of 5, 3 and 6 rows (one with a dependent row, one with an
    # inconsistent dependent row) stacked with trailing zero rows up to 7:
    # each patch's Q, e, rank and failure message equal its unpadded ones
    rng = np.random.default_rng(41)
    counts = (5, 3, 6, 7)
    rows = [rng.normal(size=(k, 9)) for k in counts]
    rhs = [rng.normal(size=k) for k in counts]
    rows[1][2] = rows[1][0] - 3.0 * rows[1][1]
    rhs[1][2] = rhs[1][0] - 3.0 * rhs[1][1]
    rows[2][4] = 2.0 * rows[2][0] + rows[2][3]
    rhs[2][4] = 2.0 * rhs[2][0] + rhs[2][3] + 0.5
    C = np.zeros((len(counts), max(counts), 9))
    d = np.zeros(C.shape[:2])
    for i, k in enumerate(counts):
        C[i, :k], d[i, :k] = rows[i], rhs[i]
    nodes = [10, 11, 12, 13]
    Q, e, rank, failures = _orthonormalize_constraints(C, d, nodes)
    assert list(failures) == [12] and "inconsistent dependent" in failures[12]
    for i, k in enumerate(counts):
        Qi, ei, ri, fi = _orthonormalize_constraints(rows[i][None], rhs[i][None], nodes[i : i + 1])
        assert fi == {n: m for n, m in failures.items() if n == nodes[i]}
        assert rank[i] == ri[0]
        assert np.array_equal(Q[i, :k], Qi[0]) and np.array_equal(e[i, :k], ei[0])
        assert not Q[i, k:].any() and not e[i, k:].any()
        if not fi:
            Qr, er = reference_orthonormalize(rows[i], rhs[i], nodes[i])
            assert np.array_equal(Qi[0, : ri[0]], Qr) and np.array_equal(ei[0, : ri[0]], er)
    assert rank[[0, 1, 3]].tolist() == [5, 2, 7]


def test_inconsistent_collocation_row_names_its_node(solve_cached, monkeypatch):
    # a second traction value at a node's first collocation point repeats
    # that point's rows with a conflicting right-hand side; the recovery
    # must refuse and name the lowest such node
    import smoothfem.recovery as recovery

    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    bad = {int(mesh.find_node((-1.0, 0.0))), int(mesh.find_node((0.0, 1.0)))}
    original = recovery.collocation_rows

    def with_conflict(mesh, neumann, nodes, degree, **kwargs):
        # one more slot: the first point's two rows again on the bad nodes,
        # zero rows with zero right-hand sides on the others
        rows, rhs = original(mesh, neumann, nodes, degree, **kwargs)
        hit = np.isin(nodes, list(bad))
        assert rows[hit, :2].any(axis=-1).all()  # the first point is in use
        extra = np.where(hit[:, None, None], rows[:, :2], 0.0)
        extra_rhs = np.where(hit[:, None], rhs[:, :2] + 1.0, 0.0)
        return np.concatenate([rows, extra], axis=1), np.concatenate([rhs, extra_rhs], axis=1)

    monkeypatch.setattr(recovery, "collocation_rows", with_conflict)
    with pytest.raises(RecoveryError, match=rf"inconsistent dependent constraint in patch {min(bad)} ") as exc:
        build_recovered_field(sol, RecoveryConfig(variant="SPR-C"), tractions=bcs.tractions)
    assert isinstance(exc.value, PatchFailure)
    assert set(exc.value.failures) == bad


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("case", ["lshape-unsplit", "lshape-split", "cylinder"])
def test_collocation_rows_match_the_per_node_loop_bit_for_bit(solve_cached, lshape_bm, case, degree):
    # the L-shape's nodes all lie on two edges (its vertex on both notch
    # faces, skipped when split); the cylinder's cut ends lie on one
    name = case.split("-")[0]
    mesh, bcs, sol = solve_cached(name, 1, "sfem", 4)
    field = lshape_bm.singular_field if name == "lshape" else None
    neumann = neumann_edges(mesh, bcs.tractions)
    nodes = np.nonzero(neumann.on[:, 0] >= 0)[0]
    positions, _, _ = _sampling_arrays(sol)
    scale = np.array([
        max(np.abs(positions[mesh.patch_elements[mesh.patch_offsets[n]:mesh.patch_offsets[n + 1]]]
                   - mesh.coords[n]).max(), 1e-30)
        for n in nodes
    ])
    split = np.zeros(len(nodes), dtype=bool)
    if case == "lshape-split":
        split = np.linalg.norm(mesh.coords[nodes], axis=1) < 0.5
    rows, rhs = collocation_rows(
        mesh, neumann, nodes, degree, scale=scale, split=split, singular_field=field
    )
    assert rows.shape[:2] == rhs.shape == (len(nodes), 2 * (degree + 1))
    # a row in use is nonzero (a unit normal times the basis, whose constant
    # monomial is 1); every other row must be zero with a zero right-hand side
    used = rows.any(axis=-1)
    count = used.sum(axis=1)
    edges = reference_edges(mesh, bcs.tractions)
    for i, node in enumerate(nodes.tolist()):
        want = reference_collocation_rows(
            degree, mesh.coords[node], scale[i],
            reference_collocation_points(mesh.coords[node], edges[node], degree),
            field, bool(split[i]),
        )
        assert np.array_equal(rows[i, used[i]], want[0]), node
        assert np.array_equal(rhs[i, used[i]], want[1]), node
        assert not rhs[i, ~used[i]].any(), node
    if name == "cylinder":
        assert any(len(edges[n]) == 1 for n in nodes.tolist())
    elif degree == 2:
        # the vertex point is skipped when split; the corner point always is
        # where the outer square meets a notch face (different tractions)
        vertex = nodes.tolist().index(mesh.find_node((0.0, 0.0)))
        assert count[vertex] == (4 if case == "lshape-split" else 6)
        assert (count == 4).sum() == 2 + (case == "lshape-split")


@pytest.mark.parametrize("variant", ["SPR-C", "SPR-CX"])
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
def test_bad_traction_output_names_the_boundary(solve_cached, lshape_bm, variant, bad, match, name):
    mesh, bcs, sol = solve_cached("lshape", 1, "sfem", 4)
    tractions = {**bcs.tractions, name: bad}
    with pytest.raises(RecoveryError, match=rf"boundary '{name}'.*{match}"):
        build_recovered_field(
            sol, RecoveryConfig(variant=variant), singular_field=lshape_bm.singular_field,
            tractions=tractions,
        )


@pytest.mark.parametrize("kind", ["sfem", "fem"])
def test_singular_stress_is_subtracted_only_where_split_patches_read_it(
    solve_cached, lshape_bm, monkeypatch, kind
):
    # the smooth part is taken on the samples of the elements touching a
    # split node, and split patches read nothing else; it equals the
    # subtraction over all samples there bit for bit
    import smoothfem.recovery as recovery

    mesh, bcs, sol = solve_cached("lshape", 1, kind, 4)
    seen, gathered = [], []
    stress, gather = SingularField.stress, recovery._gather

    def counting_stress(self, points):
        seen.append(np.array(points))
        return stress(self, points)

    def spy_gather(mesh, chunk, size, positions, stresses, smooth, weights, split):
        gathered.append((smooth, split))
        return gather(mesh, chunk, size, positions, stresses, smooth, weights, split)

    monkeypatch.setattr(SingularField, "stress", counting_stress)
    monkeypatch.setattr(recovery, "_gather", spy_gather)
    build_recovered_field(
        sol, RecoveryConfig(variant="SPR-X", gsif_mode="exact"),
        singular_field=lshape_bm.singular_field,
    )
    monkeypatch.undo()
    smooth, split = gathered[0]
    assert all(s is smooth and f is split for s, f in gathered)
    positions, stresses, _ = _sampling_arrays(sol)
    touched = split[mesh.elements].any(axis=1)
    assert 0 < touched.sum() < mesh.n_elements
    assert len(seen) == 1 and np.array_equal(seen[0], positions[touched])
    # the oracle evaluates the flat sample list, so the element-major call
    # must match a flat one too
    flat = lshape_bm.singular_field.stress(positions.reshape(-1, 2))
    full = stresses - flat.reshape(stresses.shape)
    assert np.array_equal(smooth[touched], full[touched])
    for node in np.nonzero(split)[0]:
        patch = mesh.patch_elements[mesh.patch_offsets[node]:mesh.patch_offsets[node + 1]]
        assert touched[patch].all()
