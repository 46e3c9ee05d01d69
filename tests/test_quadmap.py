"""Bilinear parent-element machinery: shape functions, Jacobians, inversion."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import smoothfem.quadmap as quadmap_mod
from conftest import einsum_jacobian, random_quads
from smoothfem.benchmarks import CylinderBenchmark, LShapeBenchmark
from smoothfem.mesh import subcell_geometry
from smoothfem.quadmap import (
    PARENT_CORNERS,
    QuadMapError,
    gauss_points_1d,
    gauss_points_2d,
    _jacobian_entries,
    invert_map,
    jacobian_det,
    map_point,
    mapped_rule,
    shape_functions,
    shape_gradients,
)

DISTORTED = np.array([[0.0, 0.0], [1.1, -0.1], [1.3, 0.9], [-0.2, 1.2]])


def test_shape_functions_partition_of_unity():
    xi = np.linspace(-1, 1, 7)
    eta = np.linspace(-1, 1, 7)
    for x in xi:
        for y in eta:
            N = shape_functions(x, y)
            assert_allclose(N.sum(), 1.0, atol=1e-14)


def test_shape_functions_kronecker_at_corners():
    for k, (xi, eta) in enumerate(PARENT_CORNERS):
        N = shape_functions(xi, eta)
        expected = np.zeros(4)
        expected[k] = 1.0
        assert_allclose(N, expected, atol=1e-15)


def test_shape_gradients_sum_to_zero():
    # d/dxi of sum N_I = d/dxi 1 = 0
    G = shape_gradients(0.3, -0.7)
    assert_allclose(G.sum(axis=0), [0.0, 0.0], atol=1e-15)


def test_map_point_hits_corners():
    for k, (xi, eta) in enumerate(PARENT_CORNERS):
        assert_allclose(map_point(DISTORTED, xi, eta), DISTORTED[k], atol=1e-15)


def test_jacobian_of_axis_aligned_square():
    # unit physical square [0,1]^2: x = (xi+1)/2, so dx/dxi = 1/2
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    J = np.reshape(_jacobian_entries(unit, 0.2, -0.4), (2, 2))
    assert_allclose(J, 0.5 * np.eye(2), atol=1e-15)
    assert_allclose(jacobian_det(unit, 0.2, -0.4), 0.25, atol=1e-15)


def test_invert_map_round_trip():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.95, 0.95, size=(20, 2))
    for xi_eta in pts:
        x = map_point(DISTORTED, xi_eta[0], xi_eta[1])
        back = invert_map(DISTORTED, x)
        assert_allclose(back, xi_eta, atol=1e-10)


def test_invert_map_rejects_degenerate_quad():
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(QuadMapError):
        invert_map(degenerate, np.array([0.5, 1.0]))


@pytest.mark.parametrize("scale", [1e-15, 1e-5, 1.0, 1e5, 1e15])
def test_invert_map_singular_test_does_not_depend_on_the_quad_size(scale):
    # the singular-Jacobian threshold scales with the square of the longest
    # edge, so a uniformly scaled quad inverts as the unit one does
    point = map_point(scale * DISTORTED, 0.3, -0.2)
    assert_allclose(invert_map(scale * DISTORTED, point), [0.3, -0.2], atol=1e-12)
    # a collapsed quad (two corners on one point, det = 0 at xi = 0) still
    # raises, naming the point
    collapsed = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(QuadMapError, match=r"singular Jacobian .* for point \["):
        invert_map(collapsed, scale * np.array([0.25, 0.25]))


def test_gauss_rules_integrate_polynomials_exactly():
    # order-n 1D rule is exact through degree 2n-1
    pts, wts = gauss_points_1d(2)
    assert_allclose(wts.sum(), 2.0, atol=1e-15)
    assert_allclose(np.sum(wts * pts**3), 0.0, atol=1e-15)
    assert_allclose(np.sum(wts * pts**2), 2.0 / 3.0, atol=1e-14)

    pts2, wts2 = gauss_points_2d(2)
    assert pts2.shape == (4, 2)
    assert_allclose(wts2.sum(), 4.0, atol=1e-14)
    val = np.sum(wts2 * pts2[:, 0] ** 2 * pts2[:, 1] ** 2)
    assert_allclose(val, 4.0 / 9.0, atol=1e-14)


def test_invert_map_batch_names_the_failing_point():
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    corners = np.stack([DISTORTED, degenerate])
    points = np.array([[0.5, 0.5], [0.25, 7.0]])
    with pytest.raises(QuadMapError, match=r"\[0\.25 7\.  *\]"):
        invert_map(corners, points)


def test_gauss_rules_are_cached_and_read_only():
    assert gauss_points_1d(3)[0] is gauss_points_1d(3)[0]
    assert gauss_points_2d(3)[1] is gauss_points_2d(3)[1]
    for a in (*gauss_points_1d(3), *gauss_points_2d(3)):
        with pytest.raises(ValueError):
            a[0] = 0.0


# Every layout in which src calls the Jacobian kernels: (corners, xi, eta).
def _jacobian_layouts(rng):
    per_point = rng.uniform(-1.0, 1.0, size=(2, 200))
    gauss4, _ = gauss_points_2d(4)
    gauss2, _ = gauss_points_2d(2)
    return {
        # one quad per point: invert_map's Newton, solver.strain_matrix
        "per-point": (random_quads(rng, 200), *per_point),
        # elements x shared points: error quadrature, GSIF ring, mesh check
        "elements-x-points": (random_quads(rng, 50)[:, None], *gauss4.T),
        # elements x subcells x shared points: SFEM recovery sampling
        "subcells-x-points": (random_quads(rng, 40).reshape(5, 8, 1, 4, 2), *gauss2.T),
        "one-quad": (random_quads(rng, 1)[0], 0.3, -0.7),
    }


@pytest.mark.parametrize(
    "layout", ["per-point", "elements-x-points", "subcells-x-points", "one-quad"]
)
def test_jacobian_kernels_match_the_einsum_oracle(layout):
    corners, xi, eta = _jacobian_layouts(np.random.default_rng(17))[layout]
    J = einsum_jacobian(corners, xi, eta)
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    entries = _jacobian_entries(corners, xi, eta)
    for entry, (i, j) in zip(entries, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert np.array_equal(entry, J[..., i, j])
    assert np.array_equal(jacobian_det(corners, xi, eta), det)


def test_invert_map_inverts_every_point_in_one_quad():
    parent = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 2))
    points = map_point(DISTORTED, parent[:, 0], parent[:, 1])
    expected = np.array([invert_map(DISTORTED, x) for x in points])
    assert_allclose(expected, parent, atol=1e-12)
    for corners in (DISTORTED, DISTORTED[None]):
        assert np.array_equal(invert_map(corners, points), expected)
    assert np.array_equal(invert_map(DISTORTED, points[None]), expected[None])


@pytest.mark.parametrize(
    "corners_shape,points_shape",
    [((2, 4, 2), (3, 2)), ((3, 4, 2), (2,)), ((4, 3), (2,)), ((4, 2), (3, 3))],
)
def test_invert_map_names_shapes_that_do_not_pair(corners_shape, points_shape):
    corners = np.resize(DISTORTED, corners_shape)
    shapes = re.escape(f"{points_shape}") + ".*" + re.escape(f"{corners_shape}")
    with pytest.raises(QuadMapError, match=shapes):
        invert_map(corners, np.full(points_shape, 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_invert_map_rejects_a_non_finite_point_before_iterating(monkeypatch, bad):
    def no_iteration(*args):
        raise AssertionError("Newton iterated on a non-finite point")

    monkeypatch.setattr(quadmap_mod, "shape_functions", no_iteration)
    points = np.array([[0.5, 0.5], [0.25, bad]])
    with pytest.raises(QuadMapError, match=r"non-finite point \[0\.25 +-?(nan|inf)\]"):
        invert_map(np.stack([DISTORTED, DISTORTED]), points)


def _active_set_newton(corners, points):
    """invert_map's former Newton: one quad per point (P, 4, 2) for points
    (P, 2), the converged points removed from a compacted active set.  The
    oracle the masked Newton must equal bit for bit."""
    X, C = points, corners
    out = np.zeros_like(X)
    active = np.arange(len(X))
    xi = np.zeros_like(X)
    for _ in range(quadmap_mod.NEWTON_MAXITER):
        if not len(active):
            break
        Ca = C[active]
        N = shape_functions(xi[:, 0], xi[:, 1])
        res = np.matmul(N[:, None, :], Ca)[:, 0] - X[active]
        J00, J01, J10, J11 = quadmap_mod._jacobian_entries(Ca, xi[:, 0], xi[:, 1])
        det = J00 * J11 - J01 * J10
        step = (
            np.stack(
                [J11 * res[:, 0] - J01 * res[:, 1], -J10 * res[:, 0] + J00 * res[:, 1]],
                axis=-1,
            )
            / det[:, None]
        )
        xi = xi - step
        done = np.hypot(step[:, 0], step[:, 1]) < quadmap_mod.NEWTON_TOL
        out[active[done]] = xi[done]
        active = active[~done]
        xi = xi[~done]
    assert not len(active)
    return out


@pytest.mark.parametrize("layout", ["one-quad", "per-point", "quads-x-points", "single-point"])
def test_masked_newton_equals_the_active_set_newton(layout):
    rng = np.random.default_rng(31)
    n, E = 60, 7
    # centred: the oracle stops on NEWTON_TOL alone, which a quad of size
    # 1e-3 shifted by 100 cannot reach in double precision
    quads = random_quads(rng, n)
    quads -= quads.mean(axis=1, keepdims=True)
    corners = {
        "one-quad": quads[0],
        "per-point": quads,
        "quads-x-points": quads[:, None],
        "single-point": quads[0],
    }[layout]
    lead = {"one-quad": (n,), "per-point": (n,), "quads-x-points": (n, E), "single-point": ()}
    parent = rng.uniform(-1.0, 1.0, size=lead[layout] + (2,))
    N = shape_functions(parent[..., 0], parent[..., 1])
    points = np.matmul(N[..., None, :], corners)[..., 0, :]
    got = invert_map(corners, points)
    assert got.shape == points.shape
    per_point = np.broadcast_to(corners, lead[layout] + (4, 2)).reshape(-1, 4, 2)
    want = _active_set_newton(per_point, points.reshape(-1, 2)).reshape(points.shape)
    assert np.array_equal(got, want)
    assert_allclose(got, parent, atol=1e-9)


def test_invert_map_names_a_quad_with_a_non_finite_corner_before_iterating(monkeypatch):
    def no_iteration(*args):
        raise AssertionError("Newton iterated in a non-finite quad")

    monkeypatch.setattr(quadmap_mod, "shape_functions", no_iteration)
    bad = DISTORTED.copy()
    bad[2, 0] = np.nan
    with pytest.raises(QuadMapError, match=r"non-finite corner \[\[0\.0, 0\.0\], .*nan"):
        invert_map(bad, np.array([0.1, 0.2]))
    with pytest.raises(QuadMapError, match=r"non-finite corner .*nan"):
        invert_map(np.stack([DISTORTED, bad])[:, None], np.full((2, 3, 2), 0.5))


@pytest.mark.parametrize("size, offset", [(1e-3, 10.0), (1e-4, 1.0), (1e-5, 1.0), (1e-7, 1.0)])
def test_invert_map_converges_in_small_quads_far_from_the_origin(size, offset):
    # the residual rounds to about eps |x|, a parent increment of about
    # eps |x| / h, which a fixed NEWTON_TOL cannot always reach; the result
    # is as exact as the physical points themselves allow
    rng = np.random.default_rng(7)
    corners = offset + size * DISTORTED
    parent = rng.uniform(-1.0, 1.0, size=(200, 2))
    points = map_point(corners, parent[:, 0], parent[:, 1])
    got = invert_map(corners, points)
    assert np.abs(got - parent).max() < max(1e-10, 64 * np.finfo(float).eps * offset / size)
    one_per_point = invert_map(np.broadcast_to(corners, (200, 4, 2)), points)
    assert np.array_equal(one_per_point, got)


def _former_rules(corners, order):
    """The hand-written Gauss mappings that mapped_rule replaced, each the
    oracle it must equal bit for bit: the error quadrature's and the
    recovery sampling's (points, w det, physical points), and the GSIF
    domain term's w and det (taken on the ring rows)."""
    pts, w = gauss_points_2d(order)
    det = jacobian_det(corners[..., None, :, :], pts[:, 0], pts[:, 1])
    phys = map_point(corners, pts[:, 0], pts[:, 1])
    return pts, w, det, phys


def _rule_stacks():
    cylinder = CylinderBenchmark().mesh(2)
    lshape = LShapeBenchmark().mesh(1)
    stacks = {"cylinder-L2-elements": cylinder.coords[cylinder.elements]}
    for nc in (1, 2, 4, 8):
        stacks[f"lshape-L1-subcells-nc{nc}"] = subcell_geometry(lshape, nc).corners
    return stacks


RULE_STACKS = _rule_stacks()


@pytest.mark.parametrize("order", [2, 4, 6, 16])
@pytest.mark.parametrize("stack", sorted(RULE_STACKS))
def test_mapped_rule_equals_the_former_hand_written_rules(stack, order):
    corners = RULE_STACKS[stack]
    pts, wdet, phys = mapped_rule(corners, order)
    ref_pts, w, det, ref_phys = _former_rules(corners, order)
    assert pts is ref_pts
    assert wdet.shape == corners.shape[:-2] + (len(w),)
    assert phys.shape == corners.shape[:-2] + (len(w), 2)
    assert np.array_equal(wdet, w * det)  # error quadrature, recovery sampling
    assert np.array_equal(phys, ref_phys)
    # the GSIF domain term took det on the ring rows only, then w * det * F
    ring = np.arange(0, len(corners), 3)
    ring_det = _former_rules(corners[ring], order)[2]
    f = np.random.default_rng(order).uniform(-1.0, 1.0, size=ring_det.shape)
    assert np.array_equal(wdet[ring] * f, w * ring_det * f)
    # and a single quad gives its row of the stack
    first = corners.reshape(-1, 4, 2)[0]
    assert np.array_equal(mapped_rule(first, order)[1], wdet.reshape(-1, len(w))[0])
