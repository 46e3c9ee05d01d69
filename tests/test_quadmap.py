"""Bilinear parent-element machinery: shape functions, Jacobians, inversion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smoothfem.quadmap import (
    PARENT_CORNERS,
    QuadMapError,
    gauss_points_1d,
    gauss_points_2d,
    invert_map,
    jacobian,
    jacobian_det,
    map_point,
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
    J = jacobian(unit, 0.2, -0.4)
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
