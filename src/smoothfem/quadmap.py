"""Bilinear (Q4) reference-element machinery shared across modules.

Parent domain is the square [-1, 1]^2 with corners ordered counter-clockwise:
(-1,-1), (1,-1), (1,1), (-1,1).  ``corners`` arguments are (4, 2) arrays of
the physical corner coordinates in the same order.
"""

from __future__ import annotations

import functools

import numpy as np

PARENT_CORNERS = np.array(
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
)

# invert_map's Newton stopping rule: parent increment norm and iteration cap
NEWTON_TOL = 1e-12
NEWTON_MAXITER = 20


class QuadMapError(RuntimeError):
    """Bilinear-map inversion failed (degenerate or severely distorted quad)."""


def shape_functions(xi, eta) -> np.ndarray:
    """Q4 shape functions N_I(xi, eta); broadcasts, returns (..., 4)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return 0.25 * np.stack(
        [
            (1.0 - xi) * (1.0 - eta),
            (1.0 + xi) * (1.0 - eta),
            (1.0 + xi) * (1.0 + eta),
            (1.0 - xi) * (1.0 + eta),
        ],
        axis=-1,
    )


def shape_gradients(xi, eta) -> np.ndarray:
    """Parent-space gradients dN_I/d(xi, eta); broadcasts, returns (..., 4, 2)."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    dxi = 0.25 * np.stack(
        [-(1.0 - eta), (1.0 - eta), (1.0 + eta), -(1.0 + eta)], axis=-1
    )
    deta = 0.25 * np.stack(
        [-(1.0 - xi), -(1.0 + xi), (1.0 + xi), (1.0 - xi)], axis=-1
    )
    return np.stack([dxi, deta], axis=-1)


def map_point(corners: np.ndarray, xi, eta) -> np.ndarray:
    """Physical image of parent point(s); returns (..., 2)."""
    N = shape_functions(xi, eta)
    return N @ corners


def jacobian(corners: np.ndarray, xi, eta) -> np.ndarray:
    """Jacobian dx/d(xi, eta) of the bilinear map; returns (..., 2, 2).

    ``corners`` is one (4, 2) quad or a stack (..., 4, 2) broadcasting
    against the parent points.
    """
    return jacobian_from_gradients(shape_gradients(xi, eta), corners)


def jacobian_from_gradients(G: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Jacobian from parent shape gradients G (..., 4, 2); returns (..., 2, 2)."""
    # J[i, j] = sum_I corners[I, i] * G[I, j]
    return np.einsum("...ij,...ik->...kj", G, corners)


def jacobian_det(corners: np.ndarray, xi, eta) -> np.ndarray:
    J = jacobian(corners, xi, eta)
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


def corner_jacobians(corners: np.ndarray) -> np.ndarray:
    """Jacobian determinants at the 4 parent corners (positivity check).

    corners (..., 4, 2) -> (..., 4).
    """
    xi, eta = PARENT_CORNERS[:, 0], PARENT_CORNERS[:, 1]
    return jacobian_det(np.asarray(corners)[..., None, :, :], xi, eta)


def invert_map(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Parent coordinates of physical points by batched Newton iteration.

    ``corners`` (P, 4, 2) and ``points`` (P, 2) give one quad per point and
    return (P, 2); a single (4, 2) quad with a (2,) point is a batch of one
    and returns (2,).  Every point follows the scalar Newton sequence and
    leaves the active set at the iteration where its parent increment norm
    drops below NEWTON_TOL (well inside machine precision for the mildly
    distorted quads used here; quadratic convergence means 2-4 iterations
    in practice), so its result does not depend on the rest of the batch.

    Raises:
        QuadMapError: singular Jacobian, or no convergence within
            NEWTON_MAXITER iterations; the message names the offending point.
    """
    points = np.asarray(points, dtype=float)
    C = np.asarray(corners, dtype=float).reshape(-1, 4, 2)
    X = points.reshape(-1, 2)
    out = np.zeros_like(X)
    active = np.arange(len(X))
    xi = np.zeros_like(X)
    for _ in range(NEWTON_MAXITER):
        if not len(active):
            break
        Ca = C[active]
        N = shape_functions(xi[:, 0], xi[:, 1])
        res = np.matmul(N[:, None, :], Ca)[:, 0] - X[active]
        J = jacobian(Ca, xi[:, 0], xi[:, 1])
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        singular = np.abs(det) < 1e-30
        if np.any(singular):
            bad = X[active[np.argmax(singular)]]
            raise QuadMapError(
                f"singular Jacobian during bilinear-map inversion for point {bad}"
            )
        step = (
            np.stack(
                [
                    J[:, 1, 1] * res[:, 0] - J[:, 0, 1] * res[:, 1],
                    -J[:, 1, 0] * res[:, 0] + J[:, 0, 0] * res[:, 1],
                ],
                axis=-1,
            )
            / det[:, None]
        )
        xi = xi - step
        done = np.hypot(step[:, 0], step[:, 1]) < NEWTON_TOL
        out[active[done]] = xi[done]
        active = active[~done]
        xi = xi[~done]
    if len(active):
        raise QuadMapError(
            f"bilinear-map inversion did not converge in {NEWTON_MAXITER} iterations "
            f"for point {X[active[0]]}"
        )
    return out.reshape(points.shape)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def gauss_points_1d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (cached, read-only)."""
    return _read_only(*np.polynomial.legendre.leggauss(order))


@functools.lru_cache(maxsize=None)
def gauss_points_2d(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule on the parent square: (n^2, 2) points, (n^2,) weights.

    Cached per order; the returned arrays are read-only.
    """
    x, w = gauss_points_1d(order)
    XI, ETA = np.meshgrid(x, x, indexing="ij")
    WX, WY = np.meshgrid(w, w, indexing="ij")
    pts = np.stack([XI.ravel(), ETA.ravel()], axis=-1)
    return _read_only(pts, (WX * WY).ravel())
