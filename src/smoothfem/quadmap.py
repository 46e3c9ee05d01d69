"""Bilinear (Q4) reference-element machinery shared across modules.

Parent domain is the square [-1, 1]^2 with corners ordered counter-clockwise:
(-1,-1), (1,-1), (1,1), (-1,1).  ``corners`` arguments are (4, 2) arrays of
the physical corner coordinates in the same order, or stacks (..., 4, 2) of
them.

Every Jacobian (``jacobian_det``, ``mapped_rule``, the Newton of
``invert_map`` and solver.strain_matrix) comes from one componentwise kernel,
``_jacobian_entries``: four separate entry arrays, each an in-order sum over
the corners.  That order must equal the einsum over the (..., 4, 2) gradient
and corner stacks bit for bit, so that every batch layout gives the same
numbers.  Physical images keep the batched matmul (``map_point``, the Newton
residual); an explicit sum rounds differently there.  ``mapped_rule`` is the
one place a Gauss rule is carried onto a stack of quads.
"""

from __future__ import annotations

import functools

import numpy as np

PARENT_CORNERS = np.array(
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
)

# invert_map's Newton stopping rule: parent increment norm (raised to
# NEWTON_FLOOR eps max|corner| / shortest edge where larger) and iteration cap
NEWTON_TOL = 1e-12
NEWTON_FLOOR = 8.0
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


def _jacobian_entries(corners: np.ndarray, xi, eta) -> tuple[np.ndarray, ...]:
    """Entries (J00, J01, J10, J11) of the Jacobian dx/d(xi, eta).

    J[i, j] = sum_I corners[..., I, i] dN_I/dxi_j, each entry summed over the
    corners in order, ((c0 g0 + c1 g1) + c2 g2) + c3 g3, with the gradients
    of shape_gradients: the same arithmetic as the einsum
    "...ij,...ik->...kj" over the (..., 4, 2) stacks, so bit-identical to
    it, without building the stacks.  ``corners`` (..., 4, 2) broadcasts
    against the parent points.
    """
    corners = np.asarray(corners, dtype=float)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    m, p = 0.25 * (1.0 - eta), 0.25 * (1.0 + eta)
    dxi = (-m, m, p, -p)
    m, p = 0.25 * (1.0 - xi), 0.25 * (1.0 + xi)
    deta = (-m, -p, p, m)

    def entry(i, g):
        s = corners[..., 0, i] * g[0]
        for k in (1, 2, 3):
            s = s + corners[..., k, i] * g[k]
        return s

    return entry(0, dxi), entry(0, deta), entry(1, dxi), entry(1, deta)


def jacobian_det(corners: np.ndarray, xi, eta) -> np.ndarray:
    """Jacobian determinant J00 J11 - J01 J10 of the bilinear map.

    ``corners`` is one (4, 2) quad or a stack (..., 4, 2) broadcasting
    against the parent points.
    """
    J00, J01, J10, J11 = _jacobian_entries(corners, xi, eta)
    return J00 * J11 - J01 * J10


def corner_jacobians(corners: np.ndarray) -> np.ndarray:
    """Jacobian determinants at the 4 parent corners (positivity check).

    corners (..., 4, 2) -> (..., 4).
    """
    xi, eta = PARENT_CORNERS[:, 0], PARENT_CORNERS[:, 1]
    return jacobian_det(np.asarray(corners)[..., None, :, :], xi, eta)


def invert_map(corners: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Parent coordinates of physical points by batched Newton iteration.

    ``points`` (..., 2) lie in quads ``corners`` (..., 4, 2) whose leading
    axes broadcast against the points' without adding any: one (4, 2) quad
    for all points, one quad per point, or (n, 1, 4, 2) quads for (n, E, 2)
    points.  The result has the points' shape, so a single (2,) point
    returns (2,).  The whole block iterates under a done-mask: a point is
    frozen (np.where) at the iteration where its parent increment norm drops
    below its quad's tolerance (quadratic convergence means 2-4 iterations
    in practice), so every point follows the scalar Newton sequence and its
    result does not depend on the rest of the block.  The tolerance is
    NEWTON_TOL, or NEWTON_FLOOR eps max|corner| / h (h the shortest edge)
    where that is larger: the residual rounds to about eps |x|, a parent
    increment of about eps |x| / h, so a small quad far from the origin
    could not reach NEWTON_TOL.  Jacobians come from
    _jacobian_entries; the residual keeps the batched matmul of map_point,
    with the quads broadcast rather than gathered per point.

    Raises:
        QuadMapError: before iterating, for shapes that do not pair as
            above, a non-finite point or a quad with a non-finite corner;
            then for a singular Jacobian (|det| at most 1e-30 times the
            square of the quad's longest edge), or no convergence within
            NEWTON_MAXITER iterations.  The message names the shapes, the
            quad or the offending point.
    """
    points = np.asarray(points, dtype=float)
    corners = np.asarray(corners, dtype=float)
    lead = points.shape[:-1]
    try:
        paired = np.broadcast_shapes(corners.shape[:-2], lead) == lead
    except ValueError:
        paired = False
    if corners.shape[-2:] != (4, 2) or points.shape[-1:] != (2,) or not paired:
        raise QuadMapError(
            f"cannot invert points of shape {points.shape} in quads of shape "
            f"{corners.shape}: give one (4, 2) quad, or quads that broadcast "
            "against the points"
        )
    finite = np.isfinite(points).all(axis=-1)
    if not finite.all():
        bad = points.reshape(-1, 2)[np.argmin(finite.ravel())]
        raise QuadMapError(f"cannot invert the non-finite point {bad}")
    finite = np.isfinite(corners).all(axis=(-2, -1))
    if not finite.all():
        bad = corners.reshape(-1, 4, 2)[np.argmin(finite.ravel())]
        raise QuadMapError(
            f"cannot invert points in the quad with a non-finite corner {bad.tolist()}"
        )
    edges = np.roll(corners, -1, axis=-2) - corners
    lengths = np.hypot(edges[..., 0], edges[..., 1])
    # a Jacobian scales with the square of the quad's size
    h, tiny = lengths.min(axis=-1), 1e-30 * lengths.max(axis=-1) ** 2
    floor = NEWTON_FLOOR * np.finfo(float).eps * np.abs(corners).max(axis=(-2, -1))
    tol = np.maximum(NEWTON_TOL, np.divide(floor, h, out=np.zeros_like(h), where=h > 0))
    xi = np.zeros_like(points)
    done = np.zeros(lead, dtype=bool)
    for _ in range(NEWTON_MAXITER):
        if done.all():
            break
        N = shape_functions(xi[..., 0], xi[..., 1])
        res = np.matmul(N[..., None, :], corners)[..., 0, :] - points
        J00, J01, J10, J11 = _jacobian_entries(corners, xi[..., 0], xi[..., 1])
        det = J00 * J11 - J01 * J10
        singular = ~done & (np.abs(det) <= tiny)
        if singular.any():
            bad = points.reshape(-1, 2)[np.argmax(singular.ravel())]
            raise QuadMapError(
                f"singular Jacobian during bilinear-map inversion for point {bad}"
            )
        # a frozen point's step is discarded: keep its division harmless
        det = np.where(done, 1.0, det)
        step = (
            np.stack(
                [J11 * res[..., 0] - J01 * res[..., 1], -J10 * res[..., 0] + J00 * res[..., 1]],
                axis=-1,
            )
            / det[..., None]
        )
        xi = np.where(done[..., None], xi, xi - step)
        done |= np.hypot(step[..., 0], step[..., 1]) < tol
    if not done.all():
        raise QuadMapError(
            f"bilinear-map inversion did not converge in {NEWTON_MAXITER} iterations "
            f"for point {points.reshape(-1, 2)[np.argmin(done.ravel())]}"
        )
    return xi


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


def mapped_rule(corners: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order x order Gauss rule carried onto every quad of a stack.

    ``corners`` (..., 4, 2); returns the parent points (q, 2), weight times
    Jacobian determinant (..., q) and physical points (..., q, 2).
    """
    pts, w = gauss_points_2d(order)
    wdet = w * jacobian_det(corners[..., None, :, :], pts[:, 0], pts[:, 1])
    return pts, wdet, map_point(corners, pts[:, 0], pts[:, 1])
