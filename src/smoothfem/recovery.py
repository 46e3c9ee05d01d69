"""Patch-based stress recovery: SPR and its constrained / singular variants.

Every mesh node I owns a patch (the elements sharing it).  Raw stresses are
sampled at 2x2 Gauss points per smoothing cell (per element for FEM) and a
polynomial expansion per stress component is least-squares fitted over each
patch in a node-centered, scaled coordinate frame.  Variants:

* SPR     — plain fit;
* SPR-C   — fit constrained by internal equilibrium, boundary-traction
            collocation and (degree 2) the compatibility equation, through
            Lagrange multipliers;
* SPR-X   — singular + smooth splitting near a notch: sampling stresses
            within the splitting radius have the singular eigenfield
            (with its generalized intensity factors) subtracted before
            fitting, and split patches add it back on evaluation;
* SPR-CX  — both.

The blended field sigma*(x) = sum_I N_I(x) sigma*_I(x) is continuous across
element edges by the partition of unity of the Q4 shape functions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analytic import SingularField
from .elasticity import compliance_matrix
from .mesh import NEUMANN, Mesh
from .quadmap import gauss_points_2d, invert_map, jacobian_det, map_point, shape_functions
from .solver import SFEM, DiscreteSolution

log = logging.getLogger(__name__)

VARIANTS = ("SPR", "SPR-C", "SPR-X", "SPR-CX")


class RecoveryError(RuntimeError):
    """Patch fitting failed (singular constrained system, bad config...)."""


@dataclass(frozen=True)
class RecoveryConfig:
    """Recovery variant and its knobs.

    gsif_mode "exact" trusts the intensity factors carried by the singular
    field; "extracted" estimates them from the solution first.
    """

    variant: str = "SPR-CX"
    interior_degree: int = 2
    boundary_degree: int = 2
    splitting_radius: float = 0.5
    gsif_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise RecoveryError(f"unknown recovery variant {self.variant!r}")
        if self.interior_degree not in (1, 2) or self.boundary_degree not in (1, 2):
            raise RecoveryError("polynomial degrees must be 1 or 2")
        if self.with_splitting and self.splitting_radius < 0.0:
            raise RecoveryError("splitting radius must be >= 0")
        if self.gsif_mode not in ("exact", "extracted"):
            raise RecoveryError(f"unknown gsif_mode {self.gsif_mode!r}")

    @property
    def with_constraints(self) -> bool:
        return self.variant in ("SPR-C", "SPR-CX")

    @property
    def with_splitting(self) -> bool:
        return self.variant in ("SPR-X", "SPR-CX")


@dataclass(frozen=True)
class PatchFit:
    """Polynomial stress expansion of one node's patch.

    coeffs is (3, m) over the monomial basis of ``degree`` in the scaled
    frame (x - center) / scale.
    """

    node_id: int
    degree: int
    center: np.ndarray
    scale: float
    coeffs: np.ndarray

    def __call__(self, points) -> np.ndarray:
        P = _basis(np.asarray(points, float), self.center, self.scale, self.degree)
        return P @ self.coeffs.T


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sampling_arrays(solution: DiscreteSolution):
    """Positions, stresses and weights of all samples, plus samples per element.

    SFEM: the constant stress of each smoothing cell is mapped to the cell's
    own 2x2 Gauss positions (weights = Gauss weight x cell Jacobian); FEM:
    the element's 2x2 Gauss points carry the pointwise compatible stress.
    Samples are element-major: element e owns rows e*k ... (e+1)*k - 1.
    """
    gp, gw = gauss_points_2d(2)
    if solution.formulation.kind == SFEM:
        corners = solution.operators.cells.corners  # (n_e, nc, 4, 2)
        pos = map_point(corners, gp[:, 0], gp[:, 1])
        det = jacobian_det(corners[..., None, :, :], gp[:, 0], gp[:, 1])
        stress = np.broadcast_to(solution.cell_stress[:, :, None], det.shape + (3,))
        weight = gw * det
    else:
        mesh = solution.mesh
        pos = map_point(mesh.coords[mesh.elements], gp[:, 0], gp[:, 1])
        stress = solution.cell_stress
        weight = solution.operators.detw
    k = int(np.prod(weight.shape[1:]))
    return (
        pos.reshape(-1, 2),
        stress.reshape(-1, 3).astype(float),
        weight.reshape(-1),
        k,
    )


def singular_stress_estimate(
    singular_field: SingularField,
    solution: DiscreteSolution | None = None,
    gsif_mode: str = "exact",
    bcs=None,
) -> SingularField:
    """The singular recovery component with exact or extracted intensities.

    "exact" passes the field through unchanged; "extracted" replaces its
    K factors with reciprocal-work estimates from the solution (which needs
    the boundary conditions the solution was computed with).
    """
    if gsif_mode == "exact":
        return singular_field
    if gsif_mode != "extracted":
        raise RecoveryError(f"unknown gsif_mode {gsif_mode!r}")
    if solution is None or bcs is None:
        raise RecoveryError(
            "extracted gsif_mode needs the discrete solution and its bcs"
        )
    from .gsif import extract_gsifs

    est = extract_gsifs(solution, singular_field, bcs)
    return singular_field.with_gsifs(est.K_I, est.K_II)


def smooth_part(
    positions: np.ndarray,
    stresses: np.ndarray,
    singular_field: SingularField,
) -> np.ndarray:
    """Sampling stresses with the singular eigenfield subtracted everywhere.

    Split patches (node within the splitting radius) fit this array instead
    of the raw one, so every sample they see belongs to one consistent field
    sigma_h - sigma_sing; restricting the subtraction to samples inside the
    radius would hand transition patches a mix of the two fields, which the
    polynomial fit cannot represent.  The blend adds the eigenfield back
    through the same partition of unity.
    """
    return stresses - singular_field.stress(positions)


# ---------------------------------------------------------------------------
# polynomial basis
# ---------------------------------------------------------------------------

_MONOMIALS = {
    1: ((0, 0), (1, 0), (0, 1)),
    2: ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),
}


def _basis(points: np.ndarray, center: np.ndarray, scale, degree: int) -> np.ndarray:
    """Monomial rows p(x^) at physical points (..., 2); (..., m).

    center (..., 2) and scale broadcast against the points' leading axes, so
    one call covers the patches of a whole batch of elements.
    """
    xh = points[..., 0] - center[..., 0]
    xh /= scale
    yh = points[..., 1] - center[..., 1]
    yh /= scale
    mono = _MONOMIALS[degree]
    P = np.empty(xh.shape + (len(mono),))
    for c, (i, j) in enumerate(mono):
        np.multiply(xh**i, yh**j, out=P[..., c])
    return P


def _derivative_matrix(degree: int, axis: int) -> np.ndarray:
    """Maps coefficient vectors to the coefficients of d/dx^ (or d/dy^).

    Output lives in the basis of degree-1 lower monomials; shape (m', m).
    """
    mono = _MONOMIALS[degree]
    lower = _MONOMIALS[degree - 1] if degree >= 2 else ((0, 0),)
    D = np.zeros((len(lower), len(mono)))
    for k, (i, j) in enumerate(mono):
        e = (i, j)
        p = e[axis]
        if p == 0:
            continue
        tgt = (i - 1, j) if axis == 0 else (i, j - 1)
        D[lower.index(tgt), k] = p
    return D


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


def edge_normal(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Outward unit normal of a CCW-ordered boundary edge a -> b."""
    tang = pb - pa
    return np.array([tang[1], -tang[0]]) / np.hypot(tang[0], tang[1])


def collocation_points(node_pos: np.ndarray, edges: list, degree: int) -> list:
    """Traction collocation set of a boundary node: (point, normal, fn) list.

    The node's contiguous boundary section (its 1 or 2 incident Neumann
    edges) gets degree+1 collocation points — the number that pins the
    polynomial traction trace along a straight section exactly, without
    redundant rows whose right-hand sides could disagree:

    * one edge: the node, (degree 2) the midpoint, and the far end;
    * two edges: both midpoints, plus (degree 2) the node itself with the
      averaged normal — provided both edges carry the same traction function
      (at corners joining differently loaded faces the traction at the
      corner is direction-dependent, so the shared point is skipped).
    """
    out = []
    if not edges:
        return out
    if len(edges) == 1:
        pa, pb, fn = edges[0]
        n = edge_normal(pa, pb)
        pts = [pa, pb] if degree == 1 else [pa, 0.5 * (pa + pb), pb]
        out = [(p, n, fn) for p in pts]
        return out
    if len(edges) != 2:
        raise RecoveryError(
            f"node at {node_pos} lies on {len(edges)} boundary edges"
        )
    (pa1, pb1, f1), (pa2, pb2, f2) = edges
    n1, n2 = edge_normal(pa1, pb1), edge_normal(pa2, pb2)
    out.append((0.5 * (pa1 + pb1), n1, f1))
    out.append((0.5 * (pa2 + pb2), n2, f2))
    if degree >= 2 and f1 is f2:
        nav = n1 + n2
        nrm = np.hypot(nav[0], nav[1])
        if nrm > 1e-12:
            out.append((np.asarray(node_pos, float), nav / nrm, f1))
    return out


def constraint_rows(
    *,
    degree: int,
    center: np.ndarray,
    scale: float,
    compliance: np.ndarray,
    collocation: list,
    singular_field: SingularField | None = None,
    split: bool = False,
    body_force: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Linear constraints (C, d) with C a = d for a constrained patch fit.

    Rows, in deterministic order:

    1. internal equilibrium div sigma* + b = 0, imposed identically in the
       polynomial coefficients (one scalar row per monomial of degree-1,
       per equilibrium equation);
    2. traction collocation sigma*(x_c) . n = t(x_c) over the
       ``collocation`` list of (point, outward unit normal, traction_fn)
       (see collocation_points); for split patches the singular traction
       moves to the right-hand side;
    3. the compatibility equation (nontrivial for degree 2 only).

    Traction functions map (positions (n, 2), unit normal (2,)) to
    tractions (n, 2).
    """
    m = len(_MONOMIALS[degree])
    rows, rhs = [], []

    # -- internal equilibrium (coefficient matching) ------------------------
    Dx = _derivative_matrix(degree, 0)
    Dy = _derivative_matrix(degree, 1)
    zero = np.zeros_like(Dx)
    ex = np.hstack([Dx, zero, Dy])  # d(sxx)/dx + d(sxy)/dy
    ey = np.hstack([zero, Dy, Dx])  # d(syy)/dy + d(sxy)/dx
    const = np.zeros(Dx.shape[0])
    const[0] = 1.0
    for block, b in ((ex, body_force[0]), (ey, body_force[1])):
        for k in range(block.shape[0]):
            rows.append(block[k])
            rhs.append(-b * scale * const[k])

    # -- traction collocation ------------------------------------------------
    for x, n, traction in collocation:
        x = np.asarray(x, float)
        if split and singular_field is not None:
            r = np.hypot(*(x - np.asarray(singular_field.frame.vertex)))
            if r < 1e-14 * (1.0 + scale):
                continue  # the eigenfield traction has no value at the vertex
        t = np.asarray(traction(x[None, :], n), dtype=float).reshape(2)
        if split and singular_field is not None:
            t = t - singular_field.traction(x[None, :], n).reshape(2)
        p = _basis(x[None, :], center, scale, degree)[0]
        z = np.zeros(m)
        rows.append(np.concatenate([n[0] * p, z, n[1] * p]))
        rhs.append(t[0])
        rows.append(np.concatenate([z, n[1] * p, n[0] * p]))
        rhs.append(t[1])

    # -- compatibility (degree 2) -------------------------------------------
    if degree >= 2:
        mono = _MONOMIALS[2]
        i_xx, i_xy, i_yy = mono.index((2, 0)), mono.index((1, 1)), mono.index((0, 2))
        row = np.zeros(3 * m)
        C = compliance
        for j in range(3):  # stress component index within (sxx, syy, sxy)
            row[j * m + i_yy] += 2.0 * C[0, j]  # d2(eps_xx)/dy2
            row[j * m + i_xx] += 2.0 * C[1, j]  # d2(eps_yy)/dx2
            row[j * m + i_xy] -= C[2, j]  # d2(gamma_xy)/dxdy
        rows.append(row)
        rhs.append(0.0)

    if not rows:
        return np.zeros((0, 3 * m)), np.zeros(0)
    return np.array(rows), np.array(rhs)


def _orthonormalize_constraints(
    C: np.ndarray, d: np.ndarray, node_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop dependent rows (relative pivot < 1e-10) via Gram-Schmidt.

    Raises RecoveryError for inconsistent dependent rows (same left-hand
    side, conflicting right-hand side) — that signals bad input data.
    """
    kept_C: list[np.ndarray] = []
    kept_d: list[float] = []
    for row, val in zip(C, d):
        norm0 = np.linalg.norm(row)
        if norm0 == 0.0:
            if abs(val) > 1e-9:
                raise RecoveryError(
                    f"inconsistent constraint (0 = {val:.3e}) in patch {node_id}"
                )
            continue
        v = row / norm0
        w = val / norm0
        for u, e in zip(kept_C, kept_d):
            proj = v @ u
            v = v - proj * u
            w = w - proj * e
        nv = np.linalg.norm(v)
        if nv < 1e-10:
            if abs(w) > 1e-8:
                raise RecoveryError(
                    f"inconsistent dependent constraint in patch {node_id} "
                    f"(residual {w:.3e})"
                )
            continue
        kept_C.append(v / nv)
        kept_d.append(w / nv)
    if not kept_C:
        return np.zeros((0, C.shape[1])), np.zeros(0)
    return np.array(kept_C), np.array(kept_d)


# ---------------------------------------------------------------------------
# patch fitting
# ---------------------------------------------------------------------------


def fit_patch(
    node_id: int,
    positions: np.ndarray,
    stresses: np.ndarray,
    weights: np.ndarray,
    degree: int,
    constraints: tuple[np.ndarray, np.ndarray] | None = None,
    center: np.ndarray | None = None,
    scale: float | None = None,
) -> PatchFit:
    """Weighted least-squares fit of the patch samples, KKT-constrained.

    Minimizes sum_s w_s |p(x_s) a_j - sigma_j(x_s)|^2 per component subject
    to the (cross-component) constraint rows.  Raises RecoveryError when the
    KKT system is singular.
    """
    if center is None:
        center = positions.mean(axis=0)
    if scale is None or scale == 0.0:
        scale = max(np.abs(positions - center).max(), 1e-30)
    m = len(_MONOMIALS[degree])
    P = _basis(positions, center, scale, degree)
    wtot = weights.sum()
    M = (P * weights[:, None]).T @ P / wtot
    b = (P * weights[:, None]).T @ stresses / wtot  # (m, 3)

    A = np.zeros((3 * m, 3 * m))
    rb = np.zeros(3 * m)
    for j in range(3):
        A[j * m : (j + 1) * m, j * m : (j + 1) * m] = M
        rb[j * m : (j + 1) * m] = b[:, j]

    if constraints is not None and len(constraints[0]):
        C, d = constraints
        k = len(C)
        KKT = np.zeros((3 * m + k, 3 * m + k))
        KKT[: 3 * m, : 3 * m] = A
        KKT[: 3 * m, 3 * m :] = C.T
        KKT[3 * m :, : 3 * m] = C
        full_rhs = np.concatenate([rb, d])
    else:
        KKT = A
        full_rhs = rb

    sv = np.linalg.svd(KKT, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise RecoveryError(f"singular patch system at node {node_id}")
    sol = np.linalg.solve(KKT, full_rhs)
    coeffs = sol[: 3 * m].reshape(3, m)
    return PatchFit(node_id, degree, np.asarray(center, float), float(scale), coeffs)


# ---------------------------------------------------------------------------
# the blended field
# ---------------------------------------------------------------------------


class RecoveredStressField:
    """Continuous recovered stress: PU blend of nodal patch polynomials.

    sigma*(x) = sum_I N_I(x) [ sigma*_I(x) + split_I * sigma_sing(x) ] — the
    singular component is added back through the same partition of unity, so
    transition elements (mixing split and unsplit patches) remain continuous.
    """

    def __init__(
        self,
        mesh: Mesh,
        fits: list[PatchFit],
        singular_field: SingularField | None = None,
        split_flags: np.ndarray | None = None,
        config: RecoveryConfig | None = None,
    ):
        if len(fits) != mesh.n_nodes:
            raise RecoveryError("need exactly one patch fit per mesh node")
        self.mesh = mesh
        self.fits = fits
        self.singular_field = singular_field
        self.split_flags = (
            np.zeros(mesh.n_nodes, dtype=bool) if split_flags is None else split_flags
        )
        self.config = config
        # the fits as arrays: one coefficient array (n_nodes, 3, m) per degree,
        # its rows zero for the nodes fitted with the other degree
        self._centers = np.array([f.center for f in fits])
        self._scales = np.array([f.scale for f in fits])
        self._degrees = np.array([f.degree for f in fits])
        self._coeffs = {}
        for degree in np.unique(self._degrees):
            coeffs = np.zeros((len(fits), 3, len(_MONOMIALS[degree])))
            coeffs[self._degrees == degree] = [f.coeffs for f in fits if f.degree == degree]
            self._coeffs[int(degree)] = coeffs

    def evaluate_at_parents(self, element_ids, pts: np.ndarray) -> np.ndarray:
        """sigma* at parent points of elements; ids (n,), pts (q, 2) -> (n, q, 3).

        The blend accumulates over local corners k = 0..3 in turn; each
        corner's patch polynomials are one batched (q, m) @ (m, 3) matmul
        per degree, and the singular field is evaluated once, on the
        elements that touch a split node.
        """
        ids = np.asarray(element_ids, dtype=int)
        pts = np.asarray(pts, dtype=float)
        conn = self.mesh.elements[ids]
        N = shape_functions(pts[:, 0], pts[:, 1])  # (q, 4)
        phys = N @ self.mesh.coords[conn]  # (n, q, 2)
        split = self.split_flags[conn] & (self.singular_field is not None)
        touched = np.nonzero(split.any(axis=1))[0]
        if len(touched):
            sing = self.singular_field.stress(phys[touched])
        out = np.zeros(phys.shape[:-1] + (3,))
        vals = np.empty_like(out)
        for k in range(4):
            self._patch_values(conn[:, k], phys, vals)
            if len(touched):
                hit = split[touched, k]
                vals[touched[hit]] += sing[hit]
            vals *= N[:, k, None]
            out += vals
        return out

    def _patch_values(self, nodes: np.ndarray, phys: np.ndarray, out: np.ndarray) -> None:
        """Patch polynomial of nodes[i] at phys[i] (n, q, 2), written to out (n, q, 3)."""
        for degree, coeffs in self._coeffs.items():
            sel = self._degrees[nodes] == degree
            if sel.all():  # the usual case: no gathered copies
                P = _basis(phys, self._centers[nodes, None], self._scales[nodes, None], degree)
                np.matmul(P, coeffs[nodes].swapaxes(-1, -2), out=out)
            elif sel.any():
                group = nodes[sel]
                P = _basis(phys[sel], self._centers[group, None], self._scales[group, None], degree)
                out[sel] = np.matmul(P, coeffs[group].swapaxes(-1, -2))

    def evaluate(self, element_id: int, point) -> np.ndarray:
        """sigma* at a physical point inside the given element."""
        corners = self.mesh.element_corners(element_id)
        xi = invert_map(corners, np.asarray(point, float))
        if np.any(np.abs(xi) > 1.0 + 1e-9):
            raise RecoveryError(
                f"point {point} lies outside element {element_id}"
            )
        return self.evaluate_at_parents([element_id], xi[None])[0, 0]


def build_recovered_field(
    solution: DiscreteSolution,
    config: RecoveryConfig,
    singular_field: SingularField | None = None,
    tractions: dict | None = None,
    body_force: tuple[float, float] = (0.0, 0.0),
    bcs=None,
) -> RecoveredStressField:
    """Run the configured recovery over every nodal patch of the solution.

    ``tractions`` (boundary name -> callable) is required for the constrained
    variants whenever the mesh has Neumann edges; ``singular_field`` is
    required for the splitting variants; ``bcs`` only when
    gsif_mode="extracted".
    """
    mesh = solution.mesh
    if config.with_splitting:
        if singular_field is None:
            raise RecoveryError(f"{config.variant} requires a singular field")
        singular_field = singular_stress_estimate(
            singular_field, solution, config.gsif_mode, bcs=bcs
        )

    positions, stresses, weights, per_element = _sampling_arrays(solution)

    split_flags = np.zeros(mesh.n_nodes, dtype=bool)
    smooth = stresses
    if config.with_splitting:
        smooth = smooth_part(positions, stresses, singular_field)
        r_nodes = np.linalg.norm(
            mesh.coords - np.asarray(singular_field.frame.vertex), axis=1
        )
        split_flags = r_nodes < config.splitting_radius

    # Neumann edges per node: collocation applies to the edges the patch
    # node itself lies on (constraining a patch to tractions of edges it
    # merely grazes would override its interior data)
    neumann_by_node: dict[int, list] = {}
    if config.with_constraints:
        for be in mesh.boundary:
            if be.kind != NEUMANN:
                continue
            if tractions is None or be.name not in tractions:
                raise RecoveryError(
                    f"constrained recovery needs a traction for boundary "
                    f"{be.name!r}"
                )
            pa, pb = mesh.coords[be.node_ids[0]], mesh.coords[be.node_ids[1]]
            for n_id in be.node_ids:
                neumann_by_node.setdefault(n_id, []).append(
                    (pa, pb, tractions[be.name])
                )

    compliance = compliance_matrix(solution.material)
    boundary_nodes = set()
    for be in mesh.boundary:
        boundary_nodes.update(be.node_ids)

    fits: list[PatchFit] = []
    for node in range(mesh.n_nodes):
        patch = mesh.node_patch(node)
        idx = (np.asarray(patch)[:, None] * per_element + np.arange(per_element)).ravel()
        pos = positions[idx]
        sig = (smooth if split_flags[node] else stresses)[idx]
        w = weights[idx]
        center = mesh.coords[node]
        scale = max(np.abs(pos - center).max(), 1e-30)

        degree = (
            config.boundary_degree if node in boundary_nodes else config.interior_degree
        )
        edges = neumann_by_node.get(node, []) if config.with_constraints else []
        while True:
            constraints = None
            if config.with_constraints:
                C, d = constraint_rows(
                    degree=degree,
                    center=center,
                    scale=scale,
                    compliance=compliance,
                    collocation=collocation_points(center, edges, degree),
                    singular_field=singular_field,
                    split=bool(split_flags[node]),
                    body_force=body_force,
                )
                constraints = _orthonormalize_constraints(C, d, node)
            try:
                fit = fit_patch(
                    node, pos, sig, w, degree,
                    constraints=constraints, center=center, scale=scale,
                )
                break
            except RecoveryError:
                if degree > 1:
                    log.warning(
                        "patch %d: singular degree-%d system, falling back to "
                        "degree 1", node, degree,
                    )
                    degree = 1
                    continue
                raise
        fits.append(fit)

    return RecoveredStressField(
        mesh,
        fits,
        singular_field=singular_field if config.with_splitting else None,
        split_flags=split_flags,
        config=config,
    )
