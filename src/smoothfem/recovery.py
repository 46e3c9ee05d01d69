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

Fitting is batched.  Nodes are grouped by (patch element count, degree,
collocation row count), and each group is fitted in chunks of ``CHUNK``
patches; a chunk gathers its samples, basis, constraints and KKT systems
as stacked arrays.  The equilibrium and compatibility rows depend only on
the degree and are shared by every patch (only their right-hand side
scales per patch); traction collocation rows are built per node, for the
nodes on Neumann edges alone.  The batched kernels repeat the per-patch
arithmetic bit for bit: dots and norms are ``np.matmul`` of (B, 1, n) by
(B, n, 1) (plus ``np.sqrt``), ``M`` and ``b`` are batched matmuls, the
conditioning check is a stacked ``np.linalg.svd`` and the solve a stacked
``np.linalg.solve``; a row that one patch drops is masked out with
``np.where``, never multiplied by zero.  A patch whose degree-2 system is
singular logs one "falling back" warning and is refitted at degree 1.
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


# patches per fitting batch: enough to amortize the batched kernels' call
# overhead, few enough that a chunk's gathered samples and KKT stack stay
# small next to the whole-mesh arrays
CHUNK = 64


class RecoveryError(RuntimeError):
    """Patch fitting failed (singular constrained system, bad config...)."""


class PatchFailure(RecoveryError):
    """Patches of a batch whose fit failed.

    ``failures`` maps each failing node id to its reason, in node order; the
    message is the reason of the lowest node id.
    """

    def __init__(self, failures: dict[int, str]):
        self.failures = dict(sorted(failures.items()))
        super().__init__(next(iter(self.failures.values())))


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


def _equilibrium_rows(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Internal equilibrium div sigma* + b = 0 as coefficient rows.

    One scalar row per monomial of degree-1, first for the x equation, then
    for the y equation; shape (2 m', 3m).  The second array (m',) selects the
    constant monomial, the only one the body force enters.
    """
    Dx = _derivative_matrix(degree, 0)
    Dy = _derivative_matrix(degree, 1)
    zero = np.zeros_like(Dx)
    ex = np.hstack([Dx, zero, Dy])  # d(sxx)/dx + d(sxy)/dy
    ey = np.hstack([zero, Dy, Dx])  # d(syy)/dy + d(sxy)/dx
    const = np.zeros(Dx.shape[0])
    const[0] = 1.0
    return np.vstack([ex, ey]), const


def _compatibility_rows(degree: int, compliance: np.ndarray) -> np.ndarray:
    """The compatibility equation as a coefficient row; (1, 3m) for degree 2,
    (0, 3m) for degree 1, where it holds identically."""
    m = len(_MONOMIALS[degree])
    if degree < 2:
        return np.zeros((0, 3 * m))
    mono = _MONOMIALS[2]
    i_xx, i_xy, i_yy = mono.index((2, 0)), mono.index((1, 1)), mono.index((0, 2))
    row = np.zeros(3 * m)
    C = compliance
    for j in range(3):  # stress component index within (sxx, syy, sxy)
        row[j * m + i_yy] += 2.0 * C[0, j]  # d2(eps_xx)/dy2
        row[j * m + i_xx] += 2.0 * C[1, j]  # d2(eps_yy)/dx2
        row[j * m + i_xy] -= C[2, j]  # d2(gamma_xy)/dxdy
    return row[None]


def collocation_rows(
    *,
    degree: int,
    center: np.ndarray,
    scale: float,
    collocation: list,
    singular_field: SingularField | None = None,
    split: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Traction collocation rows of one patch: sigma*(x_c) . n = t(x_c).

    ``collocation`` is a list of (point, outward unit normal, traction_fn)
    (see collocation_points); two rows (x then y traction) per point,
    shape (2c, 3m) and (2c,).  For split patches the singular traction moves
    to the right-hand side, and a point at the notch vertex, where that
    traction has no value, is skipped.  Traction functions map (positions
    (n, 2), unit normal (2,)) to tractions (n, 2).
    """
    m = len(_MONOMIALS[degree])
    rows, rhs = [], []
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
    if not rows:
        return np.zeros((0, 3 * m)), np.zeros(0)
    return np.array(rows), np.array(rhs)


def constraint_rows(
    *,
    degree: int,
    scale: np.ndarray,
    compliance: np.ndarray,
    collocation: tuple[np.ndarray, np.ndarray] | None = None,
    body_force: tuple[float, float] = (0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Linear constraints C a = d of a batch of B patch fits.

    C is (B, k, 3m) and d (B, k); rows, in deterministic order:

    1. internal equilibrium div sigma* + b = 0, imposed identically in the
       polynomial coefficients (one scalar row per monomial of degree-1,
       per equilibrium equation); the body force enters the right-hand
       side scaled by each patch's ``scale`` (B,);
    2. traction collocation, ``collocation`` = (rows (B, c, 3m), rhs (B, c))
       stacked from collocation_rows, the same c for every patch;
    3. the compatibility equation (nontrivial for degree 2 only).

    Without collocation the rows are the same for every patch, and C is a
    read-only broadcast view of one (k, 3m) array.
    """
    scale = np.asarray(scale, dtype=float)
    B = len(scale)
    eq, const = _equilibrium_rows(degree)
    compat = _compatibility_rows(degree, compliance)
    d_eq = np.concatenate(
        [(-b * scale)[:, None] * const for b in body_force], axis=1
    )
    d_compat = np.zeros((B, len(compat)))
    if collocation is None:
        shared = np.vstack([eq, compat])
        C = np.broadcast_to(shared, (B,) + shared.shape)
        return C, np.concatenate([d_eq, d_compat], axis=1)
    R, r = collocation
    C = np.concatenate(
        [np.broadcast_to(eq, (B,) + eq.shape), R, np.broadcast_to(compat, (B,) + compat.shape)],
        axis=1,
    )
    return C, np.concatenate([d_eq, r, d_compat], axis=1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (B, n) stacks, equal to ndarray.dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _orthonormalize_constraints(
    C: np.ndarray, d: np.ndarray, node_ids
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop dependent rows (relative pivot < 1e-10) via Gram-Schmidt, per patch.

    C (B, k, n) and d (B, k) hold the constraints of B patches (C may be a
    broadcast view).  Returns (Q, e, rank): patch i keeps its rank[i]
    orthonormalized rows as Q[i, :rank[i]] with right-hand sides
    e[i, :rank[i]]; the rows past its rank are zero.  Rows go one at a time
    over the whole batch, and a row that a patch drops leaves that patch's
    state untouched (np.where), so every patch sees the same arithmetic as
    alone.

    Raises PatchFailure for inconsistent rows — a zero row with a nonzero
    right-hand side, or a dependent row whose right-hand side conflicts —
    which signal bad input data; it names every such patch.
    """
    C = np.asarray(C, dtype=float)
    d = np.asarray(d, dtype=float)
    node_ids = np.asarray(node_ids)
    B, k, n = C.shape
    Q = np.zeros((B, k, n))
    e = np.zeros((B, k))
    rank = np.zeros(B, dtype=int)
    failures: dict[int, str] = {}
    for i in range(k):
        row, val = C[:, i], d[:, i]
        norm0 = np.sqrt(_dot(row, row))
        zero = norm0 == 0.0
        for b in np.nonzero(zero & (np.abs(val) > 1e-9))[0]:
            node = int(node_ids[b])
            failures.setdefault(
                node, f"inconsistent constraint (0 = {val[b]:.3e}) in patch {node}"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            v = row / norm0[:, None]
            w = val / norm0
        for j in range(rank.max()):
            u = Q[:, j]
            proj = _dot(v, u)
            kept = rank > j
            v = np.where(kept[:, None], v - proj[:, None] * u, v)
            w = np.where(kept, w - proj * e[:, j], w)
        nv = np.sqrt(_dot(v, v))
        dependent = ~zero & (nv < 1e-10)
        for b in np.nonzero(dependent & (np.abs(w) > 1e-8))[0]:
            node = int(node_ids[b])
            failures.setdefault(
                node,
                f"inconsistent dependent constraint in patch {node} "
                f"(residual {w[b]:.3e})",
            )
        keep = np.nonzero(~zero & ~dependent)[0]
        Q[keep, rank[keep]] = v[keep] / nv[keep, None]
        e[keep, rank[keep]] = w[keep] / nv[keep]
        rank[keep] += 1
    if failures:
        raise PatchFailure(failures)
    return Q, e, rank


# ---------------------------------------------------------------------------
# patch fitting
# ---------------------------------------------------------------------------


def fit_patch(
    node_ids,
    positions: np.ndarray,
    stresses: np.ndarray,
    weights: np.ndarray,
    degree: int,
    constraints: tuple[np.ndarray, np.ndarray] | None = None,
    center: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> list[PatchFit]:
    """Weighted least-squares fits of a batch of patches, KKT-constrained.

    Patch i minimizes sum_s w_is |p(x_is) a_j - sigma_ij(x_is)|^2 per
    component subject to its (cross-component) constraint rows.  Shapes:
    positions (B, n, 2), stresses (B, n, 3), weights (B, n), center (B, 2),
    scale (B,); constraints (C (B, k, 3m), d (B, k)) with the same k for
    every patch, as _orthonormalize_constraints keeps them.  center
    defaults to the sample mean and scale to the largest sample offset.
    Raises PatchFailure naming every patch whose KKT system is singular.
    """
    node_ids = np.asarray(node_ids)
    if center is None:
        center = positions.mean(axis=-2)
    if scale is None:
        scale = np.maximum(np.abs(positions - center[:, None]).max(axis=(-2, -1)), 1e-30)
    B = len(positions)
    m = len(_MONOMIALS[degree])
    P = _basis(positions, center[:, None], scale[:, None], degree)  # (B, n, m)
    wtot = weights.sum(axis=-1)[:, None, None]
    PwT = (P * weights[..., None]).swapaxes(-1, -2)
    M = np.matmul(PwT, P) / wtot
    b = np.matmul(PwT, stresses) / wtot  # (B, m, 3)

    k = 0 if constraints is None else constraints[0].shape[1]
    KKT = np.zeros((B, 3 * m + k, 3 * m + k))
    rhs = np.zeros((B, 3 * m + k))
    for j in range(3):
        KKT[:, j * m : (j + 1) * m, j * m : (j + 1) * m] = M
        rhs[:, j * m : (j + 1) * m] = b[..., j]
    if k:
        C, d = constraints
        KKT[:, : 3 * m, 3 * m :] = C.swapaxes(-1, -2)
        KKT[:, 3 * m :, : 3 * m] = C
        rhs[:, 3 * m :] = d

    sv = np.linalg.svd(KKT, compute_uv=False)
    singular = sv[:, -1] < 1e-12 * sv[:, 0]
    if singular.any():
        raise PatchFailure(
            {int(n): f"singular patch system at node {n}" for n in node_ids[singular]}
        )
    sol = np.linalg.solve(KKT, rhs[..., None])[..., 0]
    coeffs = sol[:, : 3 * m].reshape(B, 3, m)
    return [
        PatchFit(n, degree, c, s, a)
        for n, c, s, a in zip(node_ids.tolist(), center, scale.tolist(), coeffs)
    ]


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
    gsif_mode="extracted".  A failed fit raises PatchFailure naming the
    lowest failing node.
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

    sizes = np.diff(mesh.patch_offsets)
    if len(sizes) and sizes.min() == 0:
        raise RecoveryError(
            f"node {int(np.argmin(sizes))} belongs to no element, so it has no patch"
        )
    on_boundary = np.zeros(mesh.n_nodes, dtype=bool)
    if mesh.boundary:
        on_boundary[np.array([be.node_ids for be in mesh.boundary])] = True
    degrees = np.where(on_boundary, config.boundary_degree, config.interior_degree)

    fitter = _PatchFitter(
        mesh, positions, stresses, smooth, weights, per_element, split_flags,
        constrained=config.with_constraints,
        neumann_by_node=neumann_by_node,
        compliance=compliance_matrix(solution.material),
        body_force=body_force,
        singular_field=singular_field,
    )
    fallen: list[int] = []
    for degree in np.unique(degrees).tolist():
        singular = fitter.fit(np.nonzero(degrees == degree)[0], degree)
        if degree > 1:
            fallen.extend(singular)
        else:
            fitter.failures.update(singular)
    if fallen:
        fallen.sort()
        fitter.failures.update(fitter.fit(np.array(fallen), 1))
    # warn as a node-by-node pass would have: in node order, and only up to
    # the lowest failing node, where that pass would have stopped
    first_failure = min(fitter.failures, default=mesh.n_nodes)
    for node in fallen:
        if node <= first_failure:
            log.warning(
                "patch %d: singular degree-%d system, falling back to degree 1",
                node, degrees[node],
            )
    if fitter.failures:
        raise PatchFailure(fitter.failures)

    return RecoveredStressField(
        mesh,
        fitter.fits,
        singular_field=singular_field if config.with_splitting else None,
        split_flags=split_flags,
        config=config,
    )


class _PatchFitter:
    """Fits the patches of one recovery, a chunk of CHUNK patches at a time.

    Finished fits collect in ``fits`` (by node id) and inconsistent
    constraints in ``failures`` (node id -> reason).
    """

    def __init__(self, mesh, positions, stresses, smooth, weights, per_element, split,
                 *, constrained, neumann_by_node, compliance, body_force, singular_field):
        self.mesh = mesh
        self.positions = positions
        self.stresses = stresses
        self.smooth = smooth
        self.weights = weights
        self.per_element = per_element
        self.split = split
        self.scales = _patch_scales(mesh, positions, per_element)
        self.constrained = constrained
        self.neumann_by_node = neumann_by_node
        self.compliance = compliance
        self.body_force = body_force
        self.singular_field = singular_field
        self.fits: list[PatchFit | None] = [None] * mesh.n_nodes
        self.failures: dict[int, str] = {}

    def fit(self, nodes: np.ndarray, degree: int) -> dict[int, str]:
        """Fit the nodes' patches at one degree; returns the singular ones.

        Nodes are grouped by patch size and collocation row count, so each
        chunk stacks arrays of one shape.
        """
        sizes = np.diff(self.mesh.patch_offsets)[nodes]
        collocation = self._collocation(nodes, degree) if self.constrained else {}
        rows_of = np.zeros(self.mesh.n_nodes, dtype=int)
        rows_of[list(collocation)] = [len(rhs) for _, rhs in collocation.values()]
        n_rows = rows_of[nodes]
        singular: dict[int, str] = {}
        for size, rows in np.unique(np.stack([sizes, n_rows], axis=1), axis=0).tolist():
            group = nodes[(sizes == size) & (n_rows == rows)]
            for start in range(0, len(group), CHUNK):
                chunk = group[start : start + CHUNK]
                coll = None
                if rows:
                    coll = tuple(
                        np.stack(a) for a in zip(*(collocation[n] for n in chunk.tolist()))
                    )
                self._fit_chunk(chunk, size, degree, coll, singular)
        return singular

    def _collocation(self, nodes: np.ndarray, degree: int) -> dict:
        """Collocation (rows, rhs) of the given nodes that lie on Neumann edges."""
        coords = self.mesh.coords
        out = {}
        for node in nodes[np.isin(nodes, list(self.neumann_by_node))].tolist():
            center = coords[node]
            out[node] = collocation_rows(
                degree=degree,
                center=center,
                scale=self.scales[node],
                collocation=collocation_points(center, self.neumann_by_node[node], degree),
                singular_field=self.singular_field,
                split=bool(self.split[node]),
            )
        return out

    def _gather(self, chunk: np.ndarray, size: int):
        """(positions, stresses, weights) of patches of ``size`` elements each.

        Shapes (B, n, 2), (B, n, 3), (B, n) with n = size * per_element; split
        patches read the smooth part of the stresses.
        """
        mesh, k = self.mesh, self.per_element
        elems = mesh.patch_elements[mesh.patch_offsets[chunk][:, None] + np.arange(size)]
        idx = (elems[:, :, None] * k + np.arange(k)).reshape(len(chunk), -1)
        sig = self.stresses[idx]
        split = self.split[chunk]
        if split.any():
            sig[split] = self.smooth[idx[split]]
        return self.positions[idx], sig, self.weights[idx]

    def _fit_chunk(self, chunk, size, degree, collocation, singular) -> None:
        """Fit one chunk; patches with inconsistent rows are left out."""
        pos, sig, w = self._gather(chunk, size)
        center = self.mesh.coords[chunk]
        scale = self.scales[chunk]
        Q = e = None
        rank = np.zeros(len(chunk), dtype=int)
        if self.constrained:
            C, d = constraint_rows(
                degree=degree, scale=scale, compliance=self.compliance,
                collocation=collocation, body_force=self.body_force,
            )
            try:
                Q, e, rank = _orthonormalize_constraints(C, d, chunk)
            except PatchFailure as exc:
                self.failures.update(exc.failures)
                keep = ~np.isin(chunk, list(exc.failures))
                if keep.any():
                    self._fit_chunk(
                        chunk[keep], size, degree,
                        None if collocation is None else tuple(a[keep] for a in collocation),
                        singular,
                    )
                return
        # the kept rank decides the KKT size, so each rank is one stack
        for r in np.unique(rank).tolist():
            sel = np.nonzero(rank == r)[0]
            while len(sel):
                try:
                    batch = fit_patch(
                        chunk[sel], pos[sel], sig[sel], w[sel], degree,
                        constraints=(Q[sel, :r], e[sel, :r]) if r else None,
                        center=center[sel], scale=scale[sel],
                    )
                except PatchFailure as exc:  # refit the others without them
                    singular.update(exc.failures)
                    sel = sel[~np.isin(chunk[sel], list(exc.failures))]
                    continue
                for fit in batch:
                    self.fits[fit.node_id] = fit
                break


def _patch_scales(mesh: Mesh, positions: np.ndarray, per_element: int) -> np.ndarray:
    """Per node, the largest |x - x_I| component over its patch's samples.

    Each element's samples are measured from each of its corners at once and
    the maximum is taken per node, which is exact in any order; at least
    1e-30, so a scaled frame always exists.
    """
    pos = positions.reshape(mesh.n_elements, per_element, 2)
    scale = np.zeros(mesh.n_nodes)
    for k in range(4):
        corner = mesh.elements[:, k]
        reach = np.abs(pos - mesh.coords[corner][:, None, :]).max(axis=(1, 2))
        np.maximum.at(scale, corner, reach)
    return np.maximum(scale, 1e-30)
