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
patches; a chunk gathers its samples, basis, constraints and KKT systems as
stacked arrays.  The equilibrium and compatibility rows (zero right-hand
sides) depend only on the degree: interior patches share one orthonormalized
basis per degree and fit pass, broadcast to every chunk.  The traction
collocation rows of all nodes on Neumann edges are built in one pass per
degree (one traction call per boundary name); each chunk slices its own and
orthonormalizes its stack.  The batched kernels repeat the per-patch
arithmetic bit for bit: dots and norms are ``np.matmul`` of (B, 1, n) by
(B, n, 1) (plus ``np.sqrt``), ``M`` and ``b`` are batched matmuls and the
solve a stacked ``np.linalg.solve``; a row that one patch drops is masked
out with ``np.where``, never multiplied by zero.  The conditioning check
certifies most KKT systems regular from eigenvalue bounds (the spectra of
``M`` and ``C C^T``, stacked ``np.linalg.eigvalsh``) and takes the stacked
``np.linalg.svd`` test only on the systems the bound cannot clear.  Failed
patches are returned, not raised, and dropped from their chunk with one
mask.  Each patch whose degree-2 system is singular logs one "falling back"
warning (in node order) and is refitted at degree 1; one PatchFailure,
raised after every patch was tried, names all singular degree-1 systems and
inconsistent constraints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analytic import SingularField
from .elasticity import compliance_matrix
from .mesh import NEUMANN, Mesh
from .quadmap import gauss_points_2d, jacobian_det, map_point, shape_functions
from .solver import SFEM, DiscreteSolution, boundary_values, row_dot

log = logging.getLogger(__name__)

VARIANTS = ("SPR", "SPR-C", "SPR-X", "SPR-CX")


# patches per fitting batch: enough to amortize the batched kernels' call
# overhead, few enough that a chunk's gathered samples and KKT stack stay
# small next to the whole-mesh arrays
CHUNK = 64

# a KKT system is singular when its smallest singular value is below
# SINGULAR_RATIO times its largest (the SVD test); one whose eigenvalue
# bounds give a ratio of at least CERTIFIED_RATIO is regular without the
# SVD: the 100x margin is far wider than the SVD's own rounding of the
# ratio (about n * eps), so both tests reach the same decision
SINGULAR_RATIO = 1e-12
CERTIFIED_RATIO = 1e-10


class RecoveryError(RuntimeError):
    """Patch fitting failed (singular constrained system, bad config...)."""


class PatchFailure(RecoveryError):
    """Patches whose fit failed.

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
        if self.with_splitting and not self.splitting_radius >= 0.0:  # NaN fails too
            raise RecoveryError(f"splitting radius must be >= 0, got {self.splitting_radius}")
        if self.gsif_mode not in ("exact", "extracted"):
            raise RecoveryError(f"unknown gsif_mode {self.gsif_mode!r}")

    @property
    def with_constraints(self) -> bool:
        return self.variant in ("SPR-C", "SPR-CX")

    @property
    def with_splitting(self) -> bool:
        return self.variant in ("SPR-X", "SPR-CX")


@dataclass(frozen=True)
class PatchFits:
    """Every node's patch polynomial, as read-only arrays.

    Node I's has degree degrees[I] and coefficients coeffs[degrees[I]][I],
    (3, m) over the monomials of that degree in the frame (x - x_I) /
    scales[I]; a degree's (n_nodes, 3, m) array is zero on the other nodes.
    """

    degrees: np.ndarray
    scales: np.ndarray
    coeffs: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        for a in (self.degrees, self.scales, *self.coeffs.values()):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.degrees)


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
    """Outward unit normals (..., 2) of CCW-ordered boundary edges a -> b."""
    tang = pb - pa
    return (
        np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
        / np.hypot(tang[..., 0], tang[..., 1])[..., None]
    )


def collocation_points(
    node_pos: np.ndarray, ends: np.ndarray, two: np.ndarray, same: np.ndarray, degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Traction collocation sets of K boundary nodes, degree + 1 slots each.

    Each node's contiguous boundary section (its 1 or 2 incident Neumann
    edges) gets degree+1 collocation points — the number that pins the
    polynomial traction trace along a straight section exactly, without
    redundant rows whose right-hand sides could disagree:

    * one edge: the node, (degree 2) the midpoint, and the far end, in edge
      order;
    * two edges: both midpoints, plus (degree 2) the node itself with the
      averaged normal — provided both edges carry the same traction function
      (at corners joining differently loaded faces the traction at the
      corner is direction-dependent, so the shared point is skipped).

    node_pos (K, 2); ends (K, 2, 2, 2) the end points a, b of each node's
    first and second edge (a node on one edge repeats it); two (K,) marks
    the nodes on two edges, same (K,) those whose two edges carry the same
    traction function.  Returns points and unit normals (K, S, 2), second
    (K, S), whether a slot takes the second edge's traction, and valid
    (K, S), the slots in use.
    """
    pa, pb = ends[:, :, 0], ends[:, :, 1]  # (K, edge, 2)
    n = edge_normal(pa, pb)
    mid = 0.5 * (pa + pb)
    nav = n[:, 0] + n[:, 1]
    nrm = np.hypot(nav[:, 0], nav[:, 1])
    corner = two & same & (nrm > 1e-12)
    if degree == 1:
        one_edge = [pa[:, 0], pb[:, 0]]
        two_edges, two_normals = [mid[:, 0], mid[:, 1]], [n[:, 0], n[:, 1]]
    else:
        one_edge = [pa[:, 0], mid[:, 0], pb[:, 0]]
        two_edges = [mid[:, 0], mid[:, 1], node_pos]
        two_normals = [n[:, 0], n[:, 1], nav / np.where(corner, nrm, 1.0)[:, None]]
    S = degree + 1
    on_two = two[:, None, None]
    points = np.where(on_two, np.stack(two_edges, axis=1), np.stack(one_edge, axis=1))
    normals = np.where(on_two, np.stack(two_normals, axis=1), n[:, :1])
    second = two[:, None] & (np.arange(S) == 1)
    valid = np.ones((len(two), S), dtype=bool)
    if degree >= 2:
        valid[:, 2] = ~two | corner
    return points, normals, second, valid


@dataclass(frozen=True)
class NeumannEdges:
    """The Neumann edges of a mesh, their tractions, and the edges per node.

    ends (E, 2) node ids, names (E,) and traction_ids (E,) (edges whose
    traction is the same callable share an id) in ``mesh.boundary`` order;
    on (n_nodes, 2) each node's first and second Neumann edge in that order
    (-1: none; a node on one edge repeats it).
    """

    ends: np.ndarray
    names: np.ndarray
    traction_ids: np.ndarray
    on: np.ndarray
    tractions: dict


def neumann_edges(mesh: Mesh, tractions: dict | None) -> NeumannEdges:
    """The mesh's Neumann edges, each of whose names needs a traction."""
    edges = mesh.boundary_arrays
    neumann = edges.kinds == NEUMANN
    ends, names = edges.node_ids[neumann], edges.names[neumann]
    for name in dict.fromkeys(names.tolist()):
        if tractions is None or name not in tractions:
            raise RecoveryError(
                f"constrained recovery needs a traction for boundary {name!r}"
            )
    uniq, inverse = np.unique(names, return_inverse=True)
    fns = [tractions[name] for name in uniq.tolist()]
    # names whose traction is the same callable share an id
    ids = np.array([next(i for i, g in enumerate(fns) if g is f) for f in fns], dtype=int)
    count = np.bincount(ends.ravel(), minlength=mesh.n_nodes)
    if np.any(count > 2):
        node = int(np.argmax(count > 2))
        raise RecoveryError(
            f"node at {mesh.coords[node]} lies on {count[node]} boundary edges"
        )
    edge = np.argsort(ends.ravel(), kind="stable") // 2  # node-major incidences
    first = np.cumsum(count) - count
    on = np.full((mesh.n_nodes, 2), -1)
    has = count > 0
    on[has, 0] = edge[first[has]]
    on[has, 1] = edge[first[has] + count[has] - 1]
    return NeumannEdges(ends, names, ids[inverse], on, dict(tractions or {}))


def _equilibrium_rows(degree: int) -> np.ndarray:
    """Internal equilibrium div sigma* = 0 as coefficient rows.

    One scalar row per monomial of degree-1, first for the x equation, then
    for the y equation; shape (2 m', 3m).
    """
    Dx = _derivative_matrix(degree, 0)
    Dy = _derivative_matrix(degree, 1)
    zero = np.zeros_like(Dx)
    ex = np.hstack([Dx, zero, Dy])  # d(sxx)/dx + d(sxy)/dy
    ey = np.hstack([zero, Dy, Dx])  # d(syy)/dy + d(sxy)/dx
    return np.vstack([ex, ey])


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
    mesh: Mesh,
    neumann: NeumannEdges,
    nodes: np.ndarray,
    degree: int,
    *,
    scale: np.ndarray,
    split: np.ndarray,
    singular_field: SingularField | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Traction collocation rows sigma*(x_c) . n = t(x_c) of K patches.

    ``nodes`` (K,) lie on Neumann edges; scale and split (K,) are their
    patches' frame scales and split flags.  One pass builds every node's
    collocation points (see collocation_points), their right-hand sides and
    rows, two per point (x then y traction): each traction function is
    called once, on all points of its boundary with one unit normal (n, 2)
    per point.  For split patches the singular traction moves to the
    right-hand side, and a point at the notch vertex, where that traction
    has no value, is skipped.  Returns (count (K,), rows (R, 3m), rhs (R,)):
    node i's count[i] rows follow those of nodes 0..i-1.
    """
    m = len(_MONOMIALS[degree])
    on = neumann.on[nodes]  # (K, 2)
    center = mesh.coords[nodes]
    points, normals, second, valid = collocation_points(
        center,
        mesh.coords[neumann.ends[on]],
        on[:, 0] != on[:, 1],
        neumann.traction_ids[on[:, 0]] == neumann.traction_ids[on[:, 1]],
        degree,
    )
    split = split & (singular_field is not None)
    if split.any():
        d = points - np.asarray(singular_field.frame.vertex)
        at_vertex = np.hypot(d[..., 0], d[..., 1]) < 1e-14 * (1.0 + scale)[:, None]
        valid &= ~(split[:, None] & at_vertex)  # no eigenfield traction there
    names = neumann.names[np.where(second, on[:, 1:], on[:, :1])]
    t = np.zeros(points.shape)
    t[valid] = boundary_values(
        neumann.tractions, names[valid], points[valid], normals[valid], RecoveryError
    )
    sel = valid & split[:, None]
    if sel.any():
        t[sel] = t[sel] - singular_field.traction(points[sel], normals[sel])
    p = _basis(points, center[:, None], scale[:, None], degree)  # (K, S, m)
    nx, ny = normals[..., 0, None] * p, normals[..., 1, None] * p
    rows = np.zeros(p.shape[:2] + (2, 3 * m))
    rows[:, :, 0, :m], rows[:, :, 0, 2 * m :] = nx, ny
    rows[:, :, 1, m : 2 * m], rows[:, :, 1, 2 * m :] = ny, nx
    return 2 * valid.sum(axis=1), rows[valid].reshape(-1, 3 * m), t[valid].reshape(-1)


def _orthonormalize_constraints(
    C: np.ndarray, d: np.ndarray, node_ids
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Drop dependent rows (relative pivot < 1e-10) via Gram-Schmidt, per patch.

    C (B, k, n) and d (B, k) hold the constraints of B patches: a chunk's
    collocated stacks, or (B = 1) the rows all interior patches share.
    Returns (Q, e, rank, failures): patch i keeps its rank[i]
    orthonormalized rows as Q[i, :rank[i]] with right-hand sides
    e[i, :rank[i]]; the rows past its rank are zero.  Rows go one at a time
    over the whole batch, and a row that a patch drops leaves that patch's
    state untouched (np.where), so every patch sees the same arithmetic as
    alone.

    ``failures`` maps node id -> reason for the patches with inconsistent
    rows — a zero row with a nonzero right-hand side, or a dependent row
    whose right-hand side conflicts — which signal bad input data; their
    Q, e and rank are not meaningful.
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
        norm0 = np.sqrt(row_dot(row, row))
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
            proj = row_dot(v, u)
            kept = rank > j
            v = np.where(kept[:, None], v - proj[:, None] * u, v)
            w = np.where(kept, w - proj * e[:, j], w)
        nv = np.sqrt(row_dot(v, v))
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
    return Q, e, rank, failures


# ---------------------------------------------------------------------------
# patch fitting
# ---------------------------------------------------------------------------


def _kkt_ratio_bound(M: np.ndarray, C: np.ndarray | None) -> np.ndarray:
    """Lower bound on sv_min / sv_max of each KKT system [[I3 (x) M, C^T], [C, 0]].

    M (B, m, m) is symmetric positive semidefinite, C (B, k, 3m) with k > 0,
    or None.  With mu- <= mu+ the extreme eigenvalues of M and s- <= s+ those
    of C C^T (the squared singular values of C), every |eigenvalue| of the
    symmetric KKT matrix lies in [lo, hi] when mu- > 0 (Rusten & Winther
    1992; Benzi, Golub & Liesen 2005, section 3.4):

        lo = min(mu-, 2 s- / (mu+ + sqrt(mu+^2 + 4 s-)))
        hi = (mu+ + sqrt(mu+^2 + 4 s+)) / 2

    lo is the cancellation-free form of (sqrt(mu+^2 + 4 s-) - mu+) / 2.  The
    bound's other candidate for hi, (sqrt(mu-^2 + 4 s+) - mu-) / 2, is at
    most sqrt(s+) and so never the larger when mu- > 0.  Returns lo / hi, and
    0 where mu- <= 0 (no bound); without constraints lo / hi = mu- / mu+.
    A C broadcast over the batch (stride 0) has its spectrum taken once.
    """
    n = 3 * M.shape[-1] + (0 if C is None else C.shape[1])
    # the computed eigenvalues (and the product C C^T) err by a few n eps of
    # the largest one; lowering mu- and s- by n^2 eps of it keeps lo a lower
    # bound, where a zero s- could otherwise come back as eps * s+
    slack = n * n * np.finfo(float).eps
    mu = np.linalg.eigvalsh(M)
    mu_hi = mu[:, -1]
    lo = mu_lo = mu[:, 0] - slack * mu_hi
    hi = mu_hi
    if C is not None:
        if C.strides[0] == 0:  # rows shared by every patch: one spectrum
            C = C[:1]
        s2 = np.linalg.eigvalsh(np.matmul(C, C.swapaxes(-1, -2)))
        s_hi = np.maximum(s2[:, -1], 0.0)
        s_lo = np.maximum(s2[:, 0] - slack * s_hi, 0.0)
        # hypot(mu, 2 sqrt(s)) = sqrt(mu^2 + 4 s), without overflow
        den = mu_hi + np.hypot(mu_hi, 2.0 * np.sqrt(s_lo))
        lo = np.minimum(mu_lo, np.divide(2.0 * s_lo, den, out=np.zeros_like(den), where=den > 0))
        hi = 0.5 * (mu_hi + np.hypot(mu_hi, 2.0 * np.sqrt(s_hi)))
    return np.divide(lo, hi, out=np.zeros_like(lo), where=mu_lo > 0)


def fit_patch(
    node_ids,
    positions: np.ndarray,
    stresses: np.ndarray,
    weights: np.ndarray,
    degree: int,
    constraints: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    center: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, dict[int, str]]:
    """Weighted least-squares fits of a batch of patches, KKT-constrained.

    Patch i minimizes sum_s w_is |p(x_is) a_j - sigma_ij(x_is)|^2 per
    component subject to its (cross-component) constraint rows.  Shapes:
    positions (B, n, 2), stresses (B, n, 3), weights (B, n), center (B, 2),
    scale (B,); constraints (C (B, k, 3m), d (B, k)) with the same k for
    every patch, as _orthonormalize_constraints keeps them.  Returns the
    coefficients (n_ok, 3, m) of the patches whose KKT system is regular,
    in batch order, and ``failures`` (node id -> reason) for the singular
    ones; only the regular systems are solved.

    A KKT system is singular when its singular values span a ratio below
    SINGULAR_RATIO.  Systems whose eigenvalue bounds (_kkt_ratio_bound)
    span at least CERTIFIED_RATIO are regular without an SVD; only the
    others take the SVD test, so the decision equals the SVD's on every
    system.
    """
    node_ids = np.asarray(node_ids)
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

    check = np.nonzero(_kkt_ratio_bound(M, constraints[0] if k else None) < CERTIFIED_RATIO)[0]
    singular = np.zeros(B, dtype=bool)
    if len(check):
        sv = np.linalg.svd(KKT[check], compute_uv=False)
        singular[check] = sv[:, -1] < SINGULAR_RATIO * sv[:, 0]
    failures = {int(n): f"singular patch system at node {n}" for n in node_ids[singular]}
    ok = ~singular
    sol = np.linalg.solve(KKT[ok], rhs[ok, :, None])[..., 0]
    return sol[:, : 3 * m].reshape(-1, 3, m), failures


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
        fits: PatchFits,
        singular_field: SingularField | None,
        split_flags: np.ndarray,
    ):
        if len(fits) != mesh.n_nodes:
            raise RecoveryError("need exactly one patch fit per mesh node")
        self.mesh = mesh
        self.fits = fits
        self.singular_field = singular_field
        self.split_flags = split_flags

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
        centers, scales = self.mesh.coords, self.fits.scales
        for degree, coeffs in self.fits.coeffs.items():
            sel = self.fits.degrees[nodes] == degree
            if sel.all():  # the usual case: no gathered copies
                P = _basis(phys, centers[nodes, None], scales[nodes, None], degree)
                np.matmul(P, coeffs[nodes].swapaxes(-1, -2), out=out)
            elif sel.any():
                group = nodes[sel]
                P = _basis(phys[sel], centers[group, None], scales[group, None], degree)
                out[sel] = np.matmul(P, coeffs[group].swapaxes(-1, -2))


def build_recovered_field(
    solution: DiscreteSolution,
    config: RecoveryConfig,
    singular_field: SingularField | None = None,
    tractions: dict | None = None,
    bcs=None,
) -> RecoveredStressField:
    """Run the configured recovery over every nodal patch of the solution.

    ``tractions`` (boundary name -> callable) is required for the constrained
    variants whenever the mesh has Neumann edges; ``singular_field`` is
    required for the splitting variants; ``bcs`` only when
    gsif_mode="extracted".  Every patch is fitted before a failure is
    reported: one PatchFailure then names every failing node.
    """
    mesh = solution.mesh
    if config.with_splitting:
        if singular_field is None:
            raise RecoveryError(f"{config.variant} requires a singular field")
        if config.gsif_mode == "extracted":
            if bcs is None:
                raise RecoveryError("extracted gsif_mode needs the solution's bcs")
            # looked up per call, so a wrapped gsif.extract_gsifs (tracing) runs
            from .gsif import extract_gsifs

            est = extract_gsifs(solution, singular_field, bcs)
            singular_field = singular_field.with_gsifs(est.K_I, est.K_II)

    positions, stresses, weights, per_element = _sampling_arrays(solution)

    split_flags = np.zeros(mesh.n_nodes, dtype=bool)
    smooth = stresses
    if config.with_splitting:
        # subtracted everywhere, not only within the radius: a transition
        # patch then sees the one field sigma_h - sigma_sing, where a mix of
        # the two would defeat its polynomial fit
        smooth = stresses - singular_field.stress(positions)
        r_nodes = np.linalg.norm(
            mesh.coords - np.asarray(singular_field.frame.vertex), axis=1
        )
        split_flags = r_nodes < config.splitting_radius

    # collocation applies to the Neumann edges the patch node itself lies on
    # (constraining a patch to tractions of edges it merely grazes would
    # override its interior data)
    neumann = neumann_edges(mesh, tractions) if config.with_constraints else None

    sizes = np.diff(mesh.patch_offsets)
    if len(sizes) and sizes.min() == 0:
        raise RecoveryError(
            f"node {int(np.argmin(sizes))} belongs to no element, so it has no patch"
        )
    on_boundary = np.zeros(mesh.n_nodes, dtype=bool)
    on_boundary[mesh.boundary_arrays.node_ids] = True
    degrees = np.where(on_boundary, config.boundary_degree, config.interior_degree)

    fitter = _PatchFitter(
        mesh, positions, stresses, smooth, weights, per_element, split_flags,
        constrained=config.with_constraints,
        neumann=neumann,
        compliance=compliance_matrix(solution.material),
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
    for node in fallen:
        log.warning(
            "patch %d: singular degree-%d system, falling back to degree 1",
            node, degrees[node],
        )
    if fitter.failures:
        raise PatchFailure(fitter.failures)

    return RecoveredStressField(
        mesh,
        PatchFits(fitter.degrees, fitter.scales, fitter.coeffs),
        singular_field=singular_field if config.with_splitting else None,
        split_flags=split_flags,
    )


class _PatchFitter:
    """Fits the patches of one recovery, a chunk of CHUNK patches at a time.

    Each ``fit`` call orthonormalizes the interior rows once, as ``shared``
    (Q, e), and chunks without collocation rows fit one stack on read-only
    broadcast views of it (None: unconstrained).  Each node's finished fit
    sets its entry of ``degrees`` and its row of ``coeffs[degree]`` (one
    (n_nodes, 3, m) array per degree fitted), so a refit overwrites them;
    inconsistent constraints collect in ``failures`` (node id -> reason).
    """

    def __init__(self, mesh, positions, stresses, smooth, weights, per_element, split,
                 *, constrained, neumann, compliance, singular_field):
        self.mesh = mesh
        self.positions = positions
        self.stresses = stresses
        self.smooth = smooth
        self.weights = weights
        self.per_element = per_element
        self.split = split
        self.scales = _patch_scales(mesh, positions, per_element)
        self.constrained = constrained
        self.neumann = neumann
        self.compliance = compliance
        self.singular_field = singular_field
        self.degrees = np.zeros(mesh.n_nodes, dtype=int)
        self.coeffs: dict[int, np.ndarray] = {}
        self.failures: dict[int, str] = {}

    def fit(self, nodes: np.ndarray, degree: int) -> dict[int, str]:
        """Fit the nodes' patches at one degree; returns the singular ones.

        Nodes are grouped by patch size and collocation row count, so each
        chunk stacks arrays of one shape.  A patch's constraints C a = d are,
        in order: internal equilibrium div sigma* = 0 (no body force; one
        scalar row per monomial of degree-1 per equation), its traction
        collocation rows, sliced from the one collocation pass over the
        nodes, and (degree 2) the compatibility equation.
        """
        sizes = np.diff(self.mesh.patch_offsets)[nodes]
        n_rows = np.zeros(len(nodes), dtype=int)
        if self.constrained:
            on = self.neumann.on[nodes, 0] >= 0
            if on.any():
                n_rows[on], R, r = collocation_rows(
                    self.mesh, self.neumann, nodes[on], degree,
                    scale=self.scales[nodes[on]], split=self.split[nodes[on]],
                    singular_field=self.singular_field,
                )
        first = np.cumsum(n_rows) - n_rows
        self.coeffs.setdefault(degree, np.zeros((self.mesh.n_nodes, 3, len(_MONOMIALS[degree]))))
        # every interior patch has the same rows: one Gram-Schmidt, not one per chunk
        shared = None
        if self.constrained:
            eq, compat = _equilibrium_rows(degree), _compatibility_rows(degree, self.compliance)
            C = np.vstack([eq, compat])[None]
            Q, e, rank, _ = _orthonormalize_constraints(C, np.zeros(C.shape[:2]), nodes[:1])
            shared = Q[0, : rank[0]], e[0, : rank[0]]
        singular: dict[int, str] = {}
        for size, rows in np.unique(np.stack([sizes, n_rows], axis=1), axis=0).tolist():
            sel = np.nonzero((sizes == size) & (n_rows == rows))[0]
            for start in range(0, len(sel), CHUNK):
                part = sel[start : start + CHUNK]
                collocated = None
                if rows:
                    idx = first[part, None] + np.arange(rows)
                    B = len(part)
                    C = np.concatenate([np.broadcast_to(eq, (B,) + eq.shape), R[idx],
                                        np.broadcast_to(compat, (B,) + compat.shape)], axis=1)
                    d = np.zeros(C.shape[:2])
                    d[:, len(eq) : len(eq) + rows] = r[idx]
                    collocated = C, d
                singular.update(self._fit_chunk(nodes[part], size, degree, collocated, shared))
        return singular

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

    def _fit_chunk(self, chunk, size, degree, collocated, shared) -> dict[int, str]:
        """Fit one chunk; returns its singular patches (inconsistent ones go to failures).

        ``collocated``: the chunk's constraints (C, d) if it has collocation rows, else None.
        """
        pos, sig, w = self._gather(chunk, size)
        center = self.mesh.coords[chunk]
        scale = self.scales[chunk]
        if collocated is None:
            cons = None if shared is None else tuple(
                np.broadcast_to(a, (len(chunk),) + a.shape) for a in shared
            )
            stacks = [(slice(None), cons)]
        else:
            Q, e, rank, failures = _orthonormalize_constraints(*collocated, chunk)
            self.failures.update(failures)
            ok = ~np.isin(chunk, list(failures))
            # the kept rank decides the KKT size, so each rank is one stack
            stacks = []
            for r in np.unique(rank[ok]).tolist():
                sel = np.nonzero(ok & (rank == r))[0]
                stacks.append((sel, (Q[sel, :r], e[sel, :r])))
        singular: dict[int, str] = {}
        for sel, cons in stacks:
            nodes = chunk[sel]
            coeffs, failed = fit_patch(
                nodes, pos[sel], sig[sel], w[sel], degree, constraints=cons,
                center=center[sel], scale=scale[sel],
            )
            singular.update(failed)
            fitted = nodes[~np.isin(nodes, list(failed))]
            self.coeffs[degree][fitted] = coeffs
            self.degrees[fitted] = degree
        return singular


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
