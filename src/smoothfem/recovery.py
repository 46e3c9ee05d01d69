"""Patch-based stress recovery: SPR and its constrained / singular variants.

Every mesh node I owns a patch (the elements sharing it).  Raw stresses are
sampled at 2x2 Gauss points per smoothing cell (per element for FEM) into
element-major arrays, one row of samples per element, so a patch gathers its
elements' rows.  A polynomial expansion per stress component is
least-squares fitted over each patch in a node-centered, scaled coordinate
frame.  Variants:

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

Fitting is batched.  Each degree's nodes are grouped by (patch element
count, kept constraint rank) and fitted in chunks of ``CHUNK`` patches; a
chunk gathers its samples, basis, constraints and KKT systems as stacked
arrays.  There is at most one fit pass per degree, degree 2 first, and
each builds one stack of constraint rows: member 0 holds the equilibrium
and compatibility rows (zero right-hand sides) that every interior patch
takes, each node on a Neumann edge has its own member with
its traction collocation rows (built in one pass, one traction call per
boundary name), and the unconstrained variants get one member of zero
rows.  Every member has the same collocation slots, zero rows (which the
Gram-Schmidt skips) where a node has no point.  One Gram-Schmidt
orthonormalizes the stack, and each chunk takes its patches' members.
The batched kernels repeat the per-patch arithmetic bit for bit: dots and
norms are ``np.matmul`` of (B, 1, n) by (B, n, 1) (plus ``np.sqrt``),
``M`` and ``b`` are batched matmuls and the solve a stacked
``np.linalg.solve``; a row that one patch drops is masked out with
``np.where``, never multiplied by zero.  The conditioning check certifies
a chunk's KKT systems regular from ``M`` alone, by one Cholesky
factorization of the shifted stack of ``M`` (the constraint rows are
orthonormal), and takes the stacked ``np.linalg.svd`` test only on a chunk
that the factorization cannot clear.
Failed patches are returned, not raised, and dropped from their chunk with
one mask.  Each patch whose degree-2 system is singular is refitted in the
degree-1 pass, with the patches configured at degree 1, and logs one
"falling back" warning (in node order) after the passes; one PatchFailure,
raised after every patch was tried, names all singular degree-1 systems
and inconsistent constraints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analytic import SingularField
from .elasticity import compliance_matrix
from .mesh import NEUMANN, Mesh, subcell_corners
from .quadmap import mapped_rule, shape_functions
from .solver import SFEM, DiscreteSolution, _parent_batch, boundary_values, row_dot

log = logging.getLogger(__name__)

VARIANTS = ("SPR", "SPR-C", "SPR-X", "SPR-CX")


# patches per fitting batch, a speed as well as a memory choice: enough to
# amortize the batched kernels' call overhead, few enough that a chunk's
# stacks stay small.  On the level-5 cylinder 64 was as fast as 16 to 1024,
# one chunk per group 1.1-1.3x slower with peak RSS 132 MiB against 101
CHUNK = 64

# a KKT system is singular when its smallest singular value is below
# SINGULAR_RATIO times its largest (the SVD test); one that _certified
# proves to have a ratio of at least CERTIFIED_RATIO is regular without the
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

    Node I's has degree degrees[I] and coefficients coeffs[I], (3, 6) over
    the degree-2 monomials in the frame (x - x_I) / scales[I].  The
    degree-1 monomials are the first three, so a degree-1 fit fills columns
    0-2 and its other columns are zero.
    """

    degrees: np.ndarray
    scales: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.degrees, self.scales, self.coeffs):
            a.setflags(write=False)

    def __len__(self) -> int:
        return len(self.degrees)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sampling_arrays(solution: DiscreteSolution):
    """Positions (n_e, k, 2), stresses (n_e, k, 3) and weights (n_e, k).

    Element-major: row e holds element e's k samples.  SFEM: the constant
    stress of each smoothing cell is mapped to the cell's own 2x2 Gauss
    positions (weights = Gauss weight x cell Jacobian), k = 4 nc, cell by
    cell; FEM: the element's 2x2 Gauss points carry the pointwise compatible
    stress, k = 4.
    """
    corners = solution.mesh.coords[solution.mesh.elements]
    if solution.formulation.kind == SFEM:
        _, weight, pos = mapped_rule(subcell_corners(corners, solution.formulation.nc), 2)
        stress = np.broadcast_to(solution.cell_stress[:, :, None], weight.shape + (3,))
    else:
        _, weight, pos = mapped_rule(corners, 2)
        stress = solution.cell_stress
    shape = (len(weight), int(np.prod(weight.shape[1:])))
    return (
        pos.reshape(shape + (2,)),
        stress.reshape(shape + (3,)),  # SFEM: the one copy; FEM: a read-only view
        weight.reshape(shape),
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
    xs, ys = (1.0, xh, xh * xh), (1.0, yh, yh * yh)  # xh**i bit for bit, i = 0, 1, 2
    mono = _MONOMIALS[degree]
    P = np.empty(xh.shape + (len(mono),))
    for c, (i, j) in enumerate(mono):
        np.multiply(xs[i], ys[j], out=P[..., c])
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
    traction is the same callable share an id) in ``mesh.boundary_arrays`` order;
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
) -> tuple[np.ndarray, np.ndarray]:
    """Traction collocation rows sigma*(x_c) . n = t(x_c) of K patches.

    ``nodes`` (K,) lie on Neumann edges; scale and split (K,) are their
    patches' frame scales and split flags.  One pass builds every node's
    collocation points (see collocation_points), their right-hand sides and
    rows, two per point (x then y traction): each traction function is
    called once, on all points of its boundary with one unit normal (n, 2)
    per point.  For split patches the singular traction moves to the
    right-hand side, and a point at the notch vertex, where that traction
    has no value, is skipped.  Returns rows (K, 2(degree+1), 3m) and rhs
    (K, 2(degree+1)), two per slot: a slot a node does not use holds zero
    rows with zero right-hand sides.
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
    rows[~valid] = 0.0
    return rows.reshape(len(nodes), -1, 3 * m), t.reshape(len(nodes), -1)


def _orthonormalize_constraints(
    C: np.ndarray, d: np.ndarray, node_ids
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
    """Drop dependent rows (relative pivot < 1e-10) via Gram-Schmidt, per patch.

    C (B, k, n) and d (B, k) hold the constraints of B patches, those with
    fewer rows holding zero rows with zero right-hand sides anywhere among
    them (as _constraints stacks a fit pass's patches).  Returns (Q, e,
    rank, failures): patch i keeps its rank[i] orthonormalized rows as
    Q[i, :rank[i]] with right-hand sides e[i, :rank[i]]; the rows past its
    rank are zero.  Rows go one at a time over the whole batch, and a row
    that a patch drops (a zero row with a zero right-hand side among them)
    leaves that patch's state untouched (np.where), so every patch sees the
    same arithmetic as alone.

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
        # a zero row (a slot a patch does not use) is never kept: divide it
        # by 1 so that it carries no nan through the projections
        norm = np.where(zero, 1.0, norm0)
        v = row / norm[:, None]
        w = val / norm
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


def _certified(M: np.ndarray, k: int) -> bool:
    """Whether every KKT system [[I3 (x) M, C^T], [C, 0]] of the stack has
    sv_min / sv_max >= CERTIFIED_RATIO, judged from M (B, m, m) alone.

    C (B, k, 3m) has orthonormal rows, so with mu- <= mu+ the extreme
    eigenvalues of M, every |eigenvalue| of the KKT matrix lies in
    [min(mu-, 1 / h), h], h = (mu+ + sqrt(mu+^2 + 4)) / 2 (Rusten & Winther
    1992), and in [mu-, mu+] when k = 0.  Taking h at t = trace M >= mu+
    (h = t when k = 0), the ratio is at least CERTIFIED_RATIO when
    1 / h >= CERTIFIED_RATIO h and mu- >= CERTIFIED_RATIO h.  One Cholesky
    factorization of the stack M - s I, s = CERTIFIED_RATIO h + (m + 1)^2 eps t,
    proves the latter: it completes only if M - s I + E is definite for some
    ||E|| <= (m + 1) eps t to first order (Demmel 1989), and the rest of the
    slack covers the rounding of t, s and the shift.  Modified Gram-Schmidt
    keeps C C^T within about eps times the rows' condition number of I
    (Bjorck 1967); even ||C C^T - I|| = 1/2 moves the ratio by less than 3x,
    far inside the 100x gap to SINGULAR_RATIO.
    """
    m = M.shape[-1]
    t = np.trace(M, axis1=-2, axis2=-1)
    h = 0.5 * (t + np.hypot(t, 2.0)) if k else t  # hypot: sqrt(t^2 + 4) without overflow
    if k and np.any(CERTIFIED_RATIO * h * h > 1.0):
        return False
    s = CERTIFIED_RATIO * h + (m + 1) ** 2 * np.finfo(float).eps * t
    try:
        np.linalg.cholesky(M - s[:, None, None] * np.eye(m))
    except np.linalg.LinAlgError:
        return False
    return True


def fit_patch(
    node_ids,
    positions: np.ndarray,
    stresses: np.ndarray,
    weights: np.ndarray,
    degree: int,
    constraints: tuple[np.ndarray, np.ndarray],
    *,
    center: np.ndarray,
    scale: np.ndarray,
) -> tuple[np.ndarray, dict[int, str]]:
    """Weighted least-squares fits of a batch of patches, KKT-constrained.

    Patch i minimizes sum_s w_is |p(x_is) a_j - sigma_ij(x_is)|^2 per
    component subject to its (cross-component) constraint rows.  Shapes:
    positions (B, n, 2), stresses (B, n, 3), weights (B, n), center (B, 2),
    scale (B,); constraints (C (B, k, 3m), d (B, k)) with the same k for
    every patch and orthonormal rows, as _orthonormalize_constraints keeps
    them; k = 0 fits without constraints.  Returns the coefficients
    (n_ok, 3, m) of the patches whose KKT system is regular, in batch
    order, and ``failures`` (node id -> reason) for the singular ones; only
    the regular systems are solved.

    A KKT system is singular when its singular values span a ratio below
    SINGULAR_RATIO.  A batch that _certified clears (one Cholesky
    factorization of the shifted stack of M) is regular without an SVD;
    otherwise every system of the batch takes the SVD test, so the decision
    equals the SVD's on every system.
    """
    node_ids = np.asarray(node_ids)
    B = len(positions)
    m = len(_MONOMIALS[degree])
    P = _basis(positions, center[:, None], scale[:, None], degree)  # (B, n, m)
    wtot = weights.sum(axis=-1)[:, None, None]
    PwT = (P * weights[..., None]).swapaxes(-1, -2)
    M = np.matmul(PwT, P) / wtot
    b = np.matmul(PwT, stresses) / wtot  # (B, m, 3)

    C, d = constraints
    k = C.shape[1]
    KKT = np.zeros((B, 3 * m + k, 3 * m + k))
    rhs = np.zeros((B, 3 * m + k))
    for j in range(3):
        KKT[:, j * m : (j + 1) * m, j * m : (j + 1) * m] = M
        rhs[:, j * m : (j + 1) * m] = b[..., j]
    KKT[:, : 3 * m, 3 * m :] = C.swapaxes(-1, -2)
    KKT[:, 3 * m :, : 3 * m] = C
    rhs[:, 3 * m :] = d

    singular = np.zeros(B, dtype=bool)
    if not _certified(M, k):
        sv = np.linalg.svd(KKT, compute_uv=False)
        singular = sv[:, -1] < SINGULAR_RATIO * sv[:, 0]
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
        """sigma* at parent points (q, 2) or (n, q, 2) of elements (n,); (n, q, 3).

        The blend accumulates over local corners k = 0..3 in turn; each
        corner's patch polynomials are one batched (q, 6) @ (6, 3) matmul
        over the degree-2 monomials, whatever the nodes' degrees, and the
        singular field is evaluated once, on the elements that touch a split
        node.  Raises RecoveryError naming the first element id out of range
        or point not in [-1, 1]^2.
        """
        ids, pts = _parent_batch(element_ids, pts, self.mesh.n_elements, RecoveryError)
        conn = self.mesh.elements[ids]
        N = shape_functions(pts[..., 0], pts[..., 1])  # (q, 4) or (n, q, 4)
        phys = N @ self.mesh.coords[conn]  # (n, q, 2)
        split = self.split_flags[conn] & (self.singular_field is not None)
        touched = np.nonzero(split.any(axis=1))[0]
        if len(touched):
            sing = self.singular_field.stress(phys[touched])
        out = np.zeros(phys.shape[:-1] + (3,))
        vals = np.empty_like(out)
        for k in range(4):
            nodes = conn[:, k]
            P = _basis(phys, self.mesh.coords[nodes, None], self.fits.scales[nodes, None], 2)
            np.matmul(P, self.fits.coeffs[nodes].swapaxes(-1, -2), out=vals)
            del P  # else two corners' bases are alive at once, and peak memory grows
            if len(touched):
                hit = split[touched, k]
                vals[touched[hit]] += sing[hit]
            vals *= N[..., k, None]
            out += vals
        return out


def _constraints(mesh, neumann, nodes, degree, compliance, scales, split, singular_field):
    """One Gram-Schmidt stack (Q, e, rank), each node's member of it, and
    the inconsistent members' reasons (node id -> reason).

    A patch's constraints C a = d are, in order: internal equilibrium
    div sigma* = 0 (no body force; one scalar row per monomial of degree-1
    per equation), its traction collocation rows and (degree 2) the
    compatibility equation.  Member i > 0 of the stack is the i-th node
    with collocation rows, member 0 the interior rows, which every node
    without them takes.  Every member is laid out [equilibrium | collocation
    slots | compatibility] at one width: member 0's slots, and the slots a
    node does not use, are zero rows with zero right-hand sides, which the
    Gram-Schmidt skips, so each member's (Q, e, rank) equals that of its
    nonzero rows alone.  Inconsistent members get rank -1.
    """
    eq, compat = _equilibrium_rows(degree), _compatibility_rows(degree, compliance)
    member = np.zeros(len(nodes), dtype=int)
    on = np.nonzero(neumann.on[nodes, 0] >= 0)[0]
    member[on] = np.arange(1, len(on) + 1)
    R, r = np.zeros((0, 0, eq.shape[1])), np.zeros((0, 0))
    if len(on):
        R, r = collocation_rows(
            mesh, neumann, nodes[on], degree,
            scale=scales[nodes[on]], split=split[nodes[on]], singular_field=singular_field,
        )
    slots = slice(len(eq), len(eq) + R.shape[1])
    C = np.zeros((len(on) + 1, slots.stop + len(compat), eq.shape[1]))
    d = np.zeros(C.shape[:2])
    C[:, : slots.start], C[:, slots.stop :] = eq, compat
    C[1:, slots], d[1:, slots] = R, r
    # member 0's right-hand sides are zero, so it never fails
    ids = np.concatenate([[-1], nodes[on]])
    Q, e, rank, failures = _orthonormalize_constraints(C, d, ids)
    rank[np.isin(ids, list(failures))] = -1
    return Q, e, rank, member, failures


def _gather(mesh, chunk, size, positions, stresses, smooth, weights, split):
    """(positions, stresses, weights) of patches of ``size`` elements each.

    Shapes (B, n, 2), (B, n, 3), (B, n) with n = size * k, the patch
    elements' samples in turn; split patches read the smooth part of the
    stresses.
    """
    B = len(chunk)
    elems = mesh.patch_elements[mesh.patch_offsets[chunk][:, None] + np.arange(size)]
    sig = stresses[elems]  # (B, size, k, 3)
    split = split[chunk]
    if split.any():
        sig[split] = smooth[elems[split]]
    return positions[elems].reshape(B, -1, 2), sig.reshape(B, -1, 3), weights[elems].reshape(B, -1)


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

    positions, stresses, weights = _sampling_arrays(solution)

    split_flags = np.zeros(mesh.n_nodes, dtype=bool)
    smooth = stresses
    if config.with_splitting:
        r_nodes = np.linalg.norm(
            mesh.coords - np.asarray(singular_field.frame.vertex), axis=1
        )
        split_flags = r_nodes < config.splitting_radius
        # only split patches read sigma_h - sigma_sing: it is taken on every
        # element touching a split node, beyond the radius too, so that a
        # transition patch sees one field rather than a mix of the two
        touched = np.nonzero(split_flags[mesh.elements].any(axis=1))[0]
        smooth = stresses.copy()
        smooth[touched] -= singular_field.stress(positions[touched])

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
    configured = np.where(on_boundary, config.boundary_degree, config.interior_degree)

    # each finished fit sets its node's entry of degrees and columns 0..m-1
    # of its row of coeffs; a refitted patch keeps its degree-2 columns zero
    degrees = np.zeros(mesh.n_nodes, dtype=int)
    coeffs = np.zeros((mesh.n_nodes, 3, len(_MONOMIALS[2])))
    scales = _patch_scales(mesh, positions)
    compliance = compliance_matrix(solution.material)
    failures: dict[int, str] = {}
    fallen = np.zeros(0, dtype=int)
    for degree in (2, 1):
        # one pass per degree; the degree-1 pass also refits every patch
        # whose degree-2 system is singular
        nodes = np.union1d(np.nonzero(configured == degree)[0], fallen)
        if not len(nodes):
            continue
        if neumann is None:  # plain variants: one member of zero rows
            Q, e = np.zeros((1, 0, 3 * len(_MONOMIALS[degree]))), np.zeros((1, 0))
            rank, member = np.zeros(1, dtype=int), np.zeros(len(nodes), dtype=int)
        else:
            Q, e, rank, member, inconsistent = _constraints(
                mesh, neumann, nodes, degree, compliance, scales, split_flags, singular_field
            )
            failures.update(inconsistent)
        # nodes are grouped by patch size and kept rank (-1: inconsistent
        # rows, not fitted), so each chunk stacks arrays of one shape and
        # makes one fit_patch call on its patches' members of the stack
        group = np.stack([sizes[nodes], rank[member]], axis=1)
        singular: dict[int, str] = {}
        for size, r in np.unique(group[group[:, 1] >= 0], axis=0).tolist():
            sel = np.nonzero((group == (size, r)).all(axis=1))[0]
            for start in range(0, len(sel), CHUNK):
                part = sel[start : start + CHUNK]
                chunk, m = nodes[part], member[part]
                pos, sig, w = _gather(
                    mesh, chunk, size, positions, stresses, smooth, weights, split_flags
                )
                fitted, failed = fit_patch(
                    chunk, pos, sig, w, degree, (Q[m, :r], e[m, :r]),
                    center=mesh.coords[chunk], scale=scales[chunk],
                )
                singular.update(failed)
                ok = chunk[~np.isin(chunk, list(failed))]
                coeffs[ok, :, : fitted.shape[-1]] = fitted
                degrees[ok] = degree
        if degree == 2:
            fallen = np.array(sorted(singular), dtype=int)
        else:
            failures.update(singular)
    for node in fallen:
        log.warning("patch %d: singular degree-2 system, falling back to degree 1", node)
    if failures:
        raise PatchFailure(failures)

    return RecoveredStressField(
        mesh,
        PatchFits(degrees, scales, coeffs),
        singular_field=singular_field if config.with_splitting else None,
        split_flags=split_flags,
    )


def _patch_scales(mesh: Mesh, positions: np.ndarray) -> np.ndarray:
    """Per node, the largest |x - x_I| component over its patch's samples.

    Rounding x - x_I is monotone in x, so each patch element's lowest and
    highest sample coordinates, measured from the node, give it exactly; the
    maximum over the node's patch row is exact in any order, and at least
    1e-30, so a scaled frame always exists.  Every node needs a patch.
    """
    by_sample = np.ascontiguousarray(positions.swapaxes(0, 1))  # (k, n_e, 2): reduce the long axis
    lo, hi = by_sample.min(axis=0), by_sample.max(axis=0)  # (n_e, 2)
    elems = mesh.patch_elements
    c = np.repeat(mesh.coords, np.diff(mesh.patch_offsets), axis=0)  # each pair's node
    reach = np.maximum.reduceat(
        np.maximum(np.abs(hi[elems] - c), np.abs(lo[elems] - c)), mesh.patch_offsets[:-1]
    )  # (n_nodes, 2)
    return np.maximum(np.maximum(reach[:, 0], reach[:, 1]), 1e-30)
