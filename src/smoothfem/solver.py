"""Discrete elasticity: smoothed / standard Q4 stiffness, assembly, solve.

Degrees of freedom are interleaved: node i owns dofs (2i, 2i+1) = (u_x, u_y).
Two formulations share all plumbing:

* FEM   — standard isoparametric Q4 with 2x2 Gauss quadrature;
* SFEM  — cell-based strain smoothing: each element is split into nc
  straight-sided subcells, the strain-displacement matrix is the subcell
  boundary average (one Gauss point per edge, which is exact for the bilinear
  trace on straight edges), and the stiffness is the area-weighted sum of the
  constant-strain subcell contributions.

Element operators are built for the whole mesh at once: the subcell geometry
(mesh.subcell_geometry), one batched Newton inversion per (subcell, edge)
slot over all elements for the smoothed B, one batched kernel for the
compatible B at any set of parent points, and stiffnesses, stresses, energy
and the sparse scatter as array operations.  Every kernel reproduces the
per-element arithmetic bit for bit, so an element's operators do not depend
on the batch it was computed in; a one-element mesh gives the same numbers as
that element's row of the whole mesh (see the note above the kernels for the
numpy forms this requires).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elasticity import Material, elasticity_matrix
from .mesh import (
    DIRICHLET,
    NEUMANN,
    Mesh,
    SubcellGeometry,
    subcell_geometry,
    subcell_index_at,
)
from .quadmap import (
    gauss_points_1d,
    gauss_points_2d,
    invert_map,
    jacobian_from_gradients,
    shape_functions,
    shape_gradients,
)

FEM = "fem"
SFEM = "sfem"


class SolveError(RuntimeError):
    """Assembly or linear-solve failure (singular system, bad inputs...)."""


@dataclass(frozen=True)
class Formulation:
    """Discretization choice: kind "fem" or "sfem", subcell count for sfem."""

    kind: str = SFEM
    nc: int = 4

    def __post_init__(self) -> None:
        if self.kind not in (FEM, SFEM):
            raise SolveError(f"unknown formulation kind {self.kind!r}")
        if self.kind == SFEM and self.nc not in (1, 2, 4, 8):
            raise SolveError(f"subcell count must be 1, 2, 4 or 8, got {self.nc}")

    def label(self) -> str:
        return "fem" if self.kind == FEM else f"sfem{self.nc}"


@dataclass(frozen=True)
class DirichletSpec:
    """Prescribed displacement components on a named boundary.

    components: subset of (0, 1) = (u_x, u_y).
    value: callable mapping positions (..., 2) -> displacements (..., 2), or
           None for homogeneous conditions.  Only the listed components are
           constrained.
    """

    components: tuple[int, ...]
    value: object = None  # Callable | None


@dataclass(frozen=True)
class BoundaryConditions:
    """Named boundary data + isolated node pins.

    tractions: name -> callable(positions (n, 2), outward unit normals
        (n, 2)) -> tractions (n, 2), finite; the load vector, the traction
        collocation and the GSIF boundary term each call it once per
        boundary name with all of that boundary's points, one normal per
        point (see traction_values).  Every Neumann boundary name in the
        mesh must be present.  The normal argument keeps corner points
        unambiguous (a traction belongs to an oriented edge, not a
        location).
    dirichlet: name -> DirichletSpec for every Dirichlet boundary name.
    pins: ((node_id, component, value), ...) extra point constraints.
    """

    tractions: dict = field(default_factory=dict)
    dirichlet: dict = field(default_factory=dict)
    pins: tuple = ()


def traction_values(
    tractions: dict, name: str, points: np.ndarray, normals: np.ndarray,
    error: type[Exception] = SolveError,
) -> np.ndarray:
    """tractions[name] at points (n, 2) with normals (n, 2), checked.

    Raises ``error`` naming the boundary unless the callable returns an
    (n, 2) array of finite values.
    """
    t = np.asarray(tractions[name](points, normals), dtype=float)
    if t.shape != points.shape:
        raise error(
            f"traction for boundary {name!r} returned shape {t.shape}, "
            f"expected {points.shape}"
        )
    if not np.all(np.isfinite(t)):
        raise error(f"traction for boundary {name!r} returned non-finite values")
    return t


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (B, n) stacks, equal to ndarray.dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# strain-operator kernels
# ---------------------------------------------------------------------------
#
# Every kernel works on whole batches (all elements of a mesh, or all points
# of one element).  The numpy forms are chosen so each entry is computed exactly as by the scalar
# per-element formulas: batched matmul wherever those used a small matrix
# product (it issues the same per-item BLAS calls), and the einsum of
# quadmap.jacobian_from_gradients for Jacobians (a matmul there rounds
# differently).  Results therefore do not depend on how the mesh is batched.


def strain_matrix(corners: np.ndarray, xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """Compatible B and Jacobian determinant at parent points.

    corners (P, 4, 2) is the quad owning each point, xi/eta (P,) the parent
    coordinates; returns B (P, 3, 8) and det (P,).
    """
    G = shape_gradients(xi, eta)  # (P, 4, 2)
    J = jacobian_from_gradients(G, corners)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(det <= 0.0):
        raise SolveError("non-positive Jacobian inside element")
    invJ = (
        np.stack(
            [
                np.stack([J[:, 1, 1], -J[:, 0, 1]], axis=-1),
                np.stack([-J[:, 1, 0], J[:, 0, 0]], axis=-1),
            ],
            axis=-2,
        )
        / det[:, None, None]
    )
    dN = np.matmul(G, invJ)  # physical gradients: dN/dx_i = dN/dxi_j (J^-1)_ji
    B = np.zeros((len(det), 3, 8))
    B[:, 0, 0::2] = dN[..., 0]
    B[:, 1, 1::2] = dN[..., 1]
    B[:, 2, 0::2] = dN[..., 1]
    B[:, 2, 1::2] = dN[..., 0]
    return B, det


def smoothed_strain_matrices(corners: np.ndarray, cells: SubcellGeometry) -> np.ndarray:
    """Constant smoothed B (n, nc, 3, 8) of every subcell by boundary integration.

    B~_I = (1/A_C) sum_edges N_I(midpoint) [n-structure] l_edge, with the
    shape functions evaluated by Newton inversion of the element's bilinear
    map (corners (n, 4, 2)) at the physical edge midpoints.  Edges are
    accumulated cell by cell in CCW order, one Newton batch of n midpoints
    each.
    """
    n, nc = cells.areas.shape
    B = np.zeros((n, nc, 3, 8))
    for c in range(nc):
        for k in range(4):
            xi = invert_map(corners, cells.edge_midpoints[:, c, k])
            N = shape_functions(xi[:, 0], xi[:, 1])  # (n, 4)
            nx = cells.edge_normals[:, c, k, 0, None]
            ny = cells.edge_normals[:, c, k, 1, None]
            w = cells.edge_lengths[:, c, k, None] * N
            B[:, c, 0, 0::2] += nx * w
            B[:, c, 1, 1::2] += ny * w
            B[:, c, 2, 0::2] += ny * w
            B[:, c, 2, 1::2] += nx * w
    return B / cells.areas[:, :, None, None]


def _stiffness(B: np.ndarray, D: np.ndarray, *factors: np.ndarray) -> np.ndarray:
    """Element stiffnesses sum_s B_s^T D B_s f1_s f2_s ... ; B (n, n_s, 3, 8).

    The factors (n, n_s) multiply in turn, as in B.T @ D @ B * det * w.
    """
    K = np.zeros((len(B), 8, 8))
    for s in range(B.shape[1]):
        Bs = B[:, s]
        Ks = np.matmul(np.matmul(Bs.swapaxes(-1, -2), D), Bs)
        for f in factors:
            Ks = Ks * f[:, s, None, None]
        K += Ks
    # B^T D B is symmetric only up to round-off in floating point; force it
    # exactly so the assembled global matrix carries no skew part at all
    return 0.5 * (K + K.swapaxes(-1, -2))


def _dof_map(conn: np.ndarray) -> np.ndarray:
    """Interleaved dofs (..., 8) of element connectivity (..., 4)."""
    dofs = np.empty(conn.shape[:-1] + (8,), dtype=int)
    dofs[..., 0::2] = 2 * conn
    dofs[..., 1::2] = 2 * conn + 1
    return dofs


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElementOperators:
    """Whole-mesh element operators; every array is read-only.

    K: (n_e, 8, 8) element stiffnesses; dofs: (n_e, 8) global dof map;
    B: (n_e, n_s, 3, 8) strain operators at the element's n_s stress points
    (SFEM: the nc smoothing cells, FEM: the 2x2 Gauss points).
    SFEM only: cells, the subcell geometry.  FEM only: detw (n_e, 4),
    Jacobian times Gauss weight at the Gauss points.
    """

    K: np.ndarray
    dofs: np.ndarray
    B: np.ndarray
    cells: SubcellGeometry | None = None
    detw: np.ndarray | None = None


def _element_operators(
    mesh: Mesh, material: Material, formulation: Formulation
) -> ElementOperators:
    """Element stiffnesses plus cached strain operators for the whole mesh.

    SFEM: K = sum_C B~_C^T D B~_C A_C over each element's smoothing cells.
    FEM: 2x2 Gauss quadrature of B^T D B.
    """
    corners = mesh.coords[mesh.elements]
    D = elasticity_matrix(material)
    cells = detw = None
    if formulation.kind == SFEM:
        cells = subcell_geometry(mesh, formulation.nc)
        B = smoothed_strain_matrices(corners, cells)
        K = _stiffness(B, D, cells.areas)
    else:
        pts, w = gauss_points_2d(2)
        n, n_g = len(corners), len(pts)
        B, det = strain_matrix(
            np.repeat(corners, n_g, axis=0), np.tile(pts[:, 0], n), np.tile(pts[:, 1], n)
        )
        B, det = B.reshape(n, n_g, 3, 8), det.reshape(n, n_g)
        w = np.broadcast_to(w, det.shape)
        K = _stiffness(B, D, det, w)
        detw = det * w
    dofs = _dof_map(mesh.elements)
    for a in (K, dofs, B, detw):
        if a is not None:
            a.setflags(write=False)
    return ElementOperators(K, dofs, B, cells, detw)


def _scatter(mesh: Mesh, operators: ElementOperators) -> sp.csr_matrix:
    n_dof = 2 * mesh.n_nodes
    dofs = operators.dofs
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    vals = operators.K.ravel()
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_dof, n_dof)).tocsr()


def _neumann_vector(mesh: Mesh, bcs: BoundaryConditions) -> np.ndarray:
    """External load vector from edge tractions (2-point Gauss per edge).

    All Neumann edges at once: each traction function is called once, on
    its boundary's Gauss points, and the contributions are added with
    np.add.at in (edge, point, node a then b) order, the products taken as
    Na * t * w * jac, so f equals an edge-by-edge accumulation bit for bit.
    """
    f = np.zeros(2 * mesh.n_nodes)
    edges = mesh.boundary_arrays
    neumann = edges.kinds == NEUMANN
    names = edges.names[neumann]
    for name in dict.fromkeys(names.tolist()):
        if name not in bcs.tractions:
            raise SolveError(f"no traction supplied for Neumann boundary {name!r}")
    ends = edges.node_ids[neumann]
    pa, pb = mesh.coords[ends[:, 0]], mesh.coords[ends[:, 1]]
    half = 0.5 * (pb - pa)
    midpoint = 0.5 * (pa + pb)
    jac = np.sqrt(row_dot(half, half))  # np.linalg.norm of each half
    normal = np.stack([half[:, 1], -half[:, 0]], axis=-1) / jac[:, None]
    gp, gw = gauss_points_1d(2)
    x = midpoint[:, None] + gp[:, None] * half[:, None]  # (edge, point, 2)
    normals = np.broadcast_to(normal[:, None], x.shape)
    t = np.empty_like(x)
    for name in dict.fromkeys(names.tolist()):
        sel = names == name
        t[sel] = traction_values(
            bcs.tractions, name, x[sel].reshape(-1, 2), normals[sel].reshape(-1, 2)
        ).reshape(-1, len(gp), 2)
    N = np.stack([0.5 * (1.0 - gp), 0.5 * (1.0 + gp)], axis=-1)  # (point, node)
    vals = N[:, :, None] * t[:, :, None] * gw[:, None, None] * jac[:, None, None, None]
    dofs = 2 * ends[:, None, :, None] + np.arange(2)  # (edge, 1, node, comp)
    np.add.at(f, np.broadcast_to(dofs, vals.shape).ravel(), vals.ravel())
    return f


def _dirichlet_values(mesh: Mesh, bcs: BoundaryConditions) -> dict[int, float]:
    """Map constrained dof -> prescribed value from edge tags and pins."""
    fixed: dict[int, float] = {}
    for be in mesh.boundary:
        if be.kind != DIRICHLET:
            continue
        if be.name not in bcs.dirichlet:
            raise SolveError(f"no constraint spec for Dirichlet boundary {be.name!r}")
        spec = bcs.dirichlet[be.name]
        for node in be.node_ids:
            pos = mesh.coords[node]
            if spec.value is None:
                vals = np.zeros(2)
            else:
                vals = np.asarray(spec.value(pos[None, :]), dtype=float).reshape(2)
            for comp in spec.components:
                fixed[2 * node + comp] = float(vals[comp])
    for node, comp, value in bcs.pins:
        fixed[2 * int(node) + int(comp)] = float(value)
    return fixed


def _diagnose_rigid_modes(mesh: Mesh, K: sp.csr_matrix, free: np.ndarray) -> list[str]:
    """Names of rigid-body modes with (numerically) zero energy on free dofs."""
    coords = mesh.coords
    center = coords.mean(axis=0)
    modes = {
        "translation-x": np.stack(
            [np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes)], axis=-1
        ),
        "translation-y": np.stack(
            [np.zeros(mesh.n_nodes), np.ones(mesh.n_nodes)], axis=-1
        ),
        "rotation": np.stack(
            [-(coords[:, 1] - center[1]), coords[:, 0] - center[0]], axis=-1
        ),
    }
    scale = abs(K).max()
    Kff = K[free][:, free]
    loose = []
    restricted = {}
    for name, vec in modes.items():
        v = vec.ravel()[free]
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        restricted[name] = v / nv
        if np.linalg.norm(Kff @ v) / (scale * nv) < 1e-8:
            loose.append(name)
    if loose or not restricted:
        return loose

    # No probe is individually loose, but a rigid motion about a constrained
    # point is a probe mixture (rotation about x0 = center rotation + a
    # translation).  Look for zero-energy directions inside the probe span.
    names = list(restricted)
    V = np.stack([restricted[n] for n in names], axis=1)
    A = V.T @ (Kff @ V)
    M = V.T @ V
    w_m, Q = np.linalg.eigh(M)
    good = w_m > 1e-12 * w_m.max()
    if not np.any(good):
        return loose
    B = Q[:, good] / np.sqrt(w_m[good])
    w, C = np.linalg.eigh(B.T @ A @ B)
    for lam, c in zip(w, (B @ C).T):
        if lam < 1e-8 * scale:
            weights = dict(zip(names, np.abs(c) / np.abs(c).max()))
            if weights.get("rotation", 0.0) > 1e-6:
                loose.append("rotation (about a constrained point)")
            else:
                loose.append("translation (a skew combination)")
    return loose


class DiscreteSolution:
    """A solved (or interpolated) discrete displacement field with stresses.

    Carries the mesh, nodal vector U, the formulation's cached element
    operators, and per-cell (SFEM) or per-Gauss-point (FEM) raw stresses.
    Immutable: U, cell_stress and the operator arrays are read-only.
    """

    def __init__(
        self,
        mesh: Mesh,
        material: Material,
        formulation: Formulation,
        U: np.ndarray,
        operators: ElementOperators | None = None,
        residual_rel: float = 0.0,
        fixed_dofs: dict[int, float] | None = None,
    ):
        self.mesh = mesh
        self.material = material
        self.formulation = formulation
        self.U = np.asarray(U, dtype=float)
        self.U.setflags(write=False)
        self.residual_rel = residual_rel
        self.fixed_dofs = dict(fixed_dofs or {})
        self.D = elasticity_matrix(material)

        if operators is None:
            operators = _element_operators(mesh, material, formulation)
        self.operators = operators
        # (n_e, n_s, 3): sigma = D (B q) at every subcell / Gauss point
        strain = np.matmul(operators.B, self.U[operators.dofs][:, None, :, None])[..., 0]
        self.cell_stress = np.matmul(strain, self.D.T)
        self.cell_stress.setflags(write=False)

    # -- field evaluation ---------------------------------------------------

    def displacement_at_parents(self, element_ids, pts: np.ndarray) -> np.ndarray:
        """FE displacement at parent points pts (q, 2) of elements (n,); (n, q, 2)."""
        pts = np.asarray(pts, dtype=float)
        q = self.U[self.operators.dofs[np.asarray(element_ids, dtype=int)]]
        N = shape_functions(pts[:, 0], pts[:, 1])  # (q, 4)
        return np.matmul(N, q.reshape(-1, 4, 2))

    def stress_at_parents(self, element_ids, pts: np.ndarray) -> np.ndarray:
        """Raw stress at parent points pts (q, 2) of elements (n,); (n, q, 3).

        SFEM: the owning subcell's constant; FEM: the compatible pointwise
        stress, computed one point at a time over all n elements so that B
        stays (n, 3, 8).
        """
        ids = np.asarray(element_ids, dtype=int)
        pts = np.asarray(pts, dtype=float)
        if self.formulation.kind == SFEM:
            c = subcell_index_at(self.formulation.nc, pts[:, 0], pts[:, 1])
            return self.cell_stress[ids[:, None], c]
        corners = self.mesh.coords[self.mesh.elements[ids]]
        u = self.U[self.operators.dofs[ids]][..., None]  # (n, 8, 1)
        out = np.empty((len(ids), len(pts), 3))
        for k, (xi, eta) in enumerate(pts):
            B, _ = strain_matrix(corners, np.full(len(ids), xi), np.full(len(ids), eta))
            out[:, k] = np.matmul(self.D, np.matmul(B, u))[..., 0]
        return out

    def energy(self) -> float:
        """U^T K U via the cached element stiffnesses."""
        q = self.U[self.operators.dofs]
        per_element = np.matmul(np.matmul(q[:, None, :], self.operators.K), q[:, :, None])
        # running sum in element order, as a plain accumulation loop would
        return float(np.cumsum(per_element[:, 0, 0])[-1]) if len(q) else 0.0


def assemble_and_solve(
    mesh: Mesh,
    material: Material,
    formulation: Formulation,
    loads: BoundaryConditions,
) -> DiscreteSolution:
    """Assemble the global system, apply boundary data, solve, and package.

    Dirichlet constraints are imposed by elimination (possibly with nonzero
    prescribed values); the sparse symmetric system is factorized with
    SuperLU.  Raises SolveError naming the free rigid-body mode(s) when the
    constrained system is singular.
    """
    operators = _element_operators(mesh, material, formulation)
    K = _scatter(mesh, operators)
    f = _neumann_vector(mesh, loads)

    fixed = _dirichlet_values(mesh, loads)
    n_dof = 2 * mesh.n_nodes
    if any(not (0 <= d < n_dof) for d in fixed):
        raise SolveError("constraint references dof outside the mesh")
    free = np.setdiff1d(np.arange(n_dof), np.fromiter(fixed, dtype=int, count=len(fixed)))
    if len(free) == n_dof:
        raise SolveError(
            "no Dirichlet constraints: rigid modes translation-x, "
            "translation-y, rotation are unconstrained"
        )

    U = np.zeros(n_dof)
    for dof, val in fixed.items():
        U[dof] = val

    Kff = K[free][:, free].tocsc()
    rhs = f[free] - K[free] @ U

    try:
        lu = spla.splu(Kff)
        u_free = lu.solve(rhs)
    except RuntimeError as exc:
        loose = _diagnose_rigid_modes(mesh, K, free)
        raise SolveError(
            "singular stiffness system"
            + (f"; free rigid mode(s): {', '.join(loose)}" if loose else "")
        ) from exc
    if not np.all(np.isfinite(u_free)):
        loose = _diagnose_rigid_modes(mesh, K, free)
        raise SolveError(
            "linear solve produced non-finite values"
            + (f"; free rigid mode(s): {', '.join(loose)}" if loose else "")
        )

    ref = np.linalg.norm(rhs)
    res = np.linalg.norm(Kff @ u_free - rhs)
    if ref > 0 and res / ref > 1e-12:
        # one step of iterative refinement keeps graded meshes comfortably
        # inside the residual contract
        u_free = u_free + lu.solve(rhs - Kff @ u_free)
        res = np.linalg.norm(Kff @ u_free - rhs)
    U[free] = u_free
    residual_rel = float(res / ref) if ref > 0 else float(res)
    if ref > 0 and residual_rel > 1e-9:
        raise SolveError(f"solver residual too large: {residual_rel:.3e}")

    return DiscreteSolution(
        mesh, material, formulation, U,
        operators=operators, residual_rel=residual_rel, fixed_dofs=fixed,
    )


def interpolate_solution(
    mesh: Mesh,
    material: Material,
    formulation: Formulation,
    displacement,
) -> DiscreteSolution:
    """DiscreteSolution whose nodal values interpolate a given field.

    No system is solved; this is the "exactly interpolated analytic field"
    used by extraction-consistency and convergence probes.
    ``displacement`` maps positions (n, 2) -> (n, 2).
    """
    u_nodes = np.asarray(displacement(mesh.coords), dtype=float)
    if u_nodes.shape != (mesh.n_nodes, 2):
        raise SolveError("displacement field returned wrong shape")
    return DiscreteSolution(mesh, material, formulation, u_nodes.ravel())
