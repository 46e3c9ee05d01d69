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
(mesh.subcell_geometry), one batched Newton inversion of every element's
distinct subcell-edge midpoints for the smoothed B, one batched kernel for the
compatible B at any set of parent points, and stiffnesses, stresses and the
sparse scatter as array operations.  Every kernel reproduces the
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
    subcell_parent_corners,
)
from .quadmap import (
    _jacobian_entries,
    gauss_points_1d,
    gauss_points_2d,
    invert_map,
    shape_functions,
    shape_gradients,
)

FEM = "fem"
SFEM = "sfem"


class SolveError(RuntimeError):
    """Assembly or linear-solve failure (singular system, bad inputs...)."""


@dataclass(frozen=True)
class Formulation:
    """Discretization choice: kind "fem" or "sfem", subcell count for sfem
    (FEM ignores nc: harness.run_studies keys problems by label())."""

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
    value: callable mapping positions (n, 2) -> finite displacements (n, 2),
           or None for homogeneous conditions; it is called once per
           boundary name, with the end nodes of all of that boundary's
           edges.  Only the listed components are constrained.
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
        point.  Every Neumann boundary name in the mesh must be present.
        The normal argument keeps corner points unambiguous (a traction
        belongs to an oriented edge, not a location).
    dirichlet: name -> DirichletSpec for every Dirichlet boundary name.
    pins: ((node_id, component, value), ...) extra point constraints, each
        with node_id in [0, n_nodes), component 0 or 1 and a finite value.
    Tractions and Dirichlet values are all called through boundary_values,
    which checks them (finite, the points' shape) and names the boundary.
    """

    tractions: dict = field(default_factory=dict)
    dirichlet: dict = field(default_factory=dict)
    pins: tuple = ()


def boundary_values(
    fns: dict, names, points: np.ndarray, normals: np.ndarray | None = None,
    error: type[Exception] = SolveError,
) -> np.ndarray:
    """Boundary data at points (n, 2), the array names (n,) naming each one's boundary.

    The one call path for user tractions (given normals) and Dirichlet
    values: ``fns[name]`` is called once per name, in order of first
    appearance, with that name's points (and normals (n, 2)) in order.
    Raises ``error`` naming the boundary when a name has no callable or its
    callable does not return finite values of its points' shape.
    """
    what = "Dirichlet value" if normals is None else "traction"
    out = np.empty(points.shape)
    for name in dict.fromkeys(names.tolist()):
        if fns.get(name) is None:
            raise error(f"no {what} supplied for boundary {name!r}")
        sel = names == name
        args = (points[sel],) if normals is None else (points[sel], normals[sel])
        v = np.asarray(fns[name](*args), dtype=float)
        if v.shape != args[0].shape:
            raise error(
                f"{what} for boundary {name!r} returned shape {v.shape}, not {args[0].shape}"
            )
        if not np.all(np.isfinite(v)):
            raise error(f"{what} for boundary {name!r} returned non-finite values")
        out[sel] = v
    return out


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (B, n) stacks, equal to ndarray.dot per row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


# ---------------------------------------------------------------------------
# strain-operator kernels
# ---------------------------------------------------------------------------
#
# Every kernel works on whole batches (all elements of a mesh, or all points
# of one element).  The numpy forms are chosen so each entry is computed
# exactly as by the scalar per-element formulas: batched matmul wherever
# those used a small matrix product (it issues the same per-item BLAS calls),
# and the in-order componentwise sums of quadmap._jacobian_entries for
# Jacobians (a matmul there rounds differently).  Results therefore do not
# depend on how the mesh is batched.


def _strain_rows(bx: np.ndarray, by: np.ndarray) -> np.ndarray:
    """The (..., 3, 8) strain operator of x and y gradient rows (..., 4)."""
    B = np.zeros(bx.shape[:-1] + (3, 8))
    B[..., 0, 0::2] = B[..., 2, 1::2] = bx
    B[..., 1, 1::2] = B[..., 2, 0::2] = by
    return B


def strain_matrix(corners: np.ndarray, xi, eta) -> tuple[np.ndarray, np.ndarray]:
    """Compatible B and Jacobian determinant at parent points.

    corners (..., 4, 2) broadcast against xi/eta as in _jacobian_entries,
    say (n, 1, 4, 2) quads with (q,) points; returns B (..., 3, 8), det (...).
    """
    J00, J01, J10, J11 = _jacobian_entries(corners, xi, eta)
    det = J00 * J11 - J01 * J10
    if np.any(det <= 0.0):
        raise SolveError("non-positive Jacobian inside element")
    invJ = np.stack([J11, -J01, -J10, J00], axis=-1) / det[..., None]
    # physical gradients: dN/dx_i = dN/dxi_j (J^-1)_ji, (..., 4, 2)
    dN = np.matmul(shape_gradients(xi, eta), invJ.reshape(det.shape + (2, 2)))
    return _strain_rows(dN[..., 0], dN[..., 1]), det


def _subcell_edge_ids(nc: int) -> np.ndarray:
    """Distinct-edge id (nc, 4) of every (cell, CCW edge) slot of the nc subcells.

    Slots share an id exactly when their parent edge midpoints coincide,
    i.e. the edge lies between two cells.
    """
    pc = subcell_parent_corners(nc)
    mids = 0.5 * (pc + np.roll(pc, -1, axis=1))  # (nc, 4, 2)
    return np.unique(mids.reshape(-1, 2), axis=0, return_inverse=True)[1].reshape(nc, 4)


def smoothed_strain_matrices(corners: np.ndarray, cells: SubcellGeometry) -> np.ndarray:
    """Constant smoothed B (n, nc, 3, 8) of every subcell by boundary integration.

    B~_I = (1/A_C) sum_edges N_I(midpoint) [n-structure] l_edge, with the
    shape functions evaluated by Newton inversion of the element's bilinear
    map (corners (n, 4, 2)) at the physical edge midpoints.  An edge shared
    by two cells has the same midpoint, bit for bit, in both, so one Newton
    call inverts the E distinct edge midpoints (E = 4/7/12/22 for nc
    1/2/4/8) of every element at once, and each distinct edge's N serves
    every cell on it.  Every cell adds its edges in CCW order k = 0..3.
    """
    edge_ids = _subcell_edge_ids(cells.areas.shape[1])
    # each distinct edge's first (cell, edge) slot
    first = np.unique(edge_ids.ravel(), return_index=True)[1]
    xi = invert_map(corners[:, None], cells.edge_midpoints[:, first // 4, first % 4])
    edge_N = shape_functions(xi[..., 0], xi[..., 1])  # (n, E, 4)
    # sums of n_x N_I l and n_y N_I l over the edges of all (n, nc) cells
    bx = by = 0.0
    for k in range(4):
        w = cells.edge_lengths[:, :, k, None] * edge_N[:, edge_ids[:, k]]  # (n, nc, 4)
        bx = bx + cells.edge_normals[:, :, k, 0, None] * w
        by = by + cells.edge_normals[:, :, k, 1, None] * w
    area = cells.areas[:, :, None]
    return _strain_rows(bx / area, by / area)


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
    """Whole-mesh element operators, what a solved case reads; read-only.

    dofs: (n_e, 8) global dof map; B: (n_e, n_s, 3, 8) strain operators at
    the element's n_s stress points (SFEM: the nc smoothing cells, FEM: the
    2x2 Gauss points).  SFEM only: cells, the subcell geometry.  The element
    stiffnesses are not kept: only the assembly reads them.
    """

    dofs: np.ndarray
    B: np.ndarray
    cells: SubcellGeometry | None = None


def _element_operators(
    mesh: Mesh, material: Material, formulation: Formulation
) -> tuple[ElementOperators, np.ndarray]:
    """Strain operators and the (n_e, 8, 8) element stiffnesses, read-only.

    SFEM: K = sum_C B~_C^T D B~_C A_C over each element's smoothing cells.
    FEM: 2x2 Gauss quadrature of B^T D B.
    """
    corners = mesh.coords[mesh.elements]
    D = elasticity_matrix(material)
    cells = None
    if formulation.kind == SFEM:
        cells = subcell_geometry(mesh, formulation.nc)
        B = smoothed_strain_matrices(corners, cells)
        K = _stiffness(B, D, cells.areas)
    else:
        pts, w = gauss_points_2d(2)
        B, det = strain_matrix(corners[:, None], pts[:, 0], pts[:, 1])
        K = _stiffness(B, D, det, np.broadcast_to(w, det.shape))
    dofs = _dof_map(mesh.elements)
    for a in (K, dofs, B):
        a.setflags(write=False)
    return ElementOperators(dofs, B, cells), K


def _scatter(mesh: Mesh, dofs: np.ndarray, K: np.ndarray) -> sp.csr_matrix:
    """Global stiffness from element stiffnesses K (n_e, 8, 8) on dofs (n_e, 8)."""
    n_dof = 2 * mesh.n_nodes
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    vals = K.ravel()
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_dof, n_dof)).tocsr()


def edge_gauss_rule(mesh: Mesh, ends: np.ndarray, order: int) -> tuple:
    """Gauss rule on straight edges ends (n, 2): x (n, order, 2), jac (n,),
    the unit normal [h1, -h0] / jac of h = (b - a) / 2 (n, 2; outward for CCW
    elements), end-node shape values N (order, 2) and weights (order,)."""
    pa, pb = mesh.coords[ends[:, 0]], mesh.coords[ends[:, 1]]
    half = 0.5 * (pb - pa)
    jac = np.sqrt(row_dot(half, half))  # np.linalg.norm of each half
    normal = np.stack([half[:, 1], -half[:, 0]], axis=-1) / jac[:, None]
    gp, gw = gauss_points_1d(order)
    x = (0.5 * (pa + pb))[:, None] + gp[:, None] * half[:, None]
    N = np.stack([0.5 * (1.0 - gp), 0.5 * (1.0 + gp)], axis=-1)
    return x, jac, normal, N, gw


def _neumann_vector(mesh: Mesh, bcs: BoundaryConditions) -> np.ndarray:
    """External load vector from edge tractions (2-point Gauss per edge).

    All Neumann edges at once: each traction function is called once
    (boundary_values), on its boundary's Gauss points, and the
    contributions are added with np.add.at in (edge, point, node a then b)
    order, the products taken as Na * t * w * jac, so f equals an
    edge-by-edge accumulation bit for bit.
    """
    f = np.zeros(2 * mesh.n_nodes)
    edges = mesh.boundary_arrays
    neumann = edges.kinds == NEUMANN
    ends = edges.node_ids[neumann]
    x, jac, normal, N, gw = edge_gauss_rule(mesh, ends, 2)  # x: (edge, point, 2)
    t = boundary_values(
        bcs.tractions, np.repeat(edges.names[neumann], len(gw)), x.reshape(-1, 2),
        np.repeat(normal, len(gw), axis=0),
    ).reshape(x.shape)
    vals = N[:, :, None] * t[:, :, None] * gw[:, None, None] * jac[:, None, None, None]
    dofs = 2 * ends[:, None, :, None] + np.arange(2)  # (edge, 1, node, comp)
    np.add.at(f, np.broadcast_to(dofs, vals.shape).ravel(), vals.ravel())
    return f


def _dirichlet_values(mesh: Mesh, bcs: BoundaryConditions) -> tuple[np.ndarray, np.ndarray]:
    """Constrained dofs (sorted, unique) and their prescribed values.

    All Dirichlet edges at once: each spec's ``value`` is called once, on
    its boundary's edge end nodes.  A dof written more than once keeps its
    last value in (edge, node a then b) order; pins come last.  A component
    outside (0, 1), a pin node outside the mesh or a non-finite pin value
    raises SolveError naming the boundary or the pin.
    """
    edges = mesh.boundary_arrays
    dirichlet = edges.kinds == DIRICHLET
    names = edges.names[dirichlet]
    ends = edges.node_ids[dirichlet]  # (edge, node)
    constrained = np.zeros(ends.shape + (2,), dtype=bool)
    for name in dict.fromkeys(names.tolist()):
        if name not in bcs.dirichlet:
            raise SolveError(f"no constraint spec for Dirichlet boundary {name!r}")
        for comp in bcs.dirichlet[name].components:
            if comp not in (0, 1):
                raise SolveError(
                    f"Dirichlet boundary {name!r}: component {comp!r} is not 0 (u_x) or 1 (u_y)"
                )
        constrained[names == name] = np.isin((0, 1), bcs.dirichlet[name].components)
    fns = {name: spec.value for name, spec in bcs.dirichlet.items() if spec.value is not None}
    valued = np.isin(names, list(fns))
    values = np.zeros(ends.shape + (2,))
    values[valued] = boundary_values(
        fns, np.repeat(names[valued], 2), mesh.coords[ends[valued].ravel()]
    ).reshape(-1, 2, 2)
    for i, (node, comp, value) in enumerate(bcs.pins):
        if not (0 <= node < mesh.n_nodes and node == int(node)):
            raise SolveError(f"pin {i}: node {node!r} is not a node id in [0, {mesh.n_nodes})")
        if comp not in (0, 1):
            raise SolveError(f"pin {i}: component {comp!r} is not 0 (u_x) or 1 (u_y)")
        if not np.isfinite(value):
            raise SolveError(f"pin {i}: value {value!r} is not finite")
    pin_dofs = np.array([2 * int(node) + int(comp) for node, comp, _ in bcs.pins], dtype=int)
    pin_values = np.array([float(value) for _, _, value in bcs.pins])
    dofs = np.concatenate([(2 * ends[..., None] + np.arange(2))[constrained], pin_dofs])
    vals = np.concatenate([values[constrained], pin_values])
    # the last write of each dof: the first occurrence in reversed order
    dofs, first = np.unique(dofs[::-1], return_index=True)
    return dofs, vals[::-1][first]


def _free_rigid_modes(mesh: Mesh, fixed: np.ndarray) -> list[str]:
    """Names of the rigid-body motions that vanish on every fixed dof.

    Rows R (n_fixed, 3) of the rigid basis (t_x, t_y, rotation about the node
    centroid c scaled by rho = max |x - c|) at the fixed dofs; the free
    motions span the null space of R^T R (eigenvalues at most 1e-12 of the
    largest).  Constraints act on single components, so translation-x is
    free iff no u_x dof is fixed (y likewise); a further free dimension is a
    rotation, named by its fixed point unless both translations are free.
    """
    c = mesh.coords.mean(axis=0)
    d = mesh.coords - c
    rho = np.linalg.norm(d, axis=1).max()
    node, comp = np.divmod(fixed, 2)
    R = np.empty((len(fixed), 3))
    R[:, :2] = comp[:, None] == np.arange(2)
    R[:, 2] = np.where(comp == 0, -d[node, 1], d[node, 0]) / rho
    ev, vecs = np.linalg.eigh(R.T @ R)
    null = vecs[:, ev <= 1e-12 * ev[-1]]
    modes = [f"translation-{'xy'[k]}" for k in (0, 1) if not np.any(comp == k)]
    if null.shape[1] > len(modes):
        # the rotation's projection onto the null space has no component
        # along a free translation, so it fixes one point
        a = null @ null[2]
        point = c + rho * np.array([-a[1], a[0]]) / a[2]
        point[np.abs(point) < 1e-12 * rho] = 0.0
        modes.append(
            "rotation" if len(modes) == 2 else "rotation about ({:.6g}, {:.6g})".format(*point)
        )
    return modes


def _backward_error(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Componentwise backward error max_i |Ax - b|_i / (|A||x| + |b|)_i (Oettli
    and Prager); a zero denominator means a zero residual and counts as 0."""
    scale = abs(A) @ np.abs(x) + np.abs(b)
    r = np.abs(A @ x - b)
    return float(np.max(r / np.where(scale > 0, scale, 1.0), initial=0.0))


def _parent_batch(element_ids, pts, n_elements: int, error: type[Exception] = SolveError):
    """ids (n,) in [0, n_elements) and finite pts of [-1, 1]^2, shared (q, 2)
    or per element (n, q, 2); raises ``error`` naming the first that is not.

    A negative id would read another element's fields; outside the parent
    square the SFEM cell lookup would return another cell's stress, and the
    FEM fields and the recovered blend would extrapolate.
    """
    ids = np.asarray(element_ids, dtype=int)
    if ids.ndim != 1:
        raise error(f"element ids must be a (n,) array, got shape {ids.shape}")
    bad = (ids < 0) | (ids >= n_elements)
    if bad.any():
        raise error(f"element id {ids[np.argmax(bad)]} is not in [0, {n_elements})")
    pts = np.asarray(pts, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 2 or pts.shape[:-2] not in ((), ids.shape):
        raise error(
            f"parent points must be a (q, 2) or ({len(ids)}, q, 2) array, got shape {pts.shape}"
        )
    outside = ~np.all(np.abs(pts) <= 1.0, axis=-1).ravel()  # a nan fails too
    if outside.any():
        bad = pts.reshape(-1, 2)[np.argmax(outside)]
        raise error(f"parent point {bad} is not a finite point of [-1, 1]^2")
    return ids, pts


class DiscreteSolution:
    """A solved discrete displacement field with stresses.

    Carries the mesh, nodal vector U, the solve's relative residual, the
    formulation's element operators (from _element_operators, as the solve
    built them), and per-cell (SFEM) or per-Gauss-point (FEM) raw stresses:
    what recovery, the error quadrature and GSIF extraction read.
    Immutable: U, cell_stress and the operator arrays are read-only.
    """

    def __init__(
        self,
        mesh: Mesh,
        material: Material,
        formulation: Formulation,
        U: np.ndarray,
        operators: ElementOperators,
        residual_rel: float,
    ):
        self.mesh = mesh
        self.material = material
        self.formulation = formulation
        self.U = np.asarray(U, dtype=float)
        self.U.setflags(write=False)
        self.residual_rel = residual_rel
        self.D = elasticity_matrix(material)

        self.operators = operators
        # (n_e, n_s, 3): sigma = D (B q) at every subcell / Gauss point
        strain = np.matmul(operators.B, self.U[operators.dofs][:, None, :, None])[..., 0]
        self.cell_stress = np.matmul(strain, self.D.T)
        self.cell_stress.setflags(write=False)

    # -- field evaluation ---------------------------------------------------

    def displacement_at_parents(self, element_ids, pts: np.ndarray) -> np.ndarray:
        """FE displacement at parent points of elements (n,); (n, q, 2).

        pts (q, 2) are shared by all elements, pts (n, q, 2) given per
        element.  Raises SolveError as _parent_batch does.
        """
        ids, pts = _parent_batch(element_ids, pts, self.mesh.n_elements)
        q = self.U[self.operators.dofs[ids]]
        N = shape_functions(pts[..., 0], pts[..., 1])  # (q, 4) or (n, q, 4)
        return np.matmul(N, q.reshape(-1, 4, 2))

    def stress_at_parents(self, element_ids, pts: np.ndarray) -> np.ndarray:
        """Raw stress at parent points of elements (n,); (n, q, 3).

        pts (q, 2) are shared by all elements, pts (n, q, 2) given per
        element.  SFEM: the owning subcell's constant.  FEM: the compatible
        pointwise stress in blocks of ceil(n / q) elements, one strain_matrix
        call each: at most min(n, q) calls of fewer than n + q B matrices.
        Raises SolveError as _parent_batch does.
        """
        ids, pts = _parent_batch(element_ids, pts, self.mesh.n_elements)
        if self.formulation.kind == SFEM:
            c = subcell_index_at(self.formulation.nc, pts[..., 0], pts[..., 1])
            return self.cell_stress[ids[:, None], c]
        n, q = len(ids), pts.shape[-2]
        corners = self.mesh.coords[self.mesh.elements[ids]][:, None]  # (n, 1, 4, 2)
        u = self.U[self.operators.dofs[ids]][:, None, :, None]  # (n, 1, 8, 1)
        out = np.empty((n, q, 3))
        step = max(1, -(-n // max(q, 1)))  # ceil(n / q) elements per block
        for s in range(0, n, step):
            b = slice(s, s + step)
            p = pts if pts.ndim == 2 else pts[b]  # shared points stay (q, 2)
            B, _ = strain_matrix(corners[b], p[..., 0], p[..., 1])
            out[b] = np.matmul(self.D, np.matmul(B, u[b]))[..., 0]
        return out


def assemble_and_solve(
    mesh: Mesh,
    material: Material,
    formulation: Formulation,
    loads: BoundaryConditions,
) -> DiscreteSolution:
    """Assemble the global system, apply boundary data, solve, and package.

    Dirichlet constraints are imposed by elimination (possibly with nonzero
    prescribed values); SuperLU factorizes the sparse system, and one step of
    iterative refinement follows when ||r|| / ||b|| is above 1e-12.  Free
    rigid modes (found before anything is factorized), a failed
    factorization and a non-finite solution raise SolveError.  A relative
    residual still above 1e-9 raises it too when the LU has k pivots at or
    below 1e-10 of the largest ("k zero-energy mode(s) are unrestrained and
    loaded") or else a componentwise backward error above 1e-12.
    """
    operators, stiffnesses = _element_operators(mesh, material, formulation)
    K = _scatter(mesh, operators.dofs, stiffnesses)
    f = _neumann_vector(mesh, loads)

    fixed, fixed_values = _dirichlet_values(mesh, loads)
    loose = _free_rigid_modes(mesh, fixed)
    if loose:
        raise SolveError(f"free rigid mode(s): {', '.join(loose)}")
    n_dof = 2 * mesh.n_nodes
    free = np.setdiff1d(np.arange(n_dof), fixed)

    U = np.zeros(n_dof)
    U[fixed] = fixed_values

    Kff = K[free][:, free].tocsc()
    rhs = f[free] - (K @ U)[free]  # each row's sum as in K[free] @ U

    try:
        lu = spla.splu(Kff)
        u_free = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolveError("singular stiffness system") from exc
    if not np.all(np.isfinite(u_free)):
        raise SolveError("linear solve produced non-finite values")

    ref = np.linalg.norm(rhs)
    res = np.linalg.norm(Kff @ u_free - rhs)
    if ref > 0 and res / ref > 1e-12:
        u_free = u_free + lu.solve(rhs - Kff @ u_free)
        res = np.linalg.norm(Kff @ u_free - rhs)
    U[free] = u_free
    residual_rel = float(res / ref) if ref > 0 else float(res)
    if ref > 0 and residual_rel > 1e-9:
        # pivots / largest measured: singular <= 5.4e-13, regular >= 2.8e-8
        pivots = np.abs(lu.U.diagonal())
        k = np.count_nonzero(pivots <= 1e-10 * pivots.max())
        if k:
            raise SolveError(f"{k} zero-energy mode(s) are unrestrained and loaded "
                             f"(residual {residual_rel:.3e})")
        omega = _backward_error(Kff, u_free, rhs)
        if omega > 1e-12:
            raise SolveError(f"componentwise backward error {omega:.3e} above 1e-12 "
                             f"(residual {residual_rel:.3e})")

    return DiscreteSolution(mesh, material, formulation, U, operators, residual_rel)

