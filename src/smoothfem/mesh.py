"""Structured quadrilateral meshes for the benchmark domains.

Meshes are immutable after construction: nodes (dense ids), counter-clockwise
Q4 elements, tagged boundary edges covering the whole boundary, and the
node -> elements adjacency ("patch") map.  Local edge k of an element joins
its local nodes k and (k+1) % 4.

The tagged boundary is stored once, as ``Mesh.boundary_arrays``.  Builders
tag it with ``classify(p0, p1)``, which maps the (n_b, 2) end points of all
boundary edges to (n_b,) kind and name arrays (or values broadcasting to
them); a kind other than "neumann" or "dirichlet" is unclassifiable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quadmap import corner_jacobians, map_point

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

# find_node's reach: far below any mesh spacing, far above coordinate round-off
FIND_NODE_TOL = 1e-9


class MeshError(ValueError):
    """Invalid mesh construction input or inconsistent mesh data."""


@dataclass(frozen=True)
class BoundaryEdge:
    """A tagged element edge on the domain boundary: one BoundaryArrays row.

    kind is "neumann" or "dirichlet"; name identifies the traction function /
    constraint spec supplied at solve time.
    """

    element_id: int
    local_edge: int
    node_ids: tuple[int, int]
    kind: str
    name: str


@dataclass(frozen=True)
class BoundaryArrays:
    """The tagged boundary as read-only arrays (copies of the arguments), one
    row per edge: element_ids, local_edges, kinds, names (n_b,) and node_ids
    (n_b, 2), the edge's end nodes in its element's order."""

    element_ids: np.ndarray
    local_edges: np.ndarray
    node_ids: np.ndarray
    kinds: np.ndarray
    names: np.ndarray

    def __post_init__(self) -> None:
        n = np.size(self.element_ids)
        try:  # fields in declaration order: ids, ids, node pairs, kinds, names
            for field, dtype in zip(vars(self), (int, int, int, str, str)):
                value = getattr(self, field)
                a = np.array(value, dtype=dtype)
                if dtype is int and not np.array_equal(a, value):
                    raise ValueError(f"{field} must be integers")
                a = a.reshape((n, 2) if field == "node_ids" else (n,))
                a.setflags(write=False)
                object.__setattr__(self, field, a)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MeshError(f"malformed boundary arrays (one row per edge): {exc}") from exc


def quad_area(corners: np.ndarray) -> np.ndarray:
    """Shoelace areas (...) of straight-sided quadrilaterals (positive for
    CCW) with corners (..., 4, 2)."""
    x, y = corners[..., None, :, 0], corners[..., None, :, 1]
    # batched matmul reproduces the 4-term dot products bit for bit
    xy = np.matmul(x, np.roll(y, -1, axis=-1).swapaxes(-1, -2))
    yx = np.matmul(y, np.roll(x, -1, axis=-1).swapaxes(-1, -2))
    return 0.5 * (xy - yx)[..., 0, 0]


class Mesh:
    """Immutable quadrilateral mesh with tagged boundary.

    ``patch_elements`` and ``patch_offsets`` hold the node -> elements map in
    compressed rows: node n's patch is
    ``patch_elements[patch_offsets[n]:patch_offsets[n + 1]]``, ascending.
    """

    def __init__(
        self,
        coords: np.ndarray,
        elements: np.ndarray,
        boundary: BoundaryArrays | tuple[BoundaryEdge, ...] | list[BoundaryEdge],
    ):
        coords = np.array(coords, dtype=float)
        if not np.array_equal(np.array(elements, dtype=int), elements):
            raise MeshError("element connectivity must be integers")
        elements = np.array(elements, dtype=int)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise MeshError("coords must be (n_nodes, 2)")
        if not np.all(np.isfinite(coords)):
            raise MeshError("node positions must be finite")
        if elements.ndim != 2 or elements.shape[1] != 4:
            raise MeshError("elements must be (n_elements, 4)")
        if elements.size and (
            elements.min() < 0 or elements.max() >= len(coords)
        ):
            raise MeshError("element connectivity references unknown nodes")

        coords.setflags(write=False)
        elements.setflags(write=False)
        self.coords = coords
        self.elements = elements
        if not isinstance(boundary, BoundaryArrays):  # records, in the caller's order
            rows = [(r.element_id, r.local_edge, r.node_ids, r.kind, r.name) for r in boundary]
            boundary = BoundaryArrays(*(zip(*rows) if rows else [()] * 5))
        self.boundary_arrays = boundary

        # element orientation / degeneracy: bilinear Jacobian positive at all
        # four corners
        dets = corner_jacobians(coords[elements])
        bad = np.nonzero(np.any(dets <= 0.0, axis=-1))[0]
        if len(bad):
            e = bad[0]
            raise MeshError(
                f"element {e} is inverted or degenerate "
                f"(corner Jacobians {dets[e]})"
            )

        # node -> elements adjacency in compressed rows (see the docstring)
        flat = elements.ravel()
        patch_elements = np.argsort(flat, kind="stable") // 4
        patch_offsets = np.zeros(len(coords) + 1, dtype=int)
        np.cumsum(np.bincount(flat, minlength=len(coords)), out=patch_offsets[1:])
        for a in (patch_elements, patch_offsets):
            a.setflags(write=False)
        self.patch_elements = patch_elements
        self.patch_offsets = patch_offsets

        self._check_boundary()

    # -- basic queries ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.coords)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def boundary(self) -> tuple[BoundaryEdge, ...]:
        """``boundary_arrays`` as BoundaryEdge records, built on first use."""
        b = self.boundary_arrays
        return tuple(map(
            BoundaryEdge, b.element_ids.tolist(), b.local_edges.tolist(),
            map(tuple, b.node_ids.tolist()), b.kinds.tolist(), b.names.tolist(),
        ))

    def find_node(self, position) -> int:
        """Id of the node nearest ``position``; errors if farther than FIND_NODE_TOL."""
        d = np.linalg.norm(self.coords - np.asarray(position, float), axis=1)
        i = int(np.argmin(d))
        if d[i] > FIND_NODE_TOL:
            raise MeshError(f"no node at {position} (nearest is {d[i]:.3e} away)")
        return i

    # -- topology checks ----------------------------------------------------

    def _check_boundary(self) -> None:
        """The tags cover the topological boundary exactly, each once, with a
        known kind and its element's own node order."""
        b = self.boundary_arrays
        e, k = b.element_ids, b.local_edges
        topo = _topological_boundary(self.elements)
        # out-of-range tags key as -1: sorted keys equal topo only for unique, covering tags
        keys = np.where((0 <= e) & (e < self.n_elements) & (0 <= k) & (k < 4), 4 * e + k, -1)
        if not np.array_equal(np.sort(keys), topo):
            tagged = set(zip(e.tolist(), k.tolist()))
            if len(tagged) != len(e):
                raise MeshError("duplicate boundary edge tags")
            lone = set(zip((topo // 4).tolist(), (topo % 4).tolist()))
            raise MeshError(
                f"boundary tags do not cover the boundary exactly "
                f"(missing {sorted(lone - tagged)[:5]}, extra {sorted(tagged - lone)[:5]})"
            )
        # an unknown kind or a reversed node pair would silently drop the
        # edge's load or flip its outward normal
        unknown = np.flatnonzero(~np.isin(b.kinds, (NEUMANN, DIRICHLET)))
        if len(unknown):
            i = unknown[0]
            raise MeshError(
                f"boundary edge {k[i]} of element {e[i]} ({b.kinds[i]}:{b.names[i]}) "
                f"has unknown kind {str(b.kinds[i])!r} (use {NEUMANN!r} or {DIRICHLET!r})"
            )
        nodes = _edge_ends(self.elements, e, k)
        misordered = np.flatnonzero(np.any(b.node_ids != nodes, axis=1))
        if len(misordered):
            i = misordered[0]
            raise MeshError(
                f"boundary edge {k[i]} of element {e[i]} ({b.kinds[i]}:{b.names[i]}) lists "
                f"nodes {tuple(b.node_ids[i].tolist())}, but the element's edge joins "
                f"{tuple(nodes[i].tolist())}"
            )


def _edge_ends(elements, element_ids, local_edges) -> np.ndarray:
    """(n, 2) end nodes of local edge k of element e, in the element's order."""
    return elements[element_ids[:, None], (local_edges[:, None] + (0, 1)) % 4]


def _topological_boundary(elements: np.ndarray) -> np.ndarray:
    """Sorted keys 4e + k of the local edges k of elements e whose undirected
    edge only one element uses."""
    elements = np.asarray(elements, dtype=np.int64).reshape(-1, 4)
    # entry 4e + k keys local edge k of element e by its sorted node ids
    a, b = elements.ravel(), np.roll(elements, -1, axis=1).ravel()
    key = np.minimum(a, b) * (elements.max(initial=0) + 1) + np.maximum(a, b)
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    return np.sort(first[count == 1])


# ---------------------------------------------------------------------------
# smoothing-cell subdivision
# ---------------------------------------------------------------------------

# Parent-domain subcell grids: (n_xi, n_eta) columns x rows.  The 2-cell
# layout splits at xi = 0; the 8-cell layout is 4 columns x 2 rows.
_SUBCELL_GRID = {1: (1, 1), 2: (2, 1), 4: (2, 2), 8: (4, 2)}


def subcell_grid(nc: int) -> tuple[int, int]:
    if nc not in _SUBCELL_GRID:
        raise MeshError(f"unsupported subcell count {nc} (use 1, 2, 4 or 8)")
    return _SUBCELL_GRID[nc]


def subcell_parent_corners(nc: int) -> np.ndarray:
    """Parent-domain CCW corners (nc, 4, 2) of the cells, row-major (eta rows outer)."""
    n_xi, n_eta = subcell_grid(nc)
    cell = np.stack(np.divmod(np.arange(nc), n_xi)[::-1], axis=-1)  # (i, j) per cell
    unit = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])  # CCW corners of a grid square
    corners = (cell[:, None] + unit) * (2.0 / np.array([n_xi, n_eta])) - 1.0
    corners.setflags(write=False)
    return corners


def subcell_index_at(nc: int, xi, eta) -> np.ndarray:
    """Index of the subcell whose parent rectangle contains (xi, eta); broadcasts."""
    n_xi, n_eta = subcell_grid(nc)
    i = np.minimum(((np.asarray(xi) + 1.0) * 0.5 * n_xi).astype(int), n_xi - 1)
    j = np.minimum(((np.asarray(eta) + 1.0) * 0.5 * n_eta).astype(int), n_eta - 1)
    return j * n_xi + i


def subcell_corners(corners: np.ndarray, nc: int) -> np.ndarray:
    """CCW corners (n, nc, 4, 2) of the nc smoothing cells of quads (n, 4, 2):
    subcell_parent_corners under each quad's bilinear map, which carries the
    axis-aligned parent rectangles onto straight-sided cells."""
    pc = subcell_parent_corners(nc)
    return map_point(corners[:, None], pc[..., 0], pc[..., 1])


@dataclass(frozen=True)
class SubcellGeometry:
    """The smoothing cells of a batch of quads, as read-only arrays.

    Row i describes the batch's i-th quad; each has nc cells in the
    row-major order of subcell_parent_corners, each cell four CCW edges.
    Shapes: areas (n, nc); edge_midpoints, edge_normals (n, nc, 4, 2);
    edge_lengths (n, nc, 4).
    """

    areas: np.ndarray
    edge_midpoints: np.ndarray
    edge_normals: np.ndarray
    edge_lengths: np.ndarray


def subcell_geometry(corners: np.ndarray, nc: int) -> SubcellGeometry:
    """The nc straight-sided smoothing cells of each of the quads ``corners``
    (n, 4, 2), from their subcell_corners.

    Raises MeshError naming the first quad, by its corners, with a cell of
    non-positive area.
    """
    phys = subcell_corners(corners, nc)
    areas = quad_area(phys)
    bad = np.nonzero(areas <= 0.0)[0]
    if len(bad):
        raise MeshError(
            f"non-positive smoothing-cell area in the quad with corners {corners[bad[0]].tolist()}"
        )
    nxt = np.roll(phys, -1, axis=-2)
    tang = nxt - phys
    lengths = np.linalg.norm(tang, axis=-1)
    normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / lengths[..., None]
    arrays = (areas, 0.5 * (phys + nxt), normals, lengths)
    for a in arrays:
        a.setflags(write=False)
    return SubcellGeometry(*arrays)


# ---------------------------------------------------------------------------
# boundary tagging helper and the structured-grid kernel
# ---------------------------------------------------------------------------


def _tag_boundary(coords, elements, classify) -> BoundaryArrays:
    """Tag every topological boundary edge, in (element, local edge) order,
    via ``classify(p0, p1) -> (kinds, names)`` on their (n_b, 2) end points."""
    e, k = np.divmod(_topological_boundary(elements), 4)
    ends = _edge_ends(elements, e, k)
    p0, p1 = coords[ends[:, 0]], coords[ends[:, 1]]
    kinds, names, _ = np.broadcast_arrays(*classify(p0, p1), e)
    bad = np.flatnonzero(~np.isin(kinds, (NEUMANN, DIRICHLET)))
    if len(bad):
        raise MeshError(f"unclassifiable boundary edge {p0[bad[0]].tolist()}-{p1[bad[0]].tolist()}")
    return BoundaryArrays(e, k, ends, kinds, names)


def _grid_mesh(x, y, classify, keep=None) -> Mesh:
    """Mesh of the structured node grid (x[i, j], y[i, j]), shape (n_i, n_j).

    Cell (i, j) joins nodes (i, j), (i+1, j), (i+1, j+1), (i, j+1); ``keep``
    (n_i - 1, n_j - 1) masks the cells to mesh (all by default), and nodes
    that no kept cell uses are dropped.  Nodes and cells are numbered
    row-major in (i, j); ``classify`` tags the boundary edges.
    """
    ids = np.arange(x.size).reshape(x.shape)
    cells = np.stack([ids[:-1, :-1], ids[1:, :-1], ids[1:, 1:], ids[:-1, 1:]], axis=-1)
    cells = cells.reshape(-1, 4) if keep is None else cells[keep]
    used = np.zeros(x.size, dtype=bool)
    used[cells] = True
    coords = np.stack([x.ravel(), y.ravel()], axis=-1)[used]
    elements = (np.cumsum(used) - 1)[cells]
    return Mesh(coords, elements, _tag_boundary(coords, elements, classify))


# ---------------------------------------------------------------------------
# benchmark meshes
# ---------------------------------------------------------------------------


def build_cylinder_mesh(a: float, b: float, n: int) -> Mesh:
    """Structured quarter-annulus mesh, m x m elements with m = 4 * 2^(n-1).

    Nodes are uniform in (r, phi) over [a, b] x [0, pi/2] mapped to cartesian.
    Boundary names: "pressure" (inner arc, Neumann), "free" (outer arc,
    Neumann), "sym_y" (phi = 0 edge, Dirichlet u_y = 0), "sym_x"
    (phi = pi/2 edge, Dirichlet u_x = 0).
    """
    if not (0 < a < b):
        raise MeshError(f"inner radius must be smaller than outer (a={a}, b={b})")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise MeshError(f"refinement level must be an integer >= 1, got {n}")

    m = 4 * 2 ** (n - 1)
    r = np.linspace(a, b, m + 1)
    phi = np.linspace(0.0, np.pi / 2.0, m + 1)
    R, PHI = np.meshgrid(r, phi, indexing="ij")
    rtol = 1e-9 * b

    def classify(p0, p1):
        r0, r1 = np.hypot(*p0.T), np.hypot(*p1.T)
        on = [  # the first match wins
            (abs(p0[:, 1]) < rtol) & (abs(p1[:, 1]) < rtol),
            (abs(p0[:, 0]) < rtol) & (abs(p1[:, 0]) < rtol),
            (abs(r0 - a) < rtol) & (abs(r1 - a) < rtol),
            (abs(r0 - b) < rtol) & (abs(r1 - b) < rtol),
        ]
        kinds = np.select(on, [DIRICHLET, DIRICHLET, NEUMANN, NEUMANN], "")
        return kinds, np.select(on, ["sym_y", "sym_x", "pressure", "free"], "")

    return _grid_mesh(R * np.cos(PHI), R * np.sin(PHI), classify)


def graded_intervals(level: int, grading: float) -> np.ndarray:
    """Graded 1D partition of [0, 1] with 4 * 2^level intervals.

    Interval lengths form a geometric progression, smallest at 0, with total
    largest/smallest ratio grading^level (level 0 or grading 1 is uniform).
    """
    k = 4 * 2**level
    total_ratio = float(grading) ** level
    if total_ratio == 1.0:
        h = np.full(k, 1.0 / k)
    else:
        rho = total_ratio ** (1.0 / (k - 1))
        h = rho ** np.arange(k)
        h /= h.sum()
    t = np.concatenate([[0.0], np.cumsum(h)])
    t[-1] = 1.0
    return t


def check_grading(grading: float) -> None:
    """Raise MeshError unless the L-shape grading lies in [1, 20] (NaN does not)."""
    if not (1.0 <= grading <= 20.0):
        raise MeshError(f"grading must lie in [1, 20], got {grading}")


def build_lshape_mesh(level: int, grading: float) -> Mesh:
    """Graded mesh of the L-shaped domain [-1,1]^2 minus {x>0, y<0}.

    The reentrant corner sits at the origin (a mesh node); the material spans
    global angles [0, 3 pi/2].  Tensor-product grading refines geometrically
    toward the corner, mirrored across both axes.  Boundary names: "outer"
    (the four outer segments, Neumann) and "notch" (the two faces meeting at
    the corner, Neumann).
    """
    if not (isinstance(level, (int, np.integer)) and level >= 0):
        raise MeshError(f"level must be an integer >= 0, got {level}")
    check_grading(grading)

    t = graded_intervals(level, grading)
    ax = np.concatenate([-t[::-1], t[1:]])  # -1 ... 0 ... 1, graded toward 0
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mid = 0.5 * (ax[:-1] + ax[1:])
    # cells of the removed quadrant x > 0, y < 0 go, and with them its nodes
    keep = ~((mid[:, None] > 0.0) & (mid[None, :] < 0.0))

    def classify(p0, p1):
        mx, my = (0.5 * (p0 + p1)).T
        tol = 1e-12
        on = [  # the first match wins
            np.minimum.reduce([abs(mx - 1.0), abs(mx + 1.0), abs(my - 1.0), abs(my + 1.0)]) < tol,
            ((abs(my) < tol) & (mx > 0.0)) | ((abs(mx) < tol) & (my < 0.0)),
        ]
        return np.select(on, [NEUMANN, NEUMANN], ""), np.select(on, ["outer", "notch"], "")

    mesh = _grid_mesh(X, Y, classify, keep)
    mesh.find_node((0.0, 0.0))  # the singular vertex must be a node
    return mesh


def build_square_mesh(
    n: int, distortion: float = 0.0, seed: int = 0
) -> Mesh:
    """n x n mesh of the unit square, optionally with distorted interior nodes.

    Interior nodes are shifted by uniform(-distortion, distortion) * h in each
    coordinate (deterministic for a given seed).  All boundary edges carry the
    Dirichlet tag "exact" — the patch-test configuration.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise MeshError(f"subdivision count must be an integer >= 1, got {n}")
    if not (0.0 <= distortion <= 0.3):
        raise MeshError("distortion must lie in [0, 0.3] to keep elements valid")

    t = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(t, t, indexing="ij")
    if distortion > 0.0:
        rng = np.random.default_rng(seed)
        h = 1.0 / n
        # one draw per coordinate of every node, boundary ones included
        shift = rng.uniform(-distortion * h, distortion * h, size=X.shape + (2,))
        X[1:-1, 1:-1] += shift[1:-1, 1:-1, 0]
        Y[1:-1, 1:-1] += shift[1:-1, 1:-1, 1]
    return _grid_mesh(X, Y, lambda p0, p1: (DIRICHLET, "exact"))


# ---------------------------------------------------------------------------
# plain-text export
# ---------------------------------------------------------------------------


def _format(line: str, *columns: np.ndarray) -> str:
    """One ``line % row`` text line per row of the (n,) or (n, k) columns, by a
    single % format of the whole section."""
    cells = np.column_stack([np.asarray(c, dtype=object) for c in columns])
    return (line + "\n") * len(cells) % tuple(cells.ravel().tolist())


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (lossless %.17g), a section at a time."""
    b = mesh.boundary_arrays
    text = f"{mesh.n_nodes} {mesh.n_elements} {len(b.element_ids)}\n"
    text += _format("%d %.17g %.17g", np.arange(mesh.n_nodes), mesh.coords)
    text += _format("%d %d %d %d %d", np.arange(mesh.n_elements), mesh.elements)
    text += _format("%d %d %s", b.element_ids, b.local_edges, b.kinds + ":" + b.names)
    with open(path, "w", encoding="ascii") as f:
        f.write(text)
