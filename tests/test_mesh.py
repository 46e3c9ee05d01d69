"""Mesh generation, smoothing-cell subdivision, boundary tagging, mesh I/O."""

import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import python_calls, single_element_mesh
from smoothfem.mesh import (
    DIRICHLET,
    NEUMANN,
    BoundaryArrays,
    BoundaryEdge,
    Mesh,
    MeshError,
    build_cylinder_mesh,
    build_lshape_mesh,
    build_square_mesh,
    quad_area,
    save_mesh,
    _tag_boundary,
    _topological_boundary,
    graded_intervals,
    subcell_geometry,
    subcell_index_at,
    subcell_parent_corners,
)

GOLDEN_MESH = "tests/golden/square_n2.mesh"


# ---------------------------------------------------------------------------
# cylinder mesh
# ---------------------------------------------------------------------------


def test_cylinder_level_one_counts():
    m = build_cylinder_mesh(5.0, 20.0, 1)
    assert m.n_elements == 16
    assert m.n_nodes == 25


def test_cylinder_inner_arc_on_radius():
    m = build_cylinder_mesh(5.0, 20.0, 1)
    inner_nodes = {
        n for be in m.boundary if be.name == "pressure" for n in be.node_ids
    }
    radii = np.linalg.norm(m.coords[sorted(inner_nodes)], axis=1)
    assert_allclose(radii, 5.0, atol=1e-12)


def test_cylinder_refinement_nesting():
    for n in (1, 2):
        coarse = build_cylinder_mesh(5.0, 20.0, n)
        fine = build_cylinder_mesh(5.0, 20.0, n + 1)
        assert fine.n_elements == 4 * coarse.n_elements


def test_cylinder_area_approximates_annulus_quadrant():
    # with k chords per quarter arc the polygonal ring keeps exactly
    # (2k/pi) sin(pi/(2k)) of the true area: 2.55% deficit at k=4,
    # 0.64% at k=8 -- the mesh can't beat its own chord geometry
    a, b = 1.0, 2.0
    exact = np.pi * (b**2 - a**2) / 4.0
    deficits = []
    for n in (1, 2):
        m = build_cylinder_mesh(a, b, n)
        total = sum(quad_area(m.coords[m.elements[e]]) for e in range(m.n_elements))
        deficits.append((exact - total) / exact)
    assert 0.0 < deficits[0] < 0.03
    assert 0.0 < deficits[1] < 0.007


def test_cylinder_rejects_inverted_radii():
    with pytest.raises(MeshError):
        build_cylinder_mesh(2.0, 1.0, 1)


# ---------------------------------------------------------------------------
# L-shaped domain
# ---------------------------------------------------------------------------


def test_lshape_uniform_is_congruent_squares():
    m = build_lshape_mesh(0, 1.0)
    lengths = set()
    for e in range(m.n_elements):
        cs = m.coords[m.elements[e]]
        for k in range(4):
            lengths.add(round(float(np.linalg.norm(cs[(k + 1) % 4] - cs[k])), 12))
    assert len(lengths) == 1
    m.find_node((0.0, 0.0))  # the corner node must exist


def test_lshape_grading_ratio():
    # geometric grading 2 over 2 rings: largest/smallest edge ~ 2^2
    m = build_lshape_mesh(2, 2.0)
    lengths = []
    for e in range(m.n_elements):
        cs = m.coords[m.elements[e]]
        for k in range(4):
            lengths.append(float(np.linalg.norm(cs[(k + 1) % 4] - cs[k])))
    ratio = max(lengths) / min(lengths)
    assert abs(ratio - 4.0) / 4.0 < 0.10


def test_lshape_avoids_removed_quadrant():
    for level, grading in ((0, 1.0), (2, 2.0)):
        m = build_lshape_mesh(level, grading)
        inside = (m.coords[:, 0] > 1e-12) & (m.coords[:, 1] < -1e-12)
        assert not inside.any()


# ---------------------------------------------------------------------------
# node patches
# ---------------------------------------------------------------------------


def patch_of(m, node):
    """Element ids of a node's patch: its row of patch_offsets/patch_elements."""
    return tuple(m.patch_elements[m.patch_offsets[node] : m.patch_offsets[node + 1]].tolist())


def test_node_patch_counts():
    m = build_square_mesh(4, 0.0)
    interior = m.find_node((0.5, 0.5))
    corner = m.find_node((0.0, 0.0))
    assert len(patch_of(m, interior)) == 4
    assert len(patch_of(m, corner)) == 1

    lshape = build_lshape_mesh(1, 1.0)
    reentrant = lshape.find_node((0.0, 0.0))
    assert len(patch_of(lshape, reentrant)) == 3


def test_patch_symmetry():
    m = build_square_mesh(3, 0.2, seed=1)
    for node in range(m.n_nodes):
        for e in patch_of(m, node):
            assert node in m.elements[e]
    for e in range(m.n_elements):
        for node in m.elements[e]:
            assert e in patch_of(m, int(node))


def reference_patches_and_boundary(elements):
    """Node patches and lone (element, local_edge) pairs by a dict walk."""
    patches, owners = {}, {}
    for e, conn in enumerate(np.asarray(elements).tolist()):
        for k in range(4):
            patches.setdefault(conn[k], []).append(e)
            a, b = conn[k], conn[(k + 1) % 4]
            owners.setdefault((min(a, b), max(a, b)), []).append((e, k))
    return patches, {pairs[0] for pairs in owners.values() if len(pairs) == 1}


@pytest.mark.parametrize("make", [
    lambda: build_square_mesh(3, 0.2, seed=1),
    lambda: build_cylinder_mesh(1.0, 2.0, 2),
    lambda: build_lshape_mesh(1, 2.0),
    lambda: single_element_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
])
def test_patches_and_boundary_match_the_dict_walk(make):
    m = make()
    patches, lone = reference_patches_and_boundary(m.elements)
    # the keys are 4e + k, sorted, so they list the pairs in sorted order
    assert _topological_boundary(m.elements).tolist() == [4 * e + k for e, k in sorted(lone)]
    b = m.boundary_arrays
    assert list(zip(b.element_ids.tolist(), b.local_edges.tolist())) == sorted(lone)
    for node in range(m.n_nodes):
        assert patch_of(m, node) == tuple(patches[node])
    # reversed element order: the same edges, owned by renumbered elements
    rev = m.elements[::-1]
    n = len(rev)
    expected = sorted(4 * (n - 1 - e) + k for e, k in lone)
    assert _topological_boundary(rev).tolist() == expected


def test_missing_node_lookup_raises():
    m = build_square_mesh(2, 0.0)
    with pytest.raises(MeshError):
        m.find_node((10.0, 10.0))


# ---------------------------------------------------------------------------
# the structured-grid kernel against the former per-node / per-cell loops
# ---------------------------------------------------------------------------


def reference_tag_boundary(coords, elements, classify):
    """The former edge-by-edge tagger: one ``classify(p0, p1) -> (kind, name)``
    call and one BoundaryEdge per edge, in sorted (element, local edge) order."""
    coords = np.asarray(coords, float)
    elements = np.asarray(elements, int)
    out = []
    for e, k in sorted(reference_patches_and_boundary(elements)[1]):
        a, b = int(elements[e, k]), int(elements[e, (k + 1) % 4])
        kind, name = classify(coords[a], coords[b])
        out.append(BoundaryEdge(e, k, (a, b), kind, name))
    return out


def reference_cylinder_mesh(a, b, n):
    """The cylinder builder as it was, numbering through an ``nid`` closure."""
    m = 4 * 2 ** (n - 1)
    r = np.linspace(a, b, m + 1)
    phi = np.linspace(0.0, np.pi / 2.0, m + 1)
    R, PHI = np.meshgrid(r, phi, indexing="ij")
    coords = np.stack([(R * np.cos(PHI)).ravel(), (R * np.sin(PHI)).ravel()], axis=-1)

    def nid(i, j):
        return i * (m + 1) + j

    elements = np.array(
        [
            [nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)]
            for i in range(m)
            for j in range(m)
        ]
    )
    rtol = 1e-9 * b

    def classify(p0, p1):
        if abs(p0[1]) < rtol and abs(p1[1]) < rtol:
            return DIRICHLET, "sym_y"
        if abs(p0[0]) < rtol and abs(p1[0]) < rtol:
            return DIRICHLET, "sym_x"
        r0, r1 = np.hypot(*p0), np.hypot(*p1)
        if abs(r0 - a) < rtol and abs(r1 - a) < rtol:
            return NEUMANN, "pressure"
        if abs(r0 - b) < rtol and abs(r1 - b) < rtol:
            return NEUMANN, "free"
        raise AssertionError(f"unclassifiable edge {p0}-{p1}")

    return coords, elements, reference_tag_boundary(coords, elements, classify)


def reference_lshape_mesh(level, grading):
    """The L-shape builder as it was: one double loop over nodes, one over cells."""
    t = graded_intervals(level, grading)
    ax = np.concatenate([-t[::-1], t[1:]])
    nv = len(ax)
    ids = -np.ones((nv, nv), dtype=int)
    coords = []
    for i in range(nv):
        for j in range(nv):
            x, y = ax[i], ax[j]
            if x > 1e-12 and y < -1e-12:
                continue
            ids[i, j] = len(coords)
            coords.append((x, y))
    coords = np.array(coords)
    elements = []
    for i in range(nv - 1):
        for j in range(nv - 1):
            cx = 0.5 * (ax[i] + ax[i + 1])
            cy = 0.5 * (ax[j] + ax[j + 1])
            if cx > 0.0 and cy < 0.0:
                continue
            elements.append([ids[i, j], ids[i + 1, j], ids[i + 1, j + 1], ids[i, j + 1]])
    elements = np.array(elements)

    def classify(p0, p1):
        mx, my = 0.5 * (p0 + p1)
        tol = 1e-12
        if min(abs(mx - 1.0), abs(mx + 1.0), abs(my - 1.0), abs(my + 1.0)) < tol:
            return NEUMANN, "outer"
        if (abs(my) < tol and mx > 0.0) or (abs(mx) < tol and my < 0.0):
            return NEUMANN, "notch"
        raise AssertionError(f"unclassifiable edge at ({mx}, {my})")

    return coords, elements, reference_tag_boundary(coords, elements, classify)


def reference_square_mesh(n, distortion=0.0, seed=0):
    """The unit-square builder as it was, distorting through a node mask."""
    t = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(t, t, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel()], axis=-1)
    if distortion > 0.0:
        rng = np.random.default_rng(seed)
        h = 1.0 / n
        shift = rng.uniform(-distortion * h, distortion * h, size=coords.shape)
        interior = (
            (coords[:, 0] > 1e-12)
            & (coords[:, 0] < 1 - 1e-12)
            & (coords[:, 1] > 1e-12)
            & (coords[:, 1] < 1 - 1e-12)
        )
        coords[interior] += shift[interior]

    def nid(i, j):
        return i * (n + 1) + j

    elements = np.array(
        [
            [nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)]
            for i in range(n)
            for j in range(n)
        ]
    )
    return coords, elements, reference_tag_boundary(
        coords, elements, lambda p0, p1: (DIRICHLET, "exact")
    )


GRID_CASES = (
    [(build_cylinder_mesh, reference_cylinder_mesh, (5.0, 20.0, n)) for n in (1, 2, 3)]
    + [
        (build_lshape_mesh, reference_lshape_mesh, (level, grading))
        for level in (0, 1, 2, 3)
        for grading in (1.0, 2.0, 20.0)
    ]
    + [
        (build_square_mesh, reference_square_mesh, (n, distortion, 7))
        for n in (1, 2, 4)
        for distortion in (0.0, 0.2)
    ]
)


@pytest.mark.parametrize(
    "build, reference, args",
    GRID_CASES,
    ids=[f"{b.__name__}{args}" for b, _, args in GRID_CASES],
)
def test_grid_builders_match_the_loop_builders_bit_for_bit(build, reference, args):
    m = build(*args)
    coords, elements, boundary = reference(*args)
    assert np.array_equal(m.coords, coords)
    assert m.coords.tobytes() == coords.tobytes()  # signed zeros included
    assert np.array_equal(m.elements, elements)
    b = m.boundary_arrays
    assert b.element_ids.tolist() == [be.element_id for be in boundary]
    assert b.local_edges.tolist() == [be.local_edge for be in boundary]
    assert b.node_ids.tolist() == [list(be.node_ids) for be in boundary]
    assert b.kinds.tolist() == [be.kind for be in boundary]
    assert b.names.tolist() == [be.name for be in boundary]
    assert m.boundary == tuple(boundary)


@pytest.mark.parametrize(
    "build, small, large",
    [
        (build_cylinder_mesh, (5.0, 20.0, 2), (5.0, 20.0, 5)),
        (build_lshape_mesh, (1, 2.0), (3, 2.0)),
    ],
    ids=["cylinder-L2-L5", "lshape-L1-L3"],
)
def test_mesh_build_python_calls_do_not_grow_with_the_mesh(build, small, large):
    # tagging and checking the boundary are array operations, so building
    # a mesh takes the same number of Python calls at every level
    def calls(args):
        build(*args)  # warm up caches (imports, numpy dispatch)
        return python_calls((build, *args))

    assert calls(small) == calls(large)


def test_tagging_rejects_an_unclassifiable_edge():
    m = build_square_mesh(2)

    def classify(p0, p1):  # leaves the edges on x = 1 untagged
        right = (p0[:, 0] == 1.0) & (p1[:, 0] == 1.0)
        return np.where(right, "", DIRICHLET), "exact"

    message = "unclassifiable boundary edge [1.0, 0.0]-[1.0, 0.5]"
    with pytest.raises(MeshError, match=re.escape(message)):
        _tag_boundary(m.coords, m.elements, classify)


# ---------------------------------------------------------------------------
# smoothing-cell subdivision
# ---------------------------------------------------------------------------

UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_unit_square_single_cell():
    m = single_element_mesh(UNIT)
    cells = subcell_geometry(m, 1)
    assert_allclose(cells.areas[0, 0], 1.0, rtol=1e-14)
    normals = sorted(map(tuple, np.round(cells.edge_normals[0, 0], 12)))
    assert normals == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_unit_square_quarters():
    m = single_element_mesh(UNIT)
    cells = subcell_geometry(m, 4)
    assert cells.areas.shape == (1, 4)
    assert_allclose(cells.areas[0], 0.25, rtol=1e-14)


def test_subdivision_partitions_area():
    rng = np.random.default_rng(4)
    for _ in range(10):
        corners = UNIT + rng.uniform(-0.2, 0.2, size=(4, 2))
        m = single_element_mesh(corners)
        exact = quad_area(corners)
        for nc in (1, 2, 4, 8):
            total = subcell_geometry(m, nc).areas[0].sum()
            assert abs(total - exact) <= 1e-12 * exact


def test_cell_boundaries_close():
    # sum over edges of length * outward normal = 0 for any closed polygon
    rng = np.random.default_rng(9)
    corners = UNIT + rng.uniform(-0.2, 0.2, size=(4, 2))
    m = single_element_mesh(corners)
    for nc in (1, 2, 4, 8):
        cells = subcell_geometry(m, nc)
        closure = (cells.edge_lengths[..., None] * cells.edge_normals).sum(axis=-2)
        assert np.abs(closure).max() < 1e-12


@pytest.mark.parametrize("nc", [1, 2, 4, 8])
def test_parent_corners_tile_the_square_in_the_order_subcell_index_at_reads(nc):
    pc = subcell_parent_corners(nc)
    assert pc.shape == (nc, 4, 2) and not pc.flags.writeable
    # CCW cells of equal area that tile [-1, 1]^2
    assert np.all(quad_area(pc) == 4.0 / nc)
    centres = pc.mean(axis=1)
    assert subcell_index_at(nc, centres[:, 0], centres[:, 1]).tolist() == list(range(nc))


def test_unsupported_subcell_count():
    m = single_element_mesh(UNIT)
    with pytest.raises(MeshError):
        subcell_geometry(m, 3)


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------


def test_mesh_rejects_inverted_element():
    flipped = UNIT[::-1]  # clockwise
    with pytest.raises(MeshError):
        single_element_mesh(flipped)


def test_boundary_records_and_arrays_round_trip():
    m = build_square_mesh(2, 0.1, seed=3)
    b = m.boundary_arrays
    assert all(not a.flags.writeable for a in vars(b).values())
    assert isinstance(m.boundary, tuple) and len(m.boundary) == len(b.element_ids)
    # records are taken in the caller's order, sorted or not
    rev = Mesh(m.coords, m.elements, m.boundary[::-1]).boundary_arrays
    for field in vars(b):
        assert np.array_equal(getattr(rev, field), getattr(b, field)[::-1])
    same = Mesh(m.coords, m.elements, b).boundary_arrays
    assert all(np.array_equal(getattr(same, f), getattr(b, f)) for f in vars(b))


def test_boundary_arrays_need_one_row_per_edge_and_integer_ids():
    with pytest.raises(MeshError, match="one row per edge"):
        BoundaryArrays([0, 0], [0, 1], [[0, 1]], [NEUMANN] * 2, ["a"] * 2)
    boundary = [BoundaryEdge(0, k, (k, (k + 1) % 4), NEUMANN, "a") for k in range(4)]
    bad_rows = [replace(boundary[0], node_ids=(0, 1, 0))] + boundary[1:]
    with pytest.raises(MeshError, match="one row per edge"):
        Mesh(UNIT, np.array([[0, 1, 2, 3]]), bad_rows)
    # a fractional id must not be truncated onto a real edge
    fractional = [replace(boundary[0], local_edge=0.5)] + boundary[1:]
    with pytest.raises(MeshError, match="local_edges must be integers"):
        Mesh(UNIT, np.array([[0, 1, 2, 3]]), fractional)
    Mesh(UNIT, np.array([[0, 1, 2, 3]]), boundary)


@pytest.mark.parametrize(
    "tag, bad",
    [((3, 1), (-1, 1)), ((3, 2), (4, 2)), ((0, 3), (1, -1)), ((2, 0), (1, 4))],
    ids=["element-minus-1", "element-n_e", "local-edge-minus-1", "local-edge-4"],
)
def test_mesh_rejects_out_of_range_boundary_tags(tag, bad):
    # each bad pair replaces the tag it would alias: element -1 wraps around
    # to element 3, and key 4e + k of (1, -1) and (1, 4) is that of (0, 3)
    # and (2, 0)
    m = build_square_mesh(2)
    boundary = [
        replace(be, element_id=bad[0], local_edge=bad[1])
        if (be.element_id, be.local_edge) == tag else be
        for be in m.boundary
    ]
    with pytest.raises(MeshError, match=re.escape(f"(missing [{tag}], extra [{bad}])")):
        Mesh(m.coords, m.elements, boundary)


def test_mesh_rejects_duplicate_boundary_tags():
    boundary = [BoundaryEdge(0, k, (k, (k + 1) % 4), NEUMANN, "a") for k in (0, 1, 2, 3, 3)]
    with pytest.raises(MeshError, match="duplicate boundary edge tags"):
        Mesh(UNIT, np.array([[0, 1, 2, 3]]), boundary)


def test_mesh_requires_complete_boundary_cover():
    partial = [BoundaryEdge(0, 0, (0, 1), NEUMANN, "free")]
    with pytest.raises(MeshError):
        Mesh(UNIT, np.array([[0, 1, 2, 3]]), partial)


@pytest.mark.parametrize(
    "bad, match",
    [
        # a misspelt kind: neither the load vector nor the constraints see it
        (BoundaryEdge(0, 1, (1, 2), "nuemann", "a"), "unknown kind 'nuemann'"),
        # node ids of another edge, and the edge's own nodes reversed
        (BoundaryEdge(0, 0, (2, 3), NEUMANN, "a"), r"lists nodes \(2, 3\)"),
        (BoundaryEdge(0, 0, (1, 0), DIRICHLET, "a"), r"lists nodes \(1, 0\)"),
    ],
    ids=["misspelt-kind", "other-edge", "reversed"],
)
def test_mesh_rejects_inconsistent_boundary_tags(bad, match):
    boundary = [BoundaryEdge(0, k, (k, (k + 1) % 4), NEUMANN, "a") for k in range(4)]
    boundary[bad.local_edge] = bad
    with pytest.raises(MeshError, match=match) as err:
        Mesh(UNIT, np.array([[0, 1, 2, 3]]), boundary)
    assert f"edge {bad.local_edge} of element 0" in str(err.value)


# ---------------------------------------------------------------------------
# mesh I/O
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    # the written tokens parse back to the mesh's arrays exactly: %.17g is
    # lossless, ids are 0..n-1 in order and a boundary tag is kind:name
    m = build_cylinder_mesh(5.0, 20.0, 1)
    b = m.boundary_arrays
    path = tmp_path / "cyl.mesh"
    save_mesh(m, path)
    head, *rows = (line.split() for line in path.read_text(encoding="ascii").splitlines())
    assert head == [str(m.n_nodes), str(m.n_elements), str(len(b.element_ids))]
    ends = np.cumsum([0, m.n_nodes, m.n_elements, len(b.element_ids)])
    assert len(rows) == ends[-1]
    nodes, elements, boundary = (rows[i:j] for i, j in zip(ends, ends[1:]))
    assert [int(r[0]) for r in nodes] == list(range(m.n_nodes))
    assert np.array_equal([[float(t) for t in r[1:]] for r in nodes], m.coords)
    assert np.array_equal([[int(t) for t in r] for r in elements],
                          np.column_stack([np.arange(m.n_elements), m.elements]))
    e, k = np.array([[int(t) for t in r[:2]] for r in boundary]).T
    assert np.array_equal(e, b.element_ids) and np.array_equal(k, b.local_edges)
    assert [r[2] for r in boundary] == [f"{kind}:{name}" for kind, name in zip(b.kinds, b.names)]
    ends_of_edges = np.column_stack([m.elements[e, k], m.elements[e, (k + 1) % 4]])
    assert np.array_equal(ends_of_edges, b.node_ids)


def test_golden_mesh_file(tmp_path):
    # the distorted-square mesh is frozen as a text artifact; regeneration
    # must be byte-identical
    m = build_square_mesh(2, 0.15, seed=7)
    regen = tmp_path / "square_n2.mesh"
    save_mesh(m, regen)
    assert regen.read_bytes() == open(GOLDEN_MESH, "rb").read()


def test_mesh_io_python_calls_do_not_grow_with_the_mesh(tmp_path):
    # save_mesh formats whole sections as arrays, so it takes the same number
    # of Python calls at every level (one line-by-line pass used to grow with
    # nodes and elements)
    path = tmp_path / "cylinder.mesh"

    def calls(level):
        m = build_cylinder_mesh(5.0, 20.0, level)
        save_mesh(m, path)  # warm up caches (imports, numpy dispatch)
        return python_calls((save_mesh, m, path))

    assert calls(2) == calls(5)
