"""Mesh generation, smoothing-cell subdivision, boundary tagging, mesh I/O."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import single_element_mesh
from smoothfem.mesh import (
    DIRICHLET,
    NEUMANN,
    BoundaryEdge,
    Mesh,
    MeshError,
    build_cylinder_mesh,
    build_lshape_mesh,
    build_square_mesh,
    load_mesh,
    quad_area,
    save_mesh,
    _topological_boundary,
    subcell_geometry,
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
        total = sum(quad_area(m.element_corners(e)) for e in range(m.n_elements))
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
        cs = m.element_corners(e)
        for k in range(4):
            lengths.add(round(float(np.linalg.norm(cs[(k + 1) % 4] - cs[k])), 12))
    assert len(lengths) == 1
    m.find_node((0.0, 0.0))  # the corner node must exist


def test_lshape_grading_ratio():
    # geometric grading 2 over 2 rings: largest/smallest edge ~ 2^2
    m = build_lshape_mesh(2, 2.0)
    lengths = []
    for e in range(m.n_elements):
        cs = m.element_corners(e)
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


def test_node_patch_counts():
    m = build_square_mesh(4, 0.0)
    interior = m.find_node((0.5, 0.5))
    corner = m.find_node((0.0, 0.0))
    assert len(m.node_patch(interior)) == 4
    assert len(m.node_patch(corner)) == 1

    lshape = build_lshape_mesh(1, 1.0)
    reentrant = lshape.find_node((0.0, 0.0))
    assert len(lshape.node_patch(reentrant)) == 3


def test_patch_symmetry():
    m = build_square_mesh(3, 0.2, seed=1)
    for node in range(m.n_nodes):
        for e in m.node_patch(node):
            assert node in m.elements[e]
    for e in range(m.n_elements):
        for node in m.elements[e]:
            assert e in m.node_patch(int(node))


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
    assert _topological_boundary(m.elements) == lone
    assert {(be.element_id, be.local_edge) for be in m.boundary} == lone
    for node in range(m.n_nodes):
        assert m.node_patch(node) == tuple(patches[node])
    # reversed element order: the same edges, owned by renumbered elements
    rev = m.elements[::-1]
    n = len(rev)
    assert _topological_boundary(rev) == {(n - 1 - e, k) for e, k in lone}


def test_missing_node_lookup_raises():
    m = build_square_mesh(2, 0.0)
    with pytest.raises(MeshError):
        m.find_node((10.0, 10.0))


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
    m = build_cylinder_mesh(5.0, 20.0, 1)
    path = tmp_path / "cyl.mesh"
    save_mesh(m, path)
    back = load_mesh(path)
    assert_allclose(back.coords, m.coords, rtol=0, atol=0)  # %.17g is exact
    assert np.array_equal(back.elements, m.elements)
    assert [be.tag for be in back.boundary] == [be.tag for be in m.boundary]


def test_load_mesh_rejects_mistyped_kind(tmp_path):
    path = tmp_path / "square.mesh"
    save_mesh(build_square_mesh(2), path)
    text = path.read_text(encoding="ascii")
    assert "dirichlet:exact" in text
    path.write_text(text.replace("dirichlet:exact", "dirichelt:exact", 1), encoding="ascii")
    with pytest.raises(MeshError, match="unknown kind 'dirichelt'"):
        load_mesh(path)


def test_golden_mesh_file(tmp_path):
    # the distorted-square mesh is frozen as a text artifact; regeneration
    # must be byte-identical and loading it must reproduce the mesh
    m = build_square_mesh(2, 0.15, seed=7)
    regen = tmp_path / "square_n2.mesh"
    save_mesh(m, regen)
    assert regen.read_bytes() == open(GOLDEN_MESH, "rb").read()

    golden = load_mesh(GOLDEN_MESH)
    assert_allclose(golden.coords, m.coords, rtol=0, atol=0)
    assert np.array_equal(golden.elements, m.elements)
