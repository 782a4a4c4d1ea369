import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platedecay._polygon import (polygon_is_simple, random_convex_polygon,
                                signed_area)
from platedecay.cli import RunConfig
from platedecay.errors import InvalidArgumentError
from platedecay.geometry import lens_domain, polygon_domain, unit_square_domain
from platedecay.meshing import (Mesh, _boundary_polyline, _inside, read_mesh,
                                refine, triangulate, validate_mesh, write_mesh)


def two_triangle_square():
    return Mesh(nodes=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                triangles=np.array([[0, 1, 2], [0, 2, 3]]),
                boundary_edges=np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
                boundary_labels=np.array([0, 1, 1, 0]),
                boundary_source=np.array([0, 1, 2, 3]),
                corner_nodes=np.arange(4),
                corner_gains=np.zeros(4))


def two_disjoint_triangles():
    return Mesh(nodes=np.array([[0.0, 0], [1, 0], [0, 1],
                                [3, 0], [4, 0], [3, 1]]),
                triangles=np.array([[0, 1, 2], [3, 4, 5]]),
                boundary_edges=np.array([[0, 1], [1, 2], [2, 0],
                                         [3, 4], [4, 5], [5, 3]]),
                boundary_labels=np.zeros(6, dtype=int),
                boundary_source=np.full(6, -1),
                corner_nodes=np.array([0, 3]),
                corner_gains=np.zeros(2))


def test_structured_square():
    dom = unit_square_domain(gamma0_edges=(0, 3))
    mesh = triangulate(dom, 0.5)
    assert mesh.n_triangles >= 8
    assert validate_mesh(mesh, dom) == []
    assert np.allclose(mesh.nodes[mesh.corner_nodes], dom.vertices)
    # labels partition the loop consistently with the domain edges
    for (a, b), lab, src in zip(mesh.boundary_edges, mesh.boundary_labels,
                                mesh.boundary_source):
        assert lab == dom.edges[src].label


def test_h_one_over_k_gives_k_cells():
    # 1 / (1/49) is 49.00000000000001; a plain ceil would mesh 50 cells
    dom = unit_square_domain(gamma0_edges=(0, 3))
    for k in range(2, 201):
        assert triangulate(dom, 1.0 / k).n_triangles == 2 * k * k
        assert len(_boundary_polyline(dom, 1.0 / k)[0]) == 4 * k


def test_triangulate_requires_positive_h():
    with pytest.raises(InvalidArgumentError):
        triangulate(unit_square_domain(), 0.0)


def test_refine_counts():
    mesh = two_triangle_square()
    fine = refine(mesh)
    assert fine.n_triangles == 8
    assert fine.n_nodes == 9  # nodes + edges of the parent
    finer = refine(fine)
    assert finer.n_triangles == 32
    assert validate_mesh(finer) == []


def test_refine_numbers_midpoints_in_first_slot_order():
    nodes = two_triangle_square().nodes
    fine = refine(two_triangle_square())
    expected = [0.5 * (nodes[a] + nodes[b])
                for a, b in ((0, 1), (1, 2), (0, 2), (2, 3), (0, 3))]
    assert np.array_equal(fine.nodes[4:], expected)


def test_refine_rejects_interior_boundary_chord():
    mesh = two_triangle_square()
    mesh.boundary_edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
    mesh.boundary_labels = np.append(mesh.boundary_labels, 1)
    mesh.boundary_source = np.append(mesh.boundary_source, -1)
    with pytest.raises(InvalidArgumentError) as info:
        refine(mesh)
    assert info.value.invariant == "boundary-consistency"


@pytest.mark.parametrize("start", range(4))
def test_structured_grid_sources_follow_domain_edges(start):
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    dom = polygon_domain(corners[start:] + corners[:start], gamma0_edges={1})
    mesh = triangulate(dom, 0.3)
    assert validate_mesh(mesh, dom) == []
    for (a, b), src in zip(mesh.boundary_edges, mesh.boundary_source):
        p, q = dom.edge_endpoints(src)
        dx, dy = q - p
        for x, y in (mesh.nodes[a] - p, mesh.nodes[b] - p):
            assert abs(dx * y - dy * x) < 1e-14  # on the edge's line
            assert -1e-14 <= dx * x + dy * y <= dx * dx + dy * dy


def test_refine_preserves_labels_and_corners():
    dom = unit_square_domain(gamma0_edges=(0, 3))
    mesh = refine(triangulate(dom, 0.5))
    assert validate_mesh(mesh, dom) == []
    assert set(mesh.boundary_labels.tolist()) == {0, 1}
    parent = triangulate(dom, 0.5)
    assert np.array_equal(mesh.corner_nodes, parent.corner_nodes)


def test_l_shape_mesh():
    dom = polygon_domain([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                         gamma0_edges={0})
    mesh = triangulate(dom, 0.25)
    assert validate_mesh(mesh, dom) == []
    assert mesh.max_edge_length() <= 0.5 + 1e-12
    assert any(np.allclose(mesh.nodes[c], (1, 1)) for c in mesh.corner_nodes)
    assert abs(mesh.triangle_areas().sum() - 3.0) < 1e-10


def test_lens_chord_error_bound():
    h = 0.1
    dom = lens_domain(math.radians(30))
    mesh = triangulate(dom, h)
    assert validate_mesh(mesh, dom) == []
    for (a, b), src in zip(mesh.boundary_edges, mesh.boundary_source):
        e = dom.edges[src]
        for node in (mesh.nodes[a], mesh.nodes[b]):
            r = np.hypot(*(node - np.asarray(e.center)))
            assert r <= e.radius + 1e-9  # chords stay inside the circle
            assert e.radius - r <= h * h / (8 * e.radius) + 1e-12


@given(n=st.integers(min_value=3, max_value=8),
       seed=st.integers(min_value=0, max_value=5_000),
       h=st.sampled_from([0.2, 0.35, 0.6]))
@settings(max_examples=15, deadline=None)
def test_triangulate_validates_on_random_convex_polygons(n, seed, h):
    rng = np.random.default_rng(seed)
    dom = polygon_domain(random_convex_polygon(rng, n), gamma0_edges={0})
    mesh = triangulate(dom, h)
    assert validate_mesh(mesh, dom) == []
    area = abs(mesh.triangle_areas().sum())
    from platedecay._polygon import signed_area
    assert abs(area - signed_area(np.asarray(dom.vertices))) < 1e-10


def test_validate_reports_flipped_triangle():
    mesh = two_triangle_square()
    mesh.triangles = mesh.triangles.copy()
    mesh.triangles[1] = mesh.triangles[1][::-1]
    violations = validate_mesh(mesh)
    assert any(v.startswith("negative area: triangle 1") for v in violations)


def test_validate_reports_missing_corner():
    mesh = two_triangle_square()
    mesh.corner_nodes = np.array([0, 1, 2, 99])
    violations = validate_mesh(mesh)
    assert "corner P_3 has no mesh node" in violations


def test_validate_reports_boundary_mismatch():
    mesh = two_triangle_square()
    mesh.boundary_edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
    mesh.boundary_labels = np.append(mesh.boundary_labels, 1)
    mesh.boundary_source = np.append(mesh.boundary_source, -1)
    violations = validate_mesh(mesh)
    assert any("not a boundary edge" in v for v in violations)


def _reverse_first_chord(mesh):
    mesh.boundary_edges = np.array([[1, 0], [1, 2], [2, 3], [3, 0]])
    return mesh, None


def _relabel_first_chord(mesh):
    mesh.boundary_labels = np.array([1, 1, 1, 0])
    return mesh, unit_square_domain(gamma0_edges=(0, 3))


@pytest.mark.parametrize("make, expected", [
    (lambda: _reverse_first_chord(two_triangle_square()),
     "boundary edge (1, 0) has wrong orientation"),
    (lambda: (two_disjoint_triangles(), None),
     "boundary edges do not form a single closed loop"),
    (lambda: _relabel_first_chord(two_triangle_square()),
     "label mismatch on boundary edge 0"),
    (lambda: (two_disjoint_triangles(), None),
     "Euler relation violated: V-E+F = 2"),
], ids=["orientation", "loop", "label", "euler"])
def test_validate_reports_violation(make, expected):
    mesh, domain = make()
    assert expected in validate_mesh(mesh, domain)


def test_polygon_is_simple():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert polygon_is_simple(square)
    assert polygon_is_simple([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    assert not polygon_is_simple([(0, 0), (1, 1), (1, 0), (0, 1)])  # bow tie
    # touching at a vertex is not a proper crossing
    assert polygon_is_simple([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)])
    assert not polygon_is_simple(square + [(2, 0.5), (-1, 0.5)])


def test_mesh_file_roundtrip(tmp_path):
    dom = polygon_domain([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                         gamma0_edges={0, 5})
    mesh = triangulate(dom, 0.5)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_mesh(p1, mesh)
    back = read_mesh(p1)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(back.boundary_labels, mesh.boundary_labels)
    assert np.array_equal(back.corner_nodes, mesh.corner_nodes)
    assert np.array_equal(back.corner_gains, mesh.corner_gains)
    write_mesh(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_file_comments(tmp_path):
    mesh = two_triangle_square()
    path = tmp_path / "m.txt"
    write_mesh(path, mesh)
    text = "# a comment line\n" + path.read_text()
    path.write_text(text)
    back = read_mesh(path)
    assert validate_mesh(back) == []


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("\n1 ", "\n0 ", 1),  # node ids 0, 2, 3, ...
    lambda text: text.replace("\n2 ", "\n1 ", 1),  # node id 1 twice
    lambda text: text[:len(text) // 2],
    lambda text: text.replace("$Nodes 9", "$Nodes 9.0", 1),
    lambda text: text + "7\n",
], ids=["id-zero", "id-repeated", "truncated", "count-not-integer",
        "trailing-token"])
def test_mesh_file_refused(tmp_path, edit):
    # each edit was read without complaint (ids) or as a bare ValueError
    path = tmp_path / "m.txt"
    write_mesh(path, triangulate(unit_square_domain(), 0.5))
    assert path.read_text().startswith("$Nodes 9\n")
    path.write_text(edit(path.read_text()))
    with pytest.raises(InvalidArgumentError) as info:
        read_mesh(path)
    assert info.value.invariant == "mesh-format"


@pytest.mark.parametrize("old, new, expected", [
    ("$Corners 4\n1 ", "$Corners 4\n5 ", "corner P_0 is not a boundary node"),
    ("$Corners 4\n1 ", "$Corners 4\n7 ", "corner P_1 repeats corner P_0"),
    ("\n9 1\n", "\n9 nan\n", "corner P_2 has a non-finite gain"),
    ("\n9 1\n", "\n9 inf\n", "corner P_2 has a non-finite gain"),
    ("\n9 1\n", "\n9 -1\n", "corner P_2 has a negative gain"),
    ("\n5 0.5 ", "\n5 nan ", "node 4 has a non-finite coordinate"),
    ("\n5 0.5 ", "\n5 inf ", "node 4 has a non-finite coordinate"),
], ids=["corner-inside", "corner-twice", "gain-nan", "gain-inf",
        "gain-negative", "node-nan", "node-inf"])
def test_mesh_file_invariants_without_domain(tmp_path, old, new, expected):
    # each edit was read back and validated without complaint, or (node-inf)
    # with two RuntimeWarnings and a negative area
    path = tmp_path / "m.txt"
    write_mesh(path, triangulate(unit_square_domain(corner_gains=(0, 0, 1, 0)),
                                 0.5))
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert validate_mesh(read_mesh(path)) == [expected]


LENS_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "lens.json"
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
MIN_ANGLE_DEG = 15.0  # smallest measured: 17.3 on the 20 degree lens


def min_angle_deg(mesh):
    p = mesh.nodes[mesh.triangles]
    u = np.roll(p, -1, axis=1) - p
    v = np.roll(p, 1, axis=1) - p
    cos = np.sum(u * v, axis=2) / (np.linalg.norm(u, axis=2)
                                   * np.linalg.norm(v, axis=2))
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min())


def lens_config_domain():
    cfg = RunConfig.from_dict(json.loads(LENS_CONFIG.read_text()))
    return cfg.domain, cfg.mesh.h


@pytest.mark.parametrize("make", [
    lens_config_domain,
    *[lambda deg=deg, h=h: (lens_domain(math.radians(deg)), h)
      for deg in (20, 30, 45, 90) for h in (0.1, 0.05)],
    lambda: (polygon_domain(L_SHAPE, gamma0_edges={0}), 0.25),
    # no lattice node fits: without added centroids an edge is 2.15 h long
    lambda: (polygon_domain([(-0.216, 0.615), (-0.383, 0.527), (-0.651, -0.02),
                             (-0.577, -0.303), (-0.264, -0.596),
                             (0.391, -0.521)], gamma0_edges={0}), 0.35),
], ids=["lens-config"] + [f"lens-{d}-h{h}" for d in (20, 30, 45, 90)
                          for h in (0.1, 0.05)] + ["l-shape", "small-hexagon"])
def test_delaunay_mesh_quality(make):
    dom, h = make()
    mesh = triangulate(dom, h)
    assert validate_mesh(mesh, dom) == []
    assert mesh.max_edge_length() <= 2.0 * h
    assert min_angle_deg(mesh) >= MIN_ANGLE_DEG


def test_missing_boundary_chord_is_split():
    # a narrow asymmetric notch: its first triangulation lacks boundary chords
    dom = polygon_domain([(0, 0), (2, 0), (2, 2), (1.05, 2), (1, 0.3),
                          (0.98333, 1.9), (0, 2)], gamma0_edges={0})
    n_chords = sum(max(1, math.ceil(np.hypot(*(b - a)) / 0.25))
                   for a, b in map(dom.edge_endpoints, range(dom.n_corners)))
    mesh = triangulate(dom, 0.25)
    assert len(mesh.boundary_edges) > n_chords
    assert validate_mesh(mesh, dom) == []
    assert mesh.max_edge_length() <= 0.5


def test_slit_narrower_than_h_is_refused():
    # the slit's two sides are chorded out of step, so their chords keep
    # splitting until the round cap
    dom = polygon_domain([(0, 0), (2, 0), (2, 1), (0.3, 1), (0.2, 1.0001),
                          (1.93, 1.0001), (1.93, 2), (0, 2)], gamma0_edges={0})
    with pytest.raises(InvalidArgumentError) as info:
        triangulate(dom, 0.25)
    assert info.value.invariant == "mesh-rounds"



@pytest.mark.parametrize("seed, h", [(0, 0.2), (3, 0.2), (3, 0.35), (9, 0.35)])
def test_collinear_hull_points_mesh_exactly(seed, h):
    # straight edges chorded at h put collinear points on the convex hull;
    # without the far points Qhull gives these polygons flat triangles
    rng = np.random.default_rng(seed)
    vertices = random_convex_polygon(rng, int(rng.integers(3, 9)))
    dom = polygon_domain(vertices, gamma0_edges={0})
    mesh = triangulate(dom, h)
    assert validate_mesh(mesh, dom) == []
    assert abs(mesh.triangle_areas().sum() - signed_area(vertices)) < 1e-12


def test_inside_mask_keeps_margin_from_every_side():
    square = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    q = np.array([[0.5, 0.5], [0.5, 0.95], [0.5, 0.05], [0.05, 0.5],
                  [0.95, 0.5], [0.95, 0.95], [1.5, 0.5], [0.5, 1.05]])
    assert _inside(square, q, 0.1).tolist() == [True] + [False] * 7
    assert _inside(square, q).tolist() == [True] * 6 + [False] * 2
