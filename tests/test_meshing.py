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
from platedecay.meshing import (EdgeTable, Mesh, _boundary_polyline, _inside,
                                refine, triangulate, validate_mesh,
                                write_mesh)

from mesh_file import parse_mesh_file, with_parsed, written_arrays

SQUARE = unit_square_domain(gamma0_edges=(0, 3))


def two_triangle_square():
    return Mesh(domain=SQUARE,
                nodes=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                triangles=np.array([[0, 1, 2], [0, 2, 3]]),
                boundary_edges=np.array([[0, 1], [1, 2], [2, 3], [3, 0]]),
                boundary_source=np.array([0, 1, 2, 3]),
                corner_nodes=np.arange(4))


def two_disjoint_triangles():
    return Mesh(domain=SQUARE,
                nodes=np.array([[0.0, 0], [1, 0], [0, 1],
                                [3, 0], [4, 0], [3, 1]]),
                triangles=np.array([[0, 1, 2], [3, 4, 5]]),
                boundary_edges=np.array([[0, 1], [1, 2], [2, 0],
                                         [3, 4], [4, 5], [5, 3]]),
                boundary_source=np.zeros(6, dtype=int),
                corner_nodes=np.array([0, 3]))


def test_structured_square():
    dom = unit_square_domain(gamma0_edges=(0, 3))
    mesh = triangulate(dom, 0.5)
    assert mesh.n_triangles >= 8
    assert validate_mesh(mesh) == []
    assert np.allclose(mesh.nodes[mesh.corner_nodes], dom.vertices)
    # the edge table labels each chord with its source edge's label
    table = mesh.edge_table
    on = np.flatnonzero(table.chord >= 0)
    assert table.label[on].tolist() == [
        dom.edges[j].label for j in mesh.boundary_source[table.chord[on]]]


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
    mesh.boundary_source = np.append(mesh.boundary_source, 1)
    with pytest.raises(InvalidArgumentError) as info:
        refine(mesh)
    assert info.value.invariant == "boundary-consistency"


@pytest.mark.parametrize("start", range(4))
def test_structured_grid_sources_follow_domain_edges(start):
    corners = [(0, 0), (1, 0), (1, 1), (0, 1)]
    dom = polygon_domain(corners[start:] + corners[:start], gamma0_edges={1})
    mesh = triangulate(dom, 0.3)
    assert validate_mesh(mesh) == []
    for (a, b), src in zip(mesh.boundary_edges, mesh.boundary_source):
        p, q = dom.edge_endpoints(src)
        dx, dy = q - p
        for x, y in (mesh.nodes[a] - p, mesh.nodes[b] - p):
            assert abs(dx * y - dy * x) < 1e-14  # on the edge's line
            assert -1e-14 <= dx * x + dy * y <= dx * dx + dy * dy


def test_refine_preserves_labels_and_corners():
    dom = unit_square_domain(gamma0_edges=(0, 3))
    mesh = refine(triangulate(dom, 0.5))
    assert validate_mesh(mesh) == []
    assert set(mesh.edge_table.label.tolist()) == {-1, 0, 1}
    parent = triangulate(dom, 0.5)
    assert np.array_equal(mesh.corner_nodes, parent.corner_nodes)


def test_l_shape_mesh():
    dom = polygon_domain([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
                         gamma0_edges={0})
    mesh = triangulate(dom, 0.25)
    assert validate_mesh(mesh) == []
    assert mesh.max_edge_length() <= 0.5 + 1e-12
    assert any(np.allclose(mesh.nodes[c], (1, 1)) for c in mesh.corner_nodes)
    assert abs(mesh.triangle_areas().sum() - 3.0) < 1e-10


def test_lens_chord_error_bound():
    h = 0.1
    dom = lens_domain(math.radians(30))
    mesh = triangulate(dom, h)
    assert validate_mesh(mesh) == []
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
    assert validate_mesh(mesh) == []
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
    mesh.boundary_source = np.append(mesh.boundary_source, 1)
    violations = validate_mesh(mesh)
    assert any("not a boundary edge" in v for v in violations)


def square_with(**fields):
    mesh = two_triangle_square()
    for name, value in fields.items():
        setattr(mesh, name, np.array(value))
    return mesh


@pytest.mark.parametrize("make, expected", [
    (lambda: square_with(boundary_edges=[[1, 0], [1, 2], [2, 3], [3, 0]]),
     "boundary edge (1, 0) has wrong orientation"),
    (two_disjoint_triangles, "boundary edges do not form a single closed loop"),
    (two_disjoint_triangles, "Euler relation violated: V-E+F = 2"),
    # a corner count other than the domain's is named before any corner
    # is compared with a vertex
    (lambda: square_with(corner_nodes=[0, 1, 2, 3, 0]),
     "5 corners for the domain's 4 corners"),
    (lambda: square_with(corner_nodes=[0, 1, 2]),
     "3 corners for the domain's 4 corners"),
    # a source outside 0..p-1 is named, not wrapped onto an edge
    (lambda: square_with(boundary_source=[0, 1, 2, -1]),
     "boundary edge 3 has source -1 outside 0..3"),
    (lambda: square_with(boundary_source=[0, 1, 2, 4]),
     "boundary edge 3 has source 4 outside 0..3"),
], ids=["orientation", "loop", "euler", "corner-count-5", "corner-count-3",
        "source-negative", "source-past-end"])
def test_validate_reports_violation(make, expected):
    assert expected in validate_mesh(make())


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
    parsed = parse_mesh_file(p1.read_text())
    for field, array in written_arrays(mesh).items():
        assert np.array_equal(parsed[field], array), field
    write_mesh(p2, with_parsed(mesh, parsed))
    assert p1.read_bytes() == p2.read_bytes()


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
    assert validate_mesh(mesh) == []
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
    assert validate_mesh(mesh) == []
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
    assert validate_mesh(mesh) == []
    assert abs(mesh.triangle_areas().sum() - signed_area(vertices)) < 1e-12


def test_inside_mask_keeps_margin_from_every_side():
    square = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    q = np.array([[0.5, 0.5], [0.5, 0.95], [0.5, 0.05], [0.05, 0.5],
                  [0.95, 0.5], [0.95, 0.95], [1.5, 0.5], [0.5, 1.05]])
    assert _inside(square, q, 0.1).tolist() == [True] + [False] * 7
    assert _inside(square, q).tolist() == [True] * 6 + [False] * 2


def inside_one_chord_at_a_time(loop, q, margin=0.0):
    """``_inside`` by a loop over the chords, each over its band of points."""
    order = np.argsort(q[:, 1], kind="stable")
    x, y = q[order, 0], q[order, 1]
    inside, near = np.zeros((2, len(q)), dtype=bool)
    for (ax, ay), (bx, by) in zip(loop.tolist(),
                                  np.roll(loop, -1, axis=0).tolist()):
        band = slice(np.searchsorted(y, min(ay, by) - margin),
                     np.searchsorted(y, max(ay, by) + margin, side="right"))
        xb, yb, dx, dy = x[band], y[band], bx - ax, by - ay
        s = (ay > yb) != (by > yb)
        inside[band][s] ^= xb[s] < ax + (yb[s] - ay) * dx / dy
        t = np.clip(((xb - ax) * dx + (yb - ay) * dy) / (dx * dx + dy * dy),
                    0.0, 1.0)
        near[band] |= np.hypot(xb - ax - t * dx, yb - ay - t * dy) < margin
    keep = np.empty(len(q), dtype=bool)
    keep[order] = inside & ~near
    return keep


@pytest.mark.parametrize("make", [
    *[lambda deg=deg, h=h: _boundary_polyline(lens_domain(math.radians(deg)),
                                              h)[0]
      for deg in (20, 90) for h in (0.15, 0.03)],
    lambda: np.array(L_SHAPE, dtype=float),
    lambda: np.array(random_convex_polygon(np.random.default_rng(3), 9)),
], ids=["lens-20-h0.15", "lens-20-h0.03", "lens-90-h0.15", "lens-90-h0.03",
        "l-shape", "convex"])
@pytest.mark.parametrize("margin", [0.0, 0.02, 0.1])
def test_inside_mask_matches_one_chord_at_a_time(make, margin):
    """All (chord, point) pairs at once give the loop's mask, also at the
    loop's vertices and chord midpoints and on the vertices' heights."""
    loop = make()
    rng = np.random.default_rng(0)
    lo, hi = loop.min(axis=0) - 0.1, loop.max(axis=0) + 0.1
    q = lo + (hi - lo) * rng.random((400, 2))
    q = np.concatenate([q, loop, 0.5 * (loop + np.roll(loop, -1, axis=0)),
                        np.stack([q[:len(loop), 0], loop[:, 1]], axis=1)])
    assert np.array_equal(_inside(loop, q, margin),
                          inside_one_chord_at_a_time(loop, q, margin))


def reference_edge_table(mesh):
    """The edge table from numpy's unique over the sorted slot rows and a
    loop over the slots and the boundary chords."""
    slots = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    edges, inverse = np.unique(np.sort(slots, axis=1), axis=0,
                               return_inverse=True)
    inverse = inverse.ravel()
    owners = [[] for _ in edges]
    for s, e in enumerate(inverse.tolist()):
        owners[e].append(s)
    slot = np.array([o + [-1] * (2 - len(o)) for o in owners], dtype=np.intp)
    index = {tuple(e): k for k, e in enumerate(edges.tolist())}
    chord, label = np.full((2, len(edges)), -1)
    for j, (a, b) in enumerate(mesh.boundary_edges.tolist()):
        k = index[min(a, b), max(a, b)]
        chord[k] = j
        label[k] = mesh.domain.edges[mesh.boundary_source[j]].label
    return EdgeTable(edges, inverse.reshape(-1, 3), slot // 3,
                     np.where(slot >= 0, slot % 3, -1), chord, label)


def config_mesh(name, **mesh):
    data = json.loads((LENS_CONFIG.parent / f"{name}.json").read_text())
    data["mesh"].update(mesh)
    cfg = RunConfig.from_dict(data)
    out = triangulate(cfg.domain, cfg.mesh.h)
    for _ in range(cfg.mesh.refinements):
        out = refine(out)
    return out


@pytest.mark.parametrize("mesh", [
    dict(name="square", h=0.125), dict(name="square", degree=3),
    dict(name="lens"), dict(name="lens", refinements=1),
], ids=["square-h8", "square-p3", "lens", "lens-refined"])
def test_edge_table_matches_row_unique_reference(mesh):
    """Every array of the edge table, value and dtype: the Delaunay lens's
    edges keep its int32 triangles' dtype."""
    mesh = config_mesh(**mesh)
    for name, got, want in zip(EdgeTable._fields, mesh.edge_table,
                               reference_edge_table(mesh)):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
