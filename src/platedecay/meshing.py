"""Labeled triangulations of the domain.

Mesh generation is deliberately simple and dependency-free: a structured
grid for axis-aligned rectangles, otherwise ear clipping of the (arc-
approximating) boundary polyline followed by uniform red refinement until
the target edge length is met.  Arcs are replaced by chords whose sagitta
stays below h^2/(8*radius); refinement splits chords in place, so that
bound is decided at polygonization time.  Ear-clip quality is whatever the
polygon allows; meshes for quality-critical studies can be produced
externally and ingested through the ASCII format below.

ASCII mesh format (1-based ids, whitespace separated, '#' comments):

    $Nodes <n>
    <id> <x> <y>
    $Triangles <m>
    <id> <v1> <v2> <v3>
    $BoundaryEdges <k>
    <id> <v1> <v2> <label 0|1>
    $Corners <p>
    <vertex-node-id> <k_i>
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._polygon import ear_clip, polygon_is_simple, signed_area
from .errors import InvalidArgumentError, InvalidGeometryError
from .geometry import GAMMA0, GAMMA1


@dataclass
class Mesh:
    """Triangulation with labeled boundary loop and tracked domain corners.

    Treat instances as immutable once built (the edge table is cached);
    refinement returns new meshes.
    ``boundary_source`` holds the originating domain-edge index per boundary
    chord (-1 when unknown, e.g. after file ingestion).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: np.ndarray
    boundary_source: np.ndarray
    corner_nodes: np.ndarray
    corner_gains: np.ndarray

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @cached_property
    def edge_table(self):
        """The mesh's ``EdgeTable``, worked out once per mesh."""
        return build_edge_table(self)

    def edge_set(self):
        """Unique undirected triangle edges as sorted pairs."""
        return self.edge_table.edges

    def triangle_areas(self):
        p = self.nodes
        a = p[self.triangles[:, 0]]
        b = p[self.triangles[:, 1]]
        c = p[self.triangles[:, 2]]
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    def max_edge_length(self):
        e = self.edge_set()
        d = self.nodes[e[:, 0]] - self.nodes[e[:, 1]]
        return float(np.max(np.hypot(d[:, 0], d[:, 1])))


class EdgeTable(NamedTuple):
    """Edge topology of a triangulation; every array is read-only.

    Local edge ``le`` of triangle ``t`` runs from ``triangles[t, le]`` to
    ``triangles[t, (le + 1) % 3]``.  Owners are listed in triangle order;
    a boundary edge has one owner and ``-1`` in the second column.
    """

    edges: np.ndarray       # (n_edges, 2) sorted pairs, lexicographic order
    tri_edges: np.ndarray   # (n_tri, 3) edge index of each local edge
    owner: np.ndarray       # (n_edges, 2) owning triangles
    owner_edge: np.ndarray  # (n_edges, 2) local edge index in each owner
    chord: np.ndarray       # (n_edges,) row of boundary_edges, -1 inside
    label: np.ndarray       # (n_edges,) boundary label, -1 inside


def build_edge_table(mesh):
    """Edges, triangle-to-edge index and edge owners of ``mesh``.

    Raises ``boundary-consistency`` unless the edges with one owner are
    exactly the listed boundary chords.
    """
    slots = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    edges, inverse, counts = np.unique(np.sort(slots, axis=1), axis=0,
                                       return_inverse=True, return_counts=True)
    inverse = inverse.ravel()  # slot 3 t + le -> edge
    by_edge = np.argsort(inverse, kind="stable")
    first = np.cumsum(counts) - counts
    second = by_edge[np.minimum(first + 1, len(by_edge) - 1)]
    slot = np.stack([by_edge[first], np.where(counts == 2, second, -1)], 1)

    n = mesh.n_nodes
    key = edges @ [n, 1]
    bkey = np.sort(mesh.boundary_edges, axis=1) @ [n, 1]
    outer = key[counts == 1]
    odd = np.setxor1d(bkey, outer)
    if len(odd) or len(bkey) != len(outer) or np.any(counts > 2):
        where = f" at edge {divmod(int(odd[0]), n)}" if len(odd) else ""
        raise InvalidGeometryError(
            "boundary edges differ from the triangulation's one-owner edges"
            + where, invariant="boundary-consistency")
    chord = np.full(len(edges), -1)
    chord[np.searchsorted(key, bkey)] = np.arange(len(bkey))
    label = np.where(chord >= 0, mesh.boundary_labels[chord], -1)
    table = EdgeTable(edges, inverse.reshape(-1, 3), slot // 3,
                      np.where(slot >= 0, slot % 3, -1), chord, label)
    for arr in table:
        arr.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _arc_chord_count(domain, i, h):
    """Number of chords so the sagitta stays below h^2 / (8 r)."""
    e = domain.edges[i]
    _, dt = domain.arc_sweep(i)
    ratio = h * h / (8.0 * e.radius * e.radius)
    if ratio >= 1.0:
        theta_max = math.pi / 3.0
    else:
        theta_max = min(2.0 * math.acos(1.0 - ratio), math.pi / 3.0)
    return max(1, int(math.ceil(abs(dt) / theta_max)))


def _boundary_polyline(domain, h):
    """Chord points of the whole boundary with per-chord source edge index."""
    pts, src, corner_idx = [], [], []
    for i in range(domain.n_corners):
        corner_idx.append(len(pts))
        e = domain.edges[i]
        a, _ = domain.edge_endpoints(i)
        pts.append(np.asarray(a, dtype=float))
        src.append(i)
        if e.kind == "arc":
            t0, dt = domain.arc_sweep(i)
            n_sub = _arc_chord_count(domain, i, h)
            for k in range(1, n_sub):
                pts.append(domain.arc_point(i, t0 + dt * k / n_sub))
                src.append(i)
    return np.array(pts), np.array(src, dtype=int), np.array(corner_idx, dtype=int)


def _rectangle_frame(domain):
    """Detect an axis-aligned rectangle; returns corner order or None."""
    if domain.n_corners != 4 or not domain.is_straight():
        return None
    v = np.asarray(domain.vertices, dtype=float)
    for i in range(4):
        d = v[(i + 1) % 4] - v[i]
        if abs(d[0]) > 1e-14 and abs(d[1]) > 1e-14:
            return None
    return v


def _structured_rectangle(domain, h):
    v = _rectangle_frame(domain)
    xmin, ymin = v.min(axis=0)
    xmax, ymax = v.max(axis=0)
    nx = max(1, int(math.ceil((xmax - xmin) / h)))
    ny = max(1, int(math.ceil((ymax - ymin) / h)))
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    triangles = np.array(tris, dtype=int)

    # walk the grid boundary counterclockwise starting at (xmin, ymin)
    loop = [nid(i, 0) for i in range(nx + 1)]
    loop += [nid(nx, j) for j in range(1, ny + 1)]
    loop += [nid(i, ny) for i in range(nx - 1, -1, -1)]
    loop += [nid(0, j) for j in range(ny - 1, 0, -1)]
    bedges = np.array([(loop[k], loop[(k + 1) % len(loop)])
                       for k in range(len(loop))], dtype=int)

    # map each chord to the domain edge containing it
    labels = np.empty(len(bedges), dtype=int)
    source = np.empty(len(bedges), dtype=int)
    for k, (a, b) in enumerate(bedges):
        mid = 0.5 * (nodes[a] + nodes[b])
        source[k] = _segment_containing(domain, mid)
        labels[k] = domain.edges[source[k]].label

    corner_nodes = np.array([int(np.argmin(np.hypot(nodes[:, 0] - cx,
                                                    nodes[:, 1] - cy)))
                             for cx, cy in domain.vertices], dtype=int)
    return Mesh(nodes=nodes, triangles=triangles, boundary_edges=bedges,
                boundary_labels=labels, boundary_source=source,
                corner_nodes=corner_nodes,
                corner_gains=np.asarray(domain.corner_gains, dtype=float))


def _segment_containing(domain, point):
    for i in range(domain.n_corners):
        a, b = domain.edge_endpoints(i)
        ab = b - a
        L2 = float(ab @ ab)
        t = float((point - a) @ ab) / L2
        cross = abs((point[0] - a[0]) * ab[1] - (point[1] - a[1]) * ab[0])
        if -1e-12 <= t <= 1.0 + 1e-12 and cross <= 1e-10 * math.sqrt(L2):
            return i
    raise InvalidGeometryError(f"boundary point {point} lies on no domain edge",
                               invariant="boundary-labels")


def triangulate(domain, h, max_refinements=30):
    """Conforming triangulation with maximum edge length at most 2h.

    Axis-aligned rectangles get a structured grid; everything else is
    ear-clipped from the boundary polyline and red-refined to size.
    """
    if not h > 0:
        raise InvalidArgumentError("target edge length h must be positive",
                                   invariant="h-positive")
    if _rectangle_frame(domain) is not None:
        return _structured_rectangle(domain, h)

    pts, src, corner_idx = _boundary_polyline(domain, h)
    if not polygon_is_simple(pts):
        raise InvalidGeometryError(
            "non-simple polygon after arc approximation; decrease h",
            invariant="loop-simple")
    tris = np.array(ear_clip(pts), dtype=int)
    n_b = len(pts)
    bedges = np.array([(k, (k + 1) % n_b) for k in range(n_b)], dtype=int)
    mesh = Mesh(nodes=pts, triangles=tris, boundary_edges=bedges,
                boundary_labels=np.array([domain.edges[s].label for s in src]),
                boundary_source=src.copy(),
                corner_nodes=corner_idx,
                corner_gains=np.asarray(domain.corner_gains, dtype=float))
    for _ in range(max_refinements):
        if mesh.max_edge_length() <= 2.0 * h:
            return mesh
        mesh = refine(mesh)
    raise InvalidArgumentError(
        f"edge target h = {h} not reached within {max_refinements} refinements",
        invariant="refinement-budget")


def refine(mesh):
    """Uniform red refinement: every triangle splits into four."""
    nodes = mesh.nodes
    tris = mesh.triangles
    midpoint = {}
    new_nodes = [nodes]
    next_id = len(nodes)

    def mid(a, b):
        nonlocal next_id
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = next_id
            new_nodes.append(0.5 * (nodes[key[0]] + nodes[key[1]])[None, :])
            next_id += 1
        return midpoint[key]

    children = np.empty((4 * len(tris), 3), dtype=int)
    for t, (a, b, c) in enumerate(tris):
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        children[4 * t + 0] = (a, mab, mca)
        children[4 * t + 1] = (b, mbc, mab)
        children[4 * t + 2] = (c, mca, mbc)
        children[4 * t + 3] = (mab, mbc, mca)

    k = len(mesh.boundary_edges)
    bedges = np.empty((2 * k, 2), dtype=int)
    labels = np.empty(2 * k, dtype=int)
    source = np.empty(2 * k, dtype=int)
    for j, (a, b) in enumerate(mesh.boundary_edges):
        m = mid(int(a), int(b))
        bedges[2 * j] = (a, m)
        bedges[2 * j + 1] = (m, b)
        labels[2 * j] = labels[2 * j + 1] = mesh.boundary_labels[j]
        source[2 * j] = source[2 * j + 1] = mesh.boundary_source[j]

    return Mesh(nodes=np.concatenate(new_nodes, axis=0), triangles=children,
                boundary_edges=bedges, boundary_labels=labels,
                boundary_source=source, corner_nodes=mesh.corner_nodes.copy(),
                corner_gains=mesh.corner_gains.copy())


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_mesh(mesh, domain=None):
    """Collect invariant violations; empty list means the mesh is valid."""
    out = []
    n = mesh.n_nodes
    tris = mesh.triangles

    if np.any(tris < 0) or np.any(tris >= n):
        out.append("triangle node index out of range")
        return out

    areas = mesh.triangle_areas()
    for t in np.nonzero(areas <= 0)[0]:
        out.append(f"negative area: triangle {t}")

    # edge usage: interior edges twice, boundary edges once
    pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    spairs = np.sort(pairs, axis=1)
    uniq, counts = np.unique(spairs, axis=0, return_counts=True)
    if np.any(counts > 2):
        for e in uniq[counts > 2]:
            out.append(f"non-manifold edge ({e[0]}, {e[1]})")
    tri_boundary = {tuple(e) for e in uniq[counts == 1]}
    listed = {tuple(sorted(e)) for e in mesh.boundary_edges.tolist()}
    for e in sorted(listed - tri_boundary):
        out.append(f"boundary edge {e} is not a boundary edge of the triangulation")
    for e in sorted(tri_boundary - listed):
        out.append(f"triangulation boundary edge {e} missing from boundary list")

    # directed loop: boundary edges traverse counterclockwise, one cycle
    directed = {tuple(e) for e in pairs.tolist()}
    succ = {}
    loop_ok = True
    for (a, b) in mesh.boundary_edges.tolist():
        if (a, b) not in directed:
            out.append(f"boundary edge ({a}, {b}) has wrong orientation")
            loop_ok = False
        if a in succ:
            loop_ok = False
        succ[a] = b
    if loop_ok and len(succ) == len(mesh.boundary_edges) and succ:
        start = next(iter(succ))
        seen, cur = 0, start
        while seen < len(succ):
            if cur not in succ:
                loop_ok = False
                break
            cur = succ[cur]
            seen += 1
        loop_ok = loop_ok and cur == start
    else:
        loop_ok = False
    if not loop_ok:
        out.append("boundary edges do not form a single closed loop")

    if np.any(~np.isin(mesh.boundary_labels, (GAMMA0, GAMMA1))):
        out.append("boundary label outside {0, 1}")

    for i, c in enumerate(mesh.corner_nodes.tolist()):
        if c < 0 or c >= n:
            out.append(f"corner P_{i} has no mesh node")
        elif domain is not None:
            vx, vy = domain.vertices[i]
            if math.hypot(mesh.nodes[c, 0] - vx, mesh.nodes[c, 1] - vy) > 1e-9:
                out.append(f"corner P_{i} has no mesh node")

    if domain is not None:
        for j, s in enumerate(mesh.boundary_source.tolist()):
            if s >= 0 and mesh.boundary_labels[j] != domain.edges[s].label:
                out.append(f"label mismatch on boundary edge {j}")

    n_edges = len(uniq)
    euler = n - n_edges + mesh.n_triangles
    if euler != 1:
        out.append(f"Euler relation violated: V-E+F = {euler}")
    return out


# ---------------------------------------------------------------------------
# ASCII format
# ---------------------------------------------------------------------------

def write_mesh(path, mesh):
    with open(path, "w") as f:
        f.write(f"$Nodes {mesh.n_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes, start=1):
            f.write(f"{i} {x:.17g} {y:.17g}\n")
        f.write(f"$Triangles {mesh.n_triangles}\n")
        for i, (a, b, c) in enumerate(mesh.triangles + 1, start=1):
            f.write(f"{i} {a} {b} {c}\n")
        f.write(f"$BoundaryEdges {len(mesh.boundary_edges)}\n")
        for i, ((a, b), lab) in enumerate(
                zip(mesh.boundary_edges + 1, mesh.boundary_labels), start=1):
            f.write(f"{i} {a} {b} {lab}\n")
        f.write(f"$Corners {len(mesh.corner_nodes)}\n")
        for c, g in zip(mesh.corner_nodes + 1, mesh.corner_gains):
            f.write(f"{c} {g:.17g}\n")


def read_mesh(path):
    tokens = []
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    pos = 0

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(section):
        tok = take()
        if tok != section:
            raise InvalidArgumentError(f"expected {section}, found {tok!r}",
                                       invariant="mesh-format")

    expect("$Nodes")
    n = int(take())
    nodes = np.empty((n, 2))
    for _ in range(n):
        i = int(take()) - 1
        nodes[i] = (float(take()), float(take()))
    expect("$Triangles")
    m = int(take())
    tris = np.empty((m, 3), dtype=int)
    for _ in range(m):
        i = int(take()) - 1
        tris[i] = (int(take()) - 1, int(take()) - 1, int(take()) - 1)
    expect("$BoundaryEdges")
    k = int(take())
    bedges = np.empty((k, 2), dtype=int)
    labels = np.empty(k, dtype=int)
    for _ in range(k):
        i = int(take()) - 1
        bedges[i] = (int(take()) - 1, int(take()) - 1)
        labels[i] = int(take())
    expect("$Corners")
    p = int(take())
    corners = np.empty(p, dtype=int)
    gains = np.empty(p)
    for j in range(p):
        corners[j] = int(take()) - 1
        gains[j] = float(take())
    return Mesh(nodes=nodes, triangles=tris, boundary_edges=bedges,
                boundary_labels=labels, boundary_source=np.full(k, -1, dtype=int),
                corner_nodes=corners, corner_gains=gains)
