"""Labeled triangulations of the domain.

Axis-aligned rectangles get a structured grid.  Every other domain is
meshed by Delaunay triangulation (scipy's Qhull) of the boundary polyline
and a hexagonal interior lattice, smoothed a fixed number of times, so the
triangles stay shape-regular on thin and curved domains.  Arcs are replaced
by chords whose sagitta stays below h^2/(8*radius); refinement splits
chords in place, so that bound is decided at polygonization time.

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

from ._polygon import polygon_is_simple
from .errors import InvalidArgumentError, InvalidGeometryError
from .geometry import GAMMA0, GAMMA1

# Delaunay mesher: lattice nodes keep LATTICE_CLEARANCE * h off the boundary;
# the fixed pass count keeps meshes bitwise reproducible; tested domains
# settle in SMOOTHING_PASSES + 2 rounds, MESH_ROUNDS stops narrower features.
LATTICE_CLEARANCE = 0.6
SMOOTHING_PASSES = 1
MESH_ROUNDS = 12


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

    def triangle_areas(self):
        p = self.nodes
        a = p[self.triangles[:, 0]]
        b = p[self.triangles[:, 1]]
        c = p[self.triangles[:, 2]]
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    def max_edge_length(self):
        e = self.edge_table.edges
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

    Raises ``boundary-consistency``, naming every offending edge, unless
    each edge has at most two owners and the edges with one owner are
    exactly the listed boundary chords, each listed once.
    """
    slots = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    edges, inverse, counts = np.unique(np.sort(slots, axis=1), axis=0,
                                       return_inverse=True, return_counts=True)
    inverse = inverse.ravel()  # slot 3 t + le -> edge
    by_edge = np.argsort(inverse, kind="stable")
    first = np.cumsum(counts) - counts
    second = by_edge[np.minimum(first + 1, len(by_edge) - 1)]
    slot = np.stack([by_edge[first], np.where(counts == 2, second, -1)], 1)

    n = max(mesh.n_nodes, int(mesh.boundary_edges.max(initial=-1)) + 1)
    key = edges @ [n, 1]
    bkey = np.sort(mesh.boundary_edges, axis=1) @ [n, 1]
    outer = key[counts == 1]
    listed, times = np.unique(bkey, return_counts=True)

    def pair(k):
        return "({}, {})".format(*divmod(int(k), n))

    problems = ([f"non-manifold edge {pair(k)}" for k in key[counts > 2]]
                + [f"boundary edge {pair(k)} is not a boundary edge of the "
                   "triangulation" for k in np.setdiff1d(listed, outer)]
                + [f"triangulation boundary edge {pair(k)} missing from "
                   "boundary list" for k in np.setdiff1d(outer, listed)]
                + [f"boundary edge {pair(k)} listed {t} times"
                   for k, t in zip(listed[times > 1], times[times > 1])])
    if problems:
        raise InvalidGeometryError("; ".join(problems),
                                   invariant="boundary-consistency")
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

def _cell_count(length, h):
    """ceil(length / h), at least 1, where a quotient within 4 ulps above an
    integer counts as that integer: h = length / k gives k cells."""
    n = length / h
    return max(1, math.ceil(n - 4.0 * math.ulp(n)))


def _boundary_polyline(domain, h):
    """Boundary points and each chord's source edge: arc chords keep their
    sagitta below h^2 / (8 r) and span at most pi / 3, straight edges split
    into ``_cell_count`` equal chords."""
    pts, src = [], []
    for i, e in enumerate(domain.edges):
        a, b = domain.edge_endpoints(i)
        if e.kind == "arc":
            t0, dt = domain.arc_sweep(i)
            ratio = h * h / (8.0 * e.radius * e.radius)
            theta = min(2.0 * math.acos(max(1.0 - ratio, 0.0)), math.pi / 3.0)
            n_sub = max(1, math.ceil(abs(dt) / theta))
            pts += [a] + [domain.arc_point(i, t0 + dt * k / n_sub)
                          for k in range(1, n_sub)]
        else:
            n_sub = _cell_count(math.hypot(*(b - a)), h)
            pts += [a + (b - a) * (k / n_sub) for k in range(n_sub)]
        src += [i] * n_sub
    return np.array(pts, dtype=float), np.array(src)


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
    nx = _cell_count(xmax - xmin, h)
    ny = _cell_count(ymax - ymin, h)
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)
    nid = np.arange(len(nodes)).reshape(nx + 1, ny + 1)

    # cell (i, j) splits along its diagonal into two triangles, cells in
    # row-major order
    n00, n10 = nid[:-1, :-1].ravel(), nid[1:, :-1].ravel()
    n01, n11 = nid[:-1, 1:].ravel(), nid[1:, 1:].ravel()
    triangles = np.stack([n00, n10, n11, n00, n11, n01], 1).reshape(-1, 3)

    # walk the grid boundary counterclockwise starting at (xmin, ymin)
    loop = np.concatenate([nid[:, 0], nid[nx, 1:], nid[nx - 1::-1, ny],
                           nid[0, ny - 1:0:-1]])
    bedges = np.stack([loop, np.roll(loop, -1)], 1)

    # the chords from corner i up to corner i + 1 lie on domain edge i
    corner_nodes = np.argmin(np.hypot(nodes[:, None, 0] - v[:, 0],
                                      nodes[:, None, 1] - v[:, 1]), axis=0)
    at = np.empty(len(nodes), dtype=int)
    at[loop] = np.arange(len(loop))
    pos = at[corner_nodes]
    order = np.argsort(pos)  # the loop starts at a corner: pos[order[0]] = 0
    source = np.repeat(order, np.diff(pos[order], append=len(loop)))
    labels = np.array([e.label for e in domain.edges])[source]
    return Mesh(nodes=nodes, triangles=triangles, boundary_edges=bedges,
                boundary_labels=labels, boundary_source=source,
                corner_nodes=corner_nodes,
                corner_gains=np.asarray(domain.corner_gains, dtype=float))


def _inside(loop, q, margin=0.0):
    """Mask of the points ``q`` inside the closed polyline ``loop`` (crossing
    number) and at least ``margin`` away from it.  Each chord looks only at
    the points within ``margin`` of its y-range, so memory stays linear."""
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


def triangulate(domain, h):
    """Conforming triangulation with maximum edge length at most 2h.

    Axis-aligned rectangles get a structured grid.  Other domains get the
    Delaunay triangles, centroid inside, of the boundary polyline and a
    hexagonal lattice (Persson & Strang, SIAM Review 46, 2004).  Until none
    applies, each round splits the boundary chords missing from the
    triangulation, else adds the centroids of triangles with an edge over
    2h, else moves the interior nodes by a Laplacian pass.

    ``scipy.spatial`` (Qhull) is imported in the Delaunay branch only, so a
    process that meshes nothing but rectangles never loads it.
    """
    if not h > 0:
        raise InvalidArgumentError("target edge length h must be positive",
                                   invariant="h-positive")
    if _rectangle_frame(domain) is not None:
        return _structured_rectangle(domain, h)
    from scipy.spatial import Delaunay

    loop, src = _boundary_polyline(domain, h)
    if not polygon_is_simple(loop):
        raise InvalidGeometryError(
            "non-simple polygon after arc approximation; decrease h",
            invariant="loop-simple")
    mid, half = 0.5 * (loop.max(axis=0) + loop.min(axis=0)), np.ptp(loop, 0) / 2
    dy = 0.5 * math.sqrt(3.0) * h  # row spacing of the hexagonal lattice
    ny, nx = int(half[1] / dy) + 1, int(half[0] / h) + 1
    j, k = np.mgrid[-ny:ny + 1, -nx:nx + 1]
    q = np.stack([mid[0] + h * (k + 0.5 * (j % 2)), mid[1] + dy * j], -1)
    q = q.reshape(-1, 2)
    inner = q[_inside(loop, q, LATTICE_CLEARANCE * h)]
    # far points keep the boundary off the convex hull, where Qhull would
    # give collinear boundary points flat triangles
    far = mid + 6.0 * half.max() * np.array([[-1, -1], [1, -1], [1, 1],
                                             [-1, 1]])
    passes = 0
    for _ in range(MESH_ROUNDS):
        n_b, nodes = len(loop), np.concatenate([loop, inner])
        tris = Delaunay(np.concatenate([nodes, far])).simplices  # all ccw
        tris = tris[np.all(tris < len(nodes), axis=1)]
        tris = tris[_inside(loop, nodes[tris].mean(axis=1))]
        # chord c -> c + 1 has the inside on its left, so it is present
        # exactly when it is a directed edge a -> b of a ccw triangle
        a, b = tris[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2).T
        chord = np.arange(n_b)
        missing = np.flatnonzero(~np.isin(
            chord * len(nodes) + (chord + 1) % n_b, a * len(nodes) + b))
        long = np.hypot(*(nodes[a] - nodes[b]).T).reshape(-1, 3) > 2.0 * h
        if len(missing):
            src = np.insert(src, missing + 1, src[missing])
            loop = np.insert(loop, missing + 1, 0.5 * (
                loop[missing] + loop[(missing + 1) % n_b]), axis=0)
        elif long.any():
            inner = np.concatenate([inner, nodes[tris[long.any(axis=1)]]
                                    .mean(axis=1)])
        elif passes < SMOOTHING_PASSES:
            # an interior node starts one directed edge per neighbour
            deg = np.bincount(a, minlength=len(nodes))
            inner = np.stack([np.bincount(a, nodes[b, c], len(nodes)) / deg
                              for c in (0, 1)], axis=1)[n_b:]
            passes += 1
        else:
            break
    else:
        raise InvalidGeometryError(
            f"mesher did not settle within {MESH_ROUNDS} rounds: the domain "
            "has a feature narrower than h resolves", invariant="mesh-rounds")
    return Mesh(nodes=nodes, triangles=tris,
                boundary_edges=np.stack([chord, (chord + 1) % n_b], axis=1),
                boundary_labels=np.array([domain.edges[s].label for s in src]),
                boundary_source=src,
                corner_nodes=np.searchsorted(src, np.arange(domain.n_corners)),
                corner_gains=np.asarray(domain.corner_gains, dtype=float))


def refine(mesh):
    """Uniform red refinement: every triangle splits into four.

    Edge midpoints are numbered after the parent's nodes, in the order of
    each edge's first slot ``3 t + le``; each boundary chord splits in two
    at its edge's midpoint and keeps its label and source.
    """
    table = mesh.edge_table
    edges = table.edges
    by_slot = np.argsort(3 * table.owner[:, 0] + table.owner_edge[:, 0])
    mid = np.empty(len(edges), dtype=int)
    mid[by_slot] = mesh.n_nodes + np.arange(len(edges))
    nodes = mesh.nodes
    midpoints = 0.5 * (nodes[edges[by_slot, 0]] + nodes[edges[by_slot, 1]])

    a, b, c = mesh.triangles.T
    mab, mbc, mca = mid[table.tri_edges].T
    children = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc,
                         mab, mbc, mca], 1).reshape(-1, 3)

    on = np.flatnonzero(table.chord >= 0)
    m = np.empty(len(mesh.boundary_edges), dtype=int)
    m[table.chord[on]] = mid[on]
    start, end = mesh.boundary_edges.T
    bedges = np.stack([start, m, m, end], 1).reshape(-1, 2)

    return Mesh(nodes=np.concatenate([nodes, midpoints]), triangles=children,
                boundary_edges=bedges,
                boundary_labels=np.repeat(mesh.boundary_labels, 2),
                boundary_source=np.repeat(mesh.boundary_source, 2),
                corner_nodes=mesh.corner_nodes.copy(),
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

    # edge usage: interior edges twice, boundary edges once; without a
    # consistent table, orientation and Euler are not checked
    try:
        table = mesh.edge_table
    except InvalidGeometryError as exc:
        out.append(str(exc))
        table = None

    # directed loop: boundary edges traverse counterclockwise, one cycle
    bedges = mesh.boundary_edges
    loop_ok = True
    if table is not None:
        on = np.flatnonzero(table.chord >= 0)
        j = table.chord[on]
        t, le = table.owner[on, 0], table.owner_edge[on, 0]
        owner_dir = np.stack([tris[t, le], tris[t, (le + 1) % 3]], 1)
        wrong = np.sort(j[np.any(owner_dir != bedges[j], axis=1)])
        for a, b in bedges[wrong].tolist():
            out.append(f"boundary edge ({a}, {b}) has wrong orientation")
        loop_ok = len(wrong) == 0
    succ = dict(bedges.tolist())
    start = cur = int(bedges[0, 0]) if len(bedges) else None
    visited = set()
    for _ in range(len(bedges)):
        visited.add(cur)
        cur = succ.get(cur)
    if not (loop_ok and cur == start and len(visited) == len(bedges) > 0):
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
        src = mesh.boundary_source
        expected = np.array([e.label for e in domain.edges])[src]
        for j in np.flatnonzero((src >= 0)
                                & (mesh.boundary_labels != expected)):
            out.append(f"label mismatch on boundary edge {j}")

    if table is not None:
        euler = n - len(table.edges) + mesh.n_triangles
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
    """The mesh in ``path`` as ``write_mesh`` writes it; a section short of
    its count of rows, an id column that is not 1..n in some order, or any
    token after the last section is refused (``mesh-format``)."""
    with open(path) as f:
        tokens = " ".join(line.split("#", 1)[0] for line in f).split()
    rows, pos = [], 0
    try:
        for section, width in (("$Nodes", 3), ("$Triangles", 4),
                               ("$BoundaryEdges", 4), ("$Corners", 2)):
            head = tokens[pos:pos + 2]  # a header and its row count
            if head[:1] != [section] or not "".join(head[1:]).isdigit():
                raise ValueError(f"expected {section} and a count, found "
                                 f"{' '.join(head)!r}")
            n = int(tokens[pos + 1])
            rows.append(np.array(tokens[pos + 2:pos + 2 + n * width],
                                 dtype=float).reshape(n, width))
            pos += 2 + n * width
        if pos != len(tokens):
            raise ValueError(f"{len(tokens) - pos} tokens after $Corners")
        # the first three sections lead each row with its 1-based id
        for section, r in zip(("$Nodes", "$Triangles", "$BoundaryEdges"),
                              rows):
            if not np.array_equal(np.sort(r[:, 0]), np.arange(1, len(r) + 1)):
                raise ValueError(f"{section} ids are not 1..{len(r)} once each")
    except (IndexError, ValueError) as exc:
        raise InvalidArgumentError(f"{path}: {exc}",
                                   invariant="mesh-format") from exc
    nodes, tris, bnd = (np.empty_like(r[:, 1:]) for r in rows[:3])
    for table, r in zip((nodes, tris, bnd), rows):
        table[r[:, 0].astype(int) - 1] = r[:, 1:]
    corners = rows[3]
    return Mesh(nodes=nodes, triangles=tris.astype(int) - 1,
                boundary_edges=bnd[:, :2].astype(int) - 1,
                boundary_labels=bnd[:, 2].astype(int),
                boundary_source=np.full(len(bnd), -1),
                corner_nodes=corners[:, 0].astype(int) - 1,
                corner_gains=corners[:, 1])
