"""Small planar-polygon helpers shared by geometry, meshing and plate_forms.

All polygons are arrays of shape (n, 2) listing vertices once, in order,
without repeating the first vertex at the end.
"""

import numpy as np

from .errors import InvalidGeometryError


def signed_area(points):
    """Shoelace signed area; positive for counterclockwise loops."""
    p = np.asarray(points, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def polygon_is_simple(points):
    """Check that no two non-adjacent polygon edges properly cross (shared
    endpoints and touching are ignored)."""
    p = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = p[:, :1], p[:, 1:]
    dx, dy = np.roll(x, -1) - x, np.roll(y, -1) - y
    # side[i, j] = _orient(p[i], p[i + 1], p[j]); head[i, j] takes p[j + 1]
    side = dx * (y.T - y) - dy * (x.T - x)
    head = np.roll(side, -1, axis=1)
    cross = (side * head < 0) & (side.T * head.T < 0)
    n = len(p)
    non_adjacent = np.triu(np.ones((n, n), dtype=bool), k=2)
    non_adjacent &= ~np.eye(n, k=n - 1, dtype=bool)  # last edge meets first
    return not np.any(cross & non_adjacent)


def _point_in_triangle(pt, a, b, c, eps):
    d1 = _orient(a, b, pt)
    d2 = _orient(b, c, pt)
    d3 = _orient(c, a, pt)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def ear_clip(points):
    """Triangulate a simple CCW polygon by ear clipping.

    Returns a list of index triples into ``points``, each CCW.  Raises
    InvalidGeometryError when no ear can be found (degenerate input).
    """
    p = np.asarray(points, dtype=float)
    n = len(p)
    if n < 3:
        raise InvalidGeometryError("polygon needs at least 3 vertices",
                                   invariant="polygon-size")
    if signed_area(p) <= 0:
        raise InvalidGeometryError("polygon must be counterclockwise",
                                   invariant="polygon-orientation")
    scale = float(np.max(np.abs(p))) or 1.0
    eps = 1e-12 * scale * scale

    idx = list(range(n))
    triangles = []
    while len(idx) > 3:
        clipped = False
        m = len(idx)
        for k in range(m):
            i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            a, b, c = p[i0], p[i1], p[i2]
            if _orient(a, b, c) <= eps:
                continue  # reflex or flat corner, not an ear
            blocked = False
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if _point_in_triangle(p[j], a, b, c, eps):
                    blocked = True
                    break
            if not blocked:
                triangles.append((i0, i1, i2))
                del idx[k]
                clipped = True
                break
        if not clipped:
            raise InvalidGeometryError(
                "ear clipping stuck: polygon is degenerate or self-intersecting",
                invariant="polygon-simple")
    triangles.append(tuple(idx))
    return triangles


def random_convex_polygon(rng, n_vertices, radius=1.0, center=(0.0, 0.0)):
    """Random convex CCW polygon: sorted angles on a jittered circle."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    # enforce minimal angular separation so no edge degenerates
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.05:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    r = radius * rng.uniform(0.5, 1.5)
    pts = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    return pts + np.asarray(center, dtype=float)
